"""The gate module: every ``make`` gate is one ``run_*`` function here.

Each gate runs its workload, raises :class:`AssertionError` when a check
fails, and returns its payload; the smokes (``run_scenarios_smoke``,
``run_serve_smoke``, ``run_chaos_smoke``, ``run_fabric_smoke``) instead run
every case and return the failures they collected next to their rows.  With
``json_path`` a gate writes its payload through :func:`write_bench_json`, the
one writer of the ``BENCH_*.json`` files: it stamps the environment, merges a
section into the file and appends the file's one ``"runs"`` trend series.
``repro.cli`` only parses the arguments, calls a gate and prints its table.

The batched dispatch engine (:mod:`repro.dispatch.allocation`) is a pure
hot-path optimisation — it must not change any computed optimum.  This module
pins three small instances together with their optimal costs as computed by
the original (pre-engine) implementation; ``python -m repro bench --smoke``
(or ``make bench-smoke``) re-solves them and fails loudly if any cost drifts
by more than ``1e-6``.

The three instances deliberately exercise the engine's three code paths:

* ``smoke-diurnal`` — time-independent costs, so slot deduplication by
  ``(demand, cost-row)`` signature applies,
* ``smoke-priced`` — time-dependent operating costs (Section 3), one cost row
  per slot, grouped-by-row vectorised dispatch,
* ``smoke-counts`` — time-dependent fleet sizes (Section 4.3), several grids
  per horizon, per-grid dispatch blocks.

``run_sweep_bench`` (``python -m repro bench --sweep`` / ``make perf-regress``)
is the analogous gate for the shared-context *sweep engine*: it runs the
combined THM8+13+15+22 competitive-ratio workload twice — once with the PR-1
style sequential orchestration (private solver and trackers per run) and once
through :func:`repro.exp.run_plan` — asserts both agree with each other
(1e-9) and with the pinned PR-1 costs (1e-6), and records the wall times in
``BENCH_sweep.json``.  Wall times are advisory; only cost fields gate.

The harness also reports wall times, states explored and the engine's
cache-hit rate, and can emit the numbers as JSON for trend tracking.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core.instance import ProblemInstance
from .dispatch.allocation import DispatchSolver
from .offline.graph_approx import solve_approx
from .offline.graph_optimal import solve_optimal
from .online.algorithm_a import AlgorithmA
from .online.algorithm_b import AlgorithmB
from .online.algorithm_c import AlgorithmC
from .online.base import run_online
from .scenarios import ScenarioSpec, build as build_scenario
from .serve.verify import assert_same
from .workloads import bursty_trace, cpu_gpu_fleet, diurnal_trace, fleet_instance, old_new_fleet

__all__ = [
    "PINNED_OPTIMAL_COSTS",
    "PERFBENCH_WORKLOADS",
    "PINNED_SERVE_COUNTERS",
    "PINNED_SWEEP_COSTS",
    "run_batch_scale_bench",
    "run_batch_smoke",
    "run_chaos_smoke",
    "run_counter_regress",
    "run_fabric_bench",
    "run_fabric_smoke",
    "record_perfbench_run",
    "run_latency_smoke",
    "run_perfbench_bench",
    "run_scale_bench",
    "run_scenarios_smoke",
    "run_serve_bench",
    "run_serve_smoke",
    "run_smoke_bench",
    "run_sweep_bench",
    "trend_deltas",
    "trend_report",
    "write_bench_json",
    "smoke_instances",
    "sweep_suite",
    "thm8_scenarios",
    "thm8_specs",
    "thm13_scenarios",
    "thm13_specs",
    "thm15_instance",
    "thm15_spec",
    "thm22_instance",
    "thm22_spec",
]

#: Optimal costs of the pinned instances, computed with the seed (pre-engine)
#: implementation.  The DP must keep reproducing these exactly (tol 1e-6).
PINNED_OPTIMAL_COSTS: Dict[str, float] = {
    "smoke-diurnal": 269.9391201523013,
    "smoke-priced": 166.75819719190875,
    "smoke-counts": 187.90000000000003,
}


def smoke_instances() -> List[ProblemInstance]:
    """The three pinned regression instances (deterministic by construction)."""
    diurnal = fleet_instance(
        cpu_gpu_fleet(cpu_count=5, gpu_count=2),
        diurnal_trace(24, period=12, base=1.0, peak=10.0, noise=0.05, rng=1),
        name="smoke-diurnal",
    )

    priced_base = fleet_instance(
        cpu_gpu_fleet(cpu_count=5, gpu_count=2),
        diurnal_trace(16, period=8, base=1.0, peak=9.0, noise=0.0, rng=3),
    )
    prices = 1.0 + 0.5 * np.sin(np.arange(16) / 16 * 4 * np.pi + 0.7)
    priced = priced_base.with_price_profile(prices, name="smoke-priced")

    counts_base = fleet_instance(
        old_new_fleet(old_count=4, new_count=2),
        bursty_trace(16, base=1.0, burst_height=6.0, burst_probability=0.2, rng=2),
    )
    counts = np.tile([4, 2], (16, 1)).astype(int)
    counts[4:8, 0] = 2
    counts[10:13, 1] = 1
    varying = counts_base.with_counts(counts, name="smoke-counts")

    return [diurnal, priced, varying]


def run_smoke_bench(tolerance: float = 1e-6, json_path: Optional[str] = None) -> dict:
    """Solve the pinned instances and assert seed-identical optimal costs.

    Returns ``{"smoke": rows}``, one row per instance with the measured wall
    time, explored states and dispatch-engine counters.  Raises
    :class:`AssertionError` when a cost deviates from its pinned value by more
    than ``tolerance``.
    """
    rows: List[dict] = []
    for instance in smoke_instances():
        dispatcher = DispatchSolver(instance)
        start = time.perf_counter()
        result = solve_optimal(instance, dispatcher=dispatcher, return_schedule=False)
        elapsed = time.perf_counter() - start
        expected = PINNED_OPTIMAL_COSTS[instance.name]
        deviation = abs(result.cost - expected)
        rows.append(
            {
                "instance": instance.name,
                "T": instance.T,
                "d": instance.d,
                "optimal_cost": result.cost,
                "pinned_cost": expected,
                "deviation": deviation,
                "seconds": round(elapsed, 6),
                "states_explored": result.num_states_explored,
                "dispatch": dispatcher.stats.snapshot(),
            }
        )
        if deviation > tolerance:
            raise AssertionError(
                f"{instance.name}: optimal cost {result.cost!r} deviates from the "
                f"pinned seed value {expected!r} by {deviation:g} (> {tolerance:g}) — "
                "the dispatch/DP hot path is no longer exact"
            )
    payload = {"smoke": rows}
    if json_path:
        return write_bench_json(json_path, payload)
    return payload


# --------------------------------------------------------------------------- #
# Sweep regression suite: the combined THM8+13+15+22 ratio workload
# --------------------------------------------------------------------------- #

#: Costs of every run of the combined sweep workload, computed at the PR-1
#: commit.  Keyed by ``(experiment, instance, algorithm)`` where algorithm
#: ``"optimal"`` is the shared offline optimum.  The sweep engine (and the
#: sequential baseline it is compared against) must keep reproducing these
#: within 1e-6 — the engine's entire point is bit-identical orchestration.
PINNED_SWEEP_COSTS: Dict[tuple, float] = {
    ("thm8", "homogeneous-T48", "optimal"): 457.7955467914764,
    ("thm8", "homogeneous-T48", "algorithm-A"): 462.510945523983,
    ("thm8", "diurnal-cpu-gpu-T48", "optimal"): 490.14819054513424,
    ("thm8", "diurnal-cpu-gpu-T48", "algorithm-A"): 537.0508316855593,
    ("thm8", "bursty-old-new-T40", "optimal"): 324.0,
    ("thm8", "bursty-old-new-T40", "algorithm-A"): 346.46666666666664,
    ("thm8", "load-independent-T40", "optimal"): 119.0,
    ("thm8", "load-independent-T40", "algorithm-A"): 127.5,
    ("thm8", "spiky-three-tier-T32", "optimal"): 167.05000000000007,
    ("thm8", "spiky-three-tier-T32", "algorithm-A"): 196.14999999999998,
    ("thm13", "diurnal-cpu-gpu-T36-amp0.0", "optimal"): 382.7085828837085,
    ("thm13", "diurnal-cpu-gpu-T36-amp0.0", "algorithm-B"): 429.12546409862074,
    ("thm13", "diurnal-cpu-gpu-T36-amp0.3", "optimal"): 367.6656740144223,
    ("thm13", "diurnal-cpu-gpu-T36-amp0.3", "algorithm-B"): 409.27272149829344,
    ("thm13", "diurnal-cpu-gpu-T36-amp0.6", "optimal"): 351.07321520748866,
    ("thm13", "diurnal-cpu-gpu-T36-amp0.6", "algorithm-B"): 402.3399501476715,
    ("thm13", "diurnal-cpu-gpu-T36-amp0.9", "optimal"): 334.4281800254081,
    ("thm13", "diurnal-cpu-gpu-T36-amp0.9", "algorithm-B"): 392.8770834403654,
    ("thm15", "priced-cpu-gpu-T30", "optimal"): 304.7209596263647,
    ("thm15", "priced-cpu-gpu-T30", "algorithm-B"): 343.55428004574236,
    ("thm15", "priced-cpu-gpu-T30", "algorithm-C(eps=1)"): 343.55428004574236,
    ("thm15", "priced-cpu-gpu-T30", "algorithm-C(eps=0.5)"): 361.56845083685425,
    ("thm15", "priced-cpu-gpu-T30", "algorithm-C(eps=0.25)"): 361.9366010047067,
    ("thm22", "time-varying-m", "optimal"): 404.0157648710129,
    ("thm22", "time-varying-m", "offline-optimal"): 404.0157648710129,
    ("thm22", "time-varying-m", "approx(eps=0.5)"): 404.0157648710129,
}


def thm8_specs() -> List[tuple]:
    """The five THM8 scenarios as ``(label, ScenarioSpec)`` pairs.

    Single source of truth shared by ``benchmarks/bench_thm8_algorithm_a_ratio.py``
    and the perf-regress gate — the pinned costs below gate exactly these.
    The specs address the scenario registry (:mod:`repro.scenarios`); the
    family defaults were chosen so these specs rebuild the original pinned
    instances byte-for-byte.
    """
    return [
        ("homogeneous d=1 (diurnal)", ScenarioSpec("homogeneous", {"T": 48}, seed=5)),
        ("cpu+gpu d=2 (diurnal)", ScenarioSpec("diurnal-cpu-gpu", {"T": 48}, seed=1)),
        ("old+new d=2 (bursty)", ScenarioSpec("bursty-old-new", {"T": 40}, seed=2)),
        ("load-independent d=2 (Corollary 9)", ScenarioSpec("load-independent", {"T": 40}, seed=7)),
        ("three-tier d=3 (spiky)", ScenarioSpec("spiky-three-tier", {"T": 32})),
    ]


def thm8_scenarios() -> List[tuple]:
    """The five THM8 scenarios as materialised ``(label, instance)`` pairs."""
    return [(label, build_scenario(spec)) for label, spec in thm8_specs()]


def thm13_specs() -> List[tuple]:
    """The four THM13 price-amplitude scenarios as ``(label, ScenarioSpec)`` pairs."""
    specs = []
    for amplitude in (0.0, 0.3, 0.6, 0.9):
        specs.append(
            (
                f"price amplitude {amplitude:.1f}",
                ScenarioSpec(
                    "priced-cpu-gpu",
                    {
                        "T": 36,
                        "amplitude": amplitude,
                        "phase": 0.5,
                        "name": f"diurnal-cpu-gpu-T36-amp{amplitude}",
                    },
                    seed=1,
                ),
            )
        )
    return specs


def thm13_scenarios() -> List[tuple]:
    """The four THM13 scenarios as materialised ``(label, instance)`` pairs."""
    return [(label, build_scenario(spec)) for label, spec in thm13_specs()]


def thm15_spec() -> ScenarioSpec:
    """The THM15 priced scenario (CPU+GPU diurnal under a tariff, T=30)."""
    return ScenarioSpec("priced-cpu-gpu", {"T": 30}, seed=11)


def thm15_instance() -> ProblemInstance:
    """The THM15 priced instance, materialised from :func:`thm15_spec`."""
    return build_scenario(thm15_spec())


def thm22_spec() -> ScenarioSpec:
    """The THM22 time-varying-fleet scenario (maintenance window + expansion)."""
    return ScenarioSpec("time-varying-m")


def thm22_instance() -> ProblemInstance:
    """The THM22 time-varying-fleet instance, materialised from :func:`thm22_spec`."""
    return build_scenario(thm22_spec())


def sweep_suite() -> List[tuple]:
    """The combined ratio workload as named engine sweep plans.

    The plans are *scenario-addressed*: they carry specs, not instances, so
    every ``perf-regress`` run also exercises the registry's lazy
    materialisation path against the pinned costs.
    """
    from .exp.engine import OfflineSpec, SweepPlan, spec

    return [
        (
            "thm8",
            SweepPlan(
                scenarios=tuple(s for _, s in thm8_specs()),
                algorithms=(spec("A"),),
            ),
        ),
        (
            "thm13",
            SweepPlan(
                scenarios=tuple(s for _, s in thm13_specs()),
                algorithms=(spec("B"),),
            ),
        ),
        (
            "thm15",
            SweepPlan(
                scenarios=(thm15_spec(),),
                algorithms=(
                    spec("B"),
                    spec("C", label="algorithm-C(eps=1)", epsilon=1.0),
                    spec("C", label="algorithm-C(eps=0.5)", epsilon=0.5),
                    spec("C", label="algorithm-C(eps=0.25)", epsilon=0.25),
                ),
            ),
        ),
        (
            "thm22",
            SweepPlan(
                scenarios=(thm22_spec(),),
                algorithms=(),
                offline=(
                    OfflineSpec(solver="optimal"),
                    OfflineSpec(solver="approx", epsilon=0.5),
                ),
            ),
        ),
    ]


# --------------------------------------------------------------------------- #
# Scale regression suite: the streaming DP core on long-horizon workloads
# --------------------------------------------------------------------------- #


def _rss_mb() -> float:
    """Current resident-set size in MB (``VmRSS``; peak ``ru_maxrss`` fallback)."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return float(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _memory_metered(fn):
    """``(result, tracemalloc_peak_mb, rss_delta_mb)`` of one ``fn()`` call.

    The RSS delta is measured around the call from ``/proc/self/status``
    (current residency, not the monotonic peak), so back-to-back metered runs
    each report their own growth — the number the flat-memory gates record.
    The tracemalloc peak of the same code varies by a few hundred bytes from
    run to run, so it is rounded to 0.01 MB: a finer figure reports that
    noise as growth.
    """
    import tracemalloc

    rss_before = _rss_mb()
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rss_delta = max(0.0, _rss_mb() - rss_before)
    return result, round(peak / 1e6, 2), round(rss_delta, 2)


def _measured(fn):
    """``(result, wall_seconds, tracemalloc_peak_bytes, rss_peak_mb)`` of ``fn``.

    ``fn`` is executed twice clean — the wall time is the best of the two
    (single-run walls on shared machines are noisy enough to distort the
    streaming-vs-forward ratios, and tracemalloc roughly doubles
    allocation-heavy passes, so it must not time them) — then once more under
    ``tracemalloc`` for the comparable per-row peak-memory column.
    ``rss_peak_mb`` is the process high-water mark — monotonic across rows, so
    only its *first* large run is attributable; tracemalloc is the per-row
    signal.
    """
    import resource
    import tracemalloc

    wall = float("inf")
    result = None
    for _ in range(2):
        start = time.perf_counter()
        result = fn()
        wall = min(wall, time.perf_counter() - start)
    tracemalloc.start()
    fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result, wall, peak, rss_mb


def run_scale_bench(
    full: bool = False,
    json_path: Optional[str] = None,
    tolerance: float = 1e-9,
) -> dict:
    """Benchmark the streaming DP core on the large-scale scenario suite.

    For every scenario the streaming pass (``checkpoint_every = ceil(sqrt(T))``)
    is measured forward-only and end-to-end; ``compare`` scenarios additionally
    run the classic all-tables pass and **gate** on it — the streaming schedule
    must be identical and its cost equal within ``tolerance`` (1e-9), the
    regression guard wired into ``make bench-smoke``.  Scenarios marked
    streaming-only instead document the all-tables footprint as *projected*
    bytes (``T * |M| * 8`` of value-table history alone — OOM territory on
    typical runners long before the seed code's additional ``O(T * |M| * d)``
    dispatch blocks).

    A ``compare`` scenario also gates the classic pass's memory: its
    tracemalloc peak must stay within 1.5x the projected table history plus
    2 MB, so an ``O(T * |M| * d)`` dispatch block cannot come back
    unnoticed.  Returns the ``BENCH_scale.json`` payload; wall times are
    recorded, not gated.  The tracemalloc peaks are rounded to 0.01 MB: the
    same code's peak varies by a few hundred bytes from run to run, so the
    same code reads the same number.
    """
    import math

    from .offline.dp import solve_dp
    from .offline.state_grid import grid_for_slot
    from .workloads.scale import scale_scenarios

    rows: List[dict] = []
    comparisons: List[dict] = []
    scenarios = scale_scenarios(full=full)
    for scenario in scenarios:
        instance = scenario["instance"]
        gamma = scenario["gamma"]
        T = instance.T
        k = max(1, int(math.ceil(math.sqrt(T))))
        grid = grid_for_slot(instance, 0, gamma)
        table_mb = T * grid.size * 8 / 1e6
        base = {
            "instance": instance.name,
            "label": scenario["label"],
            "T": T,
            "d": instance.d,
            "grid_states": grid.size,
            "gamma": gamma,
            "table_history_projected_mb": round(table_mb, 2),
        }

        _, fwd_wall, fwd_peak, fwd_rss = _measured(
            lambda: solve_dp(instance, gamma=gamma, checkpoint_every=k, return_schedule=False)
        )
        rows.append(
            dict(
                base,
                mode="streaming-forward",
                checkpoint_every=k,
                wall_seconds=round(fwd_wall, 4),
                tracemalloc_peak_mb=round(fwd_peak / 1e6, 2),
                rss_peak_mb=round(fwd_rss, 1),
            )
        )

        stream, stream_wall, stream_peak, stream_rss = _measured(
            lambda: solve_dp(instance, gamma=gamma, checkpoint_every=k)
        )
        rows.append(
            dict(
                base,
                mode="streaming",
                checkpoint_every=k,
                wall_seconds=round(stream_wall, 4),
                tracemalloc_peak_mb=round(stream_peak / 1e6, 2),
                rss_peak_mb=round(stream_rss, 1),
                cost=stream.cost,
            )
        )

        if scenario["compare"]:
            tables, tables_wall, tables_peak, tables_rss = _measured(
                lambda: solve_dp(instance, gamma=gamma, keep_tables=True)
            )
            rows.append(
                dict(
                    base,
                    mode="keep-tables",
                    checkpoint_every=None,
                    wall_seconds=round(tables_wall, 4),
                    tracemalloc_peak_mb=round(tables_peak / 1e6, 2),
                    rss_peak_mb=round(tables_rss, 1),
                    cost=tables.cost,
                )
            )
            # the classic pass holds the value tables and little else: an
            # O(T * |M| * d) dispatch block would push it far past them
            limit_mb = 1.5 * round(table_mb, 2) + 2.0
            if tables_peak / 1e6 > limit_mb:
                raise AssertionError(
                    f"{instance.name}: keep_tables=True traced {tables_peak / 1e6:.2f} MB, over "
                    f"{limit_mb:.2f} MB (1.5x the {table_mb:.2f} MB table history + 2 MB): "
                    "the classic pass holds more than its value tables"
                )
            deviation = assert_same(
                tables, stream,
                label=f"{instance.name}: streaming backtracking vs keep_tables=True",
                tolerance=tolerance,
            )
            comparisons.append(
                {
                    "instance": instance.name,
                    "cost_deviation": deviation,
                    "schedules_identical": True,
                    "memory_ratio": round(tables_peak / max(stream_peak, 1), 2),
                    "stream_wall_vs_forward": round(stream_wall / max(fwd_wall, 1e-9), 2),
                    "stream_wall_vs_tables": round(stream_wall / max(tables_wall, 1e-9), 2),
                }
            )
        else:
            rows.append(
                dict(
                    base,
                    mode="keep-tables-projected",
                    checkpoint_every=None,
                    wall_seconds=None,
                    # measured column stays empty — the projection lives in
                    # table_history_projected_mb so consumers never mistake
                    # an estimate for a tracemalloc measurement
                    tracemalloc_peak_mb=None,
                    rss_peak_mb=None,
                    note=(
                        "not executed: value-table history alone needs "
                        f"{table_mb:.0f} MB (plus O(T*|M|*d) dispatch blocks in the "
                        "seed code) — OOM-or-worse on typical 4-8 GB runners"
                    ),
                )
            )

    payload = {
        "benchmark": "scale_streaming",
        "suite": "full" if full else "quick",
        "tolerance": tolerance,
        "rows": rows,
        "comparisons": comparisons,
    }
    if json_path:
        return write_bench_json(
            json_path,
            payload,
            headline={
                "benchmark": "scale_streaming",
                "suite": payload["suite"],
                "streaming_wall_seconds": round(
                    sum(
                        r["wall_seconds"]
                        for r in rows
                        if r["mode"] == "streaming" and r["wall_seconds"] is not None
                    ),
                    4,
                ),
                "max_cost_deviation": max(
                    (c["cost_deviation"] for c in comparisons), default=0.0
                ),
                "keep_tables_peak_mb": max(
                    (r["tracemalloc_peak_mb"] for r in rows if r["mode"] == "keep-tables"),
                    default=None,
                ),
            },
        )
    return payload


def _sequential_baseline() -> Dict[tuple, float]:
    """Re-run the suite with PR-1 style orchestration: nothing shared per run.

    One fresh :class:`DispatchSolver` per instance (shared only between the
    offline optimum and the runs of that one benchmark scenario, exactly as
    the PR-1 benchmark files did), private trackers per algorithm, a separate
    ``solve_optimal`` per instance.
    """
    costs: Dict[tuple, float] = {}
    for _, instance in thm8_scenarios():
        dispatcher = DispatchSolver(instance)
        costs[("thm8", instance.name, "optimal")] = solve_optimal(
            instance, dispatcher=dispatcher, return_schedule=False
        ).cost
        result = run_online(instance, AlgorithmA(), dispatcher=dispatcher)
        costs[("thm8", instance.name, "algorithm-A")] = result.cost
    for _, instance in thm13_scenarios():
        dispatcher = DispatchSolver(instance)
        costs[("thm13", instance.name, "optimal")] = solve_optimal(
            instance, dispatcher=dispatcher, return_schedule=False
        ).cost
        result = run_online(instance, AlgorithmB(), dispatcher=dispatcher)
        costs[("thm13", instance.name, "algorithm-B")] = result.cost
    instance = thm15_instance()
    dispatcher = DispatchSolver(instance)
    costs[("thm15", instance.name, "optimal")] = solve_optimal(
        instance, dispatcher=dispatcher, return_schedule=False
    ).cost
    costs[("thm15", instance.name, "algorithm-B")] = run_online(
        instance, AlgorithmB(), dispatcher=dispatcher
    ).cost
    for eps, label in ((1.0, "algorithm-C(eps=1)"), (0.5, "algorithm-C(eps=0.5)"), (0.25, "algorithm-C(eps=0.25)")):
        costs[("thm15", instance.name, label)] = run_online(
            instance, AlgorithmC(epsilon=eps), dispatcher=dispatcher
        ).cost
    instance = thm22_instance()
    dispatcher = DispatchSolver(instance)
    exact = solve_optimal(instance, dispatcher=dispatcher)
    approx = solve_approx(instance, epsilon=0.5, dispatcher=dispatcher)
    costs[("thm22", instance.name, "optimal")] = exact.cost
    costs[("thm22", instance.name, "offline-optimal")] = exact.cost
    costs[("thm22", instance.name, "approx(eps=0.5)")] = approx.cost
    return costs


#: Alternating timed passes per side of :func:`run_sweep_bench` (best one kept).
SWEEP_TIMING_PASSES = 3


def run_sweep_bench(
    tolerance: float = 1e-6,
    json_path: Optional[str] = None,
    jobs: int = 1,
    include_baseline: bool = True,
) -> dict:
    """Run the combined THM8+13+15+22 workload through the sweep engine.

    Asserts that every cost matches the pinned PR-1 value within ``tolerance``
    and (when ``include_baseline``) that the engine agrees with the sequential
    PR-1 orchestration to 1e-9.  Returns the ``BENCH_sweep.json`` payload;
    wall times and speedups are recorded but never gated.  With the baseline,
    the engine and the sequential orchestration run alternately,
    :data:`SWEEP_TIMING_PASSES` passes each, and each side reports its best
    pass (a single pass per side read speedups anywhere from 0.97x to 1.95x
    across fresh processes of the same code).
    """
    from .exp.engine import run_plan

    def engine_pass() -> tuple:
        experiments, costs = {}, {}
        for name, plan in sweep_suite():
            report = run_plan(plan, jobs=jobs)
            experiments[name] = {
                "engine_seconds": round(report.total_seconds, 6),
                "rows": report.as_rows(),
            }
            for instance_name in report.instances():
                first = next(r for r in report.records if r.instance == instance_name)
                costs[(name, instance_name, "optimal")] = first.optimal_cost
            for record in report.records:
                costs[(name, record.instance, record.algorithm)] = record.cost
        return experiments, costs

    engine_walls, baseline_walls = [], []
    for _ in range(SWEEP_TIMING_PASSES if include_baseline else 1):
        start = time.perf_counter()
        experiments, engine_costs = engine_pass()
        engine_walls.append(time.perf_counter() - start)
        if include_baseline:
            start = time.perf_counter()
            baseline_costs = _sequential_baseline()
            baseline_walls.append(time.perf_counter() - start)
    engine_wall = min(engine_walls)

    deviations = []
    for key, pinned in PINNED_SWEEP_COSTS.items():
        if key not in engine_costs:
            raise AssertionError(f"sweep engine produced no cost for pinned run {key!r}")
        deviations.append((key, abs(engine_costs[key] - pinned)))
    worst_key, worst = max(deviations, key=lambda kv: kv[1])
    if worst > tolerance:
        raise AssertionError(
            f"{worst_key!r}: sweep-engine cost deviates from the pinned PR-1 value "
            f"by {worst:g} (> {tolerance:g}) — shared-context orchestration is no longer exact"
        )

    baseline_wall = None
    if include_baseline:
        baseline_wall = min(baseline_walls)
        for key, cost in baseline_costs.items():
            if abs(engine_costs[key] - cost) > 1e-9:
                raise AssertionError(
                    f"{key!r}: engine cost {engine_costs[key]!r} differs from the sequential "
                    f"baseline {cost!r} by more than 1e-9"
                )

    payload = {
        "benchmark": "sweep",
        "tolerance": tolerance,
        "max_cost_deviation": worst,
        "engine_wall_seconds": round(engine_wall, 4),
        "sequential_wall_seconds": None if baseline_wall is None else round(baseline_wall, 4),
        "speedup_vs_sequential": None
        if baseline_wall is None
        else round(baseline_wall / engine_wall, 2),
        "timing_passes": len(engine_walls),
        "jobs": jobs,
        "experiments": experiments,
    }
    if json_path:
        return write_bench_json(
            json_path,
            payload,
            headline={
                "benchmark": "sweep",
                "engine_wall_seconds": payload["engine_wall_seconds"],
                "sequential_wall_seconds": payload["sequential_wall_seconds"],
                "speedup_vs_sequential": payload["speedup_vs_sequential"],
                "max_cost_deviation": worst,
            },
        )
    return payload


# --------------------------------------------------------------------------- #
# SERVE: multi-tenant streaming replay benchmark
# --------------------------------------------------------------------------- #


def _registry_totals(metrics) -> dict:
    """Non-zero deterministic counter totals, summed across labelled series.

    The compact registry column recorded in ``BENCH_serve.json`` rows:
    equality-comparable across runs (wall-clock metrics are excluded by
    :meth:`~repro.serve.metrics.MetricsRegistry.deterministic_snapshot`).
    """
    snap = metrics.deterministic_snapshot()
    totals: Dict[str, float] = {}
    for series, value in snap["values"].items():
        name = series.split("{", 1)[0]
        totals[name] = totals.get(name, 0) + value
    return {
        name: round(value, 9) for name, value in sorted(totals.items()) if value
    }


def run_serve_bench(
    tenant_counts=(1, 8, 64),
    ticks: Optional[int] = None,
    scenario: str = "diurnal-cpu-gpu",
    algorithm="A",
    demand_levels: int = 12,
    json_path: Optional[str] = None,
    assert_sharing: bool = True,
) -> dict:
    """Benchmark the serve layer: N concurrent sessions, shared vs isolated caches.

    One fleet geometry, ``n`` tenants, each replaying a rotated copy of the
    same quantised demand trace (rotation keeps the streams distinct while the
    level *set* overlaps — the realistic many-tenants-one-hardware-pool shape).
    Every tenant count runs twice: with one shared :class:`~repro.serve.ServeCache`
    and with per-tenant isolated caches.  Records per-tick latency percentiles,
    tenants/sec and the sharing counters in ``BENCH_serve.json``.

    Gates (deterministic, machine-independent):

    * per tenant, the shared-cache replay must match the isolated replay —
      schedule, cost within 1e-9 and SLA counters (sharing must not change a
      single decision), and
    * with more than one tenant, the shared mode must run strictly fewer
      unique dispatch solves than the isolated mode — the sharing is real,
      not a label.  Wall times are recorded but advisory.
    """
    from .serve import InstanceFeed, ServeEngine
    from .workloads.scale import quantise_trace

    ticks = 64 if ticks is None else int(ticks)
    base = build_scenario(scenario, T=ticks)
    demand = quantise_trace(base.demand, levels=demand_levels)
    instance = base.with_demand(demand, name=f"serve-{scenario}-T{ticks}")

    rows: List[dict] = []
    comparisons: List[dict] = []
    for n in tenant_counts:
        n = int(n)
        mode_sessions: Dict[str, list] = {}
        for mode in ("shared", "isolated"):
            def build_engine(mode=mode):
                engine = ServeEngine(share_caches=(mode == "shared"))
                for k in range(n):
                    tenant_demand = np.roll(demand, k % max(ticks, 1))
                    feed = InstanceFeed(
                        instance.with_demand(tenant_demand, name=f"tenant-{k}")
                    )
                    engine.add_tenant(f"tenant-{k}", algorithm, feed)
                return engine

            engine = build_engine()
            report = engine.run()
            # the memory columns ride a second, fresh, tracemalloc-instrumented
            # replay so instrumentation never distorts the recorded wall times
            _, peak_mb, rss_delta_mb = _memory_metered(lambda: build_engine().run())
            mode_sessions[mode] = engine.sessions
            sharing = report["sharing"]
            rows.append(
                {
                    "tenants": n,
                    "mode": mode,
                    "ticks_per_tenant": ticks,
                    "total_ticks": report["total_ticks"],
                    "wall_seconds": report["wall_seconds"],
                    "ticks_per_second": report.get("ticks_per_second"),
                    "tenants_per_second": report.get("tenants_per_second"),
                    "latency": report["latency"],
                    "caches": report["caches"],
                    "unique_solves": sum(c["unique_solves"] for c in sharing),
                    "slot_queries": sum(c["slot_queries"] for c in sharing),
                    # the serve-layer tensor memo absorbs repeated whole-grid
                    # queries before they ever reach the dispatcher, so the
                    # meaningful hit rate is measured there, not at the
                    # solver's block cache (which only ever sees misses)
                    "grid_hit_rate": round(
                        sum(c["tensor_hits"] for c in sharing)
                        / max(
                            sum(c["tensor_hits"] + c["tensor_misses"] for c in sharing), 1
                        ),
                        6,
                    ),
                    "tensor_hits": sum(c["tensor_hits"] for c in sharing),
                    "tensor_misses": sum(c["tensor_misses"] for c in sharing),
                    "table_gathers": sum(c["table_gathers"] for c in sharing),
                    "registry": _registry_totals(engine.metrics),
                    "tracemalloc_peak_mb": peak_mb,
                    "rss_delta_mb": rss_delta_mb,
                }
            )
        max_dev = max(
            (
                assert_same(
                    isolated, shared,
                    label=f"{n} tenants, {shared.name}: shared vs isolated caches",
                    tolerance=1e-9,
                )
                for shared, isolated in zip(mode_sessions["shared"], mode_sessions["isolated"])
            ),
            default=0.0,
        )
        shared_row = rows[-2]
        isolated_row = rows[-1]
        if assert_sharing and n > 1:
            if not shared_row["unique_solves"] < isolated_row["unique_solves"]:
                raise AssertionError(
                    f"{n} tenants: shared caches ran {shared_row['unique_solves']} unique "
                    f"dispatch solves vs {isolated_row['unique_solves']} isolated — "
                    "multi-tenant sharing is not deduplicating work"
                )
        shared_wall = shared_row["wall_seconds"]
        isolated_wall = isolated_row["wall_seconds"]
        comparisons.append(
            {
                "tenants": n,
                "max_cost_deviation": max_dev,
                "unique_solves_shared": shared_row["unique_solves"],
                "unique_solves_isolated": isolated_row["unique_solves"],
                "tensor_hits_shared": shared_row["tensor_hits"],
                "tensor_hits_isolated": isolated_row["tensor_hits"],
                "speedup_vs_isolated": (
                    None if not shared_wall else round(isolated_wall / shared_wall, 2)
                ),
                "per_tick_us_shared": round(1e6 * shared_wall / max(shared_row["total_ticks"], 1), 1),
                "per_tick_us_isolated": round(1e6 * isolated_wall / max(isolated_row["total_ticks"], 1), 1),
            }
        )

    payload = {
        "scenario": scenario,
        "instance": instance.name,
        "algorithm": algorithm if isinstance(algorithm, str) else dict(algorithm),
        "ticks_per_tenant": ticks,
        "demand_levels": demand_levels,
        "tenant_counts": [int(n) for n in tenant_counts],
        "rows": rows,
        "comparisons": comparisons,
        "note": "cost equality and unique-solve counters gate; wall times are advisory",
    }
    if json_path:
        shared = next((r for r in reversed(rows) if r["mode"] == "shared"), {})
        return write_bench_json(
            json_path,
            payload,
            headline={
                "benchmark": "serve",
                "tenants": shared.get("tenants"),
                "max_cost_deviation": max(
                    (c["max_cost_deviation"] for c in comparisons), default=0.0
                ),
                "unique_solves_shared": shared.get("unique_solves"),
                "grid_hit_rate_shared": shared.get("grid_hit_rate"),
                "p99_ms_shared": shared.get("latency", {}).get("p99_ms"),
                "tracemalloc_peak_mb_shared": shared.get("tracemalloc_peak_mb"),
                "rss_delta_mb_shared": shared.get("rss_delta_mb"),
            },
        )
    return payload


def run_batch_scale_bench(
    tenant_counts=(64, 1000, 10000),
    ticks: Optional[int] = None,
    scenario: str = "diurnal-cpu-gpu",
    algorithm: str = "reactive",
    demand_levels: int = 12,
    seq_limit: int = 2000,
    sample_check: int = 8,
    min_speedup: float = 5.0,
    assert_speedup: bool = True,
    budget_us: float = 50.0,
    budget_scale: float = 1.0,
    p99_gate_tenants: int = 256,
    json_path: Optional[str] = None,
) -> dict:
    """The 10k-tenant scale gate: engine rounds vs per-tenant replays.

    One fleet geometry, ``n`` tenants replaying rotated copies of a quantised
    demand trace, for each ``n`` in ``tenant_counts``.  Every count runs
    through :class:`~repro.serve.ServeEngine`, whose rounds decide the
    tenants in one cohort; counts up to ``seq_limit`` also replay every
    tenant on its own as the reference — its session observes its feed tick
    by tick over the same shared cache (:func:`~repro.serve.verify.replay`),
    with no round, block or cohort.  Gates:

    * **bit-identity** — per tenant, the engine's outcome matches the
      replay's: identical schedules and SLA counters, costs within 1e-9
      (full comparison up to ``seq_limit``; above it, ``sample_check``
      tenants are replayed as a spot check and the batch hit-rate must be
      1.0),
    * **throughput** — at 1000+ tenants the engine must be at least
      ``min_speedup``× the per-tenant replays (``assert_speedup=False`` to
      record without gating on shared noisy runners),
    * **p99 per-tenant tick** — pooled engine p99 must beat
      ``budget_us * budget_scale`` at ``p99_gate_tenants``+ tenants (below
      that a cohort's shared work, a cold level's grid solve among it,
      amortises over too few members to gate on; smaller rows record p99
      without enforcing it),
    * **flat memory** — the shared cache footprint (resident ledger slots and
      grid-tensor bytes) must be *identical* across tenant counts: cache
      state scales with the demand alphabet, never with the tenant count.
      Peak tracemalloc and the RSS delta of each engine run are recorded
      (measured on a second instrumented run so the throughput gate stays
      undistorted).

    Above ``seq_limit`` tenants run ``history=False`` (compact sessions)
    except the spot-check sample — the 10k-tenant row measures the serving
    footprint, not telemetry retention.  Merges a ``"batch_scale"`` section
    and a trend entry into ``BENCH_serve.json``.
    """
    from .serve import InstanceFeed, ServeEngine, replay
    from .workloads.scale import quantise_trace

    ticks = 32 if ticks is None else int(ticks)
    base = build_scenario(scenario, T=ticks)
    demand = quantise_trace(base.demand, levels=demand_levels)
    instance = base.with_demand(demand, name=f"batch-{scenario}-T{ticks}")

    def tenant_feed(k: int) -> "InstanceFeed":
        rolled = np.roll(demand, k % max(ticks, 1))
        return InstanceFeed(instance.with_demand(rolled, name=f"tenant-{k}"))

    def replayed(members) -> tuple:
        """Replay each member on its own over one shared cache: ``(sessions, wall)``."""
        registry = ServeEngine(share_caches=True)
        for k in members:
            registry.add_tenant(f"tenant-{k}", algorithm, tenant_feed(k))
        started = time.perf_counter()
        sessions = {
            name: replay(tenant.session, tenant.iterator)
            for name, tenant in registry.tenants.items()
        }
        return sessions, time.perf_counter() - started

    rows: List[dict] = []
    footprints: List[tuple] = []
    for n in tenant_counts:
        n = int(n)
        full_compare = n <= seq_limit
        sample = (
            set(range(n))
            if full_compare
            else set(range(0, n, max(1, n // max(sample_check, 1)))[:sample_check])
        )

        def make_engine(n=n, sample=sample, full_compare=full_compare):
            engine = ServeEngine(share_caches=True)
            for k in range(n):
                engine.add_tenant(
                    f"tenant-{k}",
                    algorithm,
                    tenant_feed(k),
                    history=full_compare or k in sample,
                )
            return engine

        engine = make_engine()
        batch_report = engine.run()
        _, peak_mb, rss_delta_mb = _memory_metered(lambda: make_engine().run())
        # after the engine run, so its heap does not sit under the timed rounds
        reference, reference_wall = replayed(sorted(sample))

        # --- bit-identity gate
        max_dev = max(
            (
                assert_same(
                    reference[f"tenant-{k}"], engine.session(f"tenant-{k}"),
                    label=f"{n} tenants, tenant-{k}: engine vs per-tenant replay",
                    tolerance=1e-9,
                )
                for k in sorted(sample)
            ),
            default=0.0,
        )
        hit_rate = batch_report["batch"]["batch_hit_rate"]
        if not full_compare and hit_rate < 0.999:
            raise AssertionError(
                f"{n} tenants: only sampled equality was checked but the batch hit "
                f"rate is {hit_rate} — unsampled tenants took an unverified path"
            )

        # --- p99 per-tenant tick gate (amortisation only holds at scale)
        p99_us = batch_report["latency"]["p99_ms"] * 1000.0
        budget = budget_us * budget_scale
        if n >= p99_gate_tenants and not p99_us <= budget:
            raise AssertionError(
                f"{n} tenants: engine per-tenant tick p99 {p99_us:.1f}us exceeds "
                f"the {budget:g}us budget (budget_us={budget_us:g} x scale={budget_scale:g})"
            )

        # --- throughput gate
        speedup = None
        if full_compare and batch_report["wall_seconds"]:
            speedup = reference_wall / batch_report["wall_seconds"]
            if assert_speedup and n >= 1000 and not speedup >= min_speedup:
                raise AssertionError(
                    f"{n} tenants: the engine is only {speedup:.2f}x the per-tenant "
                    f"replays (gate: >= {min_speedup:g}x)"
                )

        totals = batch_report["cache_totals"]
        footprints.append((n, totals["virtual_slots"], totals["tensor_bytes"]))
        rows.append(
            {
                "tenants": n,
                "total_ticks": batch_report["total_ticks"],
                "wall_seconds": batch_report["wall_seconds"],
                "ticks_per_second": batch_report.get("ticks_per_second"),
                "sequential_wall_seconds": (
                    round(reference_wall, 6) if full_compare else None
                ),
                "speedup_vs_sequential": (
                    None if speedup is None else round(speedup, 2)
                ),
                "p99_us": round(p99_us, 2),
                "batch_hit_rate": hit_rate,
                "avg_cohort_size": batch_report["batch"]["avg_cohort_size"],
                "equality": "full" if full_compare else f"sampled-{len(sample)}",
                "max_cost_deviation": max_dev,
                "virtual_slots": totals["virtual_slots"],
                "tensor_bytes": totals["tensor_bytes"],
                "ledger_evictions": totals["ledger_evictions"],
                "tensor_evictions": totals["tensor_evictions"],
                "tracemalloc_peak_mb": peak_mb,
                "rss_delta_mb": rss_delta_mb,
            }
        )

    # --- flat-memory gate: cache state is a function of the demand alphabet
    slots = {fp[1] for fp in footprints}
    tensor_bytes = {fp[2] for fp in footprints}
    if len(slots) > 1 or len(tensor_bytes) > 1:
        raise AssertionError(
            f"cache footprint varies with tenant count: virtual_slots={sorted(slots)}, "
            f"tensor_bytes={sorted(tensor_bytes)} — memory is not flat"
        )

    section = {
        "scenario": scenario,
        "instance": instance.name,
        "algorithm": algorithm,
        "ticks_per_tenant": ticks,
        "demand_levels": demand_levels,
        "tenant_counts": [int(n) for n in tenant_counts],
        "seq_limit": seq_limit,
        "min_speedup": min_speedup,
        "budget_us": budget_us,
        "budget_scale": budget_scale,
        "rows": rows,
        "note": (
            "reference: each tenant's session replayed on its own over one "
            "shared cache (sequential_* columns); schedule bit-identity, p99 "
            "budget, >=min_speedup at 1k+ tenants and flat cache footprint "
            "gate; wall times advisory"
        ),
    }
    if json_path:
        last = rows[-1]
        write_bench_json(
            json_path,
            section,
            section="batch_scale",
            headline={
                "benchmark": "serve-batch-scale",
                "tenants": last["tenants"],
                "speedup_vs_sequential": next(
                    (
                        r["speedup_vs_sequential"]
                        for r in reversed(rows)
                        if r["speedup_vs_sequential"] is not None
                    ),
                    None,
                ),
                "p99_us": last["p99_us"],
                "max_cost_deviation": max(r["max_cost_deviation"] for r in rows),
                "tracemalloc_peak_mb": last["tracemalloc_peak_mb"],
                "rss_delta_mb": last["rss_delta_mb"],
            },
        )
    return section


def run_batch_smoke(
    tenants: int = 64,
    ticks: int = 48,
    budget_us: float = 5000.0,
    budget_scale: float = 1.0,
    demand_levels: int = 12,
    json_path: Optional[str] = None,
) -> dict:
    """The ``make bench-batch-smoke`` gate: mixed-family cohort bit-identity.

    64 tenants spread over four scenario families and six algorithms —
    baselines (``reactive``, ``follow-demand``, ``all-on``) interleaved with
    the prefix-DP algorithms, whose cohorts advance their
    trackers in one stacked transition (``A``, ``lcp``, and ``B`` on the
    per-tick priced rows of ``priced-cpu-gpu``), and every eighth tenant under
    correlated chaos injection — run through
    :func:`~repro.serve.verify.verify_batched` with a mid-stream
    checkpoint/restore round-trip.  Gates:

    * the engine's schedules/SLA counters bit-identical to each tenant's own
      session replay and costs within 1e-9 for **every** tenant
      (``verify_batched`` raises),
    * both the vectorised and the fallback path actually executed (a smoke
      that silently batches nothing proves nothing; the fallback ticks are
      the DP tenants' first ticks, count changes and chaos),
    * p99 per-tenant tick latency of the tenants that batch beats
      ``budget_us * budget_scale`` (the amortised cohort share plus each
      tick's own commit; tenants that never batch observe through their
      sessions and are exempt — the latency smoke budgets those).  With only
      ~3 members per (family, algorithm) cohort the shared work, a cold
      level's grid solve among it, barely amortises, so the default budget
      is milliseconds, not the
      microsecond steady-state the scale bench gates; this gate catches
      order-of-magnitude regressions, the 1k/10k scale rows gate the steady
      state.

    Merges a ``"batch_smoke"`` section into ``--json`` (``BENCH_serve.json``).
    """
    from . import scenarios
    from .scenarios.events import EventPlan
    from .serve import InstanceFeed, verify_batched
    from .workloads.scale import quantise_trace

    families = (
        "diurnal-cpu-gpu",
        "priced-cpu-gpu",
        "time-varying-m",
        "spiky-three-tier",
    )
    algorithms = ("reactive", "follow-demand", "A", "all-on", "lcp", "B")
    instances = []
    for name in families:
        try:
            inst = build_scenario(name, T=ticks)
        except TypeError:
            fam = scenarios.family(name)
            inst = scenarios.build(scenarios.ScenarioSpec(name, dict(fam.smoke_params)))
        quantised = quantise_trace(inst.demand, levels=demand_levels)
        instances.append(inst.with_demand(quantised, name=f"batch-smoke-{name}"))
    plans = [
        EventPlan.generate(inst.T, inst.d, seed=101 + i, n_events=3)
        for i, inst in enumerate(instances)
    ]

    def build(engine):
        for k in range(int(tenants)):
            inst = instances[k % len(instances)]
            rolled = np.roll(inst.demand, k % max(inst.T, 1))
            feed = InstanceFeed(inst.with_demand(rolled, name=f"tenant-{k}"))
            engine.add_tenant(
                f"tenant-{k}",
                algorithms[k % len(algorithms)],
                feed,
                chaos=plans[k % len(instances)] if k % 8 == 7 else None,
                # rolled demands on time-varying fleets can legitimately
                # exceed a shrunk tick's capacity: shed + account, don't raise
                degradation="shed",
            )

    checkpoint_at = max(1, min(inst.T for inst in instances) // 2)
    report = verify_batched(build, checkpoint_at=checkpoint_at)

    batch = report["batch"]
    if not batch["batched_ticks"] > 0:
        raise AssertionError("batch smoke ran zero vectorised ticks — nothing was gated")
    if not batch["fallback_ticks"] > 0:
        raise AssertionError(
            "batch smoke ran zero fallback ticks — the mixed workload lost its "
            "DP first ticks, count changes and chaos ticks"
        )
    batched_p99s = [
        row["p99_ms"] * 1000.0
        for row in report["tenants"]
        if row["batched"] and row["p99_ms"] is not None
    ]
    p99_us = max(batched_p99s) if batched_p99s else 0.0
    budget = budget_us * budget_scale
    if not p99_us <= budget:
        raise AssertionError(
            f"batched per-tenant tick p99 {p99_us:.1f}us exceeds the {budget:g}us "
            f"budget (budget_us={budget_us:g} x scale={budget_scale:g})"
        )

    section = {
        "tenants": int(tenants),
        "families": list(families),
        "algorithms": list(algorithms),
        "ticks_total": report["ticks_total"],
        "checkpoint_at": checkpoint_at,
        "max_cost_deviation": report["max_cost_deviation"],
        "schedules_identical": report["schedules_identical"],
        "batched_ticks": batch["batched_ticks"],
        "fallback_ticks": batch["fallback_ticks"],
        "batch_hit_rate": batch["batch_hit_rate"],
        "p99_us_batched": round(p99_us, 2),
        "budget_us": budget_us,
        "budget_scale": budget_scale,
    }
    if json_path:
        write_bench_json(json_path, section, section="batch_smoke")
    return section


# --------------------------------------------------------------------------- #
# Smoke gates: every case runs, a broken one fails the gate
# --------------------------------------------------------------------------- #


def _run_cases(
    label: str,
    columns: Sequence[str],
    cases: Sequence[Tuple[str, Callable[[], dict]]],
    describe: Callable[[Exception], str] = str,
) -> Tuple[List[dict], List[str]]:
    """Run a smoke's ``(name, check)`` cases: ``(rows, failures)``.

    ``check()`` returns its row's ``columns``.  A case that raises becomes a
    row of ``-`` plus the failure ``"name: describe(exc)"``, and the other
    cases still run.  Every row is labelled ``{label: name}`` and ends with
    its ``seconds`` and ``ok``.
    """
    rows: List[dict] = []
    failures: List[str] = []
    for name, check in cases:
        start = time.perf_counter()
        try:
            values, ok = check(), True
        except Exception as exc:  # a broken case must fail the gate, not crash it
            failures.append(f"{name}: {describe(exc)}")
            values, ok = dict.fromkeys(columns, "-"), False
        seconds = round(time.perf_counter() - start, 4)
        rows.append({label: name, **values, "seconds": seconds, "ok": ok})
    return rows, failures


def _smoke_family(name: str):
    """A registered scenario family built at its smoke size: ``(spec, instance)``."""
    from . import scenarios

    spec_obj = scenarios.ScenarioSpec(name, dict(scenarios.family(name).smoke_params))
    return spec_obj, scenarios.build(spec_obj)


def run_scenarios_smoke(json_path: Optional[str] = None) -> dict:
    """The scenario-registry gate (``make scenarios-smoke``): every registered
    family builds at its smoke size and runs Algorithm A through the sweep
    engine, at a finite cost no lower than the exact optimum.

    Returns ``{"scenarios_smoke": rows, "failures": [...]}``; ``json_path``
    gets the rows.
    """
    from . import scenarios
    from .exp import run_instance
    from .exp.engine import spec as algo_spec

    def check(name):
        spec_obj, instance = _smoke_family(name)
        record = run_instance(
            instance, algorithms=(algo_spec("A", bound=None),), scenario=spec_obj
        )[0]
        if not (np.isfinite(record.cost) and record.ratio >= 1.0 - 1e-9):
            raise AssertionError(f"cost {record.cost!r} vs optimum {record.optimal_cost!r}")
        return {
            "instance": instance.name,
            "T": instance.T,
            "d": instance.d,
            "optimal": round(record.optimal_cost, 3),
            "algorithm_A": round(record.cost, 3),
            "ratio": round(record.ratio, 4),
        }

    rows, failures = _run_cases(
        "scenario",
        ("instance", "T", "d", "optimal", "algorithm_A", "ratio"),
        [(name, partial(check, name)) for name in scenarios.names()],
        describe=repr,
    )
    if json_path:
        write_bench_json(json_path, {"scenarios_smoke": rows})
    return {"scenarios_smoke": rows, "failures": failures}


def run_serve_smoke(json_path: Optional[str] = None, tolerance: float = 1e-9) -> dict:
    """The streaming-equivalence gate (``make serve-smoke``): every registered
    scenario family must replay through a ControllerSession — including one
    mid-stream checkpoint/restore round-trip — and reproduce the batch
    ``run_online`` schedule exactly and its cost within ``tolerance``.

    Returns ``{"serve_smoke": rows, "failures": [...]}``; ``json_path`` gets
    the rows.
    """
    from . import scenarios
    from .serve import verify_replay

    def check(name):
        _, instance = _smoke_family(name)
        row = verify_replay(
            instance,
            "A",
            # a one-slot family has no interior tick to checkpoint at
            checkpoint_at=instance.T // 2 if instance.T >= 2 else None,
            tolerance=tolerance,
        )
        return {
            "ticks": row["ticks"],
            "checkpoint_at": row["checkpoint_at"],
            "cost": round(row["cost"], 3),
            "cost_deviation": f"{row['cost_deviation']:.2e}",
            "p50_ms": row["latency"].get("p50_ms"),
        }

    rows, failures = _run_cases(
        "scenario",
        ("ticks", "checkpoint_at", "cost", "cost_deviation", "p50_ms"),
        [(name, partial(check, name)) for name in scenarios.names()],
    )
    if json_path:
        write_bench_json(json_path, {"serve_smoke": rows})
    return {"serve_smoke": rows, "failures": failures}


def run_chaos_smoke(json_path: Optional[str] = None, tolerance: float = 1e-9) -> dict:
    """The chaos gate (``make chaos-smoke``): every chaos-* family must replay
    deterministically under an injected event plan — bit-identical schedules
    and SLA counters across a mid-stream checkpoint/restore round-trip — and
    targeted single-kind injections must actually shed and account (a fault
    layer that never fires would gate nothing).  The per-tick telemetry rows
    must carry the SLA accounting too.

    Returns ``{"chaos_smoke": rows, "failures": [...]}``; ``json_path`` gets
    the rows.
    """
    from . import scenarios
    from .scenarios.events import ChaosEvent, EventPlan
    from .serve import ChaosFeed, ControllerSession, InstanceFeed, verify_chaos_replay

    def check(instance, plan, algorithm="A", must_violate=False):
        row = verify_chaos_replay(instance, plan, algorithm=algorithm, tolerance=tolerance)
        if must_violate and row["sla_violations"] == 0:
            raise AssertionError(
                "the injected fault produced no SLA violations — injection is not firing"
            )
        return {
            "ticks": row["ticks"],
            "events": row["events"],
            "sla_violations": row["sla_violations"],
            "shed": round(row["shed_demand"], 3),
            "forced_down": row["forced_downs"],
            "cost": round(row["cost"], 3),
        }

    def check_family(name):
        _, instance = _smoke_family(name)
        return check(instance, EventPlan.generate(instance.T, instance.d, seed=7, n_events=3))

    # every chaos-* family replays deterministically under a generated plan,
    # then targeted single-kind injections must fire (overload / forced downs)
    base = scenarios.build("diurnal-cpu-gpu", T=12)
    flash_crowd = EventPlan(events=(ChaosEvent("flash_crowd", t=3, duration=3, magnitude=50.0),))
    targeted = [
        ("inject:flash_crowd", flash_crowd, "A"),
        ("inject:capacity_drop", EventPlan(events=(ChaosEvent("capacity_drop", t=5, duration=4, magnitude=0.9),)), "B"),
        ("inject:price_shock", EventPlan(events=(ChaosEvent("price_shock", t=2, duration=5, magnitude=3.0),
                                                 ChaosEvent("flash_crowd", t=8, duration=2, magnitude=20.0),)), "A"),
    ]
    rows, failures = _run_cases(
        "case",
        ("ticks", "events", "sla_violations", "shed", "forced_down", "cost"),
        [(name, partial(check_family, name))
         for name in scenarios.names() if name.startswith("chaos-")]
        + [(label, partial(check, base, plan, algorithm, must_violate=True))
           for label, plan, algorithm in targeted],
    )

    # the telemetry contract: SLA accounting must reach the per-tick rows
    try:
        feed = ChaosFeed(InstanceFeed(base), flash_crowd)
        session = ControllerSession("A", base.server_types, degradation="shed")
        saw_violation = False
        for tick in feed:
            row = session.observe(tick.demand, cost_row=tick.cost_row, counts=tick.counts).as_row()
            if "sla_violation" not in row or "feasible" not in row:
                raise AssertionError(f"telemetry row lacks SLA/feasibility keys: {sorted(row)}")
            saw_violation = saw_violation or row["sla_violation"]
        if not saw_violation:
            raise AssertionError("no telemetry row carried sla_violation=True under overload")
    except Exception as exc:
        failures.append(f"telemetry-contract: {exc}")

    if json_path:
        write_bench_json(json_path, {"chaos_smoke": rows})
    return {"chaos_smoke": rows, "failures": failures}


def run_fabric_smoke(json_path: Optional[str] = None, tolerance: float = 1e-9) -> dict:
    """The crash-recovery gate (``make fabric-smoke``): a small sharded fabric
    with one injected worker SIGKILL must recover every tenant from its
    rotated checkpoints bit-identically — schedules exact, costs within 1e-9,
    SLA counters exact — in both clean and chaos-under-fire conditions.

    Returns ``{"fabric_smoke": rows, "failures": [...]}``; ``json_path`` gets
    the rows.
    """
    from .serve import verify_crash_recovery

    def check(**kwargs):
        row = verify_crash_recovery(tolerance=tolerance, **kwargs)
        return {
            "tenants": row["tenants"],
            "workers": row["workers"],
            "kill": f"w{row['kill']['worker']}@r{row['kill']['round']}",
            "restarts": row["restarts"],
            "recovery_ms": round(1e3 * max(row["recovery_latency_s"] or [0.0]), 1),
            "ticks": row["ticks"],
            "cost_delta": f"{row['max_cost_delta']:.2e}",
            "sla_violations": row["sla_violations"],
        }

    rows, failures = _run_cases(
        "case",
        ("tenants", "workers", "kill", "restarts", "recovery_ms", "ticks", "cost_delta",
         "sla_violations"),
        [
            ("kill+recover", partial(check, n_tenants=3, workers=2, kill_worker=0,
                                     checkpoint_every=4, algorithm="A")),
            # the hard case: the kill lands while a capacity drop is open and
            # Algorithm B holds live power-up records, in shed mode
            ("kill+recover:chaos", partial(
                check, n_tenants=2, workers=2, kill_worker=0, kill_round=24,
                checkpoint_every=4, algorithm="B", degradation="shed",
                chaos={"events": [
                    {"kind": "capacity_drop", "t": 18, "duration": 14, "magnitude": 0.5},
                    {"kind": "flash_crowd", "t": 20, "duration": 10, "magnitude": 2.5},
                ]},
            )),
        ],
    )
    if json_path:
        write_bench_json(json_path, {"fabric_smoke": rows})
    return {"fabric_smoke": rows, "failures": failures}


# --------------------------------------------------------------------------- #
# BENCH_*.json: the one writer and the trend series
# --------------------------------------------------------------------------- #

#: Rolling-history cap for the per-file ``"runs"`` trend series.  Old entries
#: fall off the front so committed BENCH_*.json artifacts stay reviewable.
TREND_MAX_RUNS = 40


def _read_bench_json(json_path) -> dict:
    """The JSON object a ``BENCH_*.json`` file holds; ``ValueError`` says why it cannot be read."""
    try:
        with open(json_path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ValueError(exc.strerror or str(exc)) from exc
    if not isinstance(data, dict):
        raise ValueError("not a JSON object")
    return data


def write_bench_json(
    path, payload: dict, section: Optional[str] = None, headline: Optional[dict] = None
) -> dict:
    """Merge one gate's ``payload`` into the ``BENCH_*.json`` file at ``path``.

    A file holds one benchmark's payload at its top level (``section=None``)
    and any number of other gates' payloads under their own ``section`` key.
    A write replaces only its own keys, so every other section of the file
    survives it.  The payload written is stamped with ``recorded_at`` and the
    ``environment``; a section write stamps only its own section.  With a
    ``headline``, one compact entry (the stamp plus the headline metrics,
    which name their ``benchmark``) is appended to the file's one ``"runs"``
    trend series, capped at :data:`TREND_MAX_RUNS`; benchmarks sharing a file
    interleave in it.  Returns the document written.
    """
    try:
        document = _read_bench_json(path)
    except ValueError:  # no file yet, or one no reader can use: start afresh
        document = {}
    stamp = {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
    }
    if section is None:
        document.update(payload, **stamp)
    else:
        document[section] = dict(payload, **stamp)
    if headline is not None:
        runs = document.get("runs", []) + [dict(stamp, **headline)]
        document["runs"] = runs[-TREND_MAX_RUNS:]
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
    return document


def trend_deltas(runs) -> dict:
    """Numeric headline deltas of the last trend entry against its predecessor.

    One ``"runs"`` series interleaves several benchmarks (``serve`` and
    ``serve-batch-scale`` entries share ``BENCH_serve.json``), so the
    predecessor is the previous entry of the *same* ``benchmark``.  Empty
    when there is none or no numeric field is shared between the two — the
    caller prints "no previous run to compare" instead.
    """
    if not runs:
        return {}
    last = runs[-1]
    same = [run for run in runs[:-1] if run.get("benchmark") == last.get("benchmark")]
    if not same:
        return {}
    prev = same[-1]
    deltas = {}
    for key, value in last.items():
        before = prev.get(key)
        if (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and isinstance(before, (int, float))
            and not isinstance(before, bool)
        ):
            deltas[key] = round(value - before, 9)
    return deltas


def trend_report(json_path) -> dict:
    """The ``repro bench --latest`` view of one ``BENCH_*.json`` file.

    Returns the newest trend entry plus its deltas against the previous run
    of the same benchmark, and under ``"benchmarks"`` the same view for each
    ``benchmark`` of the series (the one recorded last comes last).  A file
    without a trend series reports ``entries`` 0 and its ``recorded_at``, so
    a stale file still shows; a file that cannot be read (missing, not JSON,
    not an object) reports why under ``"unreadable"``.
    """
    try:
        data = _read_bench_json(json_path)
    except ValueError as exc:
        return {"path": str(json_path), "unreadable": str(exc)}
    runs = data.get("runs")
    if not runs:
        return {"path": str(json_path), "entries": 0, "recorded_at": data.get("recorded_at")}
    newest: Dict[object, int] = {}
    for index, run in enumerate(runs):
        newest[run.get("benchmark")] = index
    return {
        "path": str(json_path),
        "entries": len(runs),
        "latest": runs[-1],
        "deltas_vs_previous": trend_deltas(runs),
        "benchmarks": [
            {
                "benchmark": name,
                "entries": sum(run.get("benchmark") == name for run in runs),
                "latest": runs[index],
                "deltas_vs_previous": trend_deltas(runs[: index + 1]),
            }
            for name, index in sorted(newest.items(), key=lambda item: item[1])
        ],
    }


#: The ``perfbench/run.py`` workloads ``repro bench --perfbench`` records.
PERFBENCH_WORKLOADS = ("fleet-steady", "continuous-cold", "offline-plan")


def record_perfbench_run(
    json_path, workload: str, line: str, seed: int, seconds: float
) -> dict:
    """One ``perfbench/run.py`` result as a trend row, written when ``json_path`` is given.

    ``line`` is the run's last line of output, its JSON result.  The
    workload's section of the file holds the whole result; its headline
    (benchmark ``perfbench-<workload>``) holds every end-to-end metric plus
    ``correct`` and ``failed``.  Returns the row.
    """
    result = json.loads(line)
    row = {
        "workload": workload,
        "seed": int(seed),
        "seconds": float(seconds),
        "correct": result.get("correct") is True,
        "attempted": int(result.get("attempted", 0)),
        "failed": int(result.get("failed", 0)),
        **{name: float(f"{entry['value']:.6g}") for name, entry in result.get("metrics", {}).items()},
    }
    if json_path:
        write_bench_json(
            json_path,
            dict(row, units={name: e["unit"] for name, e in result.get("metrics", {}).items()}),
            section=workload,
            headline={
                "benchmark": f"perfbench-{workload}",
                **{k: v for k, v in row.items() if k not in ("workload", "seed", "seconds", "attempted")},
            },
        )
    return row


def run_perfbench_bench(json_path: Optional[str] = None) -> dict:
    """Run the repository benchmark's end-to-end pass per workload and record it.

    ``make bench-perfbench``: ``python perfbench/run.py --workload W --seed
    1 --seconds 25`` for every workload, each in its own process from the
    repository root, and its last output line through
    :func:`record_perfbench_run`, so ``BENCH_perfbench.json`` keeps one
    section and one trend headline per workload.  One seed and one run
    length keep the entries comparable run to run.  A run that exits
    non-zero, prints no result or reads ``correct`` false is a failure.
    """
    root = Path(__file__).resolve().parents[2]
    seed, seconds = 1, 25.0
    rows, failures = [], []
    for workload in PERFBENCH_WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds)],
            cwd=root, capture_output=True, text=True,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            failures.append(f"{workload}: perfbench exited {done.returncode}: {done.stderr.strip()[-500:]}")
            continue
        row = record_perfbench_run(json_path, workload, lines[-1], seed, seconds)
        rows.append(row)
        if not row["correct"]:
            checks = [text for text in lines if text.startswith("# FAIL")]
            failures.append(f"{workload}: {row['failed']} failed; " + "; ".join(checks))
    return {"benchmark": "perfbench", "rows": rows, "failures": failures}


def run_fabric_bench(
    n_tenants: int = 6,
    workers: int = 2,
    scenario: str = "diurnal-cpu-gpu",
    algorithm: str = "A",
    checkpoint_every: int = 4,
    json_path: Optional[str] = None,
) -> dict:
    """Benchmark the serve fabric: healthy-path tick latency + crash recovery.

    Two runs of an ``n_tenants``-over-``workers`` fabric:

    * a **healthy** run recording per-tenant tick-latency percentiles (the
      headline number is the worst tenant p99 — process sharding must not
      cost tail latency), and
    * a **crash** run through :func:`~repro.serve.verify_crash_recovery` —
      worker 0 SIGKILLed mid-stream — recording the crash-to-recovered
      latency, *gated* on bit-identical recovery.

    Results are merged under the ``"fabric"`` key of ``BENCH_serve.json``
    (the rest of the file is ``run_serve_bench``'s); wall/latency numbers are
    advisory, the recovery-equivalence gate is not.
    """
    from .serve import ServeFabric, verify_crash_recovery

    fabric = ServeFabric(workers=workers, checkpoint_every=checkpoint_every)
    for i in range(int(n_tenants)):
        fabric.add_tenant(
            f"tenant-{i}",
            algorithm=algorithm,
            feed={"kind": "scenario", "scenario": scenario, "seed": i},
        )
    healthy = fabric.run()
    p99s = {
        name: row["latency"]["p99_ms"]
        for name, row in healthy["tenants"].items()
        if isinstance(row.get("latency"), dict) and "p99_ms" in row["latency"]
    }
    if not p99s:
        raise AssertionError("fabric bench: no tenant reported tick-latency percentiles")

    verification = verify_crash_recovery(
        scenario,
        n_tenants=n_tenants,
        workers=workers,
        algorithm=algorithm,
        checkpoint_every=checkpoint_every,
    )

    payload = {
        "scenario": scenario,
        "algorithm": algorithm,
        "tenants": int(n_tenants),
        "workers": int(workers),
        "checkpoint_every": int(checkpoint_every),
        "ticks": healthy["totals"]["ticks"],
        "wall_seconds": healthy["wall_seconds"],
        "tick_latency": {
            "p99_ms_worst_tenant": max(p99s.values()),
            "p99_ms_mean": round(sum(p99s.values()) / len(p99s), 6),
            "per_tenant_p99_ms": p99s,
        },
        "crash_recovery": {
            "kill": verification["kill"],
            "restarts": verification["restarts"],
            "recovery_latency_s": verification["recovery_latency_s"],
            "max_cost_delta": verification["max_cost_delta"],
            "verified": verification["verified"],
        },
        "note": "recovery equivalence gates; latency and wall numbers are advisory",
    }
    if json_path:
        write_bench_json(json_path, payload, section="fabric")
    return payload


# --------------------------------------------------------------------------- #
# SERVE: counter pins and microsecond-tick latency gate
# --------------------------------------------------------------------------- #

#: Exact work counters of the pinned counter-regression workload (8 tenants,
#: 64 quantised ticks of diurnal-cpu-gpu, algorithm A, shared caches) — all
#: integers are deterministic functions of the instance, independent of the
#: machine, so the gate is exact equality.  ``grid_hit_rate`` is the serve
#: cache's rounded hit ratio; ``*_prewarmed`` rows pin the table-gather
#: fast path; ``*_continuous`` rows pin the cold continuous-demand tick (one
#: tenant each of A, B, C, lcp and reactive on unquantised traces).  The
#: engine's cohorts fetch one grid tensor per distinct level instead of one
#: per member's tracker, and reactive's cohort reads the tensor memo instead
#: of asking the dispatcher, hence ``tensor_hits``, ``grid_hit_rate``,
#: ``table_gathers_prewarmed`` and the continuous slot queries and block calls.
#: A configuration's first answer and Algorithm C's repair read the slot's
#: solved grid block instead of querying the dispatcher, so the only slot
#: queries left are the grid solves (``slot_queries`` = ``unique_solves``,
#: one block call per continuous round), and ``table_gathers_prewarmed``
#: counts prewarm's 12 x 18 configuration reads as well.
PINNED_SERVE_COUNTERS: Dict[str, float] = {
    "unique_solves": 12,
    "slot_queries": 12,
    "tensor_hits": 315,
    "tensor_misses": 12,
    "grid_hit_rate": 0.963303,
    "table_gathers_prewarmed": 1030,
    "prewarmed_levels": 12,
    "unique_solves_prewarmed": 12,
    "unique_solves_continuous": 160,
    "slot_queries_continuous": 160,
    "block_calls_continuous": 32,
}

#: Where each pin of :data:`PINNED_SERVE_COUNTERS` is measured: the replay and
#: its key in the report's ``cache_totals`` (plus the derived ``grid_hit_rate``).
COUNTER_PIN_SOURCES: Dict[str, Tuple[str, str]] = {
    "unique_solves": ("cold", "unique_solves"),
    "slot_queries": ("cold", "slot_queries"),
    "tensor_hits": ("cold", "tensor_hits"),
    "tensor_misses": ("cold", "tensor_misses"),
    "grid_hit_rate": ("cold", "grid_hit_rate"),
    "table_gathers_prewarmed": ("prewarmed", "table_gathers"),
    "prewarmed_levels": ("prewarmed", "prewarmed_levels"),
    "unique_solves_prewarmed": ("prewarmed", "unique_solves"),
    "unique_solves_continuous": ("continuous", "unique_solves"),
    "slot_queries_continuous": ("continuous", "slot_queries"),
    "block_calls_continuous": ("continuous", "block_calls"),
}


def run_counter_regress(json_path: Optional[str] = None) -> dict:
    """Pin the hot-path work counters on fixed multi-tenant workloads.

    Two replays of the same deterministic workload (8 tenants, rotated
    copies of a 64-tick quantised ``diurnal-cpu-gpu`` trace, algorithm A,
    shared caches):

    * **cold** — the default path; pins ``unique_solves``, ``slot_queries``,
      ``tensor_hits``/``tensor_misses`` and the serve-level ``grid_hit_rate``,
      and
    * **prewarmed** — the demand alphabet prewarmed into the cache's fast
      maps; pins ``table_gathers`` and ``prewarmed_levels``,

    plus a **continuous** replay: one tenant each of A, B, C, lcp and
    reactive, each on its own fixed-seed *unquantised* 32-tick
    ``diurnal-cpu-gpu`` trace, shared caches, no prewarm.  Every tick sees a
    new demand level, so it pins the cold tick's ``unique_solves`` (one grid
    solve per tenant-tick; the committed configuration and Algorithm C's
    repair are read from it), ``slot_queries`` and ``block_calls`` (each
    round's cold grids are solved in one block and nothing else queries, so
    a return to one grid solve, or one configuration query, per tenant-tick
    fails).

    No replay warm-starts the dispatch: it solves each cell exactly by an
    event sweep, which needs no starting bracket, so there is no bracket
    seeding to pin (the ``warm_hits``/``cold_solves`` pins went with it).

    The prewarmed run must also reproduce the cold run's per-tenant costs to 1e-9
    (the counters may only change when the *work routing* changes, never the
    decisions).  Each pin is read once, from its replay's report
    ``cache_totals`` (:data:`COUNTER_PIN_SOURCES`), and gates by exact
    equality against :data:`PINNED_SERVE_COUNTERS` — they are integer-valued
    functions of the instance, so any drift means the routing changed and the
    pins (plus PERFORMANCE.md) must be re-derived deliberately.
    """
    from .serve import InstanceFeed, ServeEngine
    from .workloads.scale import quantise_trace

    ticks, levels, tenants = 64, 12, 8
    base = build_scenario("diurnal-cpu-gpu", T=ticks)
    demand = quantise_trace(base.demand, levels=levels)
    instance = base.with_demand(demand, name="counter-regress")
    quantised = [
        (f"tenant-{k}", "A", instance.with_demand(np.roll(demand, k), name=f"tenant-{k}"))
        for k in range(tenants)
    ]
    continuous_ticks, continuous_kinds = 32, ("A", "B", "C", "lcp", "reactive")
    continuous = [
        (f"tenant-{kind}", kind,
         build_scenario("diurnal-cpu-gpu", T=continuous_ticks, seed=k + 1))
        for k, kind in enumerate(continuous_kinds)
    ]

    def replay(workload, prewarm: bool = False):
        engine = ServeEngine(share_caches=True)
        for name, kind, tenant_instance in workload:
            engine.add_tenant(name, kind, InstanceFeed(tenant_instance))
        if prewarm:
            engine.prewarm(sorted({float(v) for v in demand}))
        totals = engine.run()["cache_totals"]
        totals["grid_hit_rate"] = round(
            totals["tensor_hits"] / max(totals["tensor_hits"] + totals["tensor_misses"], 1), 6
        )
        return totals, [s.cumulative_cost for s in engine.sessions]

    cold, cold_costs = replay(quantised)
    pre, pre_costs = replay(quantised, prewarm=True)
    cont, _ = replay(continuous)

    worst = max(abs(a - b) for a, b in zip(pre_costs, cold_costs))
    if not worst <= 1e-9:
        raise AssertionError(
            f"counter regress: prewarmed replay changed a tenant's cost by "
            f"{worst:.3e} — counter routing must be decision-neutral"
        )

    modes = {"cold": cold, "prewarmed": pre, "continuous": cont}
    measured = {
        pin: modes[mode][key] for pin, (mode, key) in COUNTER_PIN_SOURCES.items()
    }
    deviations = {
        key: (pinned, measured.get(key))
        for key, pinned in PINNED_SERVE_COUNTERS.items()
        if measured.get(key) != pinned
    }
    if deviations:
        drifted = ", ".join(
            f"{key}: pinned {pinned!r} vs measured {got!r}"
            for key, (pinned, got) in sorted(deviations.items())
        )
        raise AssertionError(
            f"counter regress: hot-path work counters drifted ({drifted}) — "
            "the solve routing changed; re-derive the pins only if the change "
            "is intentional"
        )
    if pre["table_gathers"] <= 0:
        raise AssertionError(
            "counter regress: prewarmed replay recorded no table gathers — "
            "the quantised fast path is dead code"
        )

    payload = {
        "benchmark": "counter_regress",
        "workload": {
            "scenario": "diurnal-cpu-gpu",
            "ticks": ticks,
            "demand_levels": levels,
            "tenants": tenants,
            "algorithm": "A",
            "continuous": {"ticks": continuous_ticks, "algorithms": list(continuous_kinds)},
        },
        "measured": measured,
        "pinned": dict(PINNED_SERVE_COUNTERS),
        "modes": modes,
        "note": "all counters gate by exact equality; costs gate at 1e-9",
    }
    if json_path:
        return write_bench_json(json_path, payload)
    return payload


#: Total stream cost of the latency-smoke replay (256 quantised ticks of
#: diurnal-cpu-gpu, 12 levels, algorithm A) — machine-independent; the gate
#: reproduces it to 1e-9 on every path (plain, prewarmed, every repeat).
PINNED_LATENCY_SMOKE_COST: Optional[float] = 2424.533801552966


def _percentiles_us(us: np.ndarray) -> dict:
    """p50/p90/p99/max of per-tick microseconds, rounded to 0.01 µs."""
    return {
        "p50_us": round(float(np.percentile(us, 50)), 2),
        "p90_us": round(float(np.percentile(us, 90)), 2),
        "p99_us": round(float(np.percentile(us, 99)), 2),
        "max_us": round(float(us.max()), 2),
    }


def run_latency_smoke(
    budget_us: float = 50.0,
    budget_scale: float = 1.0,
    repeats: int = 6,
    ticks: int = 256,
    demand_levels: int = 12,
    scenario: str = "diurnal-cpu-gpu",
    algorithm: str = "A",
    json_path: Optional[str] = None,
) -> dict:
    """Gate the steady-state tick latency of the quantised serve hot path.

    Replays a ``ticks``-slot quantised trace through ``repeats`` fresh
    sessions over one *prewarmed* shared :class:`~repro.serve.ServeCache`
    (the table-gather fast path) and gates the **p99 of the per-tick floor**
    against ``budget_us * budget_scale`` microseconds.

    Measurement methodology — why the floor and not a single run's p99: on a
    shared machine the raw per-run p99 is dominated by OS preemption (a
    handful of 100-400µs spikes at *random* tick indices, plus the
    intrinsically cold ticks 0-1 that build the startup tensor and the
    transition plan).  Taking the elementwise **minimum latency per tick
    index across repeats** (best-of-N) cancels the additive scheduler noise
    while preserving every cost the algorithm itself pays — a tick can never
    run faster than its intrinsic work.  Raw per-repeat percentiles are
    recorded alongside as advisory context; CI runs the same gate with a
    generous ``budget_scale`` because shared runners are noisier still.

    Correctness rides along: every repeat's outcome must match a plain
    cold-path session's — identical schedule, total cost equal to 1e-9 (and
    to :data:`PINNED_LATENCY_SMOKE_COST` at the default parameters) — the
    fast path may only be fast, never different.

    GC is disabled around the timed loops; latencies are the sessions' own
    ``perf_counter_ns`` integers.
    """
    import gc

    from .serve import ControllerSession, ServeCache
    from .workloads.scale import quantise_trace

    ticks = int(ticks)
    repeats = max(2, int(repeats))
    base = build_scenario(scenario, T=ticks)
    demand = quantise_trace(base.demand, levels=demand_levels)
    demand_list = [float(v) for v in demand]
    levels = sorted(set(demand_list))
    server_types = base.server_types

    # reference: plain cold-path session, no shared cache, no fast maps
    plain = ControllerSession(algorithm, server_types, name="plain")
    for value in demand_list:
        plain.observe(value)
    plain.finish()
    reference_cost = plain.cumulative_cost

    cache = ServeCache(server_types)
    cache.prewarm(levels)

    per_tick = np.empty((repeats, ticks), dtype=np.int64)
    per_rep_rows = []
    for rep in range(repeats):
        session = ControllerSession(algorithm, cache=cache, name=f"rep-{rep}")
        gc.disable()
        try:
            for value in demand_list:
                session.observe(value)
        finally:
            gc.enable()
        session.finish()
        assert_same(
            plain, session,
            label=f"latency smoke: prewarmed repeat {rep} vs the plain cold-path session",
            tolerance=1e-9,
        )
        lat = session.latencies_ns
        per_tick[rep] = lat
        per_rep_rows.append({"repeat": rep, **_percentiles_us(lat / 1000.0)})

    defaults = (
        scenario == "diurnal-cpu-gpu"
        and ticks == 256
        and demand_levels == 12
        and algorithm == "A"
    )
    if defaults and PINNED_LATENCY_SMOKE_COST is not None:
        pin_deviation = abs(reference_cost - PINNED_LATENCY_SMOKE_COST)
        if not pin_deviation <= 1e-9:
            raise AssertionError(
                f"latency smoke: stream cost {reference_cost!r} deviates from the "
                f"pinned value {PINNED_LATENCY_SMOKE_COST!r} by {pin_deviation:.3e}"
            )

    floor = _percentiles_us(per_tick.min(axis=0) / 1000.0)
    budget = float(budget_us) * float(budget_scale)
    if not floor["p99_us"] < budget:
        raise AssertionError(
            f"latency smoke: steady-state p99 tick latency {floor['p99_us']}µs "
            f"(per-tick floor over {repeats} repeats) exceeds the "
            f"{budget:g}µs budget ({budget_us:g}µs x {budget_scale:g})"
        )

    # tracing-overhead rider: the same workload fully traced (trace_every=1,
    # the sampling knob's worst case — three perf_counter_ns pairs per tick)
    # must keep its floor p99 under 2x the untraced budget, and must remain
    # decision-neutral.  Same floor-of-repeats methodology as above.
    from .serve.trace import TickTracer

    tracer = TickTracer(trace_every=1)
    traced_tick = np.empty((repeats, ticks), dtype=np.int64)
    for rep in range(repeats):
        session = ControllerSession(
            algorithm, cache=cache, name=f"traced-{rep}", tracer=tracer
        )
        gc.disable()
        try:
            for value in demand_list:
                session.observe(value)
        finally:
            gc.enable()
        session.finish()
        assert_same(
            plain, session,
            label=f"latency smoke: traced repeat {rep} vs the plain cold-path session",
            tolerance=1e-9,
        )
        traced_tick[rep] = session.latencies_ns
    traced_floor = _percentiles_us(traced_tick.min(axis=0) / 1000.0)
    if not traced_floor["p99_us"] < 2.0 * budget:
        raise AssertionError(
            f"latency smoke: fully-traced p99 tick latency {traced_floor['p99_us']}µs "
            f"exceeds 2x the {budget:g}µs budget — the tracer is on the wrong "
            "side of the hot path"
        )

    payload = {
        "benchmark": "latency_smoke",
        "scenario": scenario,
        "algorithm": algorithm,
        "ticks": ticks,
        "demand_levels": demand_levels,
        "repeats": repeats,
        "budget_us": float(budget_us),
        "budget_scale": float(budget_scale),
        "cost": reference_cost,
        "prewarmed_levels": len(levels),
        "table_gathers": cache.table_gathers,
        "floor_us": floor,
        "traced": {
            "trace_every": 1,
            "sampled_ticks": tracer.sampled_ticks,
            "floor_us": traced_floor,
            "budget_us": round(2.0 * budget, 6),
        },
        "per_repeat_us": per_rep_rows,
        "note": (
            "floor_us = percentiles of the per-tick minimum across repeats "
            "(cancels additive OS noise); per_repeat_us rows are raw and "
            "advisory; schedule/cost equality gates"
        ),
    }
    if json_path:
        write_bench_json(
            json_path,
            payload,
            section="latency",
            headline={
                "benchmark": "latency_smoke",
                "floor_p99_us": floor["p99_us"],
                "floor_p50_us": floor["p50_us"],
                "budget_us": budget,
            },
        )
    return payload
