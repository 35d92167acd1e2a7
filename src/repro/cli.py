"""Command-line interface.

The CLI wraps the most common workflows so the library can be exercised
without writing Python:

``python -m repro trace``
    Generate a synthetic demand trace (CSV on stdout or to a file).

``python -m repro solve``
    Solve a scenario offline — exactly or with the (1+eps)-approximation — and
    print the schedule summary (optionally the full schedule as CSV).

``python -m repro online``
    Run one of the online algorithms over a scenario and report its cost and
    empirical competitive ratio against the offline optimum.

``python -m repro compare``
    Run the whole algorithm suite on one scenario and print the comparison
    table (the same table the COMP benchmark regenerates).

``python -m repro scenarios list|describe|build|smoke``
    Inspect and exercise the declarative scenario registry: list the
    registered families, show one family's parameters and defaults, build an
    instance from ``NAME --param k=v --seed N``, or run the smoke suite (every
    family at a tiny size, one algorithm through each — the ``make
    scenarios-smoke`` gate).

``python -m repro sweep``
    Batch several online algorithms (times several seeds) through the
    shared-context sweep engine: one dispatch solver, one set of grid
    operating-cost tensors and one prefix-DP value history per
    instance, with optional process sharding (``--jobs``) and machine-readable
    output (``--json``).  Instances come from ``--fleet``/``--trace`` as
    before, or declaratively: ``--scenario NAME[,NAME...] --param k=v`` builds
    registry specs, ``--plan plan.json`` compiles a whole selection file; both
    materialise instances lazily inside worker shards and stamp the spec
    (name + params + seed) into every record.

``python -m repro serve replay|bench|latency|smoke``
    The live replay & serving subsystem: stream a scenario tick by tick
    through a :class:`~repro.serve.ControllerSession` (``replay`` — with
    optional time-warp pacing, per-tick JSONL telemetry, a mid-stream
    checkpoint/restore round-trip and batch-equivalence verification), run
    the multi-tenant serving benchmark (``bench`` — latency percentiles and
    shared-vs-isolated cache counters for 1/8/64 concurrent sessions), gate
    the microsecond tick hot path (``latency`` — p99 of the per-tick floor
    over repeated prewarmed replays against ``--budget-us``, the ``make
    bench-latency-smoke`` CI gate), or run the streaming-equivalence gate
    over every registered scenario family (``smoke`` — the ``make
    serve-smoke`` CI gate).

``python -m repro bench --smoke``
    Run the <30s benchmark regression harness: solve three pinned instances
    and assert the DP still returns seed-identical optimal costs (guards the
    batched dispatch engine against accuracy drift).

``python -m repro bench --sweep``
    Run the combined THM8+13+15+22 ratio workload through the sweep engine,
    assert every cost matches the pinned PR-1 values (1e-6) and the sequential
    orchestration (1e-9), and report the measured speedup (wall times are
    advisory).

``python -m repro bench --scale``
    Run the streaming-DP scale suite: long-horizon / big-fleet instances
    solved with checkpointed O(sqrt(T))-memory backtracking, gated on cost and
    schedule equality (1e-9) against the classic all-tables pass, with
    wall-time and peak-memory columns (``--full`` for the headline T=5*10^4 /
    d=4 sizes, written to ``BENCH_scale.json``).

``python -m repro bench --counters``
    Re-run the pinned multi-tenant serve workload two ways (cold and
    with prewarmed fast maps) and assert every hot-path work counter —
    unique solves, slot queries, tensor hits/misses, grid hit rate, table
    gathers — matches its pinned value exactly (part of ``make perf-regress``).

``python -m repro bench --perfbench``
    Run ``perfbench/run.py --seconds 25`` on each of its workloads (about
    35 s in all) and append the end-to-end metrics plus
    ``correct``/``failed``, env-stamped, to the ``--json`` trend file
    (``make bench-perfbench`` writes ``BENCH_perfbench.json``); a run whose
    checks fail fails the gate.

``python -m repro bench --latest``
    Print, for each benchmark of every ``BENCH_*.json`` trend series (the
    rolling env-stamped ``"runs"`` history the gated benches append to), its
    newest entry plus the numeric deltas against that benchmark's previous
    run.

Every gate verb calls one :mod:`repro.bench` function, which runs the checks
and writes ``--json``; the CLI only parses the arguments and prints the
table, or ``FAIL:`` on stderr with exit code 1.

Scenarios are described by a fleet preset (``--fleet``) and a trace generator
(``--trace``) with ``--slots`` and ``--seed``; a custom demand trace can be
supplied from a CSV file with ``--demand-file`` (one value per line).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .analysis import compute_metrics, format_table, rows_to_csv
from .core import ProblemInstance
from .dispatch import DispatchSolver
from .offline import approximation_guarantee, solve_approx, solve_optimal
from .online import (
    AlgorithmA,
    AlgorithmB,
    AlgorithmC,
    AllOn,
    FollowDemand,
    LazyCapacityProvisioning,
    Reactive,
    optimal_static_schedule,
    run_online,
)
from .analysis.competitive import theoretical_bound
from .workloads import (
    cpu_gpu_fleet,
    fleet_instance,
    load_independent_fleet,
    named_trace,
    old_new_fleet,
    single_type_fleet,
    three_tier_fleet,
    trace_preset_names,
)

__all__ = ["main", "build_parser"]


FLEETS: Dict[str, Callable[[], list]] = {
    "single": lambda: single_type_fleet(),
    "cpu-gpu": lambda: cpu_gpu_fleet(),
    "old-new": lambda: old_new_fleet(),
    "three-tier": lambda: three_tier_fleet(),
    "load-independent": lambda: load_independent_fleet(),
}

# The named presets live in workloads.traces so the serve feeds resolve the
# exact same parameterisations (`SyntheticFeed("diurnal")` == `--trace diurnal`).
TRACES: Dict[str, Callable[[int, Optional[int]], np.ndarray]] = {
    name: (lambda T, seed, _name=name: named_trace(_name, T, rng=seed))
    for name in trace_preset_names()
}

ONLINE_ALGORITHMS: Dict[str, Callable[[argparse.Namespace], object]] = {
    "A": lambda args: AlgorithmA(),
    "B": lambda args: AlgorithmB(),
    "C": lambda args: AlgorithmC(epsilon=args.epsilon or 0.25),
    "reactive": lambda args: Reactive(),
    "follow-demand": lambda args: FollowDemand(),
    "all-on": lambda args: AllOn(),
    "lcp": lambda args: LazyCapacityProvisioning(allow_heterogeneous=True),
}


# --------------------------------------------------------------------------- #
# Scenario construction
# --------------------------------------------------------------------------- #


def _load_demand_file(path: str) -> np.ndarray:
    values = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip().split(",")[0]
            if line:
                values.append(float(line))
    if not values:
        raise SystemExit(f"demand file {path!r} contains no values")
    return np.asarray(values, dtype=float)


def _build_instance(args: argparse.Namespace) -> ProblemInstance:
    fleet = FLEETS[args.fleet]()
    if getattr(args, "demand_file", None):
        demand = _load_demand_file(args.demand_file)
    else:
        demand = TRACES[args.trace](args.slots, args.seed)
    instance = fleet_instance(fleet, demand, name=f"{args.fleet}/{args.trace}")
    if getattr(args, "price_amplitude", 0.0):
        T = instance.T
        prices = 1.0 + args.price_amplitude * np.sin(np.arange(T) / max(T, 1) * 2 * np.pi)
        instance = instance.with_price_profile(prices)
    return instance


def _schedule_csv(instance: ProblemInstance, schedule) -> str:
    rows = []
    for t in range(instance.T):
        row = {"slot": t, "demand": float(instance.demand[t])}
        for j, st in enumerate(instance.server_types):
            row[f"x_{st.name}"] = int(schedule.x[t, j])
        rows.append(row)
    return rows_to_csv(rows)


# --------------------------------------------------------------------------- #
# Sub-commands
# --------------------------------------------------------------------------- #


def _cmd_trace(args: argparse.Namespace) -> int:
    demand = TRACES[args.trace](args.slots, args.seed)
    text = "\n".join(f"{value:.6g}" for value in demand)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {len(demand)} slots to {args.out}")
    else:
        print(text)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = _build_instance(args)
    print(instance.describe())
    dispatcher = DispatchSolver(instance)
    if args.epsilon is None:
        result = solve_optimal(
            instance, dispatcher=dispatcher, checkpoint_every=args.checkpoint_every
        )
        label = "exact optimum"
        guarantee = 1.0
    else:
        result = solve_approx(
            instance, epsilon=args.epsilon, dispatcher=dispatcher,
            checkpoint_every=args.checkpoint_every,
        )
        label = f"(1+eps)-approximation, eps={args.epsilon}"
        guarantee = approximation_guarantee(result.gamma)
    metrics = compute_metrics(instance, result.schedule, name=label, dispatcher=dispatcher)
    rows = [dict(metrics.as_row(), guarantee=round(guarantee, 3), states_explored=result.num_states_explored)]
    print()
    print(format_table(rows, title="offline solution"))
    if args.schedule_csv:
        print()
        print(_schedule_csv(instance, result.schedule), end="")
    return 0


def _cmd_online(args: argparse.Namespace) -> int:
    instance = _build_instance(args)
    print(instance.describe())
    dispatcher = DispatchSolver(instance)
    algorithm = ONLINE_ALGORITHMS[args.algorithm](args)
    result = run_online(instance, algorithm, dispatcher=dispatcher)
    optimum = solve_optimal(instance, dispatcher=dispatcher, return_schedule=False).cost
    row = {
        "algorithm": result.algorithm,
        "cost": round(result.cost, 3),
        "optimal": round(optimum, 3),
        "ratio": round(result.cost / optimum, 4) if optimum > 0 else float("inf"),
    }
    if args.algorithm in ("A", "B", "C"):
        row["proven_bound"] = round(
            theoretical_bound(instance, args.algorithm, epsilon=args.epsilon or 0.25), 3
        )
    print()
    print(format_table([row], title="online run"))
    if args.schedule_csv:
        print()
        print(_schedule_csv(instance, result.schedule), end="")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    instance = _build_instance(args)
    print(instance.describe())
    dispatcher = DispatchSolver(instance)
    optimum = solve_optimal(instance, dispatcher=dispatcher)
    rows = [
        dict(compute_metrics(instance, optimum.schedule, name="offline optimum", dispatcher=dispatcher).as_row(),
             ratio=1.0)
    ]
    try:
        static = optimal_static_schedule(instance, dispatcher=dispatcher)
        metrics = compute_metrics(instance, static, name="optimal static", dispatcher=dispatcher)
        rows.append(dict(metrics.as_row(), ratio=round(metrics.total_cost / optimum.cost, 3)))
    except ValueError:
        pass
    algorithms: List[str] = ["A", "B", "reactive", "follow-demand", "all-on"]
    if instance.d == 1:
        algorithms.insert(2, "lcp")
    for key in algorithms:
        result = run_online(instance, ONLINE_ALGORITHMS[key](args), dispatcher=dispatcher)
        metrics = compute_metrics(instance, result.schedule, name=result.algorithm, dispatcher=dispatcher)
        rows.append(dict(metrics.as_row(), ratio=round(metrics.total_cost / optimum.cost, 3)))
    print()
    print(format_table(rows, title=f"algorithm comparison on {instance.name} (T={instance.T}, d={instance.d})"))
    return 0


def _parse_param_overrides(pairs: Sequence[str]) -> dict:
    """Parse repeated ``--param k=v`` flags; values go through JSON first."""
    params = {}
    for pair in pairs or []:
        key, sep, raw = pair.partition("=")
        key = key.strip()
        if not sep or not key:
            raise SystemExit(f"--param expects K=V, got {pair!r}")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def _algorithm_specs(args: argparse.Namespace) -> tuple:
    from .exp.engine import ALGORITHM_BUILDERS, spec as algo_spec

    selected = args.algorithms if args.algorithms is not None else "A,B,C"
    specs = []
    for key in selected.split(","):
        key = key.strip()
        if not key:
            continue
        if key not in ALGORITHM_BUILDERS:
            raise SystemExit(f"unknown algorithm {key!r} (choose from {', '.join(sorted(ALGORITHM_BUILDERS))})")
        if key == "C":
            specs.append(algo_spec("C", epsilon=args.epsilon or 0.25))
        elif key == "lcp":
            specs.append(algo_spec("lcp", bound=None, allow_heterogeneous=True))
        else:
            specs.append(algo_spec(key))
    return tuple(specs)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .exp import SweepPlan, run_plan

    if args.plan and args.scenario:
        raise SystemExit("--plan and --scenario are mutually exclusive")

    if args.plan:
        from dataclasses import replace

        from .scenarios import ScenarioError, load_plan

        # the plan file is the single source of truth for what runs — flags
        # that would silently lose to it are rejected instead of ignored
        # (--jobs/--checkpoint-every/--json tune *how*, so they compose)
        for flag, value in (("--param", args.param or None), ("--seeds", args.seeds),
                            ("--seed", args.seed), ("--epsilon", args.epsilon)):
            if value is not None:
                raise SystemExit(f"{flag} does not apply with --plan — put it in the plan file")
        try:
            plan = load_plan(args.plan, jobs=args.jobs, checkpoint_every=args.checkpoint_every)
        except (ScenarioError, ValueError, OSError) as exc:
            raise SystemExit(str(exc))
        if plan.algorithms or plan.offline:
            if args.algorithms:
                raise SystemExit("--algorithms does not apply with --plan — "
                                 "the plan file already selects its algorithms")
        else:
            plan = replace(plan, algorithms=_algorithm_specs(args))
        if not plan.algorithms and not plan.offline:
            raise SystemExit("no algorithms selected")
    elif args.scenario:
        from .scenarios import ScenarioError, compile_plan

        if args.seeds:
            seeds = [int(s) for s in str(args.seeds).split(",") if s.strip()]
        elif args.seed is not None:
            seeds = [args.seed]
        else:
            seeds = None  # keep each family's default seed
        specs = _algorithm_specs(args)
        if not specs:
            raise SystemExit("no algorithms selected")
        selection = {
            "scenarios": [name.strip() for name in args.scenario.split(",") if name.strip()],
            "params": _parse_param_overrides(args.param),
            "seeds": seeds,
            "algorithms": list(specs),
            "jobs": args.jobs or 1,
            "checkpoint_every": args.checkpoint_every,
        }
        try:
            plan = compile_plan(selection)
        except (ScenarioError, ValueError) as exc:
            raise SystemExit(str(exc))
    else:
        if args.seeds:
            seeds = [int(s) for s in str(args.seeds).split(",") if s.strip()]
        else:
            seeds = [0 if args.seed is None else args.seed]
        instances = []
        for seed in seeds:
            ns = argparse.Namespace(**vars(args))
            ns.seed = seed
            instance = _build_instance(ns)
            if len(seeds) > 1:
                instance = instance.with_demand(instance.demand, name=f"{instance.name}/seed{seed}")
            instances.append(instance)
        specs = _algorithm_specs(args)
        if not specs:
            raise SystemExit("no algorithms selected")
        plan = SweepPlan(
            instances=tuple(instances),
            algorithms=specs,
            jobs=args.jobs or 1,
            checkpoint_every=args.checkpoint_every,
        )

    report = run_plan(plan)
    rows = []
    for record in report:
        row = {
            "instance": record.instance,
            "algorithm": record.algorithm,
            "cost": round(record.cost, 3),
            "optimal": round(record.optimal_cost, 3),
            "ratio": round(record.ratio, 4),
            "seconds": round(record.elapsed_seconds, 4),
        }
        if record.scenario is not None and record.scenario.get("seed") is not None:
            row["seed"] = record.scenario["seed"]
        if record.bound is not None:
            row["bound"] = round(record.bound, 3)
            row["within_bound"] = bool(record.within_bound)
        rows.append(row)
    n_algorithms = len(plan.algorithms) + len(plan.offline)
    print(format_table(
        rows,
        title=f"shared-context sweep — {report.meta.get('instances', 0)} instance(s) x "
              f"{n_algorithms} run(s) each, "
              f"jobs={report.meta.get('jobs', 1)}, {report.total_seconds:.3f}s total",
    ))
    if args.json:
        report.write_json(args.json)
        print(f"\nwrote {args.json}")
    return 0


# --------------------------------------------------------------------------- #
# Gates: each `make` gate is a repro.bench function; the CLI prints its table
# --------------------------------------------------------------------------- #


def _run_gate(gate: Callable, show: Callable, json_path: Optional[str], **kwargs) -> int:
    """Call one ``repro.bench`` gate and ``show`` its payload.

    A failed check (the gate's ``AssertionError``, or the failures a smoke
    collected, reported after its table) prints ``FAIL:`` to stderr and
    returns 1.
    """
    try:
        payload = gate(json_path=json_path, **kwargs)
    except AssertionError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    show(payload)
    if json_path:
        print(f"\nwrote {json_path}")
    failures = payload.get("failures")
    if failures:
        print("\nFAIL:\n  " + "\n  ".join(failures), file=sys.stderr)
        return 1
    return 0


def _show_smoke(rows: List[dict], failures: List[str], title: str, verdict: str) -> None:
    print(format_table(rows, title=title))
    if not failures:
        print(f"\nall {len(rows)} {verdict}")


def _show_scenarios_smoke(payload: dict) -> None:
    rows = payload["scenarios_smoke"]
    _show_smoke(rows, payload["failures"], f"scenarios smoke — {len(rows)} registered families",
                "families built and ran cleanly")


def _show_serve_smoke(payload: dict) -> None:
    rows = payload["serve_smoke"]
    _show_smoke(rows, payload["failures"],
                f"serve smoke — streaming replay == batch run_online "
                f"(checkpoint/restore mid-stream, {len(rows)} families)",
                "families replay equivalently (schedule exact, cost <= 1e-9)")


def _show_chaos_smoke(payload: dict) -> None:
    rows = payload["chaos_smoke"]
    families = sum(row["case"].startswith("chaos-") for row in rows)
    _show_smoke(rows, payload["failures"],
                f"chaos smoke — deterministic fault injection + graceful degradation "
                f"({families} chaos families, {len(rows) - families} targeted injections)",
                "chaos cases replay deterministically "
                "(bit-identical schedules + SLA counters across checkpoint/restore)")


def _show_fabric_smoke(payload: dict) -> None:
    _show_smoke(payload["fabric_smoke"], payload["failures"],
                "fabric smoke — SIGKILL a worker mid-stream, recover bit-identically "
                "from rotated checkpoints",
                "crash-recovery cases verified (schedules bit-identical, "
                "costs <= 1e-9, SLA counters exact)")


def _show_fabric_bench(payload: dict) -> None:
    latency = payload["tick_latency"]
    recovery = payload["crash_recovery"]
    print(format_table(
        [{
            "tenants": payload["tenants"],
            "workers": payload["workers"],
            "ticks": payload["ticks"],
            "p99_ms_worst": latency["p99_ms_worst_tenant"],
            "p99_ms_mean": latency["p99_ms_mean"],
            "recovery_ms": round(1e3 * max(recovery["recovery_latency_s"] or [0.0]), 1),
            "restarts": recovery["restarts"],
            "verified": recovery["verified"],
        }],
        title="fabric bench — healthy-path tick latency + crash recovery",
    ))


def _show_batch_smoke(payload: dict) -> None:
    print(format_table(
        [payload],
        title="serve batch smoke — engine == per-tenant replays on a mixed-family fleet",
    ))
    print(f"\n{payload['tenants']} tenants over {payload['families']}: "
          f"{payload['batched_ticks']} vectorised + {payload['fallback_ticks']} fallback "
          f"ticks, schedules bit-identical (max cost deviation "
          f"{payload['max_cost_deviation']:.1e}), batched p99 "
          f"{payload['p99_us_batched']:g}us < "
          f"{payload['budget_us'] * payload['budget_scale']:g}us budget")


def _show_latency_smoke(payload: dict) -> None:
    print(format_table(
        payload["per_repeat_us"],
        title="serve latency — raw per-repeat percentiles (advisory, OS noise included)",
    ))
    floor = payload["floor_us"]
    budget = payload["budget_us"] * payload["budget_scale"]
    print(f"\nsteady-state floor (per-tick min across {payload['repeats']} repeats): "
          f"p50 {floor['p50_us']}us, p90 {floor['p90_us']}us, "
          f"p99 {floor['p99_us']}us < {budget:g}us budget")
    print(f"schedules bit-identical to the cold path on every repeat; "
          f"stream cost {payload['cost']:.6f} reproduced to 1e-9")


def _show_batch_scale(payload: dict) -> None:
    table_rows = [
        {
            "tenants": row["tenants"],
            "ticks": row["total_ticks"],
            "wall_s": row["wall_seconds"],
            "speedup": row["speedup_vs_sequential"] or "-",
            "p99_us": row["p99_us"],
            "equality": row["equality"],
            "hit_rate": row["batch_hit_rate"],
            "tracemalloc_mb": row["tracemalloc_peak_mb"],
            "rss_delta_mb": row["rss_delta_mb"],
        }
        for row in payload["rows"]
    ]
    print(format_table(
        table_rows,
        title=f"serve bench --batched — cohort rounds, {payload['algorithm']} on "
              f"{payload['scenario']}",
    ))
    print("\nschedules bit-identical to per-tenant session replays at every count; "
          "cache footprint flat across tenant counts "
          f"(virtual_slots={payload['rows'][-1]['virtual_slots']}, "
          f"tensor_bytes={payload['rows'][-1]['tensor_bytes']})")


def _show_serve_bench(payload: dict) -> None:
    table_rows = [
        {
            "tenants": row["tenants"],
            "mode": row["mode"],
            "ticks": row["total_ticks"],
            "p50_ms": row["latency"]["p50_ms"],
            "p95_ms": row["latency"]["p95_ms"],
            "p99_ms": row["latency"]["p99_ms"],
            "ticks_per_s": row["ticks_per_second"],
            "unique_solves": row["unique_solves"],
            "grid_hit_rate": row["grid_hit_rate"],
        }
        for row in payload["rows"]
    ]
    print(format_table(table_rows, title="serve bench — shared vs isolated multi-tenant replay"))
    for cmp_row in payload["comparisons"]:
        print(
            f"\n{cmp_row['tenants']} tenants: shared caches run "
            f"{cmp_row['speedup_vs_isolated']}x faster than isolated "
            f"({cmp_row['unique_solves_shared']} vs {cmp_row['unique_solves_isolated']} "
            "unique dispatch solves)"
        )


def _show_counters(payload: dict) -> None:
    table_rows = [
        {"counter": key, "pinned": pinned, "measured": payload["measured"][key]}
        for key, pinned in sorted(payload["pinned"].items())
    ]
    print(format_table(table_rows, title="bench counters — hot-path work-counter pins"))
    print(f"\nall {len(table_rows)} pinned counters reproduced exactly "
          "(cold / prewarmed / continuous replays, per-tenant costs equal to 1e-9)")


def _show_perfbench(payload: dict) -> None:
    columns = ("workload", "correct", "failed", "ticks_per_s", "tick_p50_us", "tick_p99_us",
               "solve_s", "approx_solve_s", "setup_s", "peak_rss_mb")
    table_rows = [
        {key: round(value) if isinstance(value, float) and value >= 1000 else value
         for key, value in ((key, row.get(key)) for key in columns)}
        for row in payload["rows"]
    ]
    print(format_table(table_rows, title="bench perfbench — end-to-end metrics per workload"))


def _show_scale(payload: dict) -> None:
    table_rows = [
        {
            "instance": row["instance"],
            "mode": row["mode"],
            "T": row["T"],
            "states": row["grid_states"],
            "k": row.get("checkpoint_every"),
            "seconds": row["wall_seconds"],
            "peak_mb": row["tracemalloc_peak_mb"],
            "cost": None if row.get("cost") is None else round(row["cost"], 2),
        }
        for row in payload["rows"]
    ]
    print(format_table(table_rows, title="bench scale — streaming DP vs all-tables history"))
    for cmp_row in payload["comparisons"]:
        print(
            f"\n{cmp_row['instance']}: streaming == keep-tables "
            f"(cost deviation {cmp_row['cost_deviation']:.2e}, schedules identical), "
            f"peak memory {cmp_row['memory_ratio']}x smaller, "
            f"end-to-end {cmp_row['stream_wall_vs_forward']}x the forward-pass wall time"
        )


def _show_sweep(payload: dict) -> None:
    from .bench import PINNED_SWEEP_COSTS

    table_rows = [
        {
            "experiment": name,
            "instance": row["instance"],
            "algorithm": row["algorithm"],
            "cost": round(row["cost"], 4),
            "ratio": round(row["ratio"], 4),
            "seconds": row["elapsed_seconds"],
        }
        for name, experiment in payload["experiments"].items()
        for row in experiment["rows"]
    ]
    print(format_table(table_rows, title="bench sweep — combined THM8+13+15+22 via the shared-context engine"))
    print(f"\nall {len(PINNED_SWEEP_COSTS)} pinned PR-1 costs reproduced within "
          f"{payload['tolerance']:g} "
          f"(max deviation {payload['max_cost_deviation']:.2e})")
    print(f"wall time: engine {payload['engine_wall_seconds']:.3f}s, "
          f"sequential orchestration {payload['sequential_wall_seconds']:.3f}s "
          f"({payload['speedup_vs_sequential']}x, advisory)")


def _show_smoke_bench(payload: dict, tolerance: float) -> None:
    rows = payload["smoke"]
    table_rows = [
        {
            "instance": row["instance"],
            "T": row["T"],
            "d": row["d"],
            "cost": round(row["optimal_cost"], 6),
            "deviation": f"{row['deviation']:.2e}",
            "seconds": row["seconds"],
            "states": row["states_explored"],
            "cache_hit_rate": row["dispatch"]["cache_hit_rate"],
        }
        for row in rows
    ]
    print(format_table(table_rows, title="bench smoke — pinned exactness regression"))
    print(f"\nall {len(rows)} pinned optimal costs reproduced within {tolerance:g}")


# --------------------------------------------------------------------------- #
# Scenario registry sub-commands
# --------------------------------------------------------------------------- #


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from . import scenarios

    if args.action == "smoke":
        from .bench import run_scenarios_smoke

        return _run_gate(run_scenarios_smoke, _show_scenarios_smoke, args.json)

    if args.action == "list":
        rows = []
        for name in scenarios.names():
            fam = scenarios.family(name)
            defaults = fam.defaults
            rows.append(
                {
                    "scenario": name,
                    "T": defaults.get("T", "-"),
                    "seed": defaults.get("seed", "-"),
                    "params": len(defaults),
                    "tags": ",".join(fam.tags) or "-",
                    "description": (fam.description[:58] + "…") if len(fam.description) > 59 else fam.description,
                }
            )
        print(format_table(rows, title=f"{len(rows)} registered scenario families "
                                       "(`repro scenarios describe NAME` for parameters)"))
        return 0

    if not args.name:
        raise SystemExit(f"`repro scenarios {args.action}` needs a scenario name "
                         f"(see `repro scenarios list`)")
    try:
        fam = scenarios.family(args.name)
    except scenarios.UnknownScenarioError as exc:
        raise SystemExit(str(exc))

    if args.action == "describe":
        info = fam.describe()
        print(f"scenario family {info['name']!r}")
        print(f"  {info['description']}")
        if info["tags"]:
            print(f"  tags: {', '.join(info['tags'])}")
        print()
        print(format_table(
            [{"param": k, "default": repr(v)} for k, v in info["params"].items()],
            title="parameters (override with --param K=V; 'seed' drives the unified seed streams)",
        ))
        if info["smoke_params"]:
            smoke = ", ".join(f"{k}={v}" for k, v in info["smoke_params"].items())
            print(f"\nsmoke configuration: {smoke}")
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(info, handle, indent=2, default=repr)
            print(f"\nwrote {args.json}")
        return 0

    # action == "build"
    try:
        spec_obj = scenarios.validate(
            scenarios.ScenarioSpec(args.name, _parse_param_overrides(args.param), args.seed)
        )
        instance = scenarios.build(spec_obj)
    except scenarios.ScenarioError as exc:
        raise SystemExit(str(exc))
    print(f"spec: {spec_obj.to_json()}")
    print()
    print(instance.describe())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(spec_obj.to_dict(), handle, indent=2)
        print(f"\nwrote {args.json}")
    return 0


# --------------------------------------------------------------------------- #
# Serve sub-commands
# --------------------------------------------------------------------------- #


def _serve_algorithm(args: argparse.Namespace) -> dict:
    """The algorithm selection of a serve command, as a build_serve_algorithm dict."""
    params = {}
    if args.algorithm == "C" and args.epsilon is not None:
        params["epsilon"] = args.epsilon
    return {"kind": args.algorithm, "params": params}


def _parse_chaos_spec(spec: str, T: int, d: int, n_events: int):
    """Resolve a ``--chaos`` argument into an EventPlan.

    An integer is a generation seed (``EventPlan.generate`` over the
    scenario's horizon), inline JSON is parsed directly, anything else is
    read as a JSON plan file.
    """
    from .scenarios.events import EventPlan

    spec = spec.strip()
    try:
        seed = int(spec)
    except ValueError:
        pass
    else:
        return EventPlan.generate(T, d, seed=seed, n_events=n_events)
    if spec.startswith("[") or spec.startswith("{"):
        return EventPlan.parse(spec)
    try:
        text = open(spec, "r", encoding="utf-8").read()
    except OSError as exc:
        raise SystemExit(f"--chaos {spec!r}: not a seed, inline JSON, or readable plan file ({exc})")
    return EventPlan.parse(text)


def _serve_fabric(args: argparse.Namespace) -> int:
    """``repro serve fabric``: run a sharded fabric (or its CI smoke gate)."""
    if args.n_tenants is None:
        args.n_tenants = 4
    if args.smoke:
        from .bench import run_fabric_smoke

        return _run_gate(run_fabric_smoke, _show_fabric_smoke, args.json)
    if args.bench:
        from .bench import run_fabric_bench

        return _run_gate(
            run_fabric_bench, _show_fabric_bench, args.json,
            n_tenants=args.n_tenants,
            workers=args.workers,
            scenario=args.scenario or "diurnal-cpu-gpu",
            algorithm=args.algorithm,
            checkpoint_every=args.checkpoint_every,
        )

    from .serve import FabricError, ServeFabric

    fabric = ServeFabric(
        workers=args.workers,
        checkpoint_every=args.checkpoint_every,
    )
    scenario = args.scenario or "diurnal-cpu-gpu"
    overrides = _parse_param_overrides(args.param)
    base_seed = 0 if args.seed is None else args.seed
    algorithm = _serve_algorithm(args)
    for i in range(args.n_tenants):
        feed = {"kind": "scenario", "scenario": scenario, "seed": base_seed + i}
        if overrides:
            feed["params"] = dict(overrides)
        fabric.add_tenant(f"tenant-{i}", algorithm=algorithm, feed=feed,
                          degradation=args.degradation or "strict")
    for entry in args.migrate:
        try:
            tenant, _, worker = entry.partition(":")
            fabric.migrate(tenant, int(worker))
        except (KeyError, ValueError) as exc:
            raise SystemExit(f"--migrate {entry!r}: {exc}")
    kill = None
    if args.kill_worker is not None:
        kill = {args.kill_worker: args.kill_round if args.kill_round is not None else 8}
    print(f"fabric: {args.n_tenants} tenant(s) of {scenario} across "
          f"{args.workers} worker process(es), algorithm {args.algorithm}, "
          f"checkpoint every {args.checkpoint_every} ticks"
          + (f", SIGKILL worker {args.kill_worker} at round {kill[args.kill_worker]}"
             if kill else ""))
    try:
        report = fabric.run(kill=kill, telemetry=args.telemetry)
    except FabricError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    table_rows = [
        {
            "tenant": name,
            "worker": row["worker"],
            "status": row["status"],
            "ticks": row.get("ticks", "-"),
            "cost": round(row["cost"], 3) if "cost" in row else "-",
            "sla_violations": row.get("sla_violations", "-"),
            "p99_ms": row.get("latency", {}).get("p99_ms", "-"),
        }
        for name, row in report["tenants"].items()
    ]
    print()
    print(format_table(table_rows, title="serve fabric — sharded supervised replay"))
    totals = report["totals"]
    print(f"\n{totals['ticks']} ticks, cost {totals['cost']:.3f}, "
          f"{totals['restarts']} restart(s), "
          f"{totals['migrations_completed']} migration(s) completed, "
          f"wall {report['wall_seconds']:.2f}s")
    if report["recovery_latency_s"]:
        print("recovery latency: "
              + ", ".join(f"{v * 1e3:.1f}ms" for v in report["recovery_latency_s"]))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, default=str)
        print(f"wrote {args.json}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.action == "watch":
        from .serve.watch import watch_command

        if args.path is None:
            print("serve watch needs a PATH: a telemetry JSONL file or a "
                  "fabric run directory", file=sys.stderr)
            return 2
        return watch_command(
            args.path,
            once=args.once,
            refresh=args.refresh,
            json_out=args.json,
            html_out=args.html,
            expect=args.expect,
        )

    if args.action == "fabric":
        return _serve_fabric(args)

    from . import bench

    if args.action == "smoke":
        return _run_gate(bench.run_serve_smoke, _show_serve_smoke, args.json)

    if args.action == "chaos":
        return _run_gate(bench.run_chaos_smoke, _show_chaos_smoke, args.json)

    if args.action == "batch":
        return _run_gate(
            bench.run_batch_smoke, _show_batch_smoke, args.json,
            budget_us=args.budget_us if args.budget_us is not None else 5000.0,
            budget_scale=args.budget_scale,
            tenants=args.n_tenants or 64,
            ticks=args.ticks or 48,
        )

    if args.action == "latency":
        return _run_gate(
            bench.run_latency_smoke, _show_latency_smoke, args.json,
            budget_us=args.budget_us if args.budget_us is not None else 50.0,
            budget_scale=args.budget_scale,
            repeats=args.repeats,
            ticks=args.ticks or 256,
            scenario=args.scenario or "diurnal-cpu-gpu",
            algorithm=args.algorithm,
        )

    if args.action == "bench" and args.batched:
        tenants_arg = "64,1000,10000" if args.tenants == "1,8,64" else str(args.tenants)
        return _run_gate(
            bench.run_batch_scale_bench, _show_batch_scale, args.json,
            tenant_counts=tuple(int(v) for v in tenants_arg.split(",") if v.strip()),
            ticks=args.ticks,
            scenario=args.scenario or "diurnal-cpu-gpu",
            algorithm=(
                args.algorithm
                if args.algorithm in ("reactive", "follow-demand", "all-on")
                else "reactive"
            ),
            budget_us=args.budget_us if args.budget_us is not None else 50.0,
            budget_scale=args.budget_scale,
        )

    if args.action == "bench":
        return _run_gate(
            bench.run_serve_bench, _show_serve_bench, args.json,
            tenant_counts=tuple(int(v) for v in str(args.tenants).split(",") if v.strip()),
            ticks=args.ticks,
            scenario=args.scenario or "diurnal-cpu-gpu",
            algorithm=_serve_algorithm(args),
        )

    # action == "replay"
    from .serve import ChaosFeed, ControllerSession, ScenarioFeed, TelemetryWriter, build_serve_algorithm

    try:
        feed = ScenarioFeed(
            args.scenario or "diurnal-cpu-gpu",
            seed=args.seed,
            tick_seconds=args.tick_seconds,
            **_parse_param_overrides(args.param),
        )
    except Exception as exc:
        raise SystemExit(str(exc))
    algorithm = _serve_algorithm(args)
    instance = feed.instance
    if args.checkpoint_at is not None and not 1 <= args.checkpoint_at < instance.T:
        raise SystemExit(
            f"--checkpoint-at must be in [1, T) = [1, {instance.T}) — "
            f"{args.checkpoint_at} would never fire"
        )
    spec_key = feed.spec.key()
    chaos_plan = None
    if args.chaos is not None:
        if args.verify:
            raise SystemExit(
                "--verify asserts batch equivalence, which injected faults break by design; "
                "determinism under chaos is gated by `repro serve chaos` instead"
            )
        chaos_plan = _parse_chaos_spec(args.chaos, instance.T, instance.d, args.chaos_events)
        feed = ChaosFeed(feed, chaos_plan)
    degradation = args.degradation
    if degradation is None:
        degradation = "shed" if chaos_plan is not None else "strict"
    print(f"replaying {spec_key} (T={instance.T}, d={instance.d}) "
          f"with algorithm {args.algorithm}"
          + (f", {len(chaos_plan.events)} injected chaos event(s), "
             f"degradation={degradation}" if chaos_plan is not None else "")
          + (f" at {args.speed:g}x time-warp" if args.speed else " (unpaced)"))

    tracer = None
    if args.trace is not None or args.trace_every is not None:
        from .serve.trace import TickTracer

        tracer = TickTracer(trace_every=args.trace_every or 1)
    session = ControllerSession(
        algorithm, instance.server_types, track_regret=args.regret,
        degradation=degradation, name="replay", tracer=tracer
    )
    perf_ns = time.perf_counter_ns
    with TelemetryWriter(
        args.telemetry, flush_every=args.flush_every, rotate_bytes=args.rotate_bytes
    ) as writer:
        ticks_iter = iter(feed.play(args.speed))
        while True:
            # peek (non-consuming): observe() itself consumes the sample slot
            sampled = tracer is not None and tracer.peek()
            t0 = perf_ns() if sampled else 0
            try:
                tick = next(ticks_iter)
            except StopIteration:
                break
            if sampled:
                tracer.record("feed_wait", session.name, session.ticks, t0, perf_ns())
            if args.checkpoint_at is not None and tick.t == args.checkpoint_at:
                payload_bytes = len(json.dumps(session.checkpoint()))
                session = session.checkpoint_roundtrip()
                print(f"  checkpoint/restore round-trip at tick {tick.t} "
                      f"({payload_bytes} bytes)")
            state = session.observe(tick.demand, cost_row=tick.cost_row, counts=tick.counts)
            t1 = perf_ns() if sampled else 0
            writer.write(state, tenant=session.name)
            if sampled:
                tracer.record("telemetry", session.name, state.t, t1, perf_ns())
    session.finish()

    summary = session.summary()
    row = {
        "ticks": summary["ticks"],
        "cost": round(summary["cumulative_cost"], 3),
        "p50_ms": summary["latency"].get("p50_ms"),
        "p95_ms": summary["latency"].get("p95_ms"),
        "p99_ms": summary["latency"].get("p99_ms"),
        "feasible": summary["feasible"],
    }
    if chaos_plan is not None or summary["sla_violations"]:
        row["sla_violations"] = summary["sla_violations"]
        row["shed"] = round(summary["shed_demand"], 3)
        row["forced_down"] = summary["forced_downs"]
    print()
    print(format_table([row], title=f"live replay — {session.algorithm.name}"))
    if chaos_plan is not None:
        print(f"\nchaos: {summary['sla_violations']} SLA-violating tick(s), "
              f"{summary['shed_demand']:.3f} demand shed, "
              f"{summary['forced_downs']} forced power-down(s) "
              f"(degradation={degradation}, stream completed without raising)")
    if args.telemetry:
        rotated = f" ({writer.rotations} rotation(s))" if writer.rotations else ""
        print(f"\nwrote {writer.rows_written} telemetry rows to {args.telemetry}{rotated}")
    if tracer is not None:
        phases = tracer.summary()["phases"]
        traced_ns = sum(p["total_ns"] for p in phases.values())
        print(f"\ntraced {tracer.sampled_ticks} tick(s) (every {tracer.trace_every}): "
              + ", ".join(f"{name} {p['total_ns'] / 1e3:.1f}us"
                          for name, p in sorted(phases.items()))
              + f" — {traced_ns / 1e3:.1f}us total in spans")
        if args.trace is not None:
            tracer.dump(args.trace)
            print(f"wrote Chrome trace_event JSON to {args.trace} "
                  f"(open in chrome://tracing or Perfetto)")
    if args.json:
        from .serve import summarise_sessions

        payload = {
            "schema": 1,
            "summary": summarise_sessions([session]),
            "session": session.summary(),
        }
        if tracer is not None:
            payload["trace"] = tracer.summary()
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    if args.verify:
        # the live session (including any checkpoint round-trip above) already
        # holds the streamed schedule — one batch run is all the check needs
        from .online import run_online as _run_online
        from .serve import assert_same

        batch = _run_online(instance, build_serve_algorithm(algorithm))
        try:
            deviation = assert_same(
                batch, session, label="streamed replay vs batch run_online",
                tolerance=1e-9,
            )
        except AssertionError as exc:
            print(f"\nVERIFY FAIL: {exc}", file=sys.stderr)
            return 1
        print(f"\nverified: streamed schedule == batch run_online, "
              f"cost deviation {deviation:.2e}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from . import bench

    selected = [flag for flag in ("smoke", "sweep", "scale", "counters", "latest", "perfbench")
                if getattr(args, flag)]
    if len(selected) > 1:
        print(f"choose one of --smoke/--sweep/--scale/--counters/--latest/--perfbench per invocation "
              f"(got {', '.join('--' + f for f in selected)}); "
              "run them as separate commands — `make bench-smoke` chains the gates",
              file=sys.stderr)
        return 2
    if args.full and not args.scale:
        print("--full only applies to --scale", file=sys.stderr)
        return 2

    if args.latest:
        return _print_trends(args.json)

    if args.counters:
        return _run_gate(bench.run_counter_regress, _show_counters, args.json)

    if args.perfbench:
        return _run_gate(bench.run_perfbench_bench, _show_perfbench, args.json)

    tolerance = args.tolerance

    if args.scale:
        return _run_gate(
            bench.run_scale_bench, _show_scale, args.json,
            full=args.full, tolerance=1e-9 if tolerance is None else tolerance,
        )

    if tolerance is None:
        tolerance = 1e-6

    if args.sweep:
        return _run_gate(
            bench.run_sweep_bench, _show_sweep, args.json, tolerance=tolerance, jobs=args.jobs
        )

    if not args.smoke:
        print("the full benchmark harness lives in benchmarks/ (run `make bench`); "
              "use `repro bench --smoke` for the pinned exactness subset or "
              "`repro bench --sweep` for the sweep-engine regression", file=sys.stderr)
        return 2
    return _run_gate(
        bench.run_smoke_bench, lambda payload: _show_smoke_bench(payload, tolerance), args.json,
        tolerance=tolerance,
    )


def _print_trends(json_path: Optional[str]) -> int:
    """``repro bench --latest``: the newest entry of each benchmark in each
    ``BENCH_*.json`` trend series, with its deltas against that benchmark's
    previous entry; a file without a series gets one line with its
    ``recorded_at``, and a file that cannot be read one line with the reason
    (exit 1)."""
    import glob
    import os

    from .bench import trend_report

    paths = [json_path] if json_path else sorted(
        glob.glob(os.path.join("benchmarks", "output", "BENCH_*.json"))
    )
    reports = [trend_report(path) for path in paths]
    for report in reports:
        if "unreadable" in report:
            print(f"{report['path']}: unreadable ({report['unreadable']})")
            continue
        if not report["entries"]:
            print(f"{report['path']}: no trend series (recorded_at {report['recorded_at']})")
            continue
        print(f"{report['path']}: {report['entries']} recorded run(s)")
        for series in report["benchmarks"]:
            print(f"  {series['benchmark']}: {series['entries']} run(s)")
            print("    latest: " + ", ".join(
                f"{key}={value}" for key, value in series["latest"].items()
                if key != "environment"
            ))
            deltas = series["deltas_vs_previous"]
            if deltas:
                print("    vs previous: " + ", ".join(
                    f"{key} {value:+g}" for key, value in deltas.items()
                ))
            else:
                print("    no previous run to compare")
    if any("unreadable" in report for report in reports):
        return 1
    if not any(report.get("entries") for report in reports):
        print("no BENCH_*.json with a recorded trend series found "
              "(gated benches append one entry per run)", file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------------- #


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fleet", choices=sorted(FLEETS), default="cpu-gpu",
                        help="fleet preset (default: cpu-gpu)")
    parser.add_argument("--trace", choices=sorted(TRACES), default="diurnal",
                        help="synthetic demand trace (default: diurnal)")
    parser.add_argument("--slots", type=int, default=48, help="number of time slots (default: 48)")
    parser.add_argument("--seed", type=int, default=0, help="random seed for the trace generator")
    parser.add_argument("--demand-file", help="CSV file with one demand value per line (overrides --trace)")
    parser.add_argument("--price-amplitude", type=float, default=0.0,
                        help="add a sinusoidal electricity-price profile with this amplitude "
                             "(makes the operating costs time-dependent)")
    parser.add_argument("--schedule-csv", action="store_true",
                        help="also print the computed schedule as CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Right-sizing heterogeneous data centers (Albers & Quedenfeld, SPAA 2021) — "
                    "offline and online solvers on synthetic scenarios.",
    )
    from . import __version__

    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_trace = sub.add_parser("trace", help="generate a synthetic demand trace")
    p_trace.add_argument("--trace", choices=sorted(TRACES), default="diurnal")
    p_trace.add_argument("--slots", type=int, default=48)
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--out", help="write the trace to this file instead of stdout")
    p_trace.set_defaults(func=_cmd_trace)

    p_solve = sub.add_parser(
        "solve",
        help="solve a scenario offline (exact or approximate)",
        epilog="Scaling limits: the classic DP keeps one value tensor per slot "
               "(O(T * |M|) memory); long horizons stream the value pass with "
               "checkpointed backtracking instead (O(sqrt(T) * |M|), auto-enabled "
               "above ~32 MB of table history). --checkpoint-every forces a window; "
               "for fleets with thousands of servers per type combine with "
               "--epsilon (geometric grids). "
               "See `repro bench --scale` and docs/PERFORMANCE.md.",
    )
    _add_scenario_arguments(p_solve)
    p_solve.add_argument("--epsilon", type=float, default=None,
                         help="use the (1+eps)-approximation instead of the exact solver")
    p_solve.add_argument("--checkpoint-every", type=_positive_int, default=None,
                         help="streaming-DP checkpoint window (default: auto — full history "
                              "on small instances, sqrt(T) on long horizons)")
    p_solve.set_defaults(func=_cmd_solve)

    p_online = sub.add_parser("online", help="run an online algorithm on a scenario")
    _add_scenario_arguments(p_online)
    p_online.add_argument("--algorithm", choices=sorted(ONLINE_ALGORITHMS), default="A")
    p_online.add_argument("--epsilon", type=float, default=None,
                          help="eps parameter for Algorithm C (default 0.25)")
    p_online.set_defaults(func=_cmd_online)

    p_compare = sub.add_parser("compare", help="compare the algorithm suite on one scenario")
    _add_scenario_arguments(p_compare)
    p_compare.add_argument("--epsilon", type=float, default=None)
    p_compare.set_defaults(func=_cmd_compare)

    p_scenarios = sub.add_parser(
        "scenarios",
        help="inspect and exercise the declarative scenario registry",
        epilog="Scenarios are named, parameterised instance families "
               "(trace x fleet x horizon x seed) materialised lazily through "
               "the registry; `repro sweep --scenario NAME` and plan.json "
               "files address them by name.  `smoke` builds every family at "
               "a tiny size and runs Algorithm A through each (the "
               "`make scenarios-smoke` CI gate).",
    )
    p_scenarios.add_argument("action", choices=["list", "describe", "build", "smoke"],
                             help="list families / describe one / build an instance / run the smoke gate")
    p_scenarios.add_argument("name", nargs="?", default=None,
                             help="scenario family name (describe/build)")
    p_scenarios.add_argument("--param", action="append", default=[], metavar="K=V",
                             help="parameter override for build (repeatable; values JSON-parsed)")
    p_scenarios.add_argument("--seed", type=int, default=None,
                             help="scenario seed for build (one seed derives all random streams)")
    p_scenarios.add_argument("--json", default=None,
                             help="also write the spec/description/smoke rows to this JSON file")
    p_scenarios.set_defaults(func=_cmd_scenarios)

    p_sweep = sub.add_parser("sweep", help="batch algorithms x instances through the shared-context engine")
    _add_scenario_arguments(p_sweep)
    # distinguish "user passed --seed" from the default: --fleet/--trace sweeps
    # fall back to seed 0, --scenario sweeps to each family's registered seed
    p_sweep.set_defaults(seed=None)
    p_sweep.add_argument("--scenario", default=None,
                         help="comma-separated registered scenario names (see `repro scenarios list`); "
                              "instances are materialised lazily inside worker shards and the spec "
                              "is stamped into every record (overrides --fleet/--trace)")
    p_sweep.add_argument("--param", action="append", default=[], metavar="K=V",
                         help="scenario parameter override applied to every --scenario entry "
                              "(repeatable; values JSON-parsed)")
    p_sweep.add_argument("--plan", default=None,
                         help="compile a plan.json selection file "
                              "({scenarios, params, seeds, algorithms, offline, jobs}) "
                              "instead of command-line flags")
    p_sweep.add_argument("--algorithms", default=None,
                         help="comma-separated algorithm keys (default: A,B,C); "
                              "also: lcp, reactive, follow-demand, all-on "
                              "(not with --plan when the plan selects algorithms)")
    p_sweep.add_argument("--epsilon", type=float, default=None,
                         help="eps parameter for Algorithm C (default 0.25)")
    p_sweep.add_argument("--seeds", default=None,
                         help="comma-separated scenario seeds — one instance per (scenario, seed) "
                              "pair (overrides --seed)")
    p_sweep.add_argument("--jobs", type=int, default=None,
                         help="shard instance sources across this many worker processes")
    p_sweep.add_argument("--checkpoint-every", type=_positive_int, default=None,
                         help="checkpoint window of the shared prefix-DP value histories "
                              "(O(sqrt(T)) memory for long-horizon sweeps; default: every "
                              "tensor kept)")
    p_sweep.add_argument("--json", default=None, help="write the full report to this JSON file")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_serve = sub.add_parser(
        "serve",
        help="live replay & serving: stream scenarios through controller sessions",
        epilog="`replay` streams one scenario tick by tick through a "
               "ControllerSession (optional time-warp pacing, per-tick JSONL "
               "telemetry, mid-stream checkpoint/restore, --verify asserts "
               "batch equivalence); `bench` measures multi-tenant serving "
               "(latency percentiles + shared-vs-isolated cache counters, "
               "writes BENCH_serve.json); `smoke` is the `make serve-smoke` "
               "CI gate (every registered family must replay equivalently); "
               "`chaos` is the `make chaos-smoke` gate (chaos-* families and "
               "targeted fault injections must replay deterministically and "
               "degrade gracefully — see also `replay --chaos`); `fabric` "
               "shards tenants across supervised worker processes with crash "
               "recovery and live migration (`--smoke` is the `make "
               "fabric-smoke` gate: one injected worker SIGKILL, bit-identical "
               "recovery); `latency` is the `make bench-latency-smoke` gate "
               "(p99 of the per-tick floor over repeated prewarmed replays "
               "must beat --budget-us, schedules bit-identical to the cold "
               "path); `batch` is the `make bench-batch-smoke` gate "
               "(64-tenant mixed-family fleet: the engine's cohort rounds "
               "must reproduce per-tenant session replays bit-identically "
               "across a mid-stream checkpoint, batched p99 within budget); "
               "`bench --batched` runs the 1k/10k-tenant cohort scale sweep "
               "(>=5x vs per-tenant replays at 1k+, flat cache footprint, "
               "RSS+tracemalloc columns); `watch` tails a telemetry JSONL "
               "file or fabric run directory as a live dashboard (--once for "
               "one frame, --html for a static page, --expect is the `make "
               "watch-smoke` exactness gate).",
    )
    p_serve.add_argument("action", choices=["replay", "bench", "latency", "batch",
                                            "smoke", "chaos", "fabric", "watch"],
                         help="stream one scenario / run the multi-tenant benchmark "
                              "(--batched: the cohort 1k/10k scale gate) / "
                              "gate the microsecond tick hot path / "
                              "run the CI gates (smoke: batch equivalence, batch: "
                              "the `make bench-batch-smoke` bit-identity gate, chaos: fault "
                              "injection, fabric --smoke: crash recovery) / run a "
                              "sharded multi-process fabric / watch: live dashboard "
                              "over a telemetry JSONL file or fabric run directory")
    p_serve.add_argument("path", nargs="?", default=None,
                         help="watch: telemetry JSONL file or fabric run directory to tail")
    p_serve.add_argument("--scenario", default=None,
                         help="registered scenario family to replay (default: diurnal-cpu-gpu)")
    p_serve.add_argument("--param", action="append", default=[], metavar="K=V",
                         help="scenario parameter override (repeatable; values JSON-parsed)")
    p_serve.add_argument("--seed", type=int, default=None, help="scenario seed")
    p_serve.add_argument("--algorithm", choices=sorted(ONLINE_ALGORITHMS), default="A",
                         help="controller algorithm (default: A)")
    p_serve.add_argument("--epsilon", type=float, default=None,
                         help="eps parameter for Algorithm C (default 0.25)")
    p_serve.add_argument("--speed", type=float, default=None,
                         help="time-warp factor: release one tick every tick_seconds/speed "
                              "wall seconds (default: replay as fast as possible)")
    p_serve.add_argument("--tick-seconds", type=float, default=1.0,
                         help="simulated duration of one tick, for pacing (default: 1.0)")
    p_serve.add_argument("--telemetry", default=None, metavar="FILE",
                         help="append per-tick telemetry rows to this JSONL file")
    p_serve.add_argument("--flush-every", type=_positive_int, default=1, metavar="N",
                         help="telemetry: flush the OS buffer every N rows (default: 1 — "
                              "per-row durability; raise to amortise syscalls)")
    p_serve.add_argument("--rotate-bytes", type=_positive_int, default=None, metavar="B",
                         help="telemetry: rotate the JSONL file to .1/.2 when it reaches "
                              "B bytes (default: unbounded)")
    p_serve.add_argument("--trace", default=None, metavar="FILE",
                         help="replay: dump a tick-phase span trace (feed wait / prepare / "
                              "decide / commit / telemetry) as Chrome trace_event JSON")
    p_serve.add_argument("--trace-every", type=_positive_int, default=None, metavar="N",
                         help="replay: sample every Nth tick into the trace (default: 1 "
                              "when --trace is given, tracing off otherwise)")
    p_serve.add_argument("--once", action="store_true",
                         help="watch: render a single frame and exit (CI-friendly)")
    p_serve.add_argument("--refresh", type=float, default=1.0, metavar="S",
                         help="watch: seconds between live-frame refreshes (default: 1.0)")
    p_serve.add_argument("--html", default=None, metavar="FILE",
                         help="watch: write a self-contained HTML snapshot instead of the "
                              "ANSI frame ('-' for stdout)")
    p_serve.add_argument("--expect", default=None, metavar="FILE",
                         help="watch: compare the rendered summary against a recorded "
                              "replay --json payload exactly; non-zero exit on mismatch "
                              "(the `make watch-smoke` gate)")
    p_serve.add_argument("--checkpoint-at", type=_positive_int, default=None, metavar="K",
                         help="serialise the session to JSON after K ticks and restore it "
                              "into a fresh session (exercises checkpoint/restore mid-stream)")
    p_serve.add_argument("--verify", action="store_true",
                         help="assert the streamed schedule and cost reproduce batch run_online")
    p_serve.add_argument("--regret", action="store_true",
                         help="track the offline prefix optimum per tick and report regret in the "
                              "telemetry (A, B and lcp hold it; others pay one extra DP transition)")
    p_serve.add_argument("--chaos", default=None, metavar="SPEC",
                         help="inject mid-stream faults into the replay: an integer seed "
                              "(generates an event plan over the scenario's horizon), inline "
                              "JSON, or a plan file (incompatible with --verify)")
    p_serve.add_argument("--chaos-events", type=_positive_int, default=4, metavar="N",
                         help="events to generate when --chaos is a seed (default: 4)")
    p_serve.add_argument("--degradation", choices=["strict", "shed"], default=None,
                         help="infeasible-tick policy: raise (strict) or shed load with SLA "
                              "accounting (default: shed when --chaos is given, else strict)")
    p_serve.add_argument("--tenants", default="1,8,64",
                         help="comma-separated concurrent-session counts for bench (default: 1,8,64)")
    p_serve.add_argument("--ticks", type=_positive_int, default=None,
                         help="ticks per tenant for bench (default: 64) / stream length for "
                              "latency (default: 256)")
    p_serve.add_argument("--batched", action=argparse.BooleanOptionalAction, default=False,
                         help="with bench: run the cohort scale sweep instead "
                              "(ServeEngine vs per-tenant session replays; gates "
                              "schedule bit-identity, >=5x throughput at 1k+ tenants, "
                              "p99 tick budget and a flat cache footprint; default "
                              "tenant counts 64,1000,10000)")
    p_serve.add_argument("--budget-us", type=float, default=None, metavar="US",
                         help="latency: steady-state p99 tick budget in microseconds "
                              "(default: 50) / batch: p99 budget of the tenants that batch, "
                              "cold first ticks included (default: 5000)")
    p_serve.add_argument("--budget-scale", type=float, default=1.0, metavar="X",
                         help="latency: budget multiplier for noisy shared runners "
                              "(CI uses a generous factor; default: 1.0)")
    p_serve.add_argument("--repeats", type=_positive_int, default=6, metavar="R",
                         help="latency: fresh sessions to replay over one prewarmed cache; "
                              "the gate takes the per-tick minimum across them (default: 6)")
    p_serve.add_argument("--smoke", action="store_true",
                         help="with fabric: run the `make fabric-smoke` crash-recovery gate "
                              "(injected worker SIGKILL, verify_crash_recovery must pass)")
    p_serve.add_argument("--bench", action="store_true",
                         help="with fabric: measure healthy-path tick latency and crash-recovery "
                              "latency, merging a 'fabric' section into --json (BENCH_serve.json)")
    p_serve.add_argument("--workers", type=_positive_int, default=2,
                         help="fabric worker processes (default: 2)")
    p_serve.add_argument("--n-tenants", type=_positive_int, default=None, metavar="N",
                         help="fabric tenants to register over --scenario with consecutive "
                              "seeds (default: 4) / batch smoke fleet size (default: 64)")
    p_serve.add_argument("--checkpoint-every", type=_positive_int, default=8, metavar="K",
                         help="fabric checkpoint cadence in ticks (default: 8)")
    p_serve.add_argument("--kill-worker", type=int, default=None, metavar="W",
                         help="fabric: SIGKILL worker W's first incarnation (crash-recovery demo)")
    p_serve.add_argument("--kill-round", type=_positive_int, default=None, metavar="R",
                         help="fabric: round at which --kill-worker fires (default: 8)")
    p_serve.add_argument("--migrate", action="append", default=[], metavar="TENANT:WORKER",
                         help="fabric: live-migrate a tenant to a worker mid-run (repeatable)")
    p_serve.add_argument("--json", default=None,
                         help="write the bench/smoke/fabric measurements (or the replay/"
                              "watch summary; watch accepts '-' for stdout) to this JSON file")
    p_serve.set_defaults(func=_cmd_serve)

    p_bench = sub.add_parser("bench", help="run the benchmark regression harness")
    p_bench.add_argument("--smoke", action="store_true",
                         help="run the <30s pinned-instance exactness subset "
                              "(the full harness lives in benchmarks/)")
    p_bench.add_argument("--sweep", action="store_true",
                         help="run the combined THM8+13+15+22 sweep-engine regression "
                              "(pinned costs gate at --tolerance; wall times advisory)")
    p_bench.add_argument("--scale", action="store_true",
                         help="run the streaming-DP scale suite: checkpointed O(sqrt(T))-memory "
                              "backtracking vs the all-tables pass, gated on cost/schedule "
                              "equality (1e-9), with peak-memory columns")
    p_bench.add_argument("--full", action="store_true",
                         help="with --scale: the headline sizes (T up to 50000, d=4 geometric "
                              "fleets) instead of the quick regression subset")
    p_bench.add_argument("--tolerance", type=float, default=None,
                         help="maximum allowed cost deviation (default: 1e-6 for --smoke/--sweep "
                              "against the pinned seed costs, 1e-9 for --scale streaming equality)")
    p_bench.add_argument("--counters", action="store_true",
                         help="run the hot-path work-counter regression: the pinned serve "
                              "workload replayed cold / prewarmed, every "
                              "counter gated by exact equality (part of `make perf-regress`)")
    p_bench.add_argument("--latest", action="store_true",
                         help="print the newest BENCH_*.json trend entries with deltas vs "
                              "the previous recorded run (no solves; reads benchmarks/output/ "
                              "or the file given via --json)")
    p_bench.add_argument("--perfbench", action="store_true",
                         help="run perfbench/run.py's end-to-end pass on every workload and "
                              "append its metrics to the --json trend file (about 35 s; "
                              "`make bench-perfbench`)")
    p_bench.add_argument("--jobs", type=int, default=1,
                         help="process sharding for --sweep (default: 1)")
    p_bench.add_argument("--json", default=None, help="also write the measurements to this JSON file")
    p_bench.set_defaults(func=_cmd_bench)

    return parser


#: Registered sub-commands (kept in sync with build_parser; the friendly
#: unknown-command error below lists them without re-parsing).
COMMANDS = ("trace", "solve", "online", "compare", "scenarios", "sweep", "serve", "bench")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by ``python -m repro`` and the console script."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    first = next((arg for arg in argv if not arg.startswith("-")), None)
    if first is not None and first not in COMMANDS:
        print(f"repro: unknown command {first!r}", file=sys.stderr)
        print(f"available commands: {', '.join(COMMANDS)}", file=sys.stderr)
        print("run `repro <command> --help` for usage", file=sys.stderr)
        return 2
    parser = build_parser()
    args = parser.parse_args(argv)
    return int(args.func(args))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
