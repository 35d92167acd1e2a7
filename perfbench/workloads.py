"""The benchmark's workloads: input generation, one measured pass, output checks.

Every workload is a closed loop run from this single process: one loop
drains the feeds (or runs the solves) as fast as the program answers.  The
serve engine is single-threaded, so the highest open-loop tick rate it could
sustain without a backlog is exactly this closed-loop rate; an arrival
schedule would only add sleeps.  No fabric, no ``FeedPump`` threads
(``overlap=False``) and no sharding.

All inputs derive from the run's ``--seed``: the program only ever receives
demand arrays (serve workloads) and problem instances (offline planning), and
the same seed gives the same inputs, decisions and work counters.

A *pass* is one complete unit of work with its own fresh engine, caches and
solvers, so passes of one run repeat each other exactly: the runner times a
fixed number of them, reports figures over all of them (see ``run.py``),
and checks that their outputs and work counters agree.  A pass given a
:class:`~hostclock.HostClock` also reads its times on the reference host's
clock.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.competitive import theoretical_bound
from repro.core.costs import evaluate_schedule
from repro.core.instance import ProblemInstance
from repro.core.schedule import Schedule
from repro.dispatch import allocation
from repro.offline import dp, graph_approx, transitions
from repro.online import algorithm_a, algorithm_b, algorithm_c, baselines, lcp, tracker
from repro.online.base import run_online
from repro.scenarios import build as build_scenario
from repro.serve import batch, engine, session, telemetry
from repro.serve.feed import ArrayFeed
from repro.workloads.scale import big_fleet_instance, long_horizon_instance, quantise_trace

from hostclock import HostClock, Timing

#: Algorithm C's slack in the serve registry (``SERVE_ALGORITHMS["C"]``),
#: which its Theorem 15 bound ``2d + 1 + eps`` needs.
C_EPSILON = 0.25
#: Relative slack of the cost checks: the bound check compares float sums,
#: and a re-evaluation with a fresh dispatch solver converges its bisection
#: over a differently composed block.
COST_RTOL = 1e-9
#: Algorithms with a competitive-ratio theorem (Thm 8, 13, 15).
BOUNDED = ("A", "B", "C")
#: Rounds between host-clock samples in a calibrated serve pass: about 15 ms
#: on fleet-steady and 50 ms on continuous-cold, well inside the host's
#: speed phases, for a few percent of the pass time.
CALIBRATE_EVERY = 2
#: Seconds between timer-driven host-clock samples inside a set-up or an
#: offline solve.
SAMPLE_INTERVAL_S = 0.05


@dataclass
class PassResult:
    """What one measured pass produced."""

    setup: Timing
    run: Timing
    #: One latency sample per decision (tenant-tick or planned slot), in ns,
    #: as the program measured it.
    latencies_ns: np.ndarray
    #: Each sample's factor to the reference host (ones when uncalibrated).
    latency_scale: np.ndarray
    #: Deterministic work counters: equal on every pass of every run of a seed.
    counters: Dict[str, float]
    #: Measured byte counts that embed wall-clock values (not exact-checked).
    volatile: Dict[str, float] = field(default_factory=dict)
    #: name -> (schedule, cost) of every tenant or solve.
    outputs: Dict[str, Tuple[np.ndarray, float]] = field(default_factory=dict)
    #: ``solve_s`` and ``approx_solve_s`` of the pass.
    solves: Dict[str, Timing] = field(default_factory=dict)
    #: Wall time of ``ServeEngine.prewarm`` within ``setup``.
    prewarm_s: float = 0.0


@dataclass
class CheckReport:
    """Failures found by the output checks."""

    failed: int = 0
    messages: List[str] = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed += int(count)
        self.messages.append(message)


def _seeds(seed: int, n: int) -> List[int]:
    """``n`` independent sub-seeds of the run seed."""
    return [int(s) for s in np.random.SeedSequence(int(seed)).generate_state(n)]


def _timed(clock: Optional[HostClock], fn):
    """``fn()``'s result and its :class:`Timing` (unscaled without a clock).

    Used for set-ups and offline solves, which hold no timing of the
    program's own, so the clock may sample inside them on a timer.
    """
    if clock is not None:
        return clock.timed(fn, interval_s=SAMPLE_INTERVAL_S)
    started = time.perf_counter()
    result = fn()
    return result, Timing.unscaled(time.perf_counter() - started)


class _PacedFeed(ArrayFeed):
    """An ``ArrayFeed`` that takes a host-clock sample before every ``CALIBRATE_EVERY``-th tick.

    Given to the first tenant, whose tick ``r`` the engine pulls as round
    ``r`` starts, it cuts ``engine.run`` into stretches of
    ``CALIBRATE_EVERY`` rounds, each scaled by the samples around it.  The
    pulls sit outside the sessions' own tick timing.
    """

    def __init__(self, demands, server_types, clock: HostClock):
        super().__init__(demands, server_types=server_types)
        self._clock = clock

    def ticks(self):
        for index, tick in enumerate(super().ticks()):
            if index % CALIBRATE_EVERY == 0:
                self._clock.sample()
            yield tick


# --------------------------------------------------------------------------- #
# Traced functions: the public entry points of each layer
# --------------------------------------------------------------------------- #


def trace_targets() -> List[Tuple[object, str, str, str]]:
    """``(owner, attribute, span name, layer)`` of every function the traced run wraps."""
    S = session.ControllerSession
    cache = session.ServeCache
    solver = allocation.DispatchSolver
    return [
        (engine.ServeEngine, "run", "serve.engine.run", "serve.engine"),
        (batch.BatchedServeEngine, "run", "serve.engine.batched_run", "serve.engine"),
        (S, "prepare_tick", "serve.session.prepare_tick", "serve.session.prepare"),
        (S, "decide_tick", "serve.session.decide_tick", "serve.session.decide"),
        (S, "commit_tick", "serve.session.commit_tick", "serve.session.commit"),
        (S, "checkpoint", "serve.session.checkpoint", "serve.checkpoint"),
        (session, "save_checkpoint", "serve.save_checkpoint", "serve.checkpoint"),
        (telemetry.TelemetryWriter, "write", "serve.telemetry.write", "serve.telemetry"),
        (telemetry.TelemetryWriter, "flush", "serve.telemetry.flush", "serve.telemetry"),
        (telemetry.TelemetryWriter, "close", "serve.telemetry.close", "serve.telemetry"),
        (cache, "grid_tensor", "serve.cache.grid_tensor", "serve.cache.grid_tensor"),
        (cache, "solve_config", "serve.cache.solve_config", "serve.cache.solve_config"),
        (algorithm_a.AlgorithmA, "step", "online.step.A", "online.step.A"),
        (algorithm_b.AlgorithmB, "step", "online.step.B", "online.step.B"),
        (algorithm_c.AlgorithmC, "step", "online.step.C", "online.step.C"),
        (lcp.LazyCapacityProvisioning, "step", "online.step.lcp", "online.step.lcp"),
        (baselines.Reactive, "step", "online.step.reactive", "online.step.reactive"),
        (baselines.FollowDemand, "step", "online.step.follow-demand", "online.step.follow-demand"),
        (tracker.DPPrefixTracker, "observe", "online.tracker.observe", "online.tracker"),
        (transitions.TransitionPlan, "apply", "offline.transitions.plan_apply", "offline.transitions"),
        (transitions, "transition", "offline.transitions.transition", "offline.transitions"),
        (transitions, "relax_dimension", "offline.transitions.relax_dimension", "offline.transitions"),
        (dp, "solve_dp", "offline.dp.solve_dp", "offline.dp"),
        (graph_approx, "solve_approx", "offline.dp.solve_approx", "offline.dp"),
        (dp.WindowedOperatingCosts, "tensor", "offline.dp.window_tensor", "offline.dp.window_costs"),
        (solver, "solve", "dispatch.solve", "dispatch"),
        (solver, "solve_grid", "dispatch.solve_grid", "dispatch"),
        (solver, "solve_block", "dispatch.solve_block", "dispatch"),
    ]


#: Spans whose first argument is a ``ControllerSession`` (they stamp tenant/tick).
SESSION_SPANS = (
    "serve.session.prepare_tick",
    "serve.session.decide_tick",
    "serve.session.commit_tick",
    "serve.session.checkpoint",
)


def _dispatch_counters(stats_list) -> Dict[str, float]:
    """Summed :class:`DispatchStats` snapshots of every solver a pass used."""
    keys = ("block_calls", "slot_queries", "unique_solves", "bisection_iterations")
    totals = {f"dispatch.{k}": 0 for k in keys}
    for stats in stats_list:
        snap = stats.snapshot()
        for k in keys:
            totals[f"dispatch.{k}"] += int(snap[k])
    queries = totals["dispatch.slot_queries"]
    totals["dispatch.cache_hit_ratio"] = (
        1.0 - totals["dispatch.unique_solves"] / queries if queries else 0.0
    )
    return totals


# --------------------------------------------------------------------------- #
# Serve workloads
# --------------------------------------------------------------------------- #


class ServeWorkload:
    """Tenants streamed through a serve engine; subclasses fix the regime."""

    name = ""
    #: Nominal seconds of one pass on a 2-core VM: a run makes
    #: ``round(--seconds / PASS_S)`` passes, a count that the speed of the
    #: code under test cannot change.
    PASS_S = 8.0
    #: How many tenants of each algorithm the run's checks replay through
    #: batch ``run_online`` (``None``: every tenant).
    equality_sample: Optional[int] = None
    #: Solves in one ``solve_s``/``approx_solve_s`` timing, cycling over the
    #: A/B/C traces: about a second of work per timing on a 2-core VM.
    ORACLE_SOLVES = 32

    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self._oracle: Optional[List[ProblemInstance]] = None

    # -- subclass hooks
    def tenants(self) -> Tuple[tuple, List[Tuple[str, str, np.ndarray]]]:
        """``(server_types, [(tenant, algorithm kind, demand array), ...])``."""
        raise NotImplementedError

    def make_engine(self):
        raise NotImplementedError

    def prewarm_levels(self) -> Optional[np.ndarray]:
        return None

    def run_engine(self, eng) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Drain every feed; returns the write path's (work counters, byte counts)."""
        eng.run()
        return {}, {}

    # -- one pass
    def setup(self, clock: Optional[HostClock] = None):
        """Scenario build, engine and cache build, and prewarm (the timed set-up).

        Returns the engine and the wall time of its prewarm.  With a
        ``clock``, the first tenant's feed samples it as the rounds go.
        """
        server_types, tenants = self.tenants()
        eng = self.make_engine()
        for index, (name, kind, demand) in enumerate(tenants):
            if clock is not None and index == 0:
                feed = _PacedFeed(demand, server_types, clock)
            else:
                feed = ArrayFeed(demand, server_types=server_types)
            eng.add_tenant(name, kind, feed)
        levels = self.prewarm_levels()
        started = time.perf_counter()
        if levels is not None:
            eng.prewarm(levels)
        return eng, time.perf_counter() - started

    def run_pass(self, clock: Optional[HostClock] = None) -> PassResult:
        """One pass; with a ``clock``, its times are also scaled to the reference host."""
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        (eng, prewarm_s), setup = _timed(clock, lambda: self.setup(clock))
        started = time.perf_counter()
        io_counters, volatile = self.run_engine(eng)
        ended = time.perf_counter()

        sessions = eng.sessions
        # every tenant has one tick per round: row = tenant, column = round
        per_round = np.stack([s.latencies_ns for s in sessions])
        if clock is None:
            run = Timing.unscaled(ended - started)
            scale = np.ones(per_round.shape)
        else:
            clock.sample()
            raw, factor = clock.stretches(started, ended)
            run = Timing(float(raw.sum()), float((raw * factor).sum()))
            # round r runs in the stretch after the sample taken as it began
            rounds = np.arange(per_round.shape[1])
            scale = np.broadcast_to(factor[1 + rounds // CALIBRATE_EVERY], per_round.shape)
        latencies = per_round.ravel()
        caches = eng.caches
        counters = _dispatch_counters([c.dispatcher.stats for c in caches])
        hits = sum(c.tensor_hits for c in caches)
        misses = sum(c.tensor_misses for c in caches)
        counters["serve.cache.tensor_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        counters["serve.cache.table_gathers"] = sum(c.table_gathers for c in caches)
        batched = eng.batch_counters() if isinstance(eng, batch.BatchedServeEngine) else {}
        counters["serve.batch.batched_ticks"] = int(batched.get("batched_ticks", 0))
        counters["serve.batch.fallback_ticks"] = int(batched.get("fallback_ticks", 0))
        counters["serve.ticks"] = int(sum(s.ticks for s in sessions))
        counters.update(io_counters)
        outputs = {s.name: (s.schedule.x, s.cumulative_cost) for s in sessions}
        return PassResult(
            setup=setup,
            run=run,
            latencies_ns=latencies,
            latency_scale=scale.ravel(),
            counters=counters,
            volatile=volatile,
            outputs=outputs,
            prewarm_s=prewarm_s,
        )

    def expected_ticks(self) -> int:
        _, tenants = self.tenants()
        return int(sum(len(demand) for _, _, demand in tenants))

    def instances(self) -> List[Tuple[str, str, ProblemInstance]]:
        """``(tenant, kind, instance)``: each trace over the shared fleet."""
        server_types, tenants = self.tenants()
        return [
            (name, kind, ProblemInstance(server_types=list(server_types), demand=demand, name=name))
            for name, kind, demand in tenants
        ]

    def oracle_instances(self) -> List[ProblemInstance]:
        """``ORACLE_SOLVES`` A/B/C tenants' traces, cycling when there are fewer."""
        if self._oracle is None:
            bounded = [inst for _, kind, inst in self.instances() if kind in BOUNDED]
            self._oracle = [bounded[k % len(bounded)] for k in range(self.ORACLE_SOLVES)]
        return self._oracle

    def time_solves(self, clock: HostClock) -> Dict[str, Timing]:
        """``solve_s`` and ``approx_solve_s``: the offline optimum of the served traces.

        The exact ``solve_dp`` — the optimum the bound check needs — and a
        ``solve_approx(gamma=2)`` of each oracle trace, each solve with a
        fresh dispatch solver, so every timing repeats the same work.  The
        two alternate trace by trace, and each solve is calibrated on its
        own.
        """
        exact = approx = Timing(0.0, 0.0)
        for instance in self.oracle_instances():
            exact += clock.timed(lambda: dp.solve_dp(instance))[1]
            approx += clock.timed(lambda: graph_approx.solve_approx(instance, gamma=2.0))[1]
        return {"solve_s": exact, "approx_solve_s": approx}

    # -- checks (outside every timed region)
    def check(self, result: PassResult) -> CheckReport:
        """Replay equality against batch ``run_online`` and the theorem bounds."""
        report = CheckReport()
        seen: Dict[str, int] = {}
        for name, kind, instance in self.instances():
            schedule, cost = result.outputs[name]
            ordinal = seen.get(kind, 0)
            seen[kind] = ordinal + 1
            if self.equality_sample is None or ordinal < self.equality_sample:
                reference = run_online(instance, session.build_serve_algorithm(kind))
                if not np.array_equal(reference.schedule.x, schedule):
                    wrong = int(np.sum(np.any(reference.schedule.x != schedule, axis=1)))
                    report.fail(wrong, f"{name} ({kind}): {wrong} ticks differ from run_online")
            if kind in BOUNDED:
                opt = dp.solve_dp(instance).cost
                bound = theoretical_bound(instance, kind, epsilon=C_EPSILON if kind == "C" else None)
                if not cost <= bound * opt * (1.0 + COST_RTOL):
                    report.fail(
                        instance.T,
                        f"{name} ({kind}): cost {cost:.6g} exceeds {bound:.4g} x OPT {opt:.6g}",
                    )
        return report


class FleetSteady(ServeWorkload):
    """``fleet-steady``: the production steady state of a large quantised fleet.

    Why: most of a serving process's life is this regime.  200 tenants share
    one ``diurnal-cpu-gpu`` geometry, each replaying its own seeded trace
    quantised onto one 12-level alphabet, through ``BatchedServeEngine``
    after ``ServeEngine.prewarm``, with telemetry (``flush_every=256``) and
    checkpoints (``checkpoint_every=256``) on.

    Loads: the round loop and cohort batching, session bookkeeping, the
    trackers' min-plus step, the cache's table hits (read path), telemetry
    rows and checkpoint files (write path).
    Bypasses: dispatch bisection — prewarm moves every solve into set-up,
    so a dispatch change should leave this workload unchanged.

    Seeds: the run seed spawns one sub-seed for the geometry and one per
    tenant trace; algorithms cycle A, B, lcp, reactive, follow-demand.
    """

    name = "fleet-steady"
    TENANTS = 200
    TICKS = 256
    LEVELS = 12
    PEAK = 10.0  # the family's diurnal peak: the alphabet is k * PEAK / LEVELS
    KINDS = ("A", "B", "lcp", "reactive", "follow-demand")
    FLUSH_EVERY = 256
    CHECKPOINT_EVERY = 256
    equality_sample = 2

    def tenants(self):
        seeds = _seeds(self.seed, self.TENANTS + 1)
        base = build_scenario("diurnal-cpu-gpu", T=self.TICKS, seed=seeds[0])
        tenants = []
        for k in range(self.TENANTS):
            trace = build_scenario("diurnal-cpu-gpu", T=self.TICKS, seed=seeds[k + 1]).demand
            demand = quantise_trace(trace, levels=self.LEVELS, peak=self.PEAK)
            tenants.append((f"tenant-{k:03d}", self.KINDS[k % len(self.KINDS)], demand))
        return base.server_types, tenants

    def make_engine(self):
        return batch.BatchedServeEngine(share_caches=True, overlap=False)

    def prewarm_levels(self):
        return np.arange(self.LEVELS + 1) * (self.PEAK / self.LEVELS)

    def run_engine(self, eng):
        path = self.workdir / "telemetry.jsonl"
        ckpt = self.workdir / "checkpoints"
        writer = telemetry.TelemetryWriter(path, flush_every=self.FLUSH_EVERY)
        try:
            eng.run(telemetry=writer, checkpoint_dir=ckpt, checkpoint_every=self.CHECKPOINT_EVERY)
        finally:
            writer.close()
        files = list(ckpt.glob("*.ckpt.json*"))
        counters = {
            "serve.telemetry.rows": writer.rows_written,
            "serve.checkpoint.files": len(files),
        }
        volatile = {
            "serve.telemetry.bytes": path.stat().st_size,
            "serve.checkpoint.bytes": sum(f.stat().st_size for f in files),
        }
        return counters, volatile


class ContinuousCold(ServeWorkload):
    """``continuous-cold``: unquantised demand on cold caches, the regime real traces hit.

    Why: a real trace rarely repeats a demand level exactly, so every tick
    runs a fresh dispatch dual bisection.  One tenant each of A, B, C, lcp
    and reactive, each on its own seeded *unquantised* ``diurnal-cpu-gpu``
    trace, through the sequential ``ServeEngine`` with fresh caches and no
    prewarm.

    Loads: ``DispatchSolver`` bisection (most of the time), plus the trackers
    and Algorithm C's sub-slot loop.  An exact cold-tick dispatch should show
    its gain here and leave ``fleet-steady`` unchanged.
    Bypasses: the table fast path, cohort batching, telemetry, checkpoints.

    Seeds: the run seed spawns one sub-seed for the geometry and one per
    tenant trace.
    """

    name = "continuous-cold"
    #: five passes at ``--seconds 25``, so the per-tick floor behind the
    #: p99 has five draws of every tick
    PASS_S = 5.0
    #: 5 x 200 = 1,000 latency samples per pass, 10 beyond the p99.
    TICKS = 200
    KINDS = ("A", "B", "C", "lcp", "reactive")
    #: the three A/B/C traces six times over
    ORACLE_SOLVES = 18

    def tenants(self):
        seeds = _seeds(self.seed, len(self.KINDS) + 1)
        base = build_scenario("diurnal-cpu-gpu", T=self.TICKS, seed=seeds[0])
        tenants = [
            (f"tenant-{kind}", kind,
             build_scenario("diurnal-cpu-gpu", T=self.TICKS, seed=seeds[k + 1]).demand)
            for k, kind in enumerate(self.KINDS)
        ]
        return base.server_types, tenants

    def make_engine(self):
        return engine.ServeEngine(share_caches=True)


# --------------------------------------------------------------------------- #
# Offline planning
# --------------------------------------------------------------------------- #


class OfflinePlan:
    """``offline-plan``: the paper's offline algorithm, exact and (1+eps).

    Why: planners run the graph DP over a whole horizon, and its users wait
    for the schedule.  Exact ``solve_dp`` on ``long_horizon_instance``
    (61 x 41 = 2,501 states, streaming pass with checkpointed backtracking)
    plus ``solve_approx(gamma=2)`` on ``big_fleet_instance(d=3, m_max=2000)``.

    Loads: min-plus transitions (``TransitionPlan.apply``/``relax_dimension``),
    the DP's own loop and backtracking, the windowed operating-cost provider,
    and dispatch as a few large vectorised blocks — a dispatch change that
    helps single-slot ticks but hurts blocks shows here.
    Bypasses: the whole serve stack.

    Seeds: the run seed spawns the two instance seeds.

    A "tick" here is one planned slot: ``ticks_per_s`` counts slots planned
    per second over both solves, and each slot's latency sample is its
    solve's wall time divided by that solve's horizon.
    """

    name = "offline-plan"
    PASS_S = 5.0
    EXACT_T = 8000
    APPROX_T = 3000
    GAMMA = 2.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed)
        self.workdir = Path(workdir)

    def setup(self):
        exact_seed, approx_seed = _seeds(self.seed, 2)
        exact = long_horizon_instance(T=self.EXACT_T, seed=exact_seed)
        approx = big_fleet_instance(T=self.APPROX_T, d=3, m_max=2000, seed=approx_seed)
        return exact, approx

    def run_pass(self, clock: Optional[HostClock] = None) -> PassResult:
        """One pass; with a ``clock``, each solve is calibrated just before and after."""
        (exact, approx), setup = _timed(clock, self.setup)

        exact_solver = allocation.DispatchSolver(exact)
        exact_result, exact_t = _timed(clock, lambda: dp.solve_dp(exact, dispatcher=exact_solver))
        approx_solver = allocation.DispatchSolver(approx)
        approx_result, approx_t = _timed(
            clock,
            lambda: graph_approx.solve_approx(approx, gamma=self.GAMMA, dispatcher=approx_solver),
        )

        latencies = np.concatenate([
            np.full(exact.T, exact_t.raw * 1e9 / exact.T),
            np.full(approx.T, approx_t.raw * 1e9 / approx.T),
        ])
        scale = np.concatenate([
            np.full(exact.T, exact_t.scaled / exact_t.raw),
            np.full(approx.T, approx_t.scaled / approx_t.raw),
        ])
        counters = _dispatch_counters([exact_solver.stats, approx_solver.stats])
        counters["offline.states_explored"] = (
            exact_result.num_states_explored + approx_result.num_states_explored
        )
        counters["offline.checkpoint_every"] = int(exact_result.checkpoint_every or 0)
        return PassResult(
            setup=setup,
            run=exact_t + approx_t,
            latencies_ns=latencies,
            latency_scale=scale,
            counters=counters,
            outputs={
                "exact": (exact_result.schedule.x, exact_result.cost),
                "approx": (approx_result.schedule.x, approx_result.cost),
            },
            solves={"solve_s": exact_t, "approx_solve_s": approx_t},
        )

    def expected_ticks(self) -> int:
        return self.EXACT_T + self.APPROX_T

    def time_solves(self, clock: HostClock) -> Dict[str, Timing]:
        """The solves are this workload's passes; nothing extra to time."""
        return {}

    def check(self, result: PassResult) -> CheckReport:
        """Each reported cost must equal ``evaluate_schedule`` of its schedule."""
        report = CheckReport()
        for label, instance in zip(("exact", "approx"), self.setup()):
            schedule, cost = result.outputs[label]
            fresh = allocation.DispatchSolver(instance)
            total = evaluate_schedule(instance, Schedule(schedule), fresh).total
            if not abs(total - cost) <= COST_RTOL * max(1.0, abs(total)):
                report.fail(
                    instance.T, f"{label}: reported cost {cost!r} != evaluate_schedule {total!r}"
                )
        return report


WORKLOADS = {cls.name: cls for cls in (FleetSteady, ContinuousCold, OfflinePlan)}
