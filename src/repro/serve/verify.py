"""The differential oracle: the one place that compares two runs of a tenant.

The paper's guarantees (Algorithm A within ``(2d+1)·OPT``, Theorem 8, and
the matching bounds for B and C) are statements about the schedule an online
algorithm emits.  They hold for the served system only if every way of
running a tenant emits that same schedule: batch ``run_online``, a session
across a JSON checkpoint, the engine's rounds (cold blocks and cohorts), and
a fabric worker recovered after SIGKILL.  Every such check is built from
three pieces:

* :func:`outcome` — reduces a :class:`ControllerSession`, a checkpoint
  payload or a batch/offline result to one :class:`Outcome` record (ticks,
  configurations, cost, SLA counters); a field its source does not carry is
  ``None`` and is skipped,
* :func:`assert_same` — equal tick counts, ``np.array_equal`` schedules
  (naming the first differing tick), cost within a tolerance, SLA counters
  exact, and
* :func:`replay` — the in-process reference run: observe every tick of a
  feed, optionally across a mid-stream JSON checkpoint round-trip, then
  finish.  It calls ``session.observe`` and nothing else, so it is the
  reference every engine gate compares against.

The four gates below are those pieces applied to one execution path each:
:func:`verify_replay` (session vs batch ``run_online``, ``make
serve-smoke``), :func:`verify_chaos_replay` (chaos replay across a round-trip,
``make chaos-smoke``), :func:`verify_batched` (engine rounds vs per-tenant
replays, ``make bench-batch-smoke``) and :func:`verify_crash_recovery`
(fabric after a worker SIGKILL vs an uninterrupted replay, ``make
fabric-smoke``).  A
round-trip must land mid-stream: every gate rejects a ``checkpoint_at``
outside ``[1, T)``, ``T`` being the shortest tenant stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from ..core.instance import ProblemInstance
from ..online.base import run_online
from ..scenarios.events import EventPlan
from .chaos import ChaosFeed
from .engine import ServeEngine
from .fabric import ServeFabric, _materialise
from .feed import InstanceFeed
from .session import ControllerSession, build_serve_algorithm, load_checkpoint

__all__ = [
    "Outcome",
    "assert_same",
    "outcome",
    "replay",
    "verify_batched",
    "verify_chaos_replay",
    "verify_crash_recovery",
    "verify_replay",
]


@dataclass(frozen=True)
class Outcome:
    """What one run of a tenant produced; ``None`` marks a field its source lacks."""

    ticks: Optional[int]
    configs: Optional[np.ndarray]
    cost: Optional[float]
    sla_violations: Optional[int] = None
    shed_demand: Optional[float] = None
    forced_downs: Optional[int] = None


def outcome(source) -> Outcome:
    """The :class:`Outcome` of a session, a checkpoint payload or a batch result.

    A compact (``history=False``) session or payload carries no
    configurations; a batch ``run_online`` or offline result carries no SLA
    counters.  An :class:`Outcome` is returned as is.
    """
    if isinstance(source, Outcome):
        return source
    if isinstance(source, ControllerSession):
        return Outcome(
            ticks=source.ticks,
            configs=source.schedule.x if source.history else None,
            cost=source.cumulative_cost,
            sla_violations=source.sla_violations,
            shed_demand=source.shed_demand_total,
            forced_downs=source.forced_downs,
        )
    if isinstance(source, dict):  # a ControllerSession.checkpoint() payload
        configs = source.get("configs")
        return Outcome(
            ticks=int(source["tick"]),
            configs=None
            if configs is None
            else np.asarray(configs, dtype=int).reshape(-1, len(source["previous_config"])),
            cost=float(source["cum_operating"]) + float(source["cum_switching"]),
            sla_violations=int(source["sla_violations"]),
            shed_demand=float(source["shed_total"]),
            forced_downs=int(source["forced_downs"]),
        )
    schedule = source.schedule  # a run_online / offline solver result
    return Outcome(
        ticks=None if schedule is None else schedule.T,
        configs=None if schedule is None else schedule.x,
        cost=float(source.cost),
    )


def assert_same(reference, candidate, *, label: str, tolerance: float) -> float:
    """Assert two runs agree; returns their absolute cost deviation.

    Either argument may be anything :func:`outcome` accepts.  Tick counts must
    be equal, schedules ``np.array_equal`` (the message names the first
    differing tick), the cost within ``tolerance`` and the SLA counters
    exactly equal.  A field either side lacks is skipped.  Raises
    :class:`AssertionError` naming ``label`` and the field that differs.
    """
    ref, cand = outcome(reference), outcome(candidate)

    def pair(field):
        a, b = getattr(ref, field), getattr(cand, field)
        return None if a is None or b is None else (a, b)

    ticks = pair("ticks")
    if ticks and ticks[0] != ticks[1]:
        raise AssertionError(
            f"{label}: ticks differ (reference {ticks[0]}, candidate {ticks[1]})"
        )
    configs = pair("configs")
    if configs:
        a, b = configs
        if a.shape != b.shape:
            raise AssertionError(f"{label}: configs differ in shape ({a.shape} vs {b.shape})")
        if not np.array_equal(a, b):
            t = int(np.argmax(np.any(a != b, axis=1)))
            raise AssertionError(
                f"{label}: configs differ first at tick {t} "
                f"(reference {a[t].tolist()}, candidate {b[t].tolist()})"
            )
    deviation = 0.0
    cost = pair("cost")
    if cost:
        deviation = abs(cost[1] - cost[0])
        if not deviation <= tolerance:
            raise AssertionError(
                f"{label}: cost differs by {deviation:.3e} (tolerance {tolerance:g}; "
                f"reference {cost[0]!r}, candidate {cost[1]!r})"
            )
    for field in ("sla_violations", "shed_demand", "forced_downs"):
        counters = pair(field)
        if counters and counters[0] != counters[1]:
            raise AssertionError(
                f"{label}: {field} differs (reference {counters[0]!r}, "
                f"candidate {counters[1]!r})"
            )
    return deviation


def _check_roundtrip(checkpoint_at: Optional[int], ticks: int) -> None:
    """The range rule: a round-trip must land mid-stream, in ``[1, ticks)``."""
    if checkpoint_at is not None and not 1 <= checkpoint_at < ticks:
        raise ValueError(
            f"checkpoint_at must be in [1, T) = [1, {ticks}), got {checkpoint_at} "
            "(the round-trip would never land mid-stream)"
        )


def replay(
    session: ControllerSession, feed, *, roundtrip_at: Optional[int] = None
) -> ControllerSession:
    """The in-process reference run: observe every tick of ``feed``, then finish.

    ``roundtrip_at`` serialises the session through a JSON checkpoint after
    that many ticks and restores it into a fresh session (cold cache, as
    after a process restart) before streaming the rest; it must lie in
    ``[1, len(feed))``.  Returns the session that observed the last tick.
    """
    if roundtrip_at is not None:
        _check_roundtrip(roundtrip_at, len(feed))
    for i, tick in enumerate(feed):
        if i == roundtrip_at:
            session = session.checkpoint_roundtrip()
        session.observe(tick.demand, cost_row=tick.cost_row, counts=tick.counts)
    session.finish()
    return session


# --------------------------------------------------------------------------- #
# The gates
# --------------------------------------------------------------------------- #


def verify_replay(
    instance: ProblemInstance,
    algorithm="A",
    checkpoint_at: Optional[int] = None,
    tolerance: float = 1e-9,
    track_regret: bool = False,
) -> dict:
    """Check that streaming replay reproduces batch ``run_online`` exactly.

    Replays ``instance`` through a :class:`ControllerSession`, optionally
    across a JSON checkpoint round-trip after ``checkpoint_at`` ticks, and
    compares it with batch ``run_online`` of an identically-built algorithm.
    Returns a JSON-safe report row; raises :class:`AssertionError` on any
    mismatch (this is the ``make serve-smoke`` gate) and :class:`ValueError`
    when ``checkpoint_at`` lies outside ``[1, T)``.
    """
    session = replay(
        ControllerSession(algorithm, instance.server_types, track_regret=track_regret),
        InstanceFeed(instance),
        roundtrip_at=checkpoint_at,
    )
    batch = run_online(instance, build_serve_algorithm(algorithm))
    deviation = assert_same(
        batch, session, label=f"{instance.name}: streamed vs batch run_online",
        tolerance=tolerance,
    )
    return {
        "instance": instance.name,
        "algorithm": session.algorithm.name,
        "ticks": session.ticks,
        "checkpointed": checkpoint_at is not None,
        "checkpoint_at": checkpoint_at,
        "cost": session.cumulative_cost,
        "batch_cost": batch.cost,
        "cost_deviation": deviation,
        "latency": session.latency_summary(),
        "ok": True,
    }


def verify_chaos_replay(
    instance: ProblemInstance,
    plan,
    algorithm="A",
    checkpoint_at: Optional[int] = None,
    tolerance: float = 1e-9,
) -> dict:
    """Check chaos determinism: same seed + same plan ⇒ bit-identical replay.

    Streams ``instance`` through a shed-mode session twice under the same
    injected event plan, the second time across a JSON checkpoint round-trip
    after ``checkpoint_at`` ticks (default: mid-stream), and compares the two
    runs.  Neither replay may raise: injected faults shed, they don't crash.
    Separately, the SLA-violation count must cover an independent recount of
    the injected ticks whose demand exceeds their capacity.

    Returns a JSON-safe report row; raises :class:`AssertionError` on any
    deviation (this is the ``make chaos-smoke`` gate) and :class:`ValueError`
    when ``checkpoint_at`` lies outside ``[1, T)``.
    """
    plan = EventPlan.parse(plan)
    if plan is None:
        plan = EventPlan()
    if checkpoint_at is None and instance.T > 1:
        checkpoint_at = max(1, instance.T // 2)

    def run(roundtrip_at):
        session = ControllerSession(algorithm, instance.server_types, degradation="shed")
        return replay(session, ChaosFeed(InstanceFeed(instance), plan), roundtrip_at=roundtrip_at)

    roundtripped = run(checkpoint_at)
    reference = run(None)
    deviation = assert_same(
        reference, roundtripped,
        label=f"{instance.name}: chaos replay across a checkpoint round-trip",
        tolerance=tolerance,
    )

    # independent recount: every overloaded injected tick must have shed
    zmax = np.array([st.capacity for st in instance.server_types], dtype=float)
    base_counts = np.array([st.count for st in instance.server_types], dtype=int)
    expected_shed_ticks = 0
    for tick in ChaosFeed(InstanceFeed(instance), plan):
        counts = base_counts if tick.counts is None else tick.counts
        if tick.demand > float(np.sum(counts * zmax)) + 1e-9:
            expected_shed_ticks += 1
    if expected_shed_ticks > reference.sla_violations:
        raise AssertionError(
            f"{instance.name}: {expected_shed_ticks} injected ticks exceed capacity but "
            f"only {reference.sla_violations} SLA violations were accounted"
        )

    return {
        "instance": instance.name,
        "algorithm": reference.algorithm.name,
        "ticks": reference.ticks,
        "events": len(plan.events),
        "checkpoint_at": checkpoint_at,
        "cost": reference.cumulative_cost,
        "cost_deviation": deviation,
        "sla_violations": reference.sla_violations,
        "shed_demand": round(reference.shed_demand_total, 9),
        "forced_downs": reference.forced_downs,
        "expected_shed_ticks": expected_shed_ticks,
        "ok": True,
    }


def verify_batched(
    build_tenants,
    tolerance: float = 1e-9,
    checkpoint_at: Optional[int] = None,
    engine_kwargs: Optional[dict] = None,
) -> dict:
    """Gate: an engine run, cohorts included, must equal per-tenant replays.

    ``build_tenants(engine)`` registers the same tenants on whichever engine
    it is handed (it is called twice and must build fresh feeds each time).
    The reference registers them on a :class:`ServeEngine` it never runs:
    every tenant's session replays its feed on its own through
    :func:`replay`, so no reference tick goes through a round, a block or a
    cohort.  A second :class:`ServeEngine` built with ``engine_kwargs`` then
    runs the same workload round by round, and every tenant's outcome must
    match its reference.

    ``checkpoint_at`` exercises the mid-stream restart on the engine side:
    after ``checkpoint_at`` rounds every tenant is checkpoint/restored in
    place through JSON (:meth:`ServeEngine.roundtrip_tenant`) and the streams
    resume to completion.  Raises :class:`AssertionError` on any mismatch and
    :class:`ValueError` when ``checkpoint_at`` lies outside ``[1, T)`` of the
    shortest tenant stream; returns a JSON-safe report row.
    """
    engine_kwargs = dict(engine_kwargs or {})
    reference = ServeEngine(**engine_kwargs)
    build_tenants(reference)
    for tenant in reference.tenants.values():
        replay(tenant.session, tenant.iterator)
    _check_roundtrip(checkpoint_at, min((s.ticks for s in reference.sessions), default=0))

    engine = ServeEngine(**engine_kwargs)
    build_tenants(engine)
    if sorted(engine.tenants) != sorted(reference.tenants):
        raise AssertionError("build_tenants registered different tenant sets")
    if checkpoint_at is None:
        report = engine.run()
    else:
        engine.run(max_ticks=checkpoint_at, finalize=False)
        for name in list(engine.tenants):
            engine.roundtrip_tenant(name)
        report = engine.run()

    tenants = []
    for name in reference.tenants:
        ref = reference.session(name)
        served = engine.session(name)
        deviation = assert_same(
            ref, served, label=f"{name}: engine vs per-tenant replay", tolerance=tolerance
        )
        tenants.append(
            {
                "tenant": name,
                "ticks": int(ref.ticks),
                "cost_deviation": deviation,
                "algorithm": ref.algorithm.name,
                "batched": served.algorithm.lane_family() is not None,
                "p99_ms": served.latency_summary().get("p99_ms"),
            }
        )

    return {
        "tenants": tenants,
        "ticks_total": int(sum(row["ticks"] for row in tenants)),
        "max_cost_deviation": max((row["cost_deviation"] for row in tenants), default=0.0),
        "schedules_identical": True,
        "checkpoint_at": checkpoint_at,
        "latency": report["latency"],
        "wall_seconds": report.get("wall_seconds"),
        "batch": report["batch"],
    }


def verify_crash_recovery(
    scenario: str = "diurnal-cpu-gpu",
    *,
    n_tenants: int = 4,
    algorithm: str = "A",
    workers: int = 2,
    kill_worker: int = 0,
    kill_round: Optional[int] = None,
    seed: int = 0,
    scenario_params: Optional[dict] = None,
    chaos=None,
    degradation: str = "strict",
    checkpoint_every: int = 4,
    tolerance: float = 1e-9,
    run_dir=None,
    fabric: Optional[ServeFabric] = None,
) -> dict:
    """The fabric gate: SIGKILL a worker mid-stream, demand a perfect recovery.

    Every tenant is replayed in-process, uninterrupted (the reference), and
    then served by a :class:`ServeFabric` whose worker ``kill_worker`` is
    SIGKILLed at ``kill_round`` (default: half the shortest stream) and
    recovered from its periodic checkpoints.  The killed worker must actually
    have died and restarted (a gate that never injected its fault verifies
    nothing), every tenant must complete, and each tenant's final checkpoint
    must match its reference — schedule, cost within ``tolerance`` and SLA
    counters, chaos plans included.

    Pass a pre-built ``fabric`` (with tenants registered) to gate a custom
    topology; otherwise ``n_tenants`` scenario tenants with consecutive seeds
    are built.  Returns a JSON-safe verification report; raises
    ``AssertionError`` on any mismatch.
    """
    if fabric is None:
        fabric = ServeFabric(
            workers=workers, run_dir=run_dir, checkpoint_every=checkpoint_every
        )
        for i in range(int(n_tenants)):
            feed = {"kind": "scenario", "scenario": scenario, "seed": seed + i}
            if scenario_params:
                feed["params"] = dict(scenario_params)
            fabric.add_tenant(
                f"tenant-{i}",
                algorithm=algorithm,
                feed=feed,
                chaos=chaos,
                degradation=degradation,
            )

    references = {}
    for spec in fabric.tenants.values():
        feed, server_types = _materialise(spec)
        references[spec.name] = outcome(replay(spec.session(server_types), feed))
    if kill_round is None:
        kill_round = max(1, min((o.ticks for o in references.values()), default=2) // 2)

    report = fabric.run(kill={int(kill_worker): int(kill_round)}, raise_on_failure=False)
    killed = report["workers"][str(int(kill_worker))]
    assert killed["restarts"] >= 1, (
        f"worker {kill_worker} never restarted (kill at round {kill_round} did not "
        f"fire — the gate verified nothing): {killed}"
    )

    max_cost_delta = 0.0
    checkpoint_dir = Path(report["checkpoint_dir"])
    for name, reference in references.items():
        row = report["tenants"][name]
        assert row["status"] == "completed", f"tenant {name} ended {row['status']!r}: {row}"
        delta = assert_same(
            reference,
            load_checkpoint(checkpoint_dir / f"{name}.ckpt.json"),
            label=f"tenant {name}: recovered vs uninterrupted",
            tolerance=tolerance,
        )
        max_cost_delta = max(max_cost_delta, delta)

    return {
        "verified": True,
        "tenants": len(references),
        "workers": fabric.n_workers,
        "kill": {"worker": int(kill_worker), "round": int(kill_round)},
        "restarts": report["totals"]["restarts"],
        "recovery_latency_s": report["recovery_latency_s"],
        "max_cost_delta": max_cost_delta,
        "ticks": report["totals"]["ticks"],
        "sla_violations": report["totals"]["sla_violations"],
        "wall_seconds": report["wall_seconds"],
        "run_dir": report["run_dir"],
    }
