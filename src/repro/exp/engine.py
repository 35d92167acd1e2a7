"""Shared-context sweep engine: batch N online algorithms × M instances.

The competitive-ratio experiments (THM8/13/15/22, the comparison and adversary
sweeps) all follow the same shape: for every instance, compute the offline
optimum, run a set of online algorithms, and report costs and ratios.  Run
sequentially, every ``run_online`` call builds its own solver and every
algorithm recomputes the identical prefix-DP forward pass.  The engine instead
runs the whole plan through one :class:`~repro.exp.shared.SharedInstanceContext`
per instance:

* one dispatch solver and one set of per-slot grid operating-cost tensors,
* one prefix-DP value history per ``gamma``, built by one forward pass over
  those tensors and replayed by A/B/LCP (both tie-breaks) — and read again
  for the offline optimum,
* schedule evaluation through the shared solver, which answers a schedule's
  configurations from the grid rows it already solved, and
* optional process-level sharding across instances (``jobs > 1``) for large
  sweeps.

Algorithms are named by *specs* (small picklable descriptions resolved against
a registry) so that plans can be shipped to worker processes; a spec may also
carry an arbitrary ``factory`` callable for custom algorithms, which restricts
the plan to in-process execution.

Instances, too, can be named declaratively: a plan's ``scenarios`` tuple holds
:class:`~repro.scenarios.spec.ScenarioSpec` entries (family name + params +
seed, see :mod:`repro.scenarios`) that are materialised *lazily* — in-process
right before the runs, and inside the worker shard for process-sharded plans,
so only the tiny spec crosses the process boundary, never a pickled
:class:`ProblemInstance`.  The spec is stamped into every resulting
:class:`RunRecord`, making each report row reproducible by address.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..analysis.competitive import theoretical_bound
from ..core.instance import ProblemInstance
from ..online.algorithm_a import AlgorithmA
from ..online.algorithm_b import AlgorithmB
from ..online.algorithm_c import AlgorithmC
from ..online.baselines import AllOn, FollowDemand, Reactive
from ..online.lcp import LazyCapacityProvisioning
from .records import RunRecord, SweepReport
from .shared import SharedInstanceContext

__all__ = ["AlgorithmSpec", "OfflineSpec", "SweepPlan", "run_instance", "run_plan", "spec"]


# --------------------------------------------------------------------------- #
# Specs
# --------------------------------------------------------------------------- #


@dataclass(frozen=True, eq=False)
class AlgorithmSpec:
    """Description of one online algorithm of a sweep plan.

    ``kind`` names a registry entry (``"A"``, ``"B"``, ``"C"``, ``"lcp"``,
    ``"reactive"``, ``"follow-demand"``, ``"all-on"``); ``params`` are passed
    to its builder.  ``bound`` is a fixed float, ``None``, or ``"theory"``
    (resolve the proven competitive bound per instance, where one applies).
    ``factory`` overrides the registry with a custom
    ``SharedInstanceContext -> OnlineAlgorithm`` callable; such specs cannot be
    shipped to worker processes.
    """

    kind: str
    label: Optional[str] = None
    params: Dict = field(default_factory=dict)
    bound: object = "theory"
    factory: Optional[Callable] = None


def spec(kind: str, label: Optional[str] = None, bound: object = "theory", **params) -> AlgorithmSpec:
    """Convenience constructor: ``spec("C", epsilon=0.5)``."""
    return AlgorithmSpec(kind=kind, label=label, bound=bound, params=params)


@dataclass(frozen=True, eq=False)
class OfflineSpec:
    """Description of one offline solve of a sweep plan.

    ``solver`` is ``"optimal"`` or ``"approx"``; approximate solves take
    ``epsilon`` (or ``gamma``).  ``return_schedule=False`` skips the backward
    pass when only the cost is needed.
    """

    solver: str = "optimal"
    label: Optional[str] = None
    epsilon: Optional[float] = None
    gamma: Optional[float] = None
    return_schedule: bool = True
    #: Streaming-DP checkpoint window for **approximate** solves only
    #: (``None`` = the plan's ``checkpoint_every``).  ``solver="optimal"``
    #: reads the shared value history, whose window is the plan's
    #: ``checkpoint_every`` — setting it on an optimal spec raises.
    checkpoint_every: Optional[int] = None


@dataclass(frozen=True, eq=False)
class SweepPlan:
    """A full sweep: instances and/or scenarios × (online algorithms + offline solves)."""

    instances: Tuple[ProblemInstance, ...] = ()
    #: Declarative instance sources: :class:`~repro.scenarios.spec.ScenarioSpec`
    #: entries (or names / spec dicts), materialised lazily by :func:`run_plan`
    #: — inside the worker shard when the plan is process-sharded.  They run
    #: after ``instances`` in plan order.
    scenarios: Tuple = ()
    algorithms: Tuple = ()
    offline: Tuple[OfflineSpec, ...] = ()
    #: Solve the shared offline optimum per instance (denominator of ratios).
    compute_optimal: bool = True
    #: Process-level sharding across instances (1 = in-process).
    jobs: int = 1
    #: Checkpoint window of the shared prefix-DP value histories (``None`` =
    #: every tensor kept).  Long-horizon plans set this to keep every
    #: instance's history at O(sqrt(T) * |M|) resident tensors.
    checkpoint_every: Optional[int] = None


# --------------------------------------------------------------------------- #
# Algorithm registry
# --------------------------------------------------------------------------- #


def _build_a(ctx: SharedInstanceContext, params: dict):
    return AlgorithmA(tracker=ctx.tracker(gamma=params.get("gamma")))


def _build_b(ctx: SharedInstanceContext, params: dict):
    return AlgorithmB(tracker=ctx.tracker(gamma=params.get("gamma")))


def _build_c(ctx: SharedInstanceContext, params: dict):
    # Algorithm C's inner tracker observes scaled sub-slots — a different
    # value history than A/B/LCP — so it keeps a private tracker and shares
    # only the dispatch solver and the per-slot grid tensors.
    return AlgorithmC(
        epsilon=params.get("epsilon", 0.25),
        gamma=params.get("gamma"),
        max_sub_slots=params.get("max_sub_slots", 1000),
    )


def _build_lcp(ctx: SharedInstanceContext, params: dict):
    return LazyCapacityProvisioning(
        allow_heterogeneous=params.get("allow_heterogeneous", False),
        tracker=ctx.tracker(gamma=params.get("gamma")),
    )


ALGORITHM_BUILDERS: Dict[str, Callable] = {
    "A": _build_a,
    "B": _build_b,
    "C": _build_c,
    "lcp": _build_lcp,
    "reactive": lambda ctx, params: Reactive(),
    "follow-demand": lambda ctx, params: FollowDemand(),
    "all-on": lambda ctx, params: AllOn(),
}


def _normalise_spec(entry) -> AlgorithmSpec:
    if isinstance(entry, AlgorithmSpec):
        return entry
    if isinstance(entry, str):
        return AlgorithmSpec(kind=entry)
    raise TypeError(f"algorithm spec must be an AlgorithmSpec or registry key, got {entry!r}")


def _build_algorithm(entry: AlgorithmSpec, ctx: SharedInstanceContext):
    if entry.factory is not None:
        return entry.factory(ctx)
    builder = ALGORITHM_BUILDERS.get(entry.kind)
    if builder is None:
        raise KeyError(
            f"unknown algorithm kind {entry.kind!r} (known: {sorted(ALGORITHM_BUILDERS)})"
        )
    return builder(ctx, entry.params)


def _resolve_bound(entry: AlgorithmSpec, instance: ProblemInstance) -> Optional[float]:
    if entry.bound is None:
        return None
    if isinstance(entry.bound, (int, float)):
        return float(entry.bound)
    if entry.bound == "theory":
        kind = entry.kind.upper()
        if kind in ("A", "B"):
            return theoretical_bound(instance, kind)
        if kind == "C":
            return theoretical_bound(instance, "C", epsilon=entry.params.get("epsilon", 0.25))
        return None
    raise ValueError(f"bound must be a number, None or 'theory', got {entry.bound!r}")


def _algorithm_extras(algorithm, result) -> dict:
    if isinstance(algorithm, AlgorithmC):
        counts = [record.sub_slots for record in result.decisions]
        return {
            "epsilon": algorithm.epsilon,
            "mean_sub_slots": float(np.mean(counts)) if counts else 0.0,
        }
    return {}


# --------------------------------------------------------------------------- #
# Execution
# --------------------------------------------------------------------------- #


def run_instance(
    instance: ProblemInstance,
    algorithms: Sequence = (),
    offline: Sequence[OfflineSpec] = (),
    compute_optimal: bool = True,
    context: Optional[SharedInstanceContext] = None,
    checkpoint_every: Optional[int] = None,
    scenario=None,
) -> list:
    """Run all algorithms and offline solves of a plan on one instance.

    Everything shares one :class:`SharedInstanceContext` (pass ``context`` to
    share it further, e.g. with hand-written analysis code).  Returns one
    :class:`RunRecord` per run; the shared optimum is computed once and stamped
    into every record, as is the declarative ``scenario`` spec (name + params
    + seed) when the instance came out of the scenario registry.
    """
    scenario_row = scenario.to_dict() if scenario is not None else None
    if context is not None:
        if checkpoint_every is not None and context.checkpoint_every != checkpoint_every:
            raise ValueError(
                "run_instance was given both an explicit context and a conflicting "
                f"checkpoint_every ({context.checkpoint_every!r} vs {checkpoint_every!r}); "
                "configure streaming on the SharedInstanceContext instead"
            )
        ctx = context
    else:
        ctx = SharedInstanceContext(instance, checkpoint_every=checkpoint_every)
    records = []

    optimal_cost = float("nan")
    if compute_optimal:
        start = time.perf_counter()
        optimal_cost = ctx.optimal_cost()
        optimal_seconds = time.perf_counter() - start
    else:
        optimal_seconds = 0.0

    for off in offline:
        start = time.perf_counter()
        if off.solver == "optimal":
            if off.checkpoint_every is not None:
                raise ValueError(
                    "OfflineSpec(solver='optimal') reads the shared value history; its "
                    "window is set by the plan's checkpoint_every — a per-spec "
                    "checkpoint_every applies to approx solves only"
                )
            result = ctx.solve_optimal(return_schedule=off.return_schedule)
            label = off.label or "offline-optimal"
        elif off.solver == "approx":
            result = ctx.solve_approx(
                epsilon=off.epsilon,
                gamma=off.gamma,
                return_schedule=off.return_schedule,
                checkpoint_every=off.checkpoint_every,
            )
            if off.label:
                label = off.label
            elif off.epsilon is not None:
                label = f"approx(eps={off.epsilon:g})"
            else:
                label = f"approx(gamma={result.gamma:g})"
        else:
            raise ValueError(f"unknown offline solver {off.solver!r}")
        elapsed = time.perf_counter() - start
        records.append(
            RunRecord(
                instance=instance.name,
                algorithm=label,
                kind="offline",
                cost=result.cost,
                optimal_cost=optimal_cost if compute_optimal else result.cost,
                elapsed_seconds=elapsed + (optimal_seconds if off.solver == "optimal" else 0.0),
                scenario=scenario_row,
                result=result,
            )
        )

    for entry in algorithms:
        entry = _normalise_spec(entry)
        algorithm = _build_algorithm(entry, ctx)
        start = time.perf_counter()
        result = ctx.run(algorithm)
        elapsed = time.perf_counter() - start
        records.append(
            RunRecord(
                instance=instance.name,
                algorithm=entry.label or result.algorithm,
                kind="online",
                cost=result.cost,
                optimal_cost=optimal_cost,
                elapsed_seconds=elapsed,
                bound=_resolve_bound(entry, instance),
                breakdown=result.breakdown.summary(),
                dispatch_stats=result.dispatch_stats,
                scenario=scenario_row,
                extras=_algorithm_extras(algorithm, result),
                result=result,
            )
        )
    return records


def _materialise(scenario) -> ProblemInstance:
    """Build a scenario spec through the registry (lazy import: the scenarios
    package layers *above* the engine and imports it for the plan compiler)."""
    from ..scenarios import registry

    return registry.family(scenario.name).build(scenario)


def _instance_worker(payload) -> list:
    """Module-level worker for process-sharded plans (must stay picklable).

    ``payload[0]`` is either a :class:`ProblemInstance` or ``None`` with
    ``payload[1]`` carrying a :class:`~repro.scenarios.spec.ScenarioSpec` —
    scenario shards ship only the spec and materialise the instance here,
    inside the worker process.
    """
    instance, scenario, algorithms, offline, compute_optimal, checkpoint_every = payload
    if instance is None:
        instance = _materialise(scenario)
    return run_instance(
        instance,
        algorithms=algorithms,
        offline=offline,
        compute_optimal=compute_optimal,
        checkpoint_every=checkpoint_every,
        scenario=scenario,
    )


def _plan_sources(plan: SweepPlan) -> list:
    """The plan's instance sources in run order, as ``(instance, spec)`` pairs.

    Pre-built instances keep ``spec=None``; scenario entries are validated
    against the registry here (fail fast, before any work runs) and keep
    ``instance=None`` — materialisation is deferred to the execution site.
    """
    from ..scenarios import registry
    from ..scenarios.spec import ScenarioSpec

    sources = [(instance, None) for instance in plan.instances]
    for entry in plan.scenarios:
        spec = registry.validate(ScenarioSpec.parse(entry))
        sources.append((None, spec))
    return sources


def _shard_payloads(plan: SweepPlan, algorithms: Tuple, offline: Tuple, sources=None) -> list:
    """Worker payloads of a process-sharded plan.

    Scenario entries contribute ``(None, spec, ...)`` payloads — the invariant
    (asserted by the test suite) is that no ``ProblemInstance`` of a scenario
    source is ever pickled into a shard.  ``sources`` takes the already
    computed :func:`_plan_sources` list so callers validate each spec once.
    """
    if sources is None:
        sources = _plan_sources(plan)
    return [
        (instance, spec, algorithms, offline, plan.compute_optimal, plan.checkpoint_every)
        for instance, spec in sources
    ]


def run_plan(plan: SweepPlan, jobs: Optional[int] = None) -> SweepReport:
    """Execute a sweep plan and return the bundled report.

    ``jobs > 1`` shards *instance sources* across worker processes (results
    and record order are identical to the serial path).  Scenario sources ship
    their spec only and are materialised inside the worker; pre-built
    instances are pickled as before.  Plans containing custom ``factory``
    specs, or whose instances fail to pickle, fall back to serial execution
    with a warning.
    """
    jobs = plan.jobs if jobs is None else int(jobs)
    algorithms = tuple(_normalise_spec(a) for a in plan.algorithms)
    offline = tuple(plan.offline)
    sources = _plan_sources(plan)

    start = time.perf_counter()
    parallel = jobs > 1 and len(sources) > 1 and all(a.factory is None for a in algorithms)
    records: list = []
    used_jobs = 1
    sharded = False
    if parallel:
        import pickle
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

        try:
            payloads = _shard_payloads(plan, algorithms, offline, sources=sources)
            with ProcessPoolExecutor(max_workers=min(jobs, len(sources))) as pool:
                for chunk in pool.map(_instance_worker, payloads):
                    records.extend(chunk)
            used_jobs = min(jobs, len(sources))
            sharded = True
        except (pickle.PicklingError, AttributeError, ImportError, OSError, BrokenExecutor) as exc:
            # infrastructure failures only (unpicklable instances, missing
            # semaphores, crashed workers) — genuine workload errors such as an
            # infeasible instance propagate to the caller unchanged
            warnings.warn(f"process sharding unavailable ({exc!r}); running serially")
            records = []
    if not sharded:
        for instance, scenario in sources:
            if instance is None:
                instance = _materialise(scenario)
            records.extend(
                run_instance(
                    instance,
                    algorithms=algorithms,
                    offline=offline,
                    compute_optimal=plan.compute_optimal,
                    checkpoint_every=plan.checkpoint_every,
                    scenario=scenario,
                )
            )
    total = time.perf_counter() - start
    meta = {
        "instances": len(sources),
        "algorithms": [a.label or a.kind for a in algorithms],
        "offline": [o.label or o.solver for o in offline],
        "jobs": used_jobs,
    }
    if plan.scenarios:
        meta["scenarios"] = [spec.to_dict() for _, spec in sources if spec is not None]
    return SweepReport(
        records=tuple(records),
        total_seconds=total,
        meta=meta,
    )
