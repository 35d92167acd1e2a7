"""repro — reproduction of "Algorithms for Right-Sizing Heterogeneous Data Centers".

Albers & Quedenfeld, SPAA 2021 (arXiv:2107.14692).

The package implements the paper's discrete data-center right-sizing model, the
optimal offline shortest-path algorithm and its (1+eps)-approximation
(Section 4), and the online Algorithms A, B and C with competitive ratios
2d+1, 2d+1+c(I) and 2d+1+eps (Sections 2 and 3), together with baselines,
workload generators and an experiment harness.

Performance architecture
------------------------
Every solver routes its operating-cost evaluations through the *batched
dispatch engine* (:meth:`repro.dispatch.DispatchSolver.solve_block`), which
solves ``g_t(x)`` for a whole ``(slots x configurations)`` block at once:
slots are deduplicated by their ``(demand, cost-row)`` signature, each
``(unique slot, configuration)`` cell is solved exactly by reading the demand
off the configuration's volume curve over the piecewise marginal costs (one
table per cost row and grid, built once), and results are memoised per
``(signature, configuration set)``.
State grids are memoised per ``(counts, gamma)`` on the instance, so
time-invariant instances build exactly one grid (with one cached ``configs()``
enumeration) for the whole horizon.

On top of the dispatch engine sits the *shared-context sweep engine*
(:mod:`repro.exp`): :func:`run_plan` batches N online algorithms × M instances
through one shared context per instance — one dispatch solver, per-slot grid
operating-cost tensors computed once, and a single memoised prefix-DP value
stream shared by Algorithms A/B and both LCP tie-breaks (and reused again for
the offline optimum) — with optional process sharding for large sweeps.  See
``docs/PERFORMANCE.md`` for the design, the measured speedups and the
benchmark harness (``make bench-smoke`` / ``python -m repro bench --smoke``
guards the DP's exactness, ``make perf-regress`` / ``repro bench --sweep``
guards the sweep engine's).

Experiments are addressed *declaratively* through the scenario registry
(:mod:`repro.scenarios`): a :class:`ScenarioSpec` names a registered instance
family plus parameters and one seed, a ``plan.json`` selection compiles into
a :class:`SweepPlan` (:func:`compile_plan` / :func:`load_plan`), and the
engine materialises instances lazily — inside worker shards for process-
sharded plans — stamping each spec into its records.  See
``docs/ARCHITECTURE.md`` for the full layer stack.

The *serve* layer (:mod:`repro.serve`) drives the same algorithms from live
demand streams instead of materialised instances: a :class:`ControllerSession`
wraps any registered algorithm behind an incremental ``observe(demand_t)``
API with latency telemetry and JSON checkpoint/restore, trace feeds replay
scenarios / JSONL streams / synthetic generators at configurable time-warp
speed, and a :class:`ServeEngine` multiplexes many tenants over shared
dispatch caches.  Streamed replay reproduces batch ``run_online`` exactly
(``make serve-smoke`` gates this for every scenario family).
"""

from .core import (
    CallableCost,
    ConstantCost,
    CostBreakdown,
    CostFunction,
    LinearCost,
    PiecewiseLinearCost,
    PowerCost,
    ProblemInstance,
    QuadraticCost,
    ScaledCost,
    Schedule,
    ServerType,
    ShiftedCost,
    evaluate_schedule,
    operating_cost,
    switching_cost,
    total_cost,
)
from .dispatch import DispatchResult, DispatchSolver, DispatchStats
from .offline import (
    OfflineResult,
    StateGrid,
    approximation_guarantee,
    optimal_cost,
    solve_approx,
    solve_milp,
    solve_optimal,
)
from .online import (
    AlgorithmA,
    AlgorithmB,
    AlgorithmC,
    AllOn,
    DPPrefixTracker,
    FollowDemand,
    LazyCapacityProvisioning,
    OnlineAlgorithm,
    OnlineRunResult,
    Reactive,
    run_online,
)
from .analysis import (
    compute_metrics,
    empirical_ratio,
    format_table,
    ratio_table,
    theoretical_bound,
)
from .exp import (
    AlgorithmSpec,
    OfflineSpec,
    SharedInstanceContext,
    SweepPlan,
    SweepReport,
    run_plan,
)
from .scenarios import ScenarioSpec, compile_plan, load_plan
from .scenarios import build as build_scenario
from .serve import (
    ControllerSession,
    FleetState,
    InstanceFeed,
    ScenarioFeed,
    ServeCache,
    ServeEngine,
    verify_replay,
)
from .workloads import (
    bursty_trace,
    cpu_gpu_fleet,
    diurnal_trace,
    fleet_instance,
    single_type_fleet,
    three_tier_fleet,
)

__version__ = "1.0.0"

__all__ = [
    "AlgorithmA",
    "AlgorithmB",
    "AlgorithmC",
    "AlgorithmSpec",
    "AllOn",
    "CallableCost",
    "ConstantCost",
    "ControllerSession",
    "CostBreakdown",
    "CostFunction",
    "DPPrefixTracker",
    "DispatchResult",
    "DispatchSolver",
    "DispatchStats",
    "FleetState",
    "FollowDemand",
    "InstanceFeed",
    "LazyCapacityProvisioning",
    "LinearCost",
    "OfflineResult",
    "OfflineSpec",
    "OnlineAlgorithm",
    "OnlineRunResult",
    "PiecewiseLinearCost",
    "PowerCost",
    "ProblemInstance",
    "QuadraticCost",
    "Reactive",
    "ScaledCost",
    "ScenarioFeed",
    "ScenarioSpec",
    "Schedule",
    "ServeCache",
    "ServeEngine",
    "ServerType",
    "SharedInstanceContext",
    "ShiftedCost",
    "StateGrid",
    "SweepPlan",
    "SweepReport",
    "approximation_guarantee",
    "build_scenario",
    "bursty_trace",
    "compile_plan",
    "compute_metrics",
    "cpu_gpu_fleet",
    "diurnal_trace",
    "empirical_ratio",
    "evaluate_schedule",
    "fleet_instance",
    "format_table",
    "load_plan",
    "operating_cost",
    "optimal_cost",
    "ratio_table",
    "run_online",
    "run_plan",
    "single_type_fleet",
    "solve_approx",
    "solve_milp",
    "solve_optimal",
    "switching_cost",
    "theoretical_bound",
    "three_tier_fleet",
    "total_cost",
    "verify_replay",
    "__version__",
]
