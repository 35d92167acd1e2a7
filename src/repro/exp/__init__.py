"""Experiment engine: shared-context sweeps of algorithms × instances.

``run_plan`` executes a :class:`SweepPlan` — N online algorithms and optional
offline solves over M instance sources — through one shared context per
instance (dispatch solver, per-slot grid tensors, one prefix-DP value
history per ``gamma``), with optional process-level sharding for large sweeps.  Instance
sources are pre-built :class:`~repro.core.instance.ProblemInstance` objects
and/or declarative :class:`~repro.scenarios.spec.ScenarioSpec` entries; the
latter are materialised lazily inside the executing shard and stamped into
every :class:`RunRecord`.  See ``docs/PERFORMANCE.md`` and
``docs/ARCHITECTURE.md``.
"""

from .engine import AlgorithmSpec, OfflineSpec, SweepPlan, run_instance, run_plan, spec
from .records import RunRecord, SweepReport
from .shared import SharedInstanceContext
from .sharding import assign_shards, chunked

__all__ = [
    "AlgorithmSpec",
    "OfflineSpec",
    "RunRecord",
    "SharedInstanceContext",
    "SweepPlan",
    "SweepReport",
    "assign_shards",
    "chunked",
    "run_instance",
    "run_plan",
    "spec",
]
