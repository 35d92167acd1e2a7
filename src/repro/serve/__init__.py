"""Live replay & serving: streaming controllers on top of the online layer.

The batch layers materialise a full problem instance and iterate it; this
subsystem drives the same :class:`~repro.online.base.OnlineAlgorithm.step`
contract from a *demand stream* that arrives one tick at a time — the regime
the paper's online algorithms were designed for:

* :class:`ControllerSession` — ``observe(demand_t) -> FleetState`` around any
  registered algorithm, with per-tick wall-latency metering and a
  JSON-serialisable ``checkpoint()/restore()``,
* :mod:`~repro.serve.feed` — trace feeds (scenario specs, JSONL streams,
  synthetic generators) with time-warped playback,
* :class:`ServeEngine` — multi-tenant multiplexing over shared dispatch/grid
  caches (N tenants over one fleet geometry cost far less than N isolated
  sessions), whose rounds decide tenants of one kind together in cohorts,
* :class:`ServeFabric` — tenants sharded across *supervised worker processes*
  with heartbeats, restart budgets, crash recovery from rotated atomic
  checkpoints, checkpoint-based live migration and per-tenant feed circuit
  breakers (:mod:`~repro.serve.fabric` / :mod:`~repro.serve.supervisor`),
* :mod:`~repro.serve.telemetry` — per-tick JSONL telemetry, latency
  percentiles and prefix-optimum regret,
* :mod:`~repro.serve.metrics` / :mod:`~repro.serve.trace` /
  :mod:`~repro.serve.watch` — the observability layer: a dependency-free
  labelled metrics registry behind every counter above, a sampling
  tick-phase tracer emitting Chrome ``trace_event`` JSON, and the
  ``repro serve watch`` live dashboard over telemetry/fabric files.

The correctness anchor is the differential oracle :mod:`~repro.serve.verify`:
every way of running a tenant — batch ``run_online``, a session across a JSON
checkpoint round-trip, the engine's cohorts, a fabric worker recovered
after SIGKILL — must yield the same :class:`~repro.serve.verify.Outcome`
(schedule exact, cost within 1e-9, SLA counters exact).  Its four gates,
:func:`verify_replay`, :func:`verify_chaos_replay`, :func:`verify_batched` and
:func:`verify_crash_recovery`, back ``make serve-smoke``, ``chaos-smoke``,
``bench-batch-smoke`` and ``fabric-smoke``.
"""

from .chaos import ChaosFeed, FaultInjector
from .engine import ServeEngine
from .fabric import FabricError, ServeFabric, TenantSpec
from .feed import (
    ArrayFeed,
    FeedError,
    InstanceFeed,
    JsonlFeed,
    ScenarioFeed,
    SyntheticFeed,
    Tick,
    TraceFeed,
    build_feed,
    payload_checksum,
    write_jsonl_trace,
)
from .session import (
    CheckpointCorruptError,
    ControllerSession,
    FleetState,
    SERVE_ALGORITHMS,
    ServeCache,
    build_serve_algorithm,
    fleet_signature,
    load_checkpoint,
    previous_checkpoint_path,
    save_checkpoint,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS_NS,
    MetricsRegistry,
)
from .supervisor import BreakerConfig, CircuitBreaker, RestartPolicy, Supervisor
from .telemetry import TelemetryWriter, latency_percentiles, summarise_sessions
from .trace import TickTracer, TraceSpan
from .verify import (
    Outcome,
    assert_same,
    outcome,
    replay,
    verify_batched,
    verify_chaos_replay,
    verify_crash_recovery,
    verify_replay,
)
from .watch import FabricWatcher, TelemetryTail, WatchModel, watch_command

__all__ = [
    "ArrayFeed",
    "BreakerConfig",
    "ChaosFeed",
    "CheckpointCorruptError",
    "CircuitBreaker",
    "ControllerSession",
    "Counter",
    "FabricError",
    "FabricWatcher",
    "FaultInjector",
    "FeedError",
    "FleetState",
    "Gauge",
    "Histogram",
    "InstanceFeed",
    "JsonlFeed",
    "LATENCY_BUCKETS_NS",
    "MetricsRegistry",
    "Outcome",
    "RestartPolicy",
    "SERVE_ALGORITHMS",
    "ScenarioFeed",
    "ServeCache",
    "ServeEngine",
    "ServeFabric",
    "Supervisor",
    "SyntheticFeed",
    "TelemetryTail",
    "TelemetryWriter",
    "TenantSpec",
    "Tick",
    "TickTracer",
    "TraceFeed",
    "TraceSpan",
    "WatchModel",
    "assert_same",
    "build_feed",
    "build_serve_algorithm",
    "fleet_signature",
    "latency_percentiles",
    "load_checkpoint",
    "outcome",
    "payload_checksum",
    "previous_checkpoint_path",
    "replay",
    "save_checkpoint",
    "summarise_sessions",
    "verify_batched",
    "verify_chaos_replay",
    "verify_crash_recovery",
    "verify_replay",
    "watch_command",
]
