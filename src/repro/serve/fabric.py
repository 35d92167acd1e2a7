"""Fault-tolerant sharded serve fabric: supervised workers + crash recovery.

The serve engine (:mod:`repro.serve.engine`) multiplexes tenants inside one
process — one crash loses every session.  :class:`ServeFabric` is the layer
above it: tenants are declared as plain JSON-safe :class:`TenantSpec` records
(algorithm kind, declarative feed address, optional fleet address and chaos
plan), sharded across worker *processes* by their ``shard_key`` with the same
affinity-preserving assignment the sweep engine uses
(:func:`repro.exp.sharding.assign_shards` — co-keyed tenants land in one
process and share one :class:`~repro.serve.session.ServeCache`), and driven
by a :class:`~repro.serve.supervisor.Supervisor` that restarts crashed
workers under an exponential-backoff budget.

Workers
-------
A worker process serves its tenants with a :class:`~repro.serve.engine.ServeEngine`
that it drives round by round (:meth:`~repro.serve.engine.ServeEngine.play_round`):
the same round — pull one tick per live tenant, decide (cold block, then
cohorts, then the rest through their sessions), write telemetry, keep the
checkpoint cadence, finish and checkpoint ended streams — that every
in-process engine runs.  Tenants that share a cache (one ``group``) share
its cohorts.  A worker's tenant record adds only a breaker-gated pull and
the recovery cursor.
Around the rounds the worker keeps what only a process needs: control-file
sync (adoption and release), heartbeats, the deterministic ``die_at_round``
fault, release markers and the result file.

Crash recovery
--------------
Everything a worker knows is reconstructible from three deterministic
artefacts, so SIGKILL at *any* instant is survivable:

* the **control file** (desired state: which tenants this worker serves),
* each tenant's latest **checkpoint** (atomic, rotated — written every
  ``checkpoint_every`` ticks by the worker's engine round), and
* the tenant's **feed spec** (rebuilding the same spec replays the same tick
  stream).

A restarted incarnation reads the control file, rebuilds each session,
restores it from the newest intact checkpoint
(:func:`~repro.serve.session.load_checkpoint`, ``.prev`` fallback included),
rebuilds the feed and skips the ``session.ticks`` ticks already consumed —
then continues as if nothing happened.  Because sessions are bit-identically
restorable and feeds are deterministic, the recovered run's schedule, costs
and SLA counters equal an uninterrupted run's exactly; that is the
:func:`~repro.serve.verify.verify_crash_recovery` gate behind ``make
fabric-smoke``.

Live migration rides the same machinery: :meth:`ServeFabric.migrate` removes
a tenant from its source worker's control file, waits for the released
checkpoint, and adds the tenant to the target's control file — the target
adopts it by the ordinary recovery path.

Feed faults are quarantined per tenant by a
:class:`~repro.serve.supervisor.CircuitBreaker`: consecutive
:class:`~repro.serve.feed.FeedError` ticks trip the breaker open, the tenant
cools down while its neighbours keep serving, and half-open probes retry with
a rebuilt feed (a generator that raised is dead) until the feed heals or the
breaker exhausts its budget.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import tempfile
import time
import traceback
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..exp.sharding import assign_shards
from .chaos import ChaosFeed
from .engine import IDLE, ServeEngine, _Tenant
from .feed import FeedError, TraceFeed, build_feed
from .session import (
    ControllerSession,
    check_ledger_budget,
    load_checkpoint,
    previous_checkpoint_path,
    ServeCache,
)
from .supervisor import (
    BreakerConfig,
    CircuitBreaker,
    CONTROL_FILE,
    HEARTBEAT_FILE,
    RELEASED_DIR,
    RESULT_FILE,
    RestartPolicy,
    Supervisor,
    WorkerHandle,
    read_json,
    write_json_atomic,
)
from .telemetry import TelemetryWriter

__all__ = ["FabricError", "ServeFabric", "TenantSpec"]


class FabricError(RuntimeError):
    """The fabric could not serve its tenants (configuration or worker failure)."""


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


@dataclass(frozen=True)
class TenantSpec:
    """A tenant as pure data: everything needed to (re)build its session.

    Specs cross process boundaries and survive crashes, so every field is
    JSON-safe: the algorithm is a registry address (``{"kind", "params"}``),
    the feed a :func:`~repro.serve.feed.build_feed` spec, the optional fleet
    a scenario address (for demand-only feeds), the optional chaos plan an
    :class:`~repro.scenarios.events.EventPlan` dict.  ``shard_key`` drives
    worker placement *and* cache grouping: tenants with equal keys serve from
    one process and one :class:`~repro.serve.session.ServeCache`.
    """

    name: str
    algorithm: dict
    feed: dict
    fleet: Optional[dict] = None
    chaos: Optional[dict] = None
    degradation: str = "strict"
    history: bool = True
    track_regret: bool = False
    shard_key: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "algorithm": self.algorithm,
            "feed": self.feed,
            "fleet": self.fleet,
            "chaos": self.chaos,
            "degradation": self.degradation,
            "history": self.history,
            "track_regret": self.track_regret,
            "shard_key": self.shard_key,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TenantSpec":
        return cls(**payload)

    def session(self, server_types=None, cache=None) -> ControllerSession:
        """A fresh session for this tenant, over ``cache`` when one is given."""
        return ControllerSession(
            self.algorithm,
            server_types,
            cache=cache,
            track_regret=self.track_regret,
            degradation=self.degradation,
            history=self.history,
            name=self.name,
        )


def _materialise(spec: TenantSpec):
    """Build a tenant's live feed (+ fleet) from its declarative spec.

    Returns ``(feed, server_types)``.  Deterministic: rebuilding the same
    spec yields the same tick stream and a value-identical fleet, which is
    what crash recovery and the reference replay of
    :func:`~repro.serve.verify.verify_crash_recovery` both rely on.
    """
    feed = build_feed(dict(spec.feed))
    server_types = feed.server_types
    if server_types is None:
        if spec.fleet is None:
            raise FeedError(
                f"tenant {spec.name!r}: feed carries no fleet — give a fleet address"
            )
        fleet_feed = build_feed({"kind": "scenario", **spec.fleet})
        server_types = fleet_feed.server_types
    if spec.chaos is not None:
        feed = ChaosFeed(feed, spec.chaos, server_types=server_types)
    return feed, server_types


def _geometry(server_types) -> tuple:
    """Structural fleet key (no cost-function identity): cache-mismatch guard."""
    return tuple(
        (st.name, int(st.count), float(st.switching_cost), float(st.capacity))
        for st in server_types
    )


# --------------------------------------------------------------------------- #
# Worker runtime (child process)
# --------------------------------------------------------------------------- #


class _WorkerTenant(_Tenant):
    """A fabric tenant: the engine's tenant record plus a breaker-gated pull.

    The pull is where the worker's crash-only design meets the feed: the
    feed is (re)built lazily from the spec and fast-forwarded past the ticks
    the restored session already served (``session.ticks`` is the recovery
    cursor), and feed faults go through the tenant's
    :class:`~repro.serve.supervisor.CircuitBreaker` instead of the worker.
    """

    def __init__(self, spec: TenantSpec, breaker: CircuitBreaker):
        super().__init__(spec.name, None, None)
        self.spec = spec
        self.breaker = breaker
        self.feed: Optional[TraceFeed] = None
        #: The breaker's clock: one pull per round while the tenant is live.
        self.pulls = 0
        self.quarantined_rounds = 0
        self.feed_rebuilds = 0
        self.last_error: Optional[str] = None

    @property
    def status(self) -> str:
        return "failed" if self.failed else "completed" if self.done else "running"

    def pull(self):
        self.pulls += 1
        if not self.breaker.allow(self.pulls):
            self.quarantined_rounds += 1
            return IDLE
        try:
            if self.iterator is None:
                self.iterator = self._open()
            tick = next(self.iterator)
        except StopIteration:
            return None
        except (FeedError, OSError) as exc:
            # OSError covers transient source problems (file mid-rotation,
            # NFS hiccup): route them through the breaker like any FeedError
            # so the tenant quarantines and retries instead of the worker
            # crash-looping on a bad stream.
            self.breaker.record_failure(self.pulls)
            self.iterator = None
            self.last_error = str(exc)
            if self.breaker.exhausted:
                # the feed failed through every cooldown: abandon this
                # tenant (its state is checkpointed for post-mortem) and keep
                # serving the others
                self.failed = True
                return None
            return IDLE
        self.breaker.record_success()
        return tick

    def _open(self):
        """(Re)build the feed and skip the ticks the session already served.

        A generator that raised :class:`FeedError` is dead, so every breaker
        retry lands here: fresh feed, fast-forwarded past ``session.ticks``
        ticks — deterministic feeds make the skip exact, and a feed that
        shrank below the restore point simply reads as drained.
        """
        feed = self.feed
        self.feed = None
        if feed is None:
            feed, _ = _materialise(self.spec)
            self.feed_rebuilds += 1
        iterator = feed.play(None)
        for _ in itertools.islice(iterator, self.session.ticks):
            pass
        return iterator


class _WorkerRuntime:
    """The loop a fabric worker process runs (crash-only design).

    Each round is the engine's :meth:`ServeEngine.play_round` (see *Workers*
    in the module docstring).  All state the parent needs is externalised
    through atomically-written files: a heartbeat every round, a rotated
    checkpoint per tenant every ``checkpoint_every`` ticks, release markers,
    and a final result file.  The runtime itself holds nothing a SIGKILL
    could lose beyond the ticks since the last checkpoint — which recovery
    replays from the feed.
    """

    def __init__(self, worker_dir, checkpoint_dir, config: dict):
        self.dir = Path(worker_dir)
        self.checkpoint_dir = Path(checkpoint_dir)
        self.worker_id = int(config["worker"])
        self.incarnation = int(config["incarnation"])
        self.heartbeat_every = max(1, int(config.get("heartbeat_every", 1)))
        self.die_at_round = config.get("die_at_round")
        self.breaker_config = BreakerConfig.from_dict(config.get("breaker"))
        # one engine (and so one registry) per worker incarnation; every
        # cache/session lands its series there and the snapshot ships home
        # in the result file
        self.engine = ServeEngine(ledger_budget=config.get("ledger_budget"))
        self._caches: Dict = {}
        self._epoch = None
        self._round = 0
        telemetry_path = config.get("telemetry")
        self.telemetry = TelemetryWriter(
            None
            if not telemetry_path
            else self.dir / f"telemetry-{self.incarnation}.jsonl"
        )
        self.engine.set_outputs(
            self.telemetry, self.checkpoint_dir, int(config.get("checkpoint_every", 8))
        )

    # ------------------------------------------------------------------- loop
    def run(self) -> None:
        self._sync_control()
        self._write_heartbeat()
        while True:
            if self.die_at_round is not None and self._round >= int(self.die_at_round):
                # deterministic fault injection for the crash-recovery gate:
                # die *between* rounds, exactly where a real crash would land
                os.kill(os.getpid(), signal.SIGKILL)
            self._sync_control()
            progressed = self.engine.play_round()
            self._round += 1
            if self._round % self.heartbeat_every == 0 or not progressed:
                self._write_heartbeat()
            if not self.engine.live:
                self._finish()
                return
            if not progressed:
                # every live tenant is quarantined: idle briefly instead of
                # spinning the breaker cooldown rounds at CPU speed
                time.sleep(0.002)

    # ------------------------------------------------------- desired-state sync
    def _sync_control(self) -> None:
        control = read_json(self.dir / CONTROL_FILE)
        if not control or control.get("epoch") == self._epoch:
            return
        desired = control.get("tenants", {})
        for name in [n for n in self.engine.tenants if n not in desired]:
            self._release(name)
        for name, payload in desired.items():
            if name not in self.engine.tenants:
                self._adopt(TenantSpec.from_dict(payload))
        self._epoch = control.get("epoch")

    def _adopt(self, spec: TenantSpec) -> None:
        """Take ownership of a tenant: build, restore, position the feed.

        This single path serves first assignment, crash recovery and
        migration arrival alike — the only difference is whether a checkpoint
        exists to restore from.
        """
        tenant = _WorkerTenant(spec, CircuitBreaker(self.breaker_config))
        self.engine.tenants[spec.name] = tenant
        try:
            feed, server_types = _materialise(spec)
        except Exception as exc:  # noqa: BLE001 — a broken spec must not kill the worker
            tenant.done = tenant.failed = True
            tenant.last_error = str(exc)
            return
        session = spec.session(cache=self._cache_for(spec, server_types))
        path = self.checkpoint_dir / f"{spec.name}.ckpt.json"
        if path.exists() or previous_checkpoint_path(path).exists():
            session.restore(load_checkpoint(path))
        tenant.session = session
        tenant.feed = feed

    def _cache_for(self, spec: TenantSpec, server_types) -> ServeCache:
        key = spec.shard_key or ("tenant", spec.name)
        cache = self._caches.get(key)
        if cache is not None and _geometry(cache.server_types) != _geometry(server_types):
            # a mis-grouped tenant gets a private cache instead of wrong costs
            key = ("tenant", spec.name)
            cache = self._caches.get(key)
        if cache is None:
            cache = self.engine._build_cache(server_types)
            self._caches[key] = cache
        return cache

    def _release(self, name: str) -> None:
        """Hand a tenant back: checkpoint now, drop it, leave a marker."""
        tenant = self.engine.release(name)
        write_json_atomic(
            self.dir / RELEASED_DIR / f"{name}.json",
            {
                "tenant": name,
                "tick": 0 if tenant.session is None else tenant.session.ticks,
                "status": tenant.status,
            },
        )

    # --------------------------------------------------------------- artefacts
    def _write_heartbeat(self) -> None:
        write_json_atomic(
            self.dir / HEARTBEAT_FILE,
            {
                "schema": 1,
                "worker": self.worker_id,
                "incarnation": self.incarnation,
                "round": self._round,
                "pid": os.getpid(),
                "time": time.time(),
                "ticks": {
                    name: 0 if t.session is None else t.session.ticks
                    for name, t in self.engine.tenants.items()
                },
            },
        )

    def _finish(self) -> None:
        rows = {}
        for name, tenant in self.engine.tenants.items():
            row = {
                "status": tenant.status,
                "consumed": 0 if tenant.session is None else tenant.session.ticks,
                "breaker": tenant.breaker.counters(),
                "quarantined_rounds": tenant.quarantined_rounds,
                "feed_rebuilds": tenant.feed_rebuilds,
            }
            if tenant.last_error is not None:
                row["last_error"] = tenant.last_error
            if tenant.session is not None:
                row.update(tenant.session.summary())
            rows[name] = row
        self._write_heartbeat()
        write_json_atomic(
            self.dir / RESULT_FILE,
            {
                "schema": 1,
                "worker": self.worker_id,
                "incarnation": self.incarnation,
                "rounds": self._round,
                "epoch": self._epoch,  # the control last synced
                "tenants": rows,
                "caches": [c.counters() for c in self._caches.values()],
                "metrics": self.engine.metrics.snapshot(),
            },
        )
        self.telemetry.close()


def _fabric_worker_main(worker_dir: str, checkpoint_dir: str, config: dict) -> None:
    """Module-level process entrypoint (picklable under any start method)."""
    try:
        _WorkerRuntime(worker_dir, checkpoint_dir, config).run()
    except Exception:  # noqa: BLE001 — exit code is the crash signal upward
        traceback.print_exc()
        raise SystemExit(1)


# --------------------------------------------------------------------------- #
# The fabric (parent process)
# --------------------------------------------------------------------------- #


class ServeFabric:
    """Shards tenants across supervised worker processes; survives crashes.

    Usage::

        fabric = ServeFabric(workers=2, checkpoint_every=4)
        fabric.add_tenant("a", algorithm="A",
                          feed={"scenario": "diurnal-cpu-gpu", "seed": 0})
        fabric.add_tenant("b", algorithm="lcp",
                          feed={"scenario": "diurnal-cpu-gpu", "seed": 1})
        report = fabric.run()

    ``run(kill={0: 12})`` injects a deterministic SIGKILL into worker 0 at
    round 12 (first incarnation only) — the fault the crash-recovery gate
    drives.  Tenants sharing a ``group`` (and hence a ``shard_key``) are
    co-located on one worker and share one
    :class:`~repro.serve.session.ServeCache`; by default every distinct feed
    address is its own group, so sharing is opt-in and always value-correct.
    """

    def __init__(
        self,
        workers: int = 2,
        run_dir=None,
        *,
        checkpoint_every: int = 8,
        heartbeat_every: int = 1,
        restart_policy: Optional[RestartPolicy] = None,
        breaker: Optional[BreakerConfig] = None,
        heartbeat_timeout: float = 10.0,
        poll_interval: float = 0.02,
        ledger_budget: Optional[int] = None,
        worker_telemetry: bool = False,
    ):
        if int(workers) < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.n_workers = int(workers)
        self.run_dir = None if run_dir is None else Path(run_dir)
        self.checkpoint_every = int(checkpoint_every)
        self.heartbeat_every = int(heartbeat_every)
        self.restart_policy = restart_policy or RestartPolicy()
        self.breaker = breaker or BreakerConfig()
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.poll_interval = float(poll_interval)
        self.ledger_budget = check_ledger_budget(ledger_budget)
        self.worker_telemetry = bool(worker_telemetry)
        self._tenants: "OrderedDict[str, TenantSpec]" = OrderedDict()
        self._migrations: List[dict] = []
        # populated by run()
        self._handles: List[WorkerHandle] = []
        self._assignment: Dict[str, int] = {}
        self._epochs: Dict[int, int] = {}
        #: worker id -> the control epoch that last handed it a tenant
        self._handoffs: Dict[int, int] = {}

    # ---------------------------------------------------------------- tenants
    def add_tenant(
        self,
        name: str,
        algorithm: Union[str, dict] = "A",
        feed: Optional[dict] = None,
        *,
        fleet: Optional[Union[str, dict]] = None,
        chaos=None,
        degradation: str = "strict",
        history: bool = True,
        track_regret: bool = False,
        group: Optional[str] = None,
    ) -> TenantSpec:
        """Declare a tenant (pure data; nothing is materialised yet).

        ``feed`` is a declarative :func:`~repro.serve.feed.build_feed` spec —
        live :class:`TraceFeed` objects are rejected because tenants must be
        rebuildable in a worker process after a crash.  ``fleet`` (a scenario
        address, e.g. ``"diurnal-cpu-gpu"`` or ``{"scenario": ..., "seed": 0}``)
        is required for demand-only feeds.  ``group`` opts tenants into
        sharing one worker and one dispatch cache; grouped tenants should
        share a fleet address (a structural mismatch falls back to a private
        cache, but value-level cost differences are the caller's to avoid).
        """
        name = str(name)
        if name in self._tenants:
            raise ValueError(f"tenant {name!r} is already registered")
        if isinstance(feed, TraceFeed):
            raise TypeError(
                "fabric tenants need a declarative feed spec (a dict), not a live "
                "TraceFeed — workers rebuild feeds across process boundaries"
            )
        if feed is None:
            raise ValueError("feed spec is required")
        if isinstance(algorithm, str):
            algorithm = {"kind": algorithm, "params": {}}
        elif isinstance(algorithm, dict):
            algorithm = {
                "kind": algorithm["kind"],
                "params": dict(algorithm.get("params", {})),
            }
        else:
            raise TypeError(
                "fabric tenants need a declarative algorithm (kind or "
                "{'kind', 'params'} dict), not a live OnlineAlgorithm"
            )
        if isinstance(fleet, str):
            fleet = {"scenario": fleet}
        if chaos is not None and not isinstance(chaos, (dict, list)):
            chaos = chaos.to_dict()  # an EventPlan
        feed = dict(feed)
        shard_key = group or _canonical(fleet if fleet is not None else feed)
        spec = TenantSpec(
            name=name,
            algorithm=algorithm,
            feed=feed,
            fleet=fleet,
            chaos=None if chaos is None else dict(chaos) if isinstance(chaos, dict) else {"events": list(chaos)},
            degradation=degradation,
            history=bool(history),
            track_regret=bool(track_regret),
            shard_key=str(shard_key),
        )
        self._tenants[name] = spec
        return spec

    @property
    def tenants(self) -> Dict[str, TenantSpec]:
        return dict(self._tenants)

    def migrate(self, tenant: str, worker: int, after_round: Optional[int] = None) -> dict:
        """Queue a checkpoint-based live migration for the next :meth:`run`.

        At ``after_round`` (immediately when ``None``) the tenant is removed
        from its source worker's control file; once the source has
        checkpointed and released it — or has crashed, in which case its last
        periodic checkpoint stands in — the tenant is added to ``worker``'s
        control file and adopted there through the ordinary recovery path.
        """
        if tenant not in self._tenants:
            raise KeyError(f"unknown tenant {tenant!r}")
        if not 0 <= int(worker) < self.n_workers:
            raise ValueError(f"worker must be in [0, {self.n_workers}), got {worker}")
        migration = {
            "tenant": str(tenant),
            "target": int(worker),
            "after_round": None if after_round is None else int(after_round),
            "state": "pending",
        }
        self._migrations.append(migration)
        return migration

    # -------------------------------------------------------------------- run
    def run(
        self,
        *,
        kill: Optional[Dict[int, int]] = None,
        timeout: float = 120.0,
        telemetry=None,
        raise_on_failure: bool = True,
    ) -> dict:
        """Serve every tenant to completion; returns the fabric report.

        ``kill`` maps worker id → round at which that worker's *first*
        incarnation SIGKILLs itself (deterministic crash injection).
        ``telemetry`` is an optional JSONL path receiving fabric lifecycle
        events (worker starts/crashes/recoveries, migrations) through a
        :class:`~repro.serve.telemetry.TelemetryWriter`.  With
        ``raise_on_failure`` (default) a failed worker or unfinished tenant
        raises :class:`FabricError`; pass ``False`` to inspect the report of
        a degraded run instead.
        """
        if not self._tenants:
            raise FabricError("no tenants registered")
        run_dir = self.run_dir or Path(tempfile.mkdtemp(prefix="serve-fabric-"))
        run_dir.mkdir(parents=True, exist_ok=True)
        checkpoint_dir = run_dir / "checkpoints"
        checkpoint_dir.mkdir(exist_ok=True)
        specs = list(self._tenants.values())
        shards = assign_shards([s.shard_key for s in specs], self.n_workers)
        self._assignment = {spec.name: shard for spec, shard in zip(specs, shards)}
        self._handles = []
        self._epochs = {}
        self._handoffs = {}
        for worker_id in range(self.n_workers):
            directory = run_dir / f"worker-{worker_id}"
            (directory / RELEASED_DIR).mkdir(parents=True, exist_ok=True)
            self._handles.append(WorkerHandle(id=worker_id, directory=directory))
            self._epochs[worker_id] = 0
            self._write_control(worker_id)
        kill = {int(k): int(v) for k, v in (kill or {}).items()}
        context = _mp_context()

        def spawn(worker_id: int, incarnation: int):
            config = {
                "worker": worker_id,
                "incarnation": incarnation,
                "checkpoint_every": self.checkpoint_every,
                "heartbeat_every": self.heartbeat_every,
                "breaker": self.breaker.to_dict(),
                "ledger_budget": self.ledger_budget,
                "telemetry": self.worker_telemetry,
                "die_at_round": kill.get(worker_id) if incarnation == 0 else None,
            }
            process = context.Process(
                target=_fabric_worker_main,
                args=(str(self._handles[worker_id].directory), str(checkpoint_dir), config),
                daemon=True,
            )
            process.start()
            return process

        writer = TelemetryWriter(telemetry)
        supervisor = Supervisor(
            self._handles,
            spawn,
            policy=self.restart_policy,
            heartbeat_timeout=self.heartbeat_timeout,
            poll_interval=self.poll_interval,
            event=writer.write,
        )
        pending = [dict(m) for m in self._migrations]
        started = time.perf_counter()
        try:
            supervisor.run(
                on_poll=lambda sup: self._drive_migrations(sup, pending),
                timeout=timeout,
            )
        finally:
            writer.close()
        report = self._collect(
            supervisor, pending, checkpoint_dir, run_dir, time.perf_counter() - started
        )
        if raise_on_failure:
            failed_workers = [w for w, row in report["workers"].items() if row["status"] == "failed"]
            unfinished = [
                name for name, row in report["tenants"].items() if row["status"] != "completed"
            ]
            if failed_workers or unfinished:
                raise FabricError(
                    f"fabric run degraded: failed workers {failed_workers}, "
                    f"unfinished tenants {unfinished} (see report at {run_dir})"
                )
        return report

    def _write_control(self, worker_id: int) -> None:
        self._epochs[worker_id] += 1
        tenants = {
            name: spec.to_dict()
            for name, spec in self._tenants.items()
            if self._assignment.get(name) == worker_id
        }
        write_json_atomic(
            self._handles[worker_id].control_path,
            {"epoch": self._epochs[worker_id], "tenants": tenants},
        )

    # -------------------------------------------------------------- migrations
    def _drive_migrations(self, supervisor: Supervisor, pending: List[dict]) -> None:
        """Advance queued migrations (runs once per supervisor poll).

        pending → (threshold reached) remove from source control → releasing
        → (released marker, or the source crashed/finished: its newest
        checkpoint stands in) add to target control → done.  A target whose
        last tenant ends in the hand-off's round finishes without syncing it;
        every poll revives a finished worker whose result records an epoch
        older than its last hand-off's.
        """
        for migration in pending:
            state = migration.get("state")
            tenant = migration["tenant"]
            target = migration["target"]
            if state == "pending":
                source = self._assignment.get(tenant)
                if source == target:
                    migration["state"] = "done"
                    continue
                threshold = migration.get("after_round")
                source_handle = supervisor.workers[source]
                last_round = (source_handle.last_heartbeat or {}).get("round", 0)
                if threshold is not None and last_round < threshold:
                    continue
                migration["source"] = source
                migration["source_incarnation"] = source_handle.incarnation
                self._assignment[tenant] = -1  # in flight: owned by nobody
                self._write_control(source)
                migration["state"] = "releasing"
                supervisor.event("migration_release", source, tenant=tenant, target=target)
            elif state == "releasing":
                source_handle = supervisor.workers[migration["source"]]
                marker = source_handle.released_marker(tenant)
                released = marker.exists()
                if not released:
                    # the source died or finished before acting on the release:
                    # its last periodic checkpoint is the migration payload
                    crashed = source_handle.incarnation != migration["source_incarnation"]
                    finished = source_handle.status in ("done", "failed")
                    if not (crashed or finished):
                        continue
                target_handle = supervisor.workers[target]
                if target_handle.status == "failed":
                    migration["state"] = "failed"
                    supervisor.event("migration_failed", target, tenant=tenant,
                                     reason="target worker failed")
                    continue
                self._assignment[tenant] = target
                self._write_control(target)
                self._handoffs[target] = self._epochs[target]
                migration["state"] = "done"
                supervisor.event("migration_complete", target, tenant=tenant,
                                 source=migration["source"])
        for worker_id, epoch in self._handoffs.items():
            handle = supervisor.workers[worker_id]
            if handle.status == "done":
                synced = (read_json(handle.result_path) or {}).get("epoch") or 0
                if synced < epoch:
                    supervisor.revive(worker_id)

    # ----------------------------------------------------------------- report
    def _collect(
        self,
        supervisor: Supervisor,
        migrations: List[dict],
        checkpoint_dir: Path,
        run_dir: Path,
        wall_seconds: float,
    ) -> dict:
        workers = {}
        results = {}
        for handle in self._handles:
            row = handle.liveness()
            result = read_json(handle.result_path)
            if result is not None:
                results[handle.id] = result
                row["rounds"] = result.get("rounds")
                row["caches"] = result.get("caches")
            workers[str(handle.id)] = row
        tenants = {}
        totals = {"ticks": 0, "cost": 0.0, "sla_violations": 0, "shed_demand": 0.0}
        for name, spec in self._tenants.items():
            worker_id = self._assignment.get(name)
            result_row = (results.get(worker_id, {}).get("tenants", {})).get(name, {})
            status = result_row.get("status")
            if status is None:
                handle_status = supervisor.workers[worker_id].status if worker_id in supervisor.workers else None
                status = "abandoned" if handle_status == "failed" else "unknown"
            row = {"worker": worker_id, "status": status}
            for key in ("breaker", "quarantined_rounds", "feed_rebuilds", "last_error", "latency"):
                if key in result_row:
                    row[key] = result_row[key]
            path = checkpoint_dir / f"{name}.ckpt.json"
            if path.exists() or previous_checkpoint_path(path).exists():
                payload = load_checkpoint(path)
                row["ticks"] = int(payload["tick"])
                row["cost"] = float(payload["cum_operating"]) + float(payload["cum_switching"])
                row["sla_violations"] = int(payload["sla_violations"])
                row["shed_demand"] = float(payload["shed_total"])
                row["forced_downs"] = int(payload["forced_downs"])
                row["checkpoint"] = str(path)
                totals["ticks"] += row["ticks"]
                totals["cost"] += row["cost"]
                totals["sla_violations"] += row["sla_violations"]
                totals["shed_demand"] += row["shed_demand"]
            tenants[name] = row
        totals["cost"] = round(totals["cost"], 9)
        totals["shed_demand"] = round(totals["shed_demand"], 9)
        totals["restarts"] = sum(h.restarts for h in self._handles)
        totals["migrations_completed"] = sum(1 for m in migrations if m.get("state") == "done")
        recovery = [v for h in self._handles for v in h.recovery_latencies]
        # fabric-wide counter rollup: sum every worker registry's counters
        # series-by-series (labels keep worker-local cache/tenant attribution)
        merged: Dict[str, float] = {}
        for result in results.values():
            for series, value in (result.get("metrics") or {}).get("counters", {}).items():
                merged[series] = merged.get(series, 0) + value
        return {
            "metrics": {"schema": 1, "counters": dict(sorted(merged.items()))},
            "workers": workers,
            "tenants": tenants,
            "migrations": migrations,
            "events": supervisor.events,
            "totals": totals,
            "recovery_latency_s": [round(v, 6) for v in recovery],
            "wall_seconds": round(wall_seconds, 6),
            "run_dir": str(run_dir),
            "checkpoint_dir": str(checkpoint_dir),
        }


def _mp_context():
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover — non-POSIX fallback
        return multiprocessing.get_context("spawn")
