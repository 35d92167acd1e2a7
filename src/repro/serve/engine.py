"""Multi-tenant serve engine.

:class:`ServeEngine` multiplexes many concurrent
:class:`~repro.serve.session.ControllerSession` objects — one per
fleet/tenant — over shared :class:`~repro.serve.session.ServeCache` state.
Tenants whose fleets are the *same objects* (one geometry, many demand
streams) are grouped onto one cache automatically, so the dispatch
solves and whole-grid tensors behind their ticks are computed once per
distinct demand level across the whole engine, not once per tenant; the
resulting cache-hit counters and wall times are what ``repro serve bench``
records in ``BENCH_serve.json``.

A round is one tick per live tenant.  Before any session observes, the
round's *cold* arrivals — demand levels whose grid cost tensor ``g_t`` is
not memoised yet, the norm on continuous demand — are grouped by ``(cache,
evaluation grid)`` and each group's missing tensors are solved in one
:meth:`~repro.dispatch.allocation.DispatchSolver.solve_block`
(:meth:`ServeCache.grid_tensors`); the sessions' own queries then hit the
memo.  A dispatch cell is exact on its own, so the block changes no
decision and no solve count, only how many calls the solves take.  Each
member's tick is charged its share of the block's wall.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional

from .chaos import ChaosFeed
from .feed import TraceFeed
from .metrics import MetricsRegistry
from .session import ControllerSession, ServeCache, fleet_signature, save_checkpoint
from .telemetry import TelemetryWriter, summarise_sessions

__all__ = ["ServeEngine"]


#: What :meth:`_Tenant.pull` returns for a tenant that stays live but has no
#: tick this round (a fabric tenant whose feed is failing or quarantined).
IDLE = object()


class _Tenant:
    """One registered session plus the iterator its ticks are pulled from.

    :meth:`pull` is the round's only contact with the feed; the fabric
    worker's tenant record overrides it with a breaker-gated pull.
    """

    #: Set when the tenant's feed was given up mid-stream: its stream is
    #: over, but its horizon did not end, so the end-of-stream hook is skipped.
    failed = False

    def __init__(self, name: str, session: Optional[ControllerSession], iterator):
        self.name = name
        self.session = session
        self.iterator = iterator
        self.done = False

    def pull(self):
        """The next tick, ``None`` at stream end, or :data:`IDLE`."""
        return next(self.iterator, None)


class ServeEngine:
    """Multiplexes concurrent streaming sessions over shared dispatch caches.

    ``share_caches=True`` (default) groups tenants by fleet geometry: every
    tenant whose ``server_types`` tuple carries the same fleet objects joins
    one :class:`ServeCache`, so N tenants over one geometry cost far less
    than N isolated sessions.  ``share_caches=False`` gives every tenant a
    private cache — the isolation baseline the serve benchmark compares
    against.
    """

    def __init__(
        self,
        share_caches: bool = True,
        *,
        ledger_budget: Optional[int] = None,
        tensor_budget_bytes: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.share_caches = bool(share_caches)
        #: LRU bounds forwarded to every cache the engine creates — the knobs
        #: that keep a month-scale multi-tenant process flat in memory (see
        #: :class:`ServeCache`); ``None`` leaves the memos unbounded.
        self.ledger_budget = None if ledger_budget is None else int(ledger_budget)
        self.tensor_budget_bytes = (
            None if tensor_budget_bytes is None else int(tensor_budget_bytes)
        )
        #: One registry for the whole engine: every cache and session it
        #: creates lands its series here, so :meth:`report` exposes a single
        #: labelled snapshot across tenants and caches.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._caches: Dict[tuple, ServeCache] = {}
        self._cache_seq = 0
        self._tenants: Dict[str, _Tenant] = {}
        self.set_outputs()

    # ------------------------------------------------------------ registration
    def _build_cache(self, server_types) -> ServeCache:
        cache = ServeCache(
            server_types,
            ledger_budget=self.ledger_budget,
            tensor_budget_bytes=self.tensor_budget_bytes,
            metrics=self.metrics,
            metrics_label=f"cache{self._cache_seq}",
        )
        self._cache_seq += 1
        return cache

    def cache_for(self, server_types) -> ServeCache:
        """The shared cache of a fleet geometry (created on first use)."""
        if not self.share_caches:
            return self._build_cache(server_types)
        key = fleet_signature(server_types)
        cache = self._caches.get(key)
        if cache is None:
            cache = self._build_cache(server_types)
            self._caches[key] = cache
        return cache

    def prewarm(self, levels) -> int:
        """Prewarm every registered cache with a known demand alphabet.

        ``levels`` is the expected demand alphabet (e.g. the bin values of a
        ``quantise_trace``-binned stream).  Each tenant cache runs
        :meth:`ServeCache.prewarm`, which installs the whole-grid tensor and
        every per-configuration dispatch solution for each level through the
        exact cold code path — steady-state ticks then reduce to fast-map
        gathers.  Returns the number of caches prewarmed.  Call after
        registering tenants (an engine with no tenants has no caches yet).
        """
        caches = self.caches
        for cache in caches:
            cache.prewarm(levels)
        return len(caches)

    def add_tenant(
        self,
        name: str,
        algorithm,
        feed: TraceFeed,
        server_types=None,
        *,
        track_regret: bool = False,
        speed: Optional[float] = None,
        chaos=None,
        degradation: Optional[str] = None,
        history: bool = True,
    ) -> ControllerSession:
        """Register a tenant: one session driven by one feed.

        ``server_types`` defaults to the feed's fleet (instance/scenario
        feeds carry one); demand-only feeds need it explicitly.  ``chaos``
        takes an event plan (anything :meth:`EventPlan.parse` accepts) and
        wraps the feed in a :class:`~repro.serve.chaos.ChaosFeed` — passing
        the *same plan object* to several tenants injects correlated
        cross-tenant bursts.  ``degradation`` defaults to ``"shed"`` for
        chaos tenants (faults must account, not crash) and ``"strict"``
        otherwise.
        """
        if name in self._tenants:
            raise ValueError(f"tenant {name!r} is already registered")
        if server_types is None:
            server_types = feed.server_types
        if server_types is None:
            raise ValueError(
                f"tenant {name!r}: the feed carries no fleet; pass server_types explicitly"
            )
        if chaos is not None:
            feed = ChaosFeed(
                feed, chaos, server_types=server_types,
                metrics=self.metrics, tenant=name,
            )
        if degradation is None:
            degradation = "shed" if chaos is not None else "strict"
        session = ControllerSession(
            algorithm,
            cache=self.cache_for(server_types),
            track_regret=track_regret,
            degradation=degradation,
            history=history,
            name=name,
        )
        self._tenants[name] = _Tenant(name, session, feed.play(speed))
        return session

    def release(self, name: str) -> _Tenant:
        """Drop a tenant from the rounds, checkpointing it as it stands first."""
        tenant = self._tenants.pop(name)
        if tenant.session is not None:
            self._checkpoint(tenant)
        return tenant

    def roundtrip_tenant(self, name: str) -> ControllerSession:
        """Checkpoint/restore a live tenant in place (mid-stream round-trip).

        Serialises the tenant's session through actual JSON text and swaps in
        the restored session (warm shared cache kept); the tenant's feed
        iterator is untouched, so a subsequent :meth:`run` continues exactly
        where the stream left off.  This is the restart the batched-vs-
        sequential equivalence gates exercise mid-stream.
        """
        tenant = self._tenants[name]
        tenant.session = tenant.session.checkpoint_roundtrip(reuse_cache=True)
        return tenant.session

    def session(self, name: str) -> ControllerSession:
        return self._tenants[name].session

    @property
    def tenants(self) -> Dict[str, _Tenant]:
        """The registered tenant records by name, in registration order.

        The fabric worker adopts tenants by adding its own records here.
        """
        return self._tenants

    @property
    def live(self) -> bool:
        """Whether any registered tenant's stream is still open."""
        return any(not tenant.done for tenant in self._tenants.values())

    @property
    def sessions(self) -> List[ControllerSession]:
        return [tenant.session for tenant in self._tenants.values()]

    @property
    def caches(self) -> List[ServeCache]:
        caches = []
        for tenant in self._tenants.values():
            if tenant.session.cache not in caches:
                caches.append(tenant.session.cache)
        return caches

    # --------------------------------------------------------------- execution
    def set_outputs(
        self, telemetry=None, checkpoint_dir=None, checkpoint_every: int = 0
    ) -> None:
        """Where the rounds write: telemetry rows and checkpoint files.

        :meth:`run` sets these from its own arguments; a caller that drives
        :meth:`play_round` itself (the fabric worker) sets them once.
        """
        self._writer = telemetry or TelemetryWriter(None)
        self._checkpoint_dir = None if checkpoint_dir is None else Path(checkpoint_dir)
        self._cadence = int(checkpoint_every) if checkpoint_dir is not None else 0

    def run(
        self,
        max_ticks: Optional[int] = None,
        telemetry: Optional[TelemetryWriter] = None,
        checkpoint_dir=None,
        checkpoint_every: int = 0,
        finalize: bool = True,
    ) -> dict:
        """Drain all feeds, interleaving tenants tick by tick (round-robin).

        Interleaving (rather than replaying tenants back to back) is what a
        live serving process does — all tenants advance together — and it
        maximises cross-tenant cache reuse: the first tenant to reach a
        demand level pays its solve, every later tenant's tick hits the memo.
        ``max_ticks`` caps the number of rounds.  Returns the engine report
        (per-tenant summaries, pooled latency percentiles, sharing counters).

        ``checkpoint_dir`` + ``checkpoint_every`` enable the periodic
        checkpoint cadence the fabric's crash recovery restores from: every
        ``checkpoint_every`` ticks (and once at completion) each tenant's
        session is written to ``<dir>/<tenant>.ckpt.json`` atomically, with
        the previous intact checkpoint rotated to ``.prev`` (see
        :func:`~repro.serve.session.save_checkpoint`).
        """
        self.set_outputs(telemetry, checkpoint_dir, checkpoint_every)
        started = time.perf_counter()
        rounds = 0
        while self.live and (max_ticks is None or rounds < max_ticks):
            self.play_round()
            rounds += 1
        if finalize:
            # ``finalize=False`` leaves undrained tenants un-finished so a
            # later run() call (e.g. after a mid-stream roundtrip_tenant)
            # resumes the stream instead of double-finishing the algorithms
            for tenant in self._tenants.values():
                if not tenant.done:
                    self._end(tenant)
        wall = time.perf_counter() - started
        return self.report(wall_seconds=wall)

    def play_round(self) -> bool:
        """One round of the online protocol across every live tenant.

        Pulls one tick per live tenant in registration order — tenant 0's
        tick for round r is pulled as round r starts — and closes the
        streams that ended; then :meth:`resolve` decides the round's
        arrivals.  Returns whether the round moved anything (a tick decided
        or a stream closed): ``False`` when no tenant is live or every live
        tenant was :data:`IDLE`.
        """
        arrivals = []
        ended = False
        for tenant in self._tenants.values():
            if tenant.done:
                continue
            tick = tenant.pull()
            if tick is None:
                self._end(tenant)
                ended = True
            elif tick is not IDLE:
                arrivals.append((tenant, tick))
        if arrivals:
            self.resolve(arrivals)
        return ended or bool(arrivals)

    def resolve(self, arrivals) -> None:
        """Decide a round's ``(tenant, tick)`` arrivals one session at a time.

        First the round's cold grid tensors are solved together
        (:meth:`_solve_cold`); then each session observes its tick in
        arrival order, charged its share of the block it was solved in.
        The batched engine overrides this with cohort resolution and hands
        back here whatever it cannot vectorise.
        """
        charges = self._solve_cold(arrivals)
        for index, (tenant, tick) in enumerate(arrivals):
            state = tenant.session.observe(
                tick.demand, cost_row=tick.cost_row, counts=tick.counts,
                charge_ns=charges[index] if charges else 0,
            )
            self._record(tenant, state)

    def _solve_cold(self, arrivals) -> Optional[List[int]]:
        """One dispatch block per ``(cache, evaluation grid)`` of the round's cold arrivals.

        Each session names its arrival's slot and grid
        (:meth:`ControllerSession.cold_tensor`, O(1) on a warm tick); a
        group of two or more goes to :meth:`ServeCache.grid_tensors`, which
        solves the missing tensors in one block when that pays.  Returns the
        nanoseconds to charge each arrival — the block's wall split evenly
        over the arrivals it solved, as cohort work is split in the batched
        engine — or ``None`` when no block ran.
        """
        groups: Dict[tuple, tuple] = {}
        for index, (tenant, tick) in enumerate(arrivals):
            session = tenant.session
            query = session.cold_tensor(tick.demand, tick.cost_row, tick.counts)
            if query is None:
                continue
            vt, grid = query
            key = (id(session.cache), grid.key)
            group = groups.get(key)
            if group is None:
                groups[key] = (session.cache, grid, [(index, vt)])
            else:
                group[2].append((index, vt))
        charges = None
        for cache, grid, members in groups.values():
            if len(members) < 2:
                continue
            started = time.perf_counter_ns()
            solved = cache.grid_tensors([vt for _, vt in members], grid)
            paid = [index for index, vt in members if vt in solved]
            if paid:
                share = (time.perf_counter_ns() - started) // len(paid)
                if charges is None:
                    charges = [0] * len(arrivals)
                for index in paid:
                    charges[index] += share
        return charges

    def _record(self, tenant: _Tenant, state) -> None:
        """After a decided tick: its telemetry row, then the checkpoint cadence."""
        if self._writer.active:
            self._writer.write(state, tenant=tenant.name)
        if self._cadence and tenant.session.ticks % self._cadence == 0:
            self._checkpoint(tenant)

    def _end(self, tenant: _Tenant) -> None:
        """Close a tenant's stream: the end-of-stream hook, then the final checkpoint."""
        tenant.done = True
        if not tenant.failed:
            tenant.session.finish()
        self._checkpoint(tenant)

    def _checkpoint(self, tenant: _Tenant) -> None:
        if self._checkpoint_dir is not None:
            save_checkpoint(
                self._checkpoint_dir / f"{tenant.name}.ckpt.json",
                tenant.session.checkpoint(),
            )

    def report(self, wall_seconds: Optional[float] = None) -> dict:
        """Engine-level summary: totals, pooled latencies, sharing counters.

        ``sharing`` carries every cache's full counter dict (including the
        ``tensor_evictions`` / ``ledger_evictions`` LRU pressure gauges);
        ``cache_totals`` sums the numeric counters across caches so eviction
        behaviour and memo residency are observable at a glance without
        iterating per-cache rows.  ``metrics`` is the engine registry's full
        labelled snapshot (schema-versioned; see
        :meth:`~repro.serve.metrics.MetricsRegistry.snapshot`).
        """
        report = summarise_sessions(self.sessions, wall_seconds=wall_seconds)
        report["tenant_summaries"] = [s.summary() for s in self.sessions]
        caches = self.caches
        report["caches"] = len(caches)
        per_cache = [cache.counters() for cache in caches]
        report["sharing"] = per_cache
        totals: Dict[str, float] = {}
        for counters in per_cache:
            for key, value in counters.items():
                if key == "cache_hit_rate":  # a ratio — summing it is noise
                    continue
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                totals[key] = totals.get(key, 0) + value
        report["cache_totals"] = totals
        report["metrics"] = self.metrics.snapshot()
        return report
