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

A round is one tick per live tenant, and :meth:`ServeEngine.resolve` decides
it in three steps (the last two interleaved in arrival order):

1. **Cold block.**  The round's *cold* arrivals — demand levels whose grid
   cost tensor ``g_t`` is not memoised yet, the norm on continuous demand —
   are grouped by ``(cache, evaluation grid)`` and each group's missing
   tensors are solved in one
   :meth:`~repro.dispatch.allocation.DispatchSolver.solve_block`
   (:meth:`ServeCache.grid_tensors`); the configurations the ticks commit,
   and Algorithm C's repair, are read from the block, so a cold round asks
   the dispatcher once.  A dispatch cell is exact on its own, so the block
   changes no decision and no solve count.
2. **Cohorts.**  Arrivals whose algorithms report a lane family
   (:meth:`~repro.online.base.OnlineAlgorithm.lane_family`: the class and
   grid family) are grouped by ``(cache identity, lane family, cost row,
   counts)``.  A cohort fetches one grid cost tensor per distinct served
   demand (:meth:`ServeCache.grid_tensor`) on the grid its class's
   :meth:`~repro.online.base.OnlineAlgorithm.lane_grid` builds, hands its
   members' ticks as one :class:`~repro.online.base.Lanes` record to the
   class's lane rule (:meth:`~repro.online.base.OnlineAlgorithm.decide_lanes`,
   the rule the algorithm's ``step`` runs on one lane) and commits every
   member through :meth:`ControllerSession.commit_tick`, at its first
   member's turn.  The only cohort state kept across rounds is one grid
   record per ``(cache, counts, grid family)``.
3. **The rest** observes through its session at its own turn: algorithms
   with no lane rule of their own (C, custom algorithms, subclasses),
   trackers that are not private DP trackers;
   ticks not ``lane_ready`` (a DP tracker's first tick, or one whose counts
   change its grid); a group smaller than its class's ``min_lanes`` (a lone
   A, B or lcp tick); unhashable cost rows; tensors with no finite entry.

Every tick is validated before any session state changes: cohort members'
demands vectorised per cohort, every other tick through
:meth:`ControllerSession.admit` (a round without cohorts observes in arrival
order, which gives that already).  A round that holds a rejected tick (an
invalid demand, cost row or counts, or demand over a strict tenant's
capacity) runs every arrival through ``session.observe`` in arrival order,
so the error surfaces at that tenant after the ticks before it committed and
before any later one does.

Bit-identity with a per-tenant replay is by construction: a lane rule is the
algorithm's one decision rule, with the same ufunc sequence per lane on one
lane or ``k``; dispatch is exact per cell, so a flattened grid tensor is the
``solve_grid(vt, configs)`` row a greedy ``step`` reads through
``slot.operating_cost``; commits read the same memoised
:meth:`ServeCache.solve_config` results.
:func:`~repro.serve.verify.verify_batched` gates this against per-tenant
replays over every registered scenario family.

Latency: each tick is charged its share of the block it was solved in, and
a cohort member its share of the cohort's joint work (the lane rule call
included) on top, plus its own commit.  Telemetry rows within a round come
out grouped by cohort: in arrival order, except that a cohort's members are
written together at its first member's turn.
"""

from __future__ import annotations

import time
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from ..online.base import Lanes
from .chaos import ChaosFeed
from .feed import TraceFeed
from .metrics import COUNTER, MetricsRegistry
from .session import ControllerSession, ServeCache, fleet_signature, save_checkpoint
from .telemetry import TelemetryWriter, summarise_sessions

__all__ = ["ServeEngine"]


#: What :meth:`_Tenant.pull` returns for a tenant that stays live but has no
#: tick this round (a fabric tenant whose feed is failing or quarantined).
IDLE = object()

#: The :meth:`ServeEngine.batch_counters` keys the registry mirrors, as
#: unlabelled series; the others are derived from them or count geometries.
BATCH_SERIES = dict.fromkeys(
    ("batched_ticks", "fallback_ticks", "rounds", "cohort_rounds"), COUNTER
)


class _Geometry:
    """The grid record of one ``(cache, counts, grid family)``, shared by its cohorts.

    Counts, capacity and the one grid object the family's tensors are
    fetched on, built once by the class's
    :meth:`~repro.online.base.OnlineAlgorithm.lane_grid`: nothing that
    depends on a demand or a cost row.  The record holds its cache, so a
    released cache's id cannot map to a stale grid.
    """

    __slots__ = ("cache", "counts_t", "grid_counts", "capacity", "grid")

    def __init__(self, cache: ServeCache, counts_key: Optional[tuple], family: tuple):
        stream = cache.stream
        self.cache = cache
        self.counts_t = stream.m if counts_key is None else np.asarray(counts_key, dtype=int)
        self.grid_counts = tuple(int(c) for c in self.counts_t)
        self.capacity = float(np.sum(self.counts_t * stream.zmax))
        self.grid = family[0].lane_grid(self.counts_t, family[1])


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
        #: creates mirrors its series here, so :meth:`report` exposes a single
        #: labelled snapshot across tenants and caches.
        self.metrics = MetricsRegistry()
        self.metrics.register_collector(self.collect_metrics)
        self._caches: Dict[tuple, ServeCache] = {}
        self._tenants: Dict[str, _Tenant] = {}
        self._geometries: Dict[tuple, _Geometry] = {}
        # cohort counters, read by batch_counters()
        self.batched_ticks = 0
        self.fallback_ticks = 0
        self.cohort_rounds = 0
        self.rounds = 0
        self.set_outputs()

    # ------------------------------------------------------------ registration
    def _build_cache(self, server_types) -> ServeCache:
        return ServeCache(
            server_types,
            ledger_budget=self.ledger_budget,
            tensor_budget_bytes=self.tensor_budget_bytes,
            metrics=self.metrics,
        )

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
        """Drop a tenant from the rounds, checkpointing it as it stands first.

        Its cache mirrors its counts first: they are this engine's work, and
        a private cache goes with the tenant.  The session's counts travel
        in its checkpoint instead (whoever restores it reports them), so a
        migrated tenant is not counted twice in a fabric's merged counters.
        """
        tenant = self._tenants.pop(name)
        if tenant.session is not None:
            tenant.session.cache.collect_metrics()
            self._checkpoint(tenant)
        return tenant

    def roundtrip_tenant(self, name: str) -> ControllerSession:
        """Checkpoint/restore a live tenant in place (mid-stream round-trip).

        Serialises the tenant's session through actual JSON text and swaps in
        the restored session (warm shared cache kept); the tenant's feed
        iterator is untouched, so a subsequent :meth:`run` continues exactly
        where the stream left off.  This is the restart the engine's
        equivalence gates exercise mid-stream.
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
        """Decide a round's ``(tenant, tick)`` arrivals.

        Cold tensors first (:meth:`_solve_cold`), then admission and cohorts
        (:meth:`_cohorts`); in arrival order, a cohort decides and commits its
        members at its first member's turn (:meth:`_run_cohort`) and every
        other arrival observes at its own — all of them when the round holds
        a rejected tick.  See the module docstring.
        """
        self.rounds += 1
        charges = self._solve_cold(arrivals)
        admitted = self._cohorts(arrivals)
        if admitted is None:  # a rejected tick: every arrival in its own turn
            admitted = (), range(len(arrivals))
        cohorts, rest = admitted
        turns = {cohort[2][0]: cohort for cohort in cohorts}
        rest = set(rest)
        for index, (tenant, tick) in enumerate(arrivals):
            cohort = turns.get(index)
            if cohort is not None:
                self._run_cohort(arrivals, cohort, rest, charges)
            if index in rest:
                self.fallback_ticks += 1
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
        over the arrivals it solved — or ``None`` when no block ran.
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

    def _cohorts(self, arrivals):
        """Admit a round's arrivals and group the ones a cohort decides.

        Returns ``(cohorts, rest)``: each cohort ``(key, geometry, members,
        demands, over)`` (members as arrival indices, ``over`` flags demand
        above capacity), and the indices that observe through their sessions.
        Every tick is validated before any session state changes: a cohort's
        demands at once (a tick's own cost row or counts through
        :meth:`ControllerSession.admit`, which normalises them into the key),
        every other tick through ``admit`` when a cohort formed.  ``None``
        when a tick is rejected.
        """
        groups: Dict[tuple, list] = {}
        rest: List[int] = []
        for index, (tenant, tick) in enumerate(arrivals):
            session = tenant.session
            family = session.algorithm.lane_family()
            if family is not None:
                row_key = counts_key = None
                if tick.cost_row is not None or tick.counts is not None:
                    try:
                        _, _, _, row, counts_t = session.admit(
                            tick.demand, tick.cost_row, tick.counts
                        )
                    except (TypeError, ValueError):
                        return None
                    if tick.cost_row is not None:
                        row_key = row
                    if tick.counts is not None:
                        counts_key = tuple(int(v) for v in counts_t)
                key = (id(session.cache), family, row_key, counts_key)
                try:
                    members = groups.get(key)
                except TypeError:  # unhashable exotic cost row: per-tenant path
                    pass
                else:
                    if members is None:
                        groups[key] = [index]
                    else:
                        members.append(index)
                    continue
            rest.append(index)

        cohorts = []
        for key, members in groups.items():
            cache_id, family, _, counts_key = key
            if len(members) < family[0].min_lanes:
                rest.extend(members)
                continue
            geometry = self._geometries.get((cache_id, counts_key, family[1]))
            if geometry is None:
                geometry = _Geometry(arrivals[members[0]][0].session.cache, counts_key, family)
                self._geometries[(cache_id, counts_key, family[1])] = geometry
            try:
                demands = np.array([arrivals[i][1].demand for i in members], dtype=float)
            except (TypeError, ValueError):
                return None
            if (~np.isfinite(demands) | (demands < 0)).any():
                return None
            over = demands > geometry.capacity + 1e-9
            if over.any() and any(
                arrivals[members[j]][0].session.degradation == "strict"
                for j in np.flatnonzero(over)
            ):
                return None
            cohorts.append((key, geometry, members, demands, over))
        if cohorts:
            # a cohort commits later members at its first member's turn, so
            # every other tick must be known valid first; without cohorts,
            # observing in arrival order raises in the rejected tick's turn
            for index in rest:
                tenant, tick = arrivals[index]
                try:
                    tenant.session.admit(tick.demand, tick.cost_row, tick.counts)
                except (TypeError, ValueError):
                    return None
        return cohorts, rest

    def _run_cohort(self, arrivals, cohort, rest, charges) -> None:
        """Decide one cohort's members with their class's lane rule, then commit each.

        A member joins ``rest`` if its tick is not ``lane_ready`` or its
        level's tensor has no finite entry.  Tensors are fetched once per
        distinct served demand, keyed by the demand, never by ledger slot
        (under ``ledger_budget`` one level can recycle another's slot); a rule
        that reads no tensor still resolves its slot per level.
        """
        cohort_started = time.perf_counter_ns()
        (_, (cls, _), row, _), geometry, members, demands, over = cohort
        cache = geometry.cache
        capacity = geometry.capacity
        # per-member values as Python floats (what float(array[i]) would give)
        served = np.where(over, capacity, demands).tolist()
        shed = np.where(over, demands - capacity, 0.0).tolist()
        offered = demands.tolist()
        if row is None:
            slot = cache.virtual_slot_base
        else:
            slot = partial(cache.virtual_slot, row=row)

        grid = geometry.grid
        level_index: Dict[float, int] = {}
        tensors: List[np.ndarray] = []
        keep: List[int] = []
        sessions: List[ControllerSession] = []
        rows: List[int] = []
        for j, index in enumerate(members):
            session = arrivals[index][0].session
            if not session.algorithm.lane_ready(geometry.grid_counts):
                rest.add(index)
                continue
            level = served[j]
            position = level_index.get(level)
            if position is None:
                vt = slot(level)
                if grid is None:
                    position = 0
                else:
                    tensor = cache.grid_tensor(vt, grid)
                    position = len(tensors) if np.isfinite(tensor).any() else -1
                    if position >= 0:
                        tensors.append(tensor)
                level_index[level] = position
            if position < 0:
                rest.add(index)
                continue
            keep.append(j)
            sessions.append(session)
            rows.append(position)
        if not keep:
            return
        counts_t = geometry.counts_t
        lanes = Lanes(
            grid, None if grid is None else np.stack(tensors), np.asarray(rows, dtype=np.intp),
            [session.ticks for session in sessions],
            cache.stream.base_cost_row if row is None else row,
            cache.stream.beta, counts_t,
        )
        chosen = cls.decide_lanes([session.algorithm for session in sessions], lanes)
        # a non-integer result or a lane outside the counts (A's and B's
        # power-ups from before a shrink) takes its session's own check
        checked = chosen.dtype.kind == "i" and not ((chosen < 0) | (chosen > counts_t)).any()
        r_lists = chosen.tolist()
        # a member's latency: its share of the cohort's work and of its
        # level's block, plus its own commit
        latency_share = (time.perf_counter_ns() - cohort_started) // len(keep)
        self.batched_ticks += len(keep)
        self.cohort_rounds += 1
        emit = self._writer.active
        for i, j in enumerate(keep):
            index = members[j]
            tenant = arrivals[index][0]
            session = sessions[i]
            charge = latency_share + (charges[index] if charges else 0)
            started = time.perf_counter_ns() - charge
            if checked:
                rounded, r_list, forced = chosen[i], r_lists[i], 0
            else:
                rounded, r_list, forced = session.check_choice(chosen[i], counts_t)
            level = served[j]
            # under ledger_budget a slot resolved while deciding may be
            # recycled by now: re-resolve it (an O(1) hit when unbudgeted)
            state = session.commit_tick(
                offered[j], level, shed[j], slot(level),
                rounded, r_list, forced, counts=counts_t, started_ns=started, emit=emit,
            )
            self._record(tenant, state)

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
        iterating per-cache rows.  ``batch`` is :meth:`batch_counters`.
        ``metrics`` is the engine registry's full labelled snapshot
        (schema-versioned; see
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
        report["batch"] = self.batch_counters()
        report["metrics"] = self.metrics.snapshot()
        return report

    def batch_counters(self) -> dict:
        """Cohort hit-rate stats: how much of the load the cohorts decided."""
        batched = self.batched_ticks
        cohort_rounds = self.cohort_rounds
        total = batched + self.fallback_ticks
        return {
            "batched_ticks": batched,
            "fallback_ticks": self.fallback_ticks,
            "batch_hit_rate": round(batched / total, 6) if total else 0.0,
            "rounds": self.rounds,
            "cohort_rounds": cohort_rounds,
            "avg_cohort_size": round(batched / cohort_rounds, 3) if cohort_rounds else 0.0,
            "geometries": len(self._geometries),
        }

    def collect_metrics(self) -> None:
        """Mirror :meth:`batch_counters` into the registry (the engine's collector)."""
        self.metrics.mirror(BATCH_SERIES, self.batch_counters())
