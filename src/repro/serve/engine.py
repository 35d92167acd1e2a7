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
   (:meth:`ServeCache.grid_tensors`); every later query hits the memo, and
   the configurations the ticks commit, and Algorithm C's repair, are read
   from the block (:meth:`ServeCache.solve_config`), so a cold round asks the
   dispatcher once.  A dispatch cell is exact on its own, so the block
   changes no decision and no solve count, only how many calls the solves
   take.
2. **Cohorts.**  The arrivals are grouped by ``(cache identity, decider
   kind, cost row, counts)``.  A cohort fetches one grid cost tensor per
   distinct served demand (:meth:`ServeCache.grid_tensor`, the tensor a
   session's tracker reads) and decides all its members at once: ``reactive``
   and ``follow-demand`` take one vectorised argmin over the stacked tensors
   (``reactive`` adds the switching cost), ``all-on`` decides from the
   counts, and the prefix-DP algorithms (``A``, ``B``, ``lcp``) stack their
   members' ``V_{t-1}`` and advance them with one min-plus transition
   (:func:`~repro.online.tracker.observe_stacked`), after which each member's
   own ``decide`` rule and :meth:`ControllerSession.check_choice` run.  Every
   member is committed through :meth:`ControllerSession.commit_tick`.  The
   only cohort state kept across rounds is one grid record per ``(cache,
   counts)``.  A cohort runs at its first member's turn.
3. **The rest.**  Every arrival no cohort takes goes through
   ``session.observe`` at its own turn: custom algorithm objects and
   subclasses, Algorithm C, regret-tracked sessions, ``gamma``-reduced
   baselines and trackers, shared-stream or custom trackers; a DP tenant
   alone in its cohort (its own transition is cheaper than a one-lane
   stacked one), its first tick (no ``V`` yet) and ticks whose counts change
   its grid; ticks whose cost row is unhashable, and ticks whose cost tensor
   has no finite entry.

Every tick is validated before any session state changes: cohort members'
demands vectorised per cohort, every other tick through
:meth:`ControllerSession.admit` (a round without cohorts observes in
arrival order, which already gives that guarantee).  A round that holds a
rejected tick (an invalid demand, cost row or counts, or demand over a
strict tenant's capacity) runs every arrival through ``session.observe`` in
arrival order, so the error surfaces at that tenant after the ticks before
it committed and before any later one does.

Bit-identity with a per-tenant replay is by construction, not by tolerance.
Dispatch is exact per cell, so a flattened grid tensor is the
``solve_grid(vt, configs)`` row that ``Reactive.step``/``FollowDemand.step``
read through ``slot.operating_cost``, and committed operating costs and loads
come from the same memoised :meth:`ServeCache.solve_config` results.  The
vectorised switching computation ``max(x - prev, 0) · beta`` reduces over
the same axis in the same order as the per-tenant expression, and every lane
of a stacked transition runs the tracker's own ufunc sequence.
:func:`~repro.serve.verify.verify_batched` gates this against per-tenant
replays over every registered scenario family.

Latency: each tick is charged its share of the block it was solved in, and
a cohort member its share of the cohort's joint work on top, plus its own
decide and commit.  Telemetry rows within a round come out grouped by
cohort: in arrival order, except that a cohort's members are written
together at its first member's turn.
"""

from __future__ import annotations

import time
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from ..offline.state_grid import StateGrid
from ..online.algorithm_a import AlgorithmA
from ..online.algorithm_b import AlgorithmB
from ..online.baselines import AllOn, FollowDemand, Reactive
from ..online.lcp import LazyCapacityProvisioning
from ..online.tracker import observe_stacked, stackable
from .chaos import ChaosFeed
from .feed import TraceFeed
from .metrics import COUNTER, MetricsRegistry
from .session import ControllerSession, ServeCache, fleet_signature, save_checkpoint
from .telemetry import TelemetryWriter, summarise_sessions

__all__ = ["ServeEngine"]


#: What :meth:`_Tenant.pull` returns for a tenant that stays live but has no
#: tick this round (a fabric tenant whose feed is failing or quarantined).
IDLE = object()

#: Algorithms deciding from a prefix-DP value tensor: their cohorts advance
#: the members' trackers in one stacked transition.
_DP_KINDS = {AlgorithmA: "A", AlgorithmB: "B", LazyCapacityProvisioning: "lcp"}

#: The :meth:`ServeEngine.batch_counters` keys the registry mirrors, as
#: unlabelled series; the others are derived from them or count geometries.
BATCH_SERIES = dict.fromkeys(
    ("batched_ticks", "fallback_ticks", "rounds", "cohort_rounds"), COUNTER
)


def _decider_kind(session: ControllerSession) -> Optional[str]:
    """Which cohort kind (if any) can replace ``algorithm.step``.

    Exact-type checks on purpose: a subclass may override ``step`` and must
    fall back.  Regret-tracked sessions always fall back — the tracker needs
    the per-tick :class:`SlotInfo`.  ``gamma``-reduced baselines fall back too
    (a cohort reads full-grid tensors, which matches the registry-built
    ``Reactive()``/``FollowDemand()`` exactly), and so do DP algorithms whose
    tracker :func:`~repro.online.tracker.stackable` rejects (``gamma``-reduced,
    shared-stream or custom trackers).
    """
    if session._regret_tracker is not None:
        return None
    algorithm = session.algorithm
    cls = type(algorithm)
    if cls is Reactive:
        return "reactive" if algorithm.gamma is None else None
    if cls is FollowDemand:
        return "follow-demand" if algorithm.gamma is None else None
    if cls is AllOn:
        return "all-on"
    kind = _DP_KINDS.get(cls)
    if kind is not None and stackable(algorithm._tracker):
        return kind
    return None


class _Geometry:
    """The grid record of one ``(cache, counts)`` pair, shared by its cohorts.

    Counts, capacity, the full grid and its configurations: nothing that
    depends on a demand or a cost row, so the record count is bounded by the
    fleets and their count vectors.  The record holds its cache, so a
    released cache's id cannot map to a stale grid.
    """

    __slots__ = ("cache", "counts_t", "grid_counts", "capacity", "grid", "configs")

    def __init__(self, cache: ServeCache, counts_key: Optional[tuple]):
        stream = cache.stream
        self.cache = cache
        self.counts_t = stream.m if counts_key is None else np.asarray(counts_key, dtype=int)
        self.grid_counts = tuple(int(c) for c in self.counts_t)
        self.capacity = float(np.sum(self.counts_t * stream.zmax))
        self.grid = StateGrid.full(self.counts_t)
        self.configs = self.grid.configs()


def _decisions(kind, geometry, row, sessions, tensors, rows):
    """``decide(i, session)`` for a cohort's members.

    ``tensors`` are the round's grid cost tensors, one per distinct served
    demand, and member ``i`` reads ``tensors[rows[i]]``.  ``decide`` hands
    member ``i`` its ``(rounded, r_list, forced)``: the DP algorithm's rule
    on the member's prefix optimum through
    :meth:`ControllerSession.check_choice`, or the baselines' row of the
    vectorised decision.
    """
    counts_t = geometry.counts_t
    beta = geometry.cache.stream.beta
    index = np.asarray(rows, dtype=np.intp)
    if kind in _DP_KINDS.values():
        trackers = [s.algorithm._tracker for s in sessions]
        member_costs = np.stack(tensors)[index]
        if kind == "lcp":
            lower, upper = observe_stacked(
                trackers, member_costs, beta, ("smallest", "largest")
            )
            return lambda i, s: s.check_choice(
                s.algorithm.decide(lower[i], upper[i]), counts_t
            )
        (xhat,) = observe_stacked(trackers, member_costs, beta)
        if kind == "A":
            return lambda i, s: s.check_choice(
                s.algorithm.decide(s.ticks, xhat[i]), counts_t
            )
        # what ``SlotInfo.idle_costs`` returns for the cohort's cost row
        functions = geometry.cache.stream.base_cost_row if row is None else row
        idle = np.array([f.idle_cost() for f in functions], dtype=float)
        return lambda i, s: s.check_choice(
            s.algorithm.decide(s.ticks, xhat[i], idle, beta), counts_t
        )

    if kind == "all-on":
        # AllOn.step returns asarray(slot.counts).astype(int) — one fresh row
        # per tenant; a tiled matrix gives identical content
        rounded = np.tile(counts_t.astype(int), (len(sessions), 1))
    else:
        # row r of the flattened stack is the solve_grid(vt, configs) row
        costs = np.stack(tensors).reshape(len(tensors), -1)
        configs = geometry.configs
        if kind == "follow-demand":  # switching-blind argmin per distinct demand
            rounded = configs[np.argmin(costs, axis=1)[index]].astype(int)
        else:
            prev = np.stack([s.algorithm._current for s in sessions])
            # same expression as Reactive.step, one tenant per leading axis:
            # int subtraction, clamp, * beta, reduce over the config axis
            switch = np.sum(
                np.maximum(configs[None, :, :] - prev[:, None, :], 0)
                * beta[None, None, :],
                axis=2,
            )
            rounded = configs[np.argmin(costs[index] + switch, axis=1)].astype(int)
            for session, current in zip(sessions, rounded):
                # what ``self._current = configs[best].astype(int)`` leaves
                # behind in Reactive.step; rows are never mutated in place
                session.algorithm._current = current
    r_lists = rounded.tolist()
    # configurations come from the cohort's own grid: within its counts
    return lambda i, session: (rounded[i], r_lists[i], 0)


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

        The round's cold grid tensors are solved together first
        (:meth:`_solve_cold`).  Then every arrival is admitted and the
        cohorts are formed (:meth:`_cohorts`).  The arrivals are resolved in
        arrival order: a cohort decides and commits all its members at its
        first member's turn (:meth:`_run_cohort`), and every arrival no
        cohort takes observes its tick through its session at its own turn —
        all of them when the round holds a rejected tick, so the error is
        raised in that tick's turn.  See the module docstring.
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

        Returns ``(cohorts, rest)``.  A cohort is ``(key, geometry, members,
        demands, over)``: its key, its grid record, its members' arrival
        indices, their demands and which of them exceed the capacity.
        ``rest`` lists the indices of the arrivals that observe through their
        sessions.  Every tick is validated here, before any session state
        changes: a cohort's demands at once (a tick that carries its own cost
        row or counts also through :meth:`ControllerSession.admit`, which
        normalises them into the cohort key), every other tick through
        ``admit`` too when a cohort formed.  Returns ``None`` when one is
        rejected.
        """
        groups: Dict[tuple, list] = {}
        rest: List[int] = []
        for index, (tenant, tick) in enumerate(arrivals):
            session = tenant.session
            kind = _decider_kind(session)
            if kind is not None:
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
                key = (id(session.cache), kind, row_key, counts_key)
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
            if len(members) == 1 and key[1] in _DP_KINDS.values():
                # a lone DP tenant's own observe is cheaper than a one-lane
                # stacked transition (see PERFORMANCE.md, "One engine")
                rest.append(members[0])
                continue
            cache_id, _, _, counts_key = key
            geometry = self._geometries.get((cache_id, counts_key))
            if geometry is None:
                geometry = _Geometry(arrivals[members[0]][0].session.cache, counts_key)
                self._geometries[(cache_id, counts_key)] = geometry
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
        """Decide one cohort's members together, then commit each of them.

        One membership loop: a member joins ``rest`` if it is a DP member
        whose tracker does not hold ``V_{t-1}`` on the cohort's grid, or if
        its level's tensor has no finite entry (the session decides those).
        Cost tensors are fetched once per distinct served demand and keyed by
        that demand, never by ledger slot (under ``ledger_budget`` resolving
        one level can recycle another's slot); all-on resolves its slot per
        level, as ``prepare_tick`` would, but needs no tensor.
        """
        cohort_started = time.perf_counter_ns()
        (_, kind, row, _), geometry, members, demands, over = cohort
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

        dp = kind in _DP_KINDS.values()
        grid = geometry.grid
        level_index: Dict[float, int] = {}
        tensors: List[np.ndarray] = []
        keep: List[int] = []
        rows: List[int] = []
        for j, index in enumerate(members):
            if dp and not arrivals[index][0].session.algorithm._tracker.holds(
                geometry.grid_counts
            ):
                rest.add(index)
                continue
            level = served[j]
            position = level_index.get(level)
            if position is None:
                vt = slot(level)
                if kind == "all-on":
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
            rows.append(position)
        if not keep:
            return
        decide = _decisions(
            kind, geometry, row,
            [arrivals[members[j]][0].session for j in keep], tensors, rows,
        )

        # every member's latency is its share of the cohort's joint work and
        # of the block its level was solved in, plus its own decide and
        # commit (an observed tick's latency runs from prepare_tick to the
        # end of commit_tick)
        latency_share = (time.perf_counter_ns() - cohort_started) // len(keep)
        self.batched_ticks += len(keep)
        self.cohort_rounds += 1
        emit = self._writer.active
        for i, j in enumerate(keep):
            index = members[j]
            tenant = arrivals[index][0]
            session = tenant.session
            charge = latency_share + (charges[index] if charges else 0)
            started = time.perf_counter_ns() - charge
            rounded, r_list, forced = decide(i, session)
            level = served[j]
            # under ledger_budget resolving one level can evict another, so a
            # slot resolved while deciding may be recycled by now;
            # re-resolving at the point of use restores the per-tenant
            # resolve→commit interleaving (an O(1) dict hit when unbudgeted)
            state = session.commit_tick(
                offered[j], level, shed[j], slot(level),
                rounded, r_list, forced, started_ns=started, emit=emit,
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
