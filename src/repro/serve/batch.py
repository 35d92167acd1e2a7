"""Fleet-batched multi-tenant ticks: vectorised cross-tenant decisions.

:class:`ServeEngine` owns the serving round — pull one tick per live tenant,
resolve the arrivals, write telemetry and checkpoints — and resolves the
arrivals one ``session.observe`` at a time: 10k tenants pay 10k interpreter
round-trips per round even when every one of them resolves to the same
quantised solution table.  :class:`BatchedServeEngine` keeps that round and
replaces only its resolution, applying the ``solve_block`` idea one level up,
**across tenants**:

* A round's arrivals are grouped into **cohorts** keyed by
  ``(cache identity, decider kind, cost-row signature, counts signature)`` —
  the same keys :class:`~repro.serve.session.ServeCache` and
  :class:`~repro.dispatch.tables.SolutionTable` already dedup on.
* Table-driven baselines (``reactive``, ``follow-demand``, ``all-on``) are
  decided with a single gather from a per-cohort decision table plus one
  vectorised argmin/switching-cost computation.
* The prefix-DP algorithms (``A``, ``B``, ``lcp``) decide slot ``t`` from
  their tracker's value tensor ``V_t``.  A cohort stacks its members'
  ``V_{t-1}`` into one ``(k, *grid.shape)`` tensor and advances them with one
  min-plus transition (:func:`~repro.online.tracker.observe_stacked`), adding
  one grid cost tensor per distinct served demand; one vectorised argmin per
  row gives each member's prefix optimum, and the algorithm's own ``decide``
  rule (power-up/power-down, or LCP's projection) then runs per member,
  followed by :meth:`ControllerSession.check_choice`.
* Every member is committed through :meth:`ControllerSession.commit_tick` —
  the pure-state-update phase of a tick, so session state is *bit-identical*
  to a sequential replay.  Each member's latency is its share of the
  cohort's shared work plus its own decide and commit.
* Everything else goes back through :meth:`ServeEngine.resolve`, the
  sequential resolution itself: custom algorithm objects and subclasses,
  Algorithm C, regret-tracked sessions, ``gamma``-reduced baselines and
  trackers, shared-stream or custom trackers; a DP tenant's first tick (no
  ``V`` yet) and ticks whose counts change its grid; invalid or
  strict-infeasible ticks, a DP tick whose cost tensor has no finite entry,
  and table members whose demand level misses a saturated table.

Bit-identity is by construction, not by tolerance: decision-cost rows are
fetched through ``dispatcher.solve_grid(vt, float_configs)`` — the exact
memoised call sequential ``Reactive.step``/``FollowDemand.step`` make via
``slot.operating_cost`` — grid cost tensors through the same
:meth:`ServeCache.grid_tensor` the trackers read, and committed operating
costs/loads come from the same memoised :meth:`ServeCache.solve_config`
results, so a batched run returns the *identical float objects* a sequential
run would.  The vectorised switching computation
``max(x - prev, 0) · beta`` reduces over the same axis in the same order as
the sequential per-tenant expression, and every lane of a stacked transition
runs the sequential tracker's ufunc sequence.

An optional **feed pump** overlaps feed I/O with the batched solve: a small
thread pool prefetches upcoming ticks from slow feeds (``JsonlFeed``, paced
time-warp replays) into bounded per-tenant queues with backpressure, and the
round pulls from those queues while producers block on I/O or pacing
sleeps.  Feeds stay single-owner (one worker per tenant iterator);
determinism is untouched because the pump reorders *time*, never ticks.

The correctness gate is :func:`~repro.serve.verify.verify_batched`: over
every registered scenario family, including chaos injection and a mid-stream
checkpoint/restore round-trip, a batched run must match the sequential engine
tenant by tenant — identical schedules and SLA counters, costs within 1e-9.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from functools import partial
from typing import Dict, List, Optional

import numpy as np

from ..offline.state_grid import StateGrid
from ..online.algorithm_a import AlgorithmA
from ..online.algorithm_b import AlgorithmB
from ..online.baselines import AllOn, FollowDemand, Reactive
from ..online.lcp import LazyCapacityProvisioning
from ..online.tracker import observe_stacked, stackable
from .engine import ServeEngine
from .session import ControllerSession, ServeCache
from .telemetry import TelemetryWriter

__all__ = ["BatchedServeEngine", "FeedPump"]

#: Decision-table growth bound per cohort: beyond this many distinct demand
#: levels the table stops installing rows (continuous-demand streams would
#: otherwise grow it without bound) and unseen levels take the per-tenant
#: fallback path instead.
DEFAULT_TABLE_BUDGET = 4096


#: Algorithms deciding from a prefix-DP value tensor: their cohorts advance
#: the members' trackers in one stacked transition.
_DP_KINDS = {AlgorithmA: "A", AlgorithmB: "B", LazyCapacityProvisioning: "lcp"}


def _decider_kind(session: ControllerSession) -> Optional[str]:
    """Which cohort kind (if any) can replace ``algorithm.step``.

    Exact-type checks on purpose: a subclass may override ``step`` and must
    fall back.  Regret-tracked sessions always fall back — the tracker needs
    the per-tick :class:`SlotInfo`.  ``gamma``-reduced baselines fall back too
    (the vectorised tables enumerate the full grid, matching the
    registry-built ``Reactive()``/``FollowDemand()`` exactly), and so do DP
    algorithms whose tracker :func:`~repro.online.tracker.stackable` rejects
    (``gamma``-reduced, shared-stream or custom trackers).
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


class _CohortTable:
    """Per-(cache, kind, cost row, counts) state shared by a cohort's members.

    Every kind reads the counts, capacity and full grid of the key.  The
    table-driven kinds keep a decision table: rows keyed by exact demand
    value (like :class:`SolutionTable`) holding the ``(n,)`` operating-cost
    row over the grid's configurations, fetched through the same memoised
    ``solve_grid`` call the sequential baselines issue — a gathered row is the
    identical array content a sequential ``slot.operating_cost(configs)``
    returns.  Algorithm B's cohorts read the row's idle costs ``l_{t,j}``.
    Ledger slots are *not* cached here: under ``ledger_budget`` the cache
    recycles slot indices, so the engine re-resolves them at the point of use
    (:meth:`slot`, which transparently re-appends evicted levels).
    """

    __slots__ = (
        "cache", "kind", "row", "counts_t", "grid_counts", "capacity", "grid",
        "configs", "fconfigs", "idle", "level_index", "cost_rows",
        "_cost_matrix", "best_idx", "budget", "installs",
    )

    def __init__(self, cache: ServeCache, key: tuple, budget: int):
        _, kind, row, counts_key = key
        self.cache = cache
        self.kind = kind
        self.row = row  # None for the base cost row
        stream = cache.stream
        self.counts_t = stream.m if counts_key is None else np.asarray(counts_key, dtype=int)
        self.grid_counts = tuple(int(c) for c in self.counts_t)
        self.capacity = float(np.sum(self.counts_t * stream.zmax))
        self.grid = StateGrid.full(self.counts_t)
        self.configs = self.grid.configs()
        # sequential ``SlotInfo.operating_cost`` converts configs to float64
        # before evaluating; the same content must reach ``solve_grid`` so the
        # block-cache key (shape, dtype, bytes) lands on the same memo entry
        self.fconfigs = np.ascontiguousarray(self.configs, dtype=float)
        self.fconfigs.setflags(write=False)
        # what ``SlotInfo.idle_costs`` returns for this row, per B tick
        functions = stream.base_cost_row if row is None else row
        self.idle = (
            np.array([f.idle_cost() for f in functions], dtype=float)
            if kind == "B"
            else None
        )
        self.level_index: Dict[float, int] = {}
        self.cost_rows: List[np.ndarray] = []
        self._cost_matrix: Optional[np.ndarray] = None
        self.best_idx: Dict[int, int] = {}  # level row -> argmin (follow-demand)
        self.budget = int(budget)
        self.installs = 0

    def slot(self, level: float) -> int:
        """The ledger slot of a served demand level on this cohort's cost row."""
        if self.row is None:
            return self.cache.virtual_slot_base(level)
        return self.cache.virtual_slot(level, self.row)

    def level_row(self, served: float, vt: int) -> Optional[int]:
        """Table row index of a demand level, installing it on first sight.

        Returns ``None`` once the table is saturated (``budget`` levels) and
        the level is unseen — the caller routes those members to the
        per-tenant fallback.
        """
        idx = self.level_index.get(served)
        if idx is not None:
            return idx
        if len(self.cost_rows) >= self.budget:
            return None
        # the exact call sequential Reactive/FollowDemand make per tick
        costs, _ = self.cache.dispatcher.solve_grid(vt, self.fconfigs)
        idx = len(self.cost_rows)
        self.level_index[served] = idx
        self.cost_rows.append(costs)
        self._cost_matrix = None
        self.installs += 1
        return idx

    def cost_matrix(self) -> np.ndarray:
        """The stacked ``(L, n)`` cost rows (rebuilt only when levels grew)."""
        if self._cost_matrix is None or len(self._cost_matrix) != len(self.cost_rows):
            self._cost_matrix = np.vstack(self.cost_rows)
        return self._cost_matrix


class FeedPump:
    """Thread-pool feed prefetcher with bounded per-tenant backpressure.

    Each worker owns a disjoint subset of tenant iterators (feed iterators
    are not thread-safe, so ownership is static) and keeps every owned
    tenant's queue topped up to ``prefetch`` ticks; a full queue simply skips
    to the next owned tenant — that bound *is* the backpressure, keeping
    prefetch memory flat at ``O(tenants × prefetch)`` ticks.  Pacing sleeps
    (``feed.play(speed)``) and JSONL parsing thus happen on pump threads while
    the engine's round runs the batched solve.

    ``tenants`` maps names to records with an ``iterator`` attribute (the
    engine's tenant records).  While the pump runs it owns those iterators:
    :meth:`start` points each tenant at its queue, so the round's pulls read
    the queue in tick order with one ``None`` at stream end — exactly the
    contract of ``next(iterator, None)``, which is why pumping changes
    scheduling latency but never schedules — and :meth:`stop` hands each
    tenant its own iterator back.
    """

    _DONE = object()

    def __init__(self, tenants, prefetch: int = 8, workers: int = 4):
        if int(prefetch) < 1:
            raise ValueError(f"prefetch must be >= 1, got {prefetch}")
        self.prefetch = int(prefetch)
        self._tenants = dict(tenants)
        self._sources = {name: tenant.iterator for name, tenant in self._tenants.items()}
        self._queues: Dict[str, queue.Queue] = {}
        self._stop = threading.Event()
        self._wakeups: List[threading.Event] = []
        self._threads: List[threading.Thread] = []
        self.prefetched = 0
        self.max_buffered = 0
        names = list(self._tenants)
        workers = max(1, min(int(workers), len(names))) if names else 0
        shards: List[list] = [[] for _ in range(workers)]
        for i, name in enumerate(names):
            self._queues[name] = queue.Queue(maxsize=self.prefetch)
            shards[i % workers].append(name)
        self._lock = threading.Lock()
        for shard in shards:
            wakeup = threading.Event()
            thread = threading.Thread(
                target=self._produce, args=(shard, wakeup), daemon=True
            )
            self._wakeups.append(wakeup)
            self._threads.append(thread)

    def start(self) -> "FeedPump":
        """Start the producers and point every tenant's pulls at its queue."""
        for name, tenant in self._tenants.items():
            tenant.iterator = iter(partial(self.next_tick, name), None)
        for thread in self._threads:
            thread.start()
        return self

    def _produce(self, shard, wakeup: threading.Event) -> None:
        pending = {name: self._sources[name] for name in shard}
        while pending and not self._stop.is_set():
            progressed = False
            for name in list(pending):
                if self._stop.is_set():
                    return
                q = self._queues[name]
                if q.full():
                    continue
                tick = next(pending[name], self._DONE)
                if tick is self._DONE:
                    q.put(self._DONE)
                    del pending[name]
                else:
                    q.put(tick)
                    with self._lock:
                        self.prefetched += 1
                        depth = q.qsize()
                        if depth > self.max_buffered:
                            self.max_buffered = depth
                progressed = True
            if not progressed:
                # every owned queue is full: sleep until a consumer drains one
                wakeup.wait(timeout=0.05)
                wakeup.clear()

    def next_tick(self, name: str):
        """The tenant's next tick (blocking), or ``None`` at stream end."""
        item = self._queues[name].get()
        for wakeup in self._wakeups:
            wakeup.set()
        return None if item is self._DONE else item

    def stop(self) -> Dict[str, list]:
        """Stop the producers and hand every tenant its own iterator back.

        Buffered ticks were already pulled off their iterators, so they are
        chained in front of it: an engine stopping early (``max_ticks`` with
        ``finalize=False``) resumes without losing a tick.  Returns those
        leftovers as ``{tenant: [ticks...]}`` in arrival order; stream-end
        sentinels are dropped (the iterator re-yields exhaustion for free).
        Producers mid-pacing-sleep are abandoned after a join timeout — with
        paced feeds an early stop may therefore lose the tick in flight;
        unpaced feeds (every equivalence gate) join promptly and lose nothing.
        """
        self._stop.set()
        for wakeup in self._wakeups:
            wakeup.set()
        for thread in self._threads:
            thread.join(timeout=2.0)
        leftovers: Dict[str, list] = {}
        for name, q in self._queues.items():
            items = []
            while True:
                try:
                    item = q.get_nowait()
                except queue.Empty:
                    break
                if item is not self._DONE:
                    items.append(item)
            if items:
                leftovers[name] = items
            self._tenants[name].iterator = itertools.chain(items, self._sources[name])
        return leftovers

    def counters(self) -> dict:
        return {
            "prefetched": self.prefetched,
            "max_buffered": self.max_buffered,
            "workers": len(self._threads),
            "prefetch_bound": self.prefetch,
        }


class BatchedServeEngine(ServeEngine):
    """A :class:`ServeEngine` whose rounds resolve cohorts vectorised.

    Same registration API, same round and same results — schedules, costs
    and SLA counters are bit-identical to the sequential engine
    (:func:`~repro.serve.verify.verify_batched` gates this across every
    registered scenario family),
    and telemetry and checkpoints are written by the same round.  Only the
    round's resolution differs: :meth:`resolve` groups the arrivals into
    cohorts and replaces their per-tenant ``algorithm.step`` + solve — for
    the table-driven baselines with one table gather + vectorised argmin, for
    A, B and LCP with one stacked tracker advance + each member's ``decide``
    rule — then commits each member through
    :meth:`ControllerSession.commit_tick`, and hands every other arrival back
    to :meth:`ServeEngine.resolve` (see the module docstring for what falls
    back).  Telemetry rows are therefore grouped by cohort within a round
    rather than in strict registration order.

    Parameters beyond :class:`ServeEngine`:

    overlap:
        Run a :class:`FeedPump` so feed I/O and pacing sleeps overlap the
        batched solve (``prefetch`` ticks per tenant buffered, ``pump_workers``
        threads).
    table_budget:
        Max distinct demand levels per cohort decision table; unseen levels
        beyond it fall back per-tenant (bounded memory on continuous streams).
    """

    def __init__(
        self,
        share_caches: bool = True,
        *,
        ledger_budget: Optional[int] = None,
        tensor_budget_bytes: Optional[int] = None,
        overlap: bool = False,
        prefetch: int = 8,
        pump_workers: int = 4,
        table_budget: int = DEFAULT_TABLE_BUDGET,
        metrics=None,
    ):
        super().__init__(
            share_caches,
            ledger_budget=ledger_budget,
            tensor_budget_bytes=tensor_budget_bytes,
            metrics=metrics,
        )
        self.overlap = bool(overlap)
        self.prefetch = int(prefetch)
        self.pump_workers = int(pump_workers)
        self.table_budget = int(table_budget)
        self._tables: Dict[tuple, _CohortTable] = {}
        # batching counters are engine-level registry series (unlabelled —
        # one engine, one registry); the historical attribute names survive
        # as read-only properties below
        self._c_batched_ticks = self.metrics.counter("batched_ticks")
        self._c_fallback_ticks = self.metrics.counter("fallback_ticks")
        self._c_table_fallbacks = self.metrics.counter("table_fallbacks")
        self._c_cohort_rounds = self.metrics.counter("cohort_rounds")
        self._c_rounds = self.metrics.counter("rounds")
        self._pump: Optional[FeedPump] = None

    @property
    def batched_ticks(self) -> int:
        return int(self._c_batched_ticks.value)

    @property
    def fallback_ticks(self) -> int:
        return int(self._c_fallback_ticks.value)

    @property
    def table_fallbacks(self) -> int:
        return int(self._c_table_fallbacks.value)

    @property
    def cohort_rounds(self) -> int:
        return int(self._c_cohort_rounds.value)

    @property
    def rounds(self) -> int:
        return int(self._c_rounds.value)

    # --------------------------------------------------------------- execution
    def run(
        self,
        max_ticks: Optional[int] = None,
        telemetry: Optional[TelemetryWriter] = None,
        checkpoint_dir=None,
        checkpoint_every: int = 0,
        finalize: bool = True,
    ) -> dict:
        """:meth:`ServeEngine.run`, fed through a :class:`FeedPump` under ``overlap``."""
        pump = None
        if self.overlap:
            pump = self._pump = FeedPump(
                self._tenants, prefetch=self.prefetch, workers=self.pump_workers
            ).start()
        try:
            return super().run(
                max_ticks, telemetry, checkpoint_dir, checkpoint_every, finalize
            )
        finally:
            if pump is not None:
                pump.stop()

    # ------------------------------------------------------------------ rounds
    def resolve(self, arrivals) -> None:
        """Partition one round's arrivals into cohorts and resolve each.

        Arrivals no cohort can decide go back through
        :meth:`ServeEngine.resolve` after the cohorts, in the order they
        were set aside.
        """
        self._c_rounds.inc()
        cohorts: Dict[tuple, list] = {}
        fallback: list = []
        for tenant, tick in arrivals:
            session = tenant.session
            kind = _decider_kind(session)
            if kind is None:
                fallback.append((tenant, tick))
                continue
            row = tick.cost_row
            row_key = None if row is None else tuple(row)
            counts = tick.counts
            counts_key = (
                None if counts is None else tuple(int(v) for v in np.asarray(counts))
            )
            key = (id(session.cache), kind, row_key, counts_key)
            try:
                members = cohorts.get(key)
            except TypeError:  # unhashable exotic cost row: per-tenant path
                fallback.append((tenant, tick))
                continue
            if members is None:
                cohorts[key] = [(tenant, tick)]
            else:
                members.append((tenant, tick))

        for key, members in cohorts.items():
            self._run_cohort(key, members, fallback)

        # the sequential resolution verbatim — errors (strict infeasibility,
        # invalid demands) surface exactly as they would un-batched
        self._c_fallback_ticks.add(len(fallback))
        super().resolve(fallback)

    def _run_cohort(self, key, members, fallback) -> None:
        """Decide one cohort's members together, then commit each of them."""
        cohort_started = time.perf_counter_ns()
        table = self._tables.get(key)
        if table is None:
            table = _CohortTable(members[0][0].session.cache, key, self.table_budget)
            self._tables[key] = table
        capacity = table.capacity
        demands = np.array([tick.demand for _, tick in members], dtype=float)
        invalid = ~np.isfinite(demands) | (demands < 0)
        over = demands > capacity + 1e-9
        # per-member values as Python floats (what float(array[i]) would give)
        served = np.where(over, capacity, demands).tolist()
        shed = np.where(over, demands - capacity, 0.0).tolist()
        offered = demands.tolist()

        # invalid demand and strict over-capacity take the per-tenant path,
        # which raises their errors
        candidates: List[int] = []
        for i, member in enumerate(members):
            if invalid[i] or (over[i] and member[0].session.degradation == "strict"):
                fallback.append(member)
            else:
                candidates.append(i)
        if table.kind in _DP_KINDS.values():
            keep, decide = self._advance_trackers(table, members, candidates, served, fallback)
        else:
            keep, decide = self._gather_decisions(table, members, candidates, served, fallback)
        if not keep:
            return

        # every member's latency is its share of the cohort's joint work plus
        # its own decide and commit (a sequential tick's latency runs from
        # prepare_tick to the end of commit_tick)
        latency_share = (time.perf_counter_ns() - cohort_started) // len(keep)
        self._c_batched_ticks.add(len(keep))
        self._c_cohort_rounds.inc()
        emit = self._writer.active
        for i, j in enumerate(keep):
            tenant = members[j][0]
            session = tenant.session
            started = time.perf_counter_ns() - latency_share
            rounded, r_list, forced = decide(i, session)
            level = served[j]
            # under ledger_budget resolving one level can evict another, so a
            # slot resolved while deciding may be recycled by now;
            # re-resolving at the point of use restores the sequential
            # resolve→commit interleaving (an O(1) dict hit when unbudgeted)
            state = session.commit_tick(
                offered[j], level, shed[j], table.slot(level),
                rounded, r_list, forced, started_ns=started, emit=emit,
            )
            self._record(tenant, state)

    def _gather_decisions(self, table, members, candidates, served, fallback):
        """Table-driven kinds: one table gather and a vectorised argmin.

        Returns the batched member indices and ``decide(i, session)``, which
        hands member ``i`` its row of the decided configurations.
        """
        kind = table.kind
        level_row: Dict[float, Optional[int]] = {}
        keep: List[int] = []
        for i in candidates:
            level = served[i]
            if level not in level_row:
                # every kind resolves its slot here, as prepare_tick would;
                # all-on decides from the counts and needs no table row
                vt = table.slot(level)
                level_row[level] = 0 if kind == "all-on" else table.level_row(level, vt)
            if level_row[level] is None:  # saturated table, unseen level
                fallback.append(members[i])
                self._c_table_fallbacks.inc()
                continue
            keep.append(i)
        if not keep:
            return keep, None

        k = len(keep)
        if kind == "all-on":
            # sequential AllOn returns asarray(slot.counts).astype(int) — one
            # fresh row per tenant; a tiled matrix gives identical content
            rounded_matrix = np.tile(table.counts_t.astype(int), (k, 1))
        else:
            rows = np.fromiter(
                (level_row[served[i]] for i in keep), dtype=np.intp, count=k
            )
            costs = table.cost_matrix()[rows]  # (k, n) gather
            if kind == "reactive":
                sessions = [members[i][0].session for i in keep]
                prev = np.stack([s.algorithm._current for s in sessions])
                # same expression as Reactive.step, one tenant per leading axis:
                # int subtraction, clamp, * beta, reduce over the config axis
                switch = np.sum(
                    np.maximum(table.configs[None, :, :] - prev[:, None, :], 0)
                    * table.cache.stream.beta[None, None, :],
                    axis=2,
                )
                choice = np.argmin(costs + switch, axis=1)
            else:  # follow-demand: switching-blind argmin, memoised per level
                best = table.best_idx
                row_list = rows.tolist()
                for r in row_list:
                    if r not in best:
                        best[r] = int(np.argmin(table.cost_rows[r]))
                choice = np.fromiter((best[r] for r in row_list), dtype=np.intp, count=k)
            rounded_matrix = table.configs[choice].astype(int)
            if kind == "reactive":
                for i, session in enumerate(sessions):
                    # what ``self._current = configs[best].astype(int)`` leaves
                    # behind sequentially; rows are never mutated in place
                    session.algorithm._current = rounded_matrix[i]
        r_lists = rounded_matrix.tolist()
        # configurations come from the cohort's own grid: within its counts
        return keep, lambda i, session: (rounded_matrix[i], r_lists[i], 0)

    def _advance_trackers(self, table, members, candidates, served, fallback):
        """DP kinds: one stacked tracker advance, then each member's ``decide``.

        A member joins when its tracker already holds ``V_{t-1}`` on the
        cohort's grid; a first tick or a count change takes the per-tenant
        ``observe``.  Cost tensors are fetched once per distinct served demand
        and keyed by that demand, never by ledger slot (under
        ``ledger_budget`` resolving one level can recycle another's slot).
        Returns the batched member indices and ``decide(i, session)``: the
        algorithm's rule on member ``i``'s prefix optimum, through
        :meth:`ControllerSession.check_choice`.
        """
        level_index: Dict[float, int] = {}
        tensors: List[np.ndarray] = []
        keep: List[int] = []
        rows: List[int] = []
        for i in candidates:
            if not members[i][0].session.algorithm._tracker.holds(table.grid_counts):
                fallback.append(members[i])
                continue
            level = served[i]
            index = level_index.get(level)
            if index is None:
                tensor = table.cache.grid_tensor(table.slot(level), table.grid)
                # a demand no configuration can serve: the sequential observe
                # raises its error
                index = len(tensors) if np.isfinite(tensor).any() else -1
                level_index[level] = index
                if index >= 0:
                    tensors.append(tensor)
            if index < 0:
                fallback.append(members[i])
                continue
            keep.append(i)
            rows.append(index)
        if not keep:
            return keep, None

        trackers = [members[i][0].session.algorithm._tracker for i in keep]
        member_costs = np.stack(tensors)[np.asarray(rows, dtype=np.intp)]
        counts_t = table.counts_t
        beta = table.cache.stream.beta
        if table.kind == "lcp":
            lower, upper = observe_stacked(
                trackers, member_costs, beta, ("smallest", "largest")
            )
            return keep, lambda i, s: s.check_choice(
                s.algorithm.decide(lower[i], upper[i]), counts_t
            )
        (xhat,) = observe_stacked(trackers, member_costs, beta)
        if table.kind == "A":
            return keep, lambda i, s: s.check_choice(
                s.algorithm.decide(s.ticks, xhat[i]), counts_t
            )
        idle = table.idle
        return keep, lambda i, s: s.check_choice(
            s.algorithm.decide(s.ticks, xhat[i], idle, beta), counts_t
        )

    # ------------------------------------------------------------------ report
    def batch_counters(self) -> dict:
        """Cohort/batch hit-rate stats (how much of the load was vectorised)."""
        total = self.batched_ticks + self.fallback_ticks
        counters = {
            "batched_ticks": self.batched_ticks,
            "fallback_ticks": self.fallback_ticks,
            "table_fallbacks": self.table_fallbacks,
            "batch_hit_rate": round(self.batched_ticks / total, 6) if total else 0.0,
            "rounds": self.rounds,
            "cohort_rounds": self.cohort_rounds,
            "avg_cohort_size": (
                round(self.batched_ticks / self.cohort_rounds, 3)
                if self.cohort_rounds
                else 0.0
            ),
            "decision_tables": len(self._tables),
            "table_levels": sum(len(t.cost_rows) for t in self._tables.values()),
            "table_installs": sum(t.installs for t in self._tables.values()),
        }
        if self._pump is not None:
            counters["feed_pump"] = self._pump.counters()
        return counters

    def report(self, wall_seconds: Optional[float] = None) -> dict:
        report = super().report(wall_seconds=wall_seconds)
        report["batch"] = self.batch_counters()
        return report
