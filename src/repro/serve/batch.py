"""Fleet-batched multi-tenant ticks: vectorised cross-tenant decisions.

:class:`ServeEngine` owns the serving round — pull one tick per live tenant,
resolve the arrivals, write telemetry and checkpoints — and resolves the
arrivals one ``session.observe`` at a time: 10k tenants pay 10k interpreter
round-trips per round even when every one of them resolves to the same
prewarmed fast-map entries.  :class:`BatchedServeEngine` keeps that round and
replaces only its resolution, applying the ``solve_block`` idea one level up,
**across tenants**:

* A round's arrivals are grouped into **cohorts** keyed by
  ``(cache identity, decider kind, cost row, counts)``.  Every cohort goes
  through one membership loop and fetches one grid cost tensor ``g_t`` per
  distinct served demand from :meth:`ServeCache.grid_tensor` — the tensor
  the sequential trackers read.  The only state kept across rounds is one
  grid record per ``(cache, counts)``: counts, capacity, the full
  :class:`StateGrid` and its configurations.
* The baselines decide from those tensors: ``reactive`` and
  ``follow-demand`` take one vectorised argmin over the stacked tensors
  (``reactive`` adds the switching cost); ``all-on`` decides from the counts
  and fetches no tensor.
* The prefix-DP algorithms (``A``, ``B``, ``lcp``) decide slot ``t`` from
  their tracker's value tensor ``V_t``.  A cohort stacks its members'
  ``V_{t-1}`` into one ``(k, *grid.shape)`` tensor and advances them with one
  min-plus transition (:func:`~repro.online.tracker.observe_stacked`), adding
  the same per-demand tensors; one vectorised argmin per row gives each
  member's prefix optimum, and the algorithm's own ``decide`` rule
  (power-up/power-down, or LCP's projection) then runs per member, followed
  by :meth:`ControllerSession.check_choice`.
* Every member is committed through :meth:`ControllerSession.commit_tick` —
  the pure-state-update phase of a tick, so session state is *bit-identical*
  to a sequential replay.  Each member's latency is its share of the
  cohort's shared work plus its own decide and commit.
* Everything else goes back through :meth:`ServeEngine.resolve`, the
  sequential resolution itself: custom algorithm objects and subclasses,
  Algorithm C, regret-tracked sessions, ``gamma``-reduced baselines and
  trackers, shared-stream or custom trackers; a DP tenant's first tick (no
  ``V`` yet) and ticks whose counts change its grid; invalid or
  strict-infeasible ticks, and ticks whose cost tensor has no finite entry.

Bit-identity is by construction, not by tolerance.  Dispatch is exact per
cell, so a flattened grid tensor is the ``solve_grid(vt, configs)`` row that
sequential ``Reactive.step``/``FollowDemand.step`` read through
``slot.operating_cost``, and committed operating costs/loads come from the
same memoised :meth:`ServeCache.solve_config` results, so a batched run
returns the *identical float objects* a sequential run would.  The
vectorised switching computation ``max(x - prev, 0) · beta`` reduces over
the same axis in the same order as the sequential per-tenant expression,
and every lane of a stacked transition runs the sequential tracker's ufunc
sequence.

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

#: Algorithms deciding from a prefix-DP value tensor: their cohorts advance
#: the members' trackers in one stacked transition.
_DP_KINDS = {AlgorithmA: "A", AlgorithmB: "B", LazyCapacityProvisioning: "lcp"}


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
    """``decide(i, session)`` for a cohort's batched members.

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
        # sequential AllOn returns asarray(slot.counts).astype(int) — one
        # fresh row per tenant; a tiled matrix gives identical content
        rounded = np.tile(counts_t.astype(int), (len(sessions), 1))
    else:
        # row r of the flattened stack is the sequential solve_grid(vt, configs)
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
                # behind sequentially; rows are never mutated in place
                session.algorithm._current = current
    r_lists = rounded.tolist()
    # configurations come from the cohort's own grid: within its counts
    return lambda i, session: (rounded[i], r_lists[i], 0)


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
    the baselines with one vectorised argmin over the round's grid cost
    tensors, for A, B and LCP with one stacked tracker advance + each
    member's ``decide`` rule — then commits each member through
    :meth:`ControllerSession.commit_tick`, and hands every other arrival back
    to :meth:`ServeEngine.resolve` (see the module docstring for what falls
    back).  Telemetry rows are therefore grouped by cohort within a round
    rather than in strict registration order.

    Parameters beyond :class:`ServeEngine`:

    overlap:
        Run a :class:`FeedPump` so feed I/O and pacing sleeps overlap the
        batched solve (``prefetch`` ticks per tenant buffered, ``pump_workers``
        threads).
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
        self._geometries: Dict[tuple, _Geometry] = {}
        # batching counters are engine-level registry series (unlabelled —
        # one engine, one registry), read back by batch_counters()
        self._c_batched_ticks = self.metrics.counter("batched_ticks")
        self._c_fallback_ticks = self.metrics.counter("fallback_ticks")
        self._c_cohort_rounds = self.metrics.counter("cohort_rounds")
        self._c_rounds = self.metrics.counter("rounds")
        self._pump: Optional[FeedPump] = None

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
        """Decide one cohort's members together, then commit each of them.

        One membership loop: a member falls back if its demand is invalid, if
        it is strictly over capacity, if it is a DP member whose tracker does
        not hold ``V_{t-1}`` on the cohort's grid, or if its level's tensor
        has no finite entry (the sequential path raises or decides those).
        Cost tensors are fetched once per distinct served demand and keyed by
        that demand, never by ledger slot (under ``ledger_budget`` resolving
        one level can recycle another's slot); all-on resolves its slot per
        level, as ``prepare_tick`` would, but needs no tensor.
        """
        cohort_started = time.perf_counter_ns()
        cache_id, kind, row, counts_key = key
        geometry = self._geometries.get((cache_id, counts_key))
        if geometry is None:
            geometry = _Geometry(members[0][0].session.cache, counts_key)
            self._geometries[(cache_id, counts_key)] = geometry
        cache = geometry.cache
        capacity = geometry.capacity
        demands = np.array([tick.demand for _, tick in members], dtype=float)
        invalid = ~np.isfinite(demands) | (demands < 0)
        over = demands > capacity + 1e-9
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
        for i, member in enumerate(members):
            session = member[0].session
            if (
                invalid[i]
                or (over[i] and session.degradation == "strict")
                or (dp and not session.algorithm._tracker.holds(geometry.grid_counts))
            ):
                fallback.append(member)
                continue
            level = served[i]
            index = level_index.get(level)
            if index is None:
                vt = slot(level)
                if kind == "all-on":
                    index = 0
                else:
                    tensor = cache.grid_tensor(vt, grid)
                    index = len(tensors) if np.isfinite(tensor).any() else -1
                    if index >= 0:
                        tensors.append(tensor)
                level_index[level] = index
            if index < 0:
                fallback.append(member)
                continue
            keep.append(i)
            rows.append(index)
        if not keep:
            return
        decide = _decisions(
            kind, geometry, row, [members[i][0].session for i in keep], tensors, rows
        )

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
                offered[j], level, shed[j], slot(level),
                rounded, r_list, forced, started_ns=started, emit=emit,
            )
            self._record(tenant, state)

    # ------------------------------------------------------------------ report
    def batch_counters(self) -> dict:
        """Cohort/batch hit-rate stats (how much of the load was vectorised)."""
        batched = int(self._c_batched_ticks.value)
        fallback = int(self._c_fallback_ticks.value)
        cohort_rounds = int(self._c_cohort_rounds.value)
        total = batched + fallback
        counters = {
            "batched_ticks": batched,
            "fallback_ticks": fallback,
            "batch_hit_rate": round(batched / total, 6) if total else 0.0,
            "rounds": int(self._c_rounds.value),
            "cohort_rounds": cohort_rounds,
            "avg_cohort_size": round(batched / cohort_rounds, 3) if cohort_rounds else 0.0,
            "geometries": len(self._geometries),
        }
        if self._pump is not None:
            counters["feed_pump"] = self._pump.counters()
        return counters

    def report(self, wall_seconds: Optional[float] = None) -> dict:
        report = super().report(wall_seconds=wall_seconds)
        report["batch"] = self.batch_counters()
        return report
