"""Streaming controller sessions: one online algorithm behind an ``observe`` API.

Everything in the repo before this module is batch-shaped — a full
:class:`~repro.core.instance.ProblemInstance` is materialised, then
:func:`~repro.online.base.run_online` iterates its slots.  A
:class:`ControllerSession` inverts that control flow for the serving regime the
paper's algorithms were designed for: demand arrives one tick at a time
(``observe(demand_t) -> FleetState``), the session reveals exactly one
:class:`~repro.online.base.SlotInfo` per tick to the wrapped algorithm, and
nothing about future ticks — not even the horizon — exists anywhere in the
process.  The information model is therefore *structurally* enforced rather
than merely promised by the driver loop.

Correctness anchor
------------------
Replaying an instance's demand trace through a session must reproduce the
batch ``run_online`` schedule exactly and its total cost to 1e-9 — including
across a mid-stream :meth:`ControllerSession.checkpoint` /
:meth:`ControllerSession.restore` round-trip.  This holds because

* each tick is solved by the same dispatch query batch ``run_online``
  issues (one ``solve_block([t], configs)`` per slot; the serve engine may
  solve a round's cold slots in one block instead, and a dispatch cell's
  result never depends on the block it is solved in),
* the per-tick grid tensors served to the trackers are bit-identical to the
  batch path's, and
* :meth:`checkpoint` serialises every decision-relevant byte of algorithm and
  tracker state via the ``state_dict`` protocol of
  :class:`~repro.online.base.OnlineAlgorithm` (float64 values round-trip
  exactly through JSON).

Multi-tenant sharing
--------------------
Sessions draw all dispatch work from a :class:`ServeCache`.  The cache owns an
append-only demand ledger (one *virtual slot* per distinct ``(demand, cost
row)`` observation) behind a shared
:class:`~repro.dispatch.allocation.DispatchSolver`, plus a whole-grid
operating-cost tensor memo keyed by dispatch signature — the serve-side
analogue of the providers a :class:`~repro.online.base.SlotContext` reads.  Many
sessions over the same fleet geometry share one cache: the first tenant to
observe a demand level pays the dispatch solve, every other tenant's tick is a
dictionary hit (see ``repro serve bench`` / ``BENCH_serve.json``).
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from ..core.schedule import Schedule
from ..core.server import ServerType
from ..dispatch.allocation import DispatchResult, DispatchSolver
from ..online.algorithm_a import AlgorithmA
from ..online.algorithm_b import AlgorithmB
from ..online.algorithm_c import AlgorithmC
from ..online.baselines import AllOn, FollowDemand, Reactive
from ..online.base import OnlineAlgorithm, OnlineContext, SlotInfo
from ..online.lcp import LazyCapacityProvisioning
from ..online.tracker import DPPrefixTracker
from .feed import payload_checksum
from .metrics import COUNTER, DETERMINISTIC_GAUGE, GAUGE, MetricsRegistry

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointCorruptError",
    "ControllerSession",
    "FleetState",
    "ServeCache",
    "SERVE_ALGORITHMS",
    "build_serve_algorithm",
    "fleet_signature",
    "load_checkpoint",
    "previous_checkpoint_path",
    "save_checkpoint",
]


CHECKPOINT_VERSION = 3

DEGRADATION_MODES = ("strict", "shed")

#: Latency samples a ``history=False`` session keeps for its percentiles.
COMPACT_LATENCY_WINDOW = 512

#: :meth:`ServeCache.counters` key -> the kind of its registry series, which
#: is named after the key and labelled ``cache=<metrics_label>``.
CACHE_SERIES = {
    "virtual_slots": DETERMINISTIC_GAUGE,
    "tensor_hits": COUNTER,
    "tensor_misses": COUNTER,
    "tensor_evictions": COUNTER,
    "tensor_bytes": DETERMINISTIC_GAUGE,
    "ledger_evictions": COUNTER,
    "table_gathers": COUNTER,
    "prewarmed_levels": DETERMINISTIC_GAUGE,
    "block_calls": COUNTER,
    "slot_queries": COUNTER,
    "unique_solves": COUNTER,
    "cache_hit_rate": GAUGE,
}


class CheckpointCorruptError(ValueError):
    """A checkpoint payload failed integrity validation (checksum missing or wrong).

    Distinct from the plain :class:`ValueError` raised for version/algorithm
    mismatches: a corrupt checkpoint means the bytes rotted, not that the
    caller rebuilt the wrong session around them.
    """


def previous_checkpoint_path(path) -> Path:
    """Where :func:`save_checkpoint` rotates the previous intact checkpoint."""
    path = Path(path)
    return path.with_name(path.name + ".prev")


def save_checkpoint(path, payload: dict, keep_previous: bool = True) -> Path:
    """Atomically write a checkpoint payload to disk (crash-safe).

    The payload is serialised to a ``.tmp`` sibling, fsynced, and moved into
    place with :func:`os.replace` — a crash (or SIGKILL) at any instant leaves
    either the old intact file or the new intact file, never a torn one.  With
    ``keep_previous`` (default) the existing checkpoint is first rotated to
    ``<name>.prev``, also atomically, so even a payload that was *corrupt
    before it was written* (a bug upstream of the write) leaves a good
    fallback for :func:`load_checkpoint`.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload))
        handle.flush()
        os.fsync(handle.fileno())
    if keep_previous and path.exists():
        os.replace(path, previous_checkpoint_path(path))
    os.replace(tmp, path)
    return path


def _read_checkpoint(path, retries: int, retry_delay: float) -> dict:
    """One checkpoint file → validated payload (no fallback)."""
    delay = float(retry_delay)
    data = None
    for attempt in range(int(retries) + 1):
        try:
            with open(path, "rb") as handle:
                data = handle.read()
            break
        except OSError:
            if attempt == retries:
                raise
            time.sleep(delay)
            delay *= 2
    try:
        payload = json.loads(data.decode("utf-8"))
    except ValueError as exc:  # undecodable bytes, bad JSON, an over-long integer
        raise CheckpointCorruptError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise CheckpointCorruptError(
            f"checkpoint {path} must contain a JSON object, got {type(payload).__name__}"
        )
    _verify_checksum(payload, f"checkpoint {path}")
    return payload


def _verify_checksum(payload: dict, what: str) -> None:
    """Raise :class:`CheckpointCorruptError` unless the payload's checksum matches."""
    if "checksum" not in payload:
        raise CheckpointCorruptError(f"{what} carries no integrity checksum")
    body = {k: v for k, v in payload.items() if k != "checksum"}
    actual = payload_checksum(body)
    if payload["checksum"] != actual:
        raise CheckpointCorruptError(
            f"{what} failed integrity validation: payload says "
            f"{payload['checksum']}, content is {actual}"
        )


def load_checkpoint(
    path, retries: int = 0, retry_delay: float = 0.05, fallback: bool = True
) -> dict:
    """Read a checkpoint file, retrying transient I/O errors with backoff.

    Undecodable JSON, a missing integrity checksum and checksum mismatches
    raise :class:`CheckpointCorruptError` naming the file (truncated or
    bit-rotted checkpoints fail loudly here, before a half-restored session
    exists).
    With ``fallback`` (default), a corrupt or missing primary file falls back
    to the previous intact checkpoint rotated aside by :func:`save_checkpoint`
    — the recovery path after a crash that outran the checkpoint cadence; the
    original error propagates only when the fallback is also unusable.
    """
    try:
        return _read_checkpoint(path, retries, retry_delay)
    except (CheckpointCorruptError, OSError) as exc:
        previous = previous_checkpoint_path(path)
        if not fallback or not previous.exists():
            raise
        try:
            return _read_checkpoint(previous, retries, retry_delay)
        except (CheckpointCorruptError, OSError):
            raise exc from None


# --------------------------------------------------------------------------- #
# Algorithm construction
# --------------------------------------------------------------------------- #

# Serve-side builders construct *private* per-session state (plain trackers,
# never a shared value history): tenants advance at independent rates, and a
# history needs the whole slot sequence before its first reader.
SERVE_ALGORITHMS: Dict[str, callable] = {
    "A": lambda params: AlgorithmA(gamma=params.get("gamma")),
    "B": lambda params: AlgorithmB(gamma=params.get("gamma")),
    "C": lambda params: AlgorithmC(
        epsilon=params.get("epsilon", 0.25),
        gamma=params.get("gamma"),
        max_sub_slots=params.get("max_sub_slots", 1000),
    ),
    "lcp": lambda params: LazyCapacityProvisioning(
        gamma=params.get("gamma"),
        allow_heterogeneous=params.get("allow_heterogeneous", True),
    ),
    "reactive": lambda params: Reactive(gamma=params.get("gamma")),
    "follow-demand": lambda params: FollowDemand(gamma=params.get("gamma")),
    "all-on": lambda params: AllOn(),
}


def build_serve_algorithm(algorithm, **params) -> OnlineAlgorithm:
    """Resolve an algorithm argument into a fresh :class:`OnlineAlgorithm`.

    Accepts a ready instance (returned as-is), a registry kind (``"A"``,
    ``"lcp"``, ...), or a dict ``{"kind": ..., "params": {...}}``; the
    equivalence tests build their batch reference through this same function
    so both sides run identically-constructed algorithms.
    """
    if isinstance(algorithm, OnlineAlgorithm):
        if params:
            raise ValueError("params only apply when building from a registry kind")
        return algorithm
    if isinstance(algorithm, dict):
        merged = dict(algorithm.get("params", {}))
        merged.update(params)
        return build_serve_algorithm(algorithm["kind"], **merged)
    builder = SERVE_ALGORITHMS.get(algorithm)
    if builder is None:
        raise KeyError(
            f"unknown serve algorithm {algorithm!r} (known: {sorted(SERVE_ALGORITHMS)})"
        )
    return builder(params)


def fleet_signature(server_types) -> tuple:
    """Content key of a fleet geometry (used to group sessions onto one cache).

    Cost functions hash by identity for most classes, so two *materialisations*
    of the same scenario produce different signatures — sharing is only real
    when tenants genuinely hold the same fleet objects, which is exactly when
    the dispatch caches can serve each other's queries.
    """
    return tuple(
        (st.name, int(st.count), float(st.switching_cost), float(st.capacity), st.cost_function)
        for st in server_types
    )


# --------------------------------------------------------------------------- #
# Shared dispatch state
# --------------------------------------------------------------------------- #


class _StreamInstance:
    """Append-only stand-in for the :class:`ProblemInstance` a solver reads.

    The dispatch engine touches only ``d``, ``zmax``, ``demand[t]`` and
    ``cost_row(t)`` — and only for slots it is queried about — so a growable
    ledger satisfies the same contract without a horizon.  Each appended entry
    is one *virtual slot*: a distinct ``(demand, cost row)`` observation of
    some session.
    """

    def __init__(self, server_types):
        self.server_types = tuple(server_types)
        for st in self.server_types:
            if not isinstance(st, ServerType):
                raise TypeError(f"server_types entries must be ServerType, got {type(st)!r}")
        self.demand: List[float] = []
        self._rows: List[tuple] = []
        self._zmax = np.array([st.capacity for st in self.server_types], dtype=float)
        self._beta = np.array([st.switching_cost for st in self.server_types], dtype=float)
        self._m = np.array([st.count for st in self.server_types], dtype=int)
        self._base_row = tuple(st.cost_function for st in self.server_types)

    @property
    def d(self) -> int:
        return len(self.server_types)

    @property
    def T(self) -> int:
        return len(self.demand)

    @property
    def zmax(self) -> np.ndarray:
        return self._zmax

    @property
    def beta(self) -> np.ndarray:
        return self._beta

    @property
    def m(self) -> np.ndarray:
        return self._m

    @property
    def base_cost_row(self) -> tuple:
        return self._base_row

    def cost_row(self, t: int) -> tuple:
        return self._rows[t]

    def append(self, demand: float, row: tuple) -> int:
        self.demand.append(float(demand))
        self._rows.append(row)
        return len(self.demand) - 1

    def replace(self, vt: int, demand: float, row: tuple) -> int:
        """Reuse ledger slot ``vt`` for a new observation (LRU eviction path).

        The caller must invalidate any per-*index* caches downstream (the
        dispatch solver's slot-signature memo, :meth:`DispatchSolver.forget
        <repro.dispatch.allocation.DispatchSolver.forget>`); content-keyed
        caches stay valid because the old content's entries simply stop
        being queried.
        """
        self.demand[vt] = float(demand)
        self._rows[vt] = row
        return vt


class ServeCache:
    """Shared dispatch solver + grid-tensor memo for one fleet geometry.

    One cache serves any number of concurrent sessions whose fleets are the
    *same objects* (same :class:`ServerType` tuple).  Observations are
    deduplicated into virtual slots of the underlying ledger, the solver's
    signature-level block cache dedups further (price-scaled rows collapse
    onto their base row), and whole-grid operating-cost tensors are memoised
    per ``(signature, scale, grid)`` so N tenants asking for the tensor of one
    demand level trigger exactly one dispatch solve.

    Unbounded-stream hardening: a month-scale stream of *continuous* demands
    would otherwise grow the ledger and the tensor memo without bound.

    * ``tensor_budget_bytes`` caps the grid-tensor memo with LRU eviction
      (and routes the underlying solves around the dispatcher's own unbounded
      block cache), and
    * ``ledger_budget`` caps the demand ledger at that many virtual slots:
      the least-recently-observed ``(demand, cost row)`` entry is evicted and
      its ledger index *reused* for the new observation, so the ledger —
      and the dispatcher's signature and result memos behind it
      (:meth:`~repro.dispatch.allocation.DispatchSolver.forget`) — stays
      flat.

    Eviction changes nothing numerically: a re-observed evicted level is
    simply re-solved (single-slot queries are bit-identical by construction),
    which is what the eviction counters in :meth:`counters` price out.

    Hot-path fast maps
    ------------------
    On quantised streams the steady-state tick never needs a dispatch solve:
    every quantity is a pure function of ``(virtual slot, grid or config)``.
    Three flat dictionaries shortcut the per-tick bookkeeping of the general
    machinery — ``_vt_base`` (demand → ledger slot for base-cost-row ticks,
    skipping the LRU OrderedDict), ``_fast_tensors`` (ledger slot → grid
    tensors, skipping signature/key assembly), and ``_fast_solves`` (ledger
    slot → per-configuration :class:`DispatchResult`, skipping the solver's
    array/tuple key construction).  Every fast entry is *installed from the
    slow path's own result*, so a fast hit is bit-identical to a miss by
    construction; hits are counted in ``table_gathers``.  The demand and
    tensor fast maps are disabled under ``ledger_budget`` /
    ``tensor_budget_bytes`` respectively, where eviction recency matters and a
    flat mirror would leak evicted entries.  :meth:`prewarm` fills all three
    for a known demand alphabet up front, moving even the *first-seen*
    solves off the tick path.

    On continuous streams every tick is first-seen, so the serve engine
    solves a round's cold tensors together before its sessions observe:
    :meth:`warm` tells a known level from the two fast maps in O(1), and
    :meth:`grid_tensors` solves the missing tensors of several slots in one
    dispatch block and installs each row exactly as :meth:`grid_tensor`'s
    miss path does (one install step), so the sessions' queries become memo
    hits.

    That block is the only dispatch a cold tick pays.  The configuration a
    tick commits is a cell of the grid its algorithm decided on, so
    :meth:`solve_config` answers a first query from the slot's fast tensor
    (the cost at the configuration's flat index) and the load rows the
    dispatcher's solved record already holds, and Algorithm C's Lemma-14
    repair reads its sub-slot configurations the same way
    (:meth:`block_costs`).  One rule,
    :meth:`~repro.dispatch.allocation.DispatchSolver.block_rows`, decides
    when a block may answer; bisection rows, configurations off the grid and
    ``tensor_budget_bytes`` caches (no fast tensors) ask the solver, as
    before.  Each answer read from a block counts in ``table_gathers``.
    """

    def __init__(
        self,
        server_types,
        tensor_budget_bytes: Optional[int] = None,
        ledger_budget: Optional[int] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
        metrics_label: Optional[str] = None,
    ):
        if ledger_budget is not None and int(ledger_budget) < 1:
            raise ValueError(f"ledger_budget must be >= 1, got {ledger_budget}")
        if tensor_budget_bytes is not None and int(tensor_budget_bytes) < 0:
            raise ValueError(
                f"tensor_budget_bytes must be >= 0, got {tensor_budget_bytes}"
            )
        self.stream = _StreamInstance(server_types)
        self.dispatcher = DispatchSolver(self.stream)
        self.signature = fleet_signature(self.stream.server_types)
        self.tensor_budget_bytes = (
            None if tensor_budget_bytes is None else int(tensor_budget_bytes)
        )
        self.ledger_budget = None if ledger_budget is None else int(ledger_budget)
        self._virtual: OrderedDict = OrderedDict()
        self._tensors: OrderedDict = OrderedDict()
        self._tensor_bytes = 0
        self.tensor_hits = 0
        self.tensor_misses = 0
        self.tensor_evictions = 0
        self.ledger_evictions = 0
        self.table_gathers = 0
        self.prewarmed_levels = 0
        # the counts stay on plain attributes; the registry mirrors
        # counters() at scrape time under the cache's label ("cache0",
        # "cache1", ... in creation order unless one is given)
        self.metrics = MetricsRegistry() if metrics is None else metrics
        self.metrics_label = (
            self.metrics.new_label("cache") if metrics_label is None else str(metrics_label)
        )
        self.metrics.register_collector(self.collect_metrics)
        self._vt_base: dict = {}
        self._fast_tensors: dict = {}
        self._fast_solves: dict = {}
        # grid key -> the grid object blocks are solved on: it outlives the
        # round, because the solver pins every read-only configs array by id
        self._grids: dict = {}

    def collect_metrics(self) -> None:
        """Mirror :meth:`counters` into the registry (the cache's collector)."""
        self.metrics.mirror(CACHE_SERIES, self.counters(), cache=self.metrics_label)

    @property
    def server_types(self) -> tuple:
        return self.stream.server_types

    @property
    def virtual_slots(self) -> int:
        """Resident ledger slots (distinct observations, net of slot reuse)."""
        return self.stream.T

    def virtual_slot(self, demand: float, row: tuple) -> int:
        """The ledger index of a ``(demand, cost row)`` observation (appending if new)."""
        try:
            key = (demand, row)
            vt = self._virtual.get(key)
        except TypeError:  # unhashable exotic cost row: ledger it per occurrence
            key = None
            vt = None
        if vt is not None:
            self._virtual.move_to_end(key)
            return vt
        if (
            key is not None
            and self.ledger_budget is not None
            and len(self._virtual) >= self.ledger_budget
        ):
            # evict the least-recently-observed level and reuse its slot; the
            # solver forgets the old content's signature and its results, so
            # its memos stay bounded too (unhashable-row slots bypass the map
            # and stay append-only: their ("slot", index) signatures pin the
            # index's identity)
            _, vt = self._virtual.popitem(last=False)
            self.stream.replace(vt, demand, row)
            self.dispatcher.forget(vt)
            self._fast_tensors.pop(vt, None)
            self._fast_solves.pop(vt, None)
            self.ledger_evictions += 1
        else:
            vt = self.stream.append(demand, row)
        if key is not None:
            self._virtual[key] = vt
        return vt

    def virtual_slot_base(self, demand: float) -> int:
        """Ledger slot of a base-cost-row observation — the tick fast path.

        One flat float-keyed dict instead of the ``(demand, row)`` tuple hash
        and LRU bookkeeping of :meth:`virtual_slot`.  Only active on unbounded
        ledgers (no eviction ⇒ slot indices are stable and recency is
        irrelevant); budgeted caches always take the slow path.
        """
        vt = self._vt_base.get(demand)
        if vt is not None:
            return vt
        vt = self.virtual_slot(demand, self.stream.base_cost_row)
        if self.ledger_budget is None:
            self._vt_base[demand] = vt
        return vt

    def warm(self, demand: float) -> bool:
        """Whether a base-row level already has a memoised grid tensor (O(1)).

        Reads the demand → slot and slot → tensor fast maps only, so
        ``False`` means "not known", not "cold".
        """
        vt = self._vt_base.get(demand)
        return vt is not None and vt in self._fast_tensors

    def grid_tensor(self, vt: int, grid) -> np.ndarray:
        """Memoised value tensor of ``g_t`` over ``grid`` at virtual slot ``vt``.

        Computed by the same single-slot query the batch ``run_online`` path
        issues, so the tensor is bit-identical to the batch one; keyed by
        dispatch signature, so sessions (and tenants) sharing a demand level
        share one tensor.  Repeat ``(slot, grid)`` pairs are served from a
        flat per-slot fast map (installed from this method's own result, so
        fast hits return the identical array object).
        """
        fast = self._fast_tensors.get(vt)
        if fast is not None:
            hit = fast.get(id(grid))
            if hit is not None and hit[0] is grid:
                self.tensor_hits += 1
                self.table_gathers += 1
                return hit[1]
        sig, scale = self.dispatcher._slot_signature(vt)
        key = (sig, scale, grid.key)
        tensor = self._tensors.get(key)
        if tensor is None:
            costs = self._solve_tensors([vt], grid)
            return self._install(key, vt, grid, costs[0])
        self.tensor_hits += 1
        self._tensors.move_to_end(key)
        self._fast_install(vt, grid, tensor)
        return tensor

    def row(self, vt: int, configs: np.ndarray) -> np.ndarray:
        """``g`` at virtual slot ``vt`` for a batch of configurations (one ``solve_grid`` row)."""
        costs, _ = self.dispatcher.solve_grid(vt, configs)
        return costs

    def grid_tensors(self, vts, grid) -> set:
        """Solve the missing grid tensors of the slots ``vts`` in one block.

        Each slot's signature is read now and its tensor installed under that
        content key by :meth:`grid_tensor`'s own install step, so the later
        ``grid_tensor`` queries hit.  The block runs only when it pays and
        stays bit-identical: when at least two distinct signatures miss, on
        cost rows whose cells do not depend on their block (no bisection
        rows).  Returns the slots the block solved (empty when it did not
        run).
        """
        grid = self._grids.setdefault(grid.key, grid)
        dispatcher = self.dispatcher
        missing: dict = {}
        signatures = set()
        for vt in vts:
            sig, scale = dispatcher._slot_signature(vt)
            key = (sig, scale, grid.key)
            if key in self._tensors or key in missing or not dispatcher._cellwise(sig[1]):
                continue
            missing[key] = vt
            signatures.add(sig)
        if len(signatures) < 2:
            return set()
        costs = self._solve_tensors(list(missing.values()), grid)
        for (key, vt), row in zip(missing.items(), costs):
            self._install(key, vt, grid, row)
        return set(missing.values())

    def _solve_tensors(self, vts, grid) -> np.ndarray:
        """``g`` over ``grid`` at the slots ``vts``, one cost row per slot.

        A budgeted memo must not mirror whole-grid blocks into the
        dispatcher's unbounded block cache, so it solves unmemoised.
        """
        costs, _ = self.dispatcher.solve_block(
            vts, grid.configs(), memoise=self.tensor_budget_bytes is None
        )
        return costs

    def _install(self, key, vt: int, grid, costs: np.ndarray) -> np.ndarray:
        """Memoise a freshly solved tensor: one miss, LRU-bounded, fast-mapped."""
        self.tensor_misses += 1
        tensor = costs.reshape(grid.shape)
        self._tensors[key] = tensor
        self._tensor_bytes += tensor.nbytes
        self._evict_tensors()
        self._fast_install(vt, grid, tensor)
        return tensor

    def _fast_install(self, vt: int, grid, tensor: np.ndarray) -> None:
        if self.tensor_budget_bytes is None:
            # the entry holds a strong ref to the grid, pinning its id
            self._fast_tensors.setdefault(vt, {})[id(grid)] = (grid, tensor)

    def solve_config(self, vt: int, rounded: np.ndarray) -> DispatchResult:
        """Per-configuration dispatch at a virtual slot — the tick fast path.

        A miss is answered from the slot's solved block when one holds the
        configuration (:meth:`_first_answer`), else by ``dispatcher.solve``
        (the call a tick made before blocks answered), and its
        :class:`DispatchResult` is installed, so a fast hit returns the
        identical object the miss did.
        """
        sub = self._fast_solves.get(vt)
        if sub is None:
            sub = {}
            self._fast_solves[vt] = sub
        key = rounded.tobytes()
        hit = sub.get(key)
        if hit is None:
            hit = sub[key] = self._first_answer(vt, rounded)
        else:
            self.table_gathers += 1
        return hit

    def _first_answer(self, vt: int, rounded: np.ndarray) -> DispatchResult:
        """``g`` and the loads of one configuration at ``vt``, from a block when one answers.

        A fast tensor of ``vt`` whose grid the dispatcher's rule
        (:meth:`~repro.dispatch.allocation.DispatchSolver.block_rows`) lets
        answer gives the cost at the configuration's flat index and the
        load row the solved record holds (a view, no copy): the values
        ``dispatcher.solve`` would gather, bit for bit.  Otherwise the
        solver answers: on bisection rows, for configurations off every
        grid, and on a ``tensor_budget_bytes`` cache, which keeps no fast
        tensors.
        """
        found = self._read_block(vt, rounded[None, :])
        if found is None:
            return self.dispatcher.solve(vt, rounded)
        tensor, (flat,), loads = found
        cost = float(tensor.flat[flat])
        return DispatchResult(cost=cost, loads=loads[flat], feasible=math.isfinite(cost))

    def block_costs(self, vt: int, grid, configs: np.ndarray) -> Optional[np.ndarray]:
        """``g`` at configuration rows of ``grid`` read from ``vt``'s fast tensor, or ``None``.

        Algorithm C's repair reads its sub-slot configurations here (the
        slot's ``block_costs``); ``None`` under the same rule as
        :meth:`_first_answer`, and the repair asks the solver.
        """
        found = self._read_block(vt, configs, grid)
        return None if found is None else found[0].reshape(-1)[found[1]]

    def _read_block(self, vt: int, configs: np.ndarray, grid=None) -> Optional[tuple]:
        """``(tensor, flat indices, load rows)`` of ``configs`` in a fast tensor of ``vt``.

        Tries ``grid``'s fast tensor (each of the slot's when ``grid`` is
        ``None``); an answer read counts in ``table_gathers``.
        """
        for key, (block_grid, tensor) in self._fast_tensors.get(vt, {}).items():
            if grid is not None and key != id(grid):
                continue
            found = self.dispatcher.block_rows(vt, block_grid, configs)
            if found is not None:
                self.table_gathers += 1
                return tensor, found[0], found[1]
        return None

    def prewarm(self, levels, cost_row=None, grid=None) -> None:
        """Solve a known demand alphabet into the fast maps ahead of the ticks.

        For every level of a known demand alphabet (``quantise_trace`` bins),
        runs what a cold tick would — the whole-grid tensor build on ``grid``
        (default: the full fleet grid implied by the server counts) and each
        configuration's first answer (:meth:`solve_config`'s miss, read from
        that tensor's block) — and installs the results into the fast maps,
        so first-seen demand levels stop paying dispatch solves on the tick
        path.

        Because every entry is produced by the cold path itself, serving ticks
        from a prewarmed cache is bit-identical to a cold replay — which the
        table-vs-solver equality sweep (``tests/test_hotpath.py``) gates for
        every registered scenario family.
        """
        from ..offline.state_grid import StateGrid

        if grid is None:
            grid = StateGrid.full(self.stream.m)
        row = self.stream.base_cost_row if cost_row is None else tuple(cost_row)
        configs = grid.configs()
        levels = [float(v) for v in levels]
        for level in levels:
            vt = self.virtual_slot(level, row)
            if cost_row is None and self.ledger_budget is None:
                self._vt_base.setdefault(level, vt)
            self.grid_tensor(vt, grid)
            sub = self._fast_solves.setdefault(vt, {})
            for config in configs:
                rounded = np.asarray(config, dtype=int)
                key = rounded.tobytes()
                if key not in sub:
                    sub[key] = self._first_answer(vt, rounded)
        self.prewarmed_levels = max(self.prewarmed_levels, len(levels))

    def _evict_tensors(self) -> None:
        if self.tensor_budget_bytes is None:
            return
        while self._tensor_bytes > self.tensor_budget_bytes and len(self._tensors) > 1:
            _, evicted = self._tensors.popitem(last=False)
            self._tensor_bytes -= evicted.nbytes
            self.tensor_evictions += 1

    def counters(self) -> dict:
        """JSON-safe sharing counters (dispatch stats + memo hits + evictions).

        The dict the cache's collector mirrors into :attr:`metrics`
        (:data:`CACHE_SERIES` names each key's series kind).
        """
        stats = self.dispatcher.stats
        return {
            "virtual_slots": self.virtual_slots,
            "tensor_hits": self.tensor_hits,
            "tensor_misses": self.tensor_misses,
            "tensor_evictions": self.tensor_evictions,
            "tensor_bytes": self._tensor_bytes,
            "ledger_evictions": self.ledger_evictions,
            "table_gathers": self.table_gathers,
            "prewarmed_levels": self.prewarmed_levels,
            "block_calls": stats.block_calls,
            "slot_queries": stats.slot_queries,
            "unique_solves": stats.unique_solves,
            "cache_hit_rate": round(stats.cache_hit_rate, 6),
        }


# --------------------------------------------------------------------------- #
# Session
# --------------------------------------------------------------------------- #


@dataclass(frozen=True, eq=False)
class FleetState:
    """What the controller decided for one tick, plus running telemetry."""

    t: int
    demand: float
    config: np.ndarray
    operating_cost: float
    switching_cost: float
    cumulative_cost: float
    loads: np.ndarray
    feasible: bool
    #: End-to-end ``observe`` wall time in integer nanoseconds
    #: (``time.perf_counter_ns``): sub-50µs ticks would be quantisation noise
    #: in float-seconds arithmetic accumulated over long windows.
    latency_ns: int
    #: Optimal cost of the observed prefix (``nan`` unless regret tracking is on).
    prefix_optimum_cost: float = float("nan")
    #: Demand actually dispatched this tick (== ``demand`` unless load was shed).
    served_demand: float = float("nan")
    #: Offered demand that could not be served this tick (shed mode only).
    shed_demand: float = 0.0
    #: Whether this tick violated the SLA (shed load or clamped configuration).
    sla_violation: bool = False
    #: Machines the environment forced down below the algorithm's choice.
    forced_down: int = 0

    @property
    def tick_cost(self) -> float:
        return self.operating_cost + self.switching_cost

    @property
    def latency_seconds(self) -> float:
        """Tick latency converted to seconds at read time."""
        return self.latency_ns * 1e-9

    @property
    def regret(self) -> float:
        """Cumulative online cost minus the offline optimum of the observed prefix."""
        return self.cumulative_cost - self.prefix_optimum_cost

    def as_row(self) -> dict:
        """Flat JSON-safe telemetry row, the dict view of one JSONL line per tick.

        :meth:`json_row` encodes the same row without building this dict;
        this view is the reference its tests compare against.
        """
        row = {
            "t": int(self.t),
            "demand": float(self.demand),
            "config": [int(v) for v in self.config],
            "operating_cost": float(self.operating_cost),
            "switching_cost": float(self.switching_cost),
            "tick_cost": float(self.tick_cost),
            "cumulative_cost": float(self.cumulative_cost),
            "loads": [float(v) for v in self.loads],
            "feasible": bool(self.feasible),
            "sla_violation": bool(self.sla_violation),
            "latency_ms": round(self.latency_ns * 1e-6, 6),
        }
        if self.shed_demand > 0:
            row["served_demand"] = float(self.served_demand)
            row["shed_demand"] = float(self.shed_demand)
        if self.forced_down > 0:
            row["forced_down"] = int(self.forced_down)
        if np.isfinite(self.prefix_optimum_cost):
            row["prefix_optimum_cost"] = float(self.prefix_optimum_cost)
            row["regret"] = float(self.regret)
        return row

    def json_row(self, stamp: str) -> str:
        """``json.dumps`` of :meth:`as_row` extended by ``stamp``, without the dict.

        ``stamp`` is already-encoded members (``', "schema": 1'`` ...) that
        follow the row's own keys; :meth:`TelemetryWriter.write
        <repro.serve.telemetry.TelemetryWriter.write>` passes its
        ``"schema"`` and ``"tenant"``.  The text is byte-equal to
        ``json.dumps`` of the row dict those members extend: the same keys in
        the same order, :meth:`as_row`'s conversions, ``float.__repr__`` for
        finite floats and JSON's ``NaN``/``Infinity``/``-Infinity`` for the
        rest.
        """
        f = _json_float
        line = (
            f'{{"t": {int(self.t)}, "demand": {f(self.demand)}, '
            f'"config": [{", ".join([str(int(v)) for v in self.config.tolist()])}], '
            f'"operating_cost": {f(self.operating_cost)}, '
            f'"switching_cost": {f(self.switching_cost)}, '
            f'"tick_cost": {f(self.tick_cost)}, '
            f'"cumulative_cost": {f(self.cumulative_cost)}, '
            f'"loads": [{", ".join(map(f, self.loads.tolist()))}], '
            f'"feasible": {"true" if self.feasible else "false"}, '
            f'"sla_violation": {"true" if self.sla_violation else "false"}, '
            f'"latency_ms": {f(round(self.latency_ns * 1e-6, 6))}'
        )
        if self.shed_demand > 0:
            line += (
                f', "served_demand": {f(self.served_demand)}'
                f', "shed_demand": {f(self.shed_demand)}'
            )
        if self.forced_down > 0:
            line += f', "forced_down": {int(self.forced_down)}'
        if math.isfinite(self.prefix_optimum_cost):
            line += (
                f', "prefix_optimum_cost": {f(self.prefix_optimum_cost)}'
                f', "regret": {f(self.regret)}'
            )
        return line + stamp + "}"


#: ``json.dumps``'s spellings of the floats ``repr`` writes as ``nan``/``inf``.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(value) -> str:
    """``json.dumps(float(value))``: ``float.__repr__``, or JSON's non-finite spelling."""
    text = repr(float(value))
    return _JSON_NONFINITE.get(text, text)


class ControllerSession:
    """A long-lived streaming controller around one online algorithm.

    Parameters
    ----------
    algorithm:
        An :class:`OnlineAlgorithm` instance, a registry kind (``"A"``, ...)
        or a ``{"kind", "params"}`` dict — resolved by
        :func:`build_serve_algorithm`.
    server_types:
        The tenant's fleet.  Omit it when ``cache`` is given (the cache's
        fleet is used).
    cache:
        A :class:`ServeCache` to share with other sessions over the same
        fleet geometry; a private cache is created when omitted.
    track_regret:
        Report the optimal cost of the observed prefix, ``OPT(I_t)``, in
        every :class:`FleetState` (regret telemetry), read from the
        algorithm when its state holds it (exact A, B and LCP:
        :meth:`~repro.online.base.OnlineAlgorithm.prefix_optimum_cost`).
        Otherwise (C, the baselines, ``gamma`` grids) a private exact
        :class:`DPPrefixTracker` costs one extra DP transition per tick.
    degradation:
        ``"strict"`` (default) raises on infeasible ticks — demand above the
        tick's fleet capacity, or an algorithm configuration exceeding the
        available machine counts — which is the right behaviour for replay
        gates, where infeasibility means a bug.  ``"shed"`` degrades
        gracefully instead: excess demand is shed deterministically (the
        fleet serves exactly its capacity), configurations are clamped to the
        available counts, and each such tick is accounted as an SLA violation
        in :class:`FleetState` and the session counters.  This is the mode
        chaos injection runs under — a mid-stream fault must cost SLA
        accounting, not a crashed serving process.
    history:
        ``True`` (default) keeps the full per-tick record — every chosen
        configuration and every tick latency — which is what the replay
        gates compare and what :attr:`schedule` serves.  ``history=False``
        is the *compact* mode for month-scale controllers: only
        restore-critical state is kept (tick cursor, previous configuration,
        cumulative costs, SLA counters, algorithm/tracker state) plus a
        bounded window of recent latencies for the percentiles, so both the
        resident session and its :meth:`checkpoint` payload stay O(1) in the
        stream length instead of O(T).  The algorithms hold decision state
        only: the latest tick's analysis facts are the one
        ``algorithm.last_decision`` record, overwritten every tick.  On a
        quantised stream over a prewarmed cache nothing else grows per tick;
        on continuous demand an unbudgeted cache, and this session's slot
        templates, still keep entries per distinct demand level (a cache
        ``ledger_budget`` and ``tensor_budget_bytes`` bound them).
    name:
        Tenant identifier stamped into telemetry rows.
    """

    def __init__(
        self,
        algorithm: Union[OnlineAlgorithm, str, dict] = "A",
        server_types=None,
        *,
        cache: Optional[ServeCache] = None,
        track_regret: bool = False,
        degradation: str = "strict",
        history: bool = True,
        name: str = "tenant",
        tracer=None,
    ):
        if degradation not in DEGRADATION_MODES:
            raise ValueError(
                f"degradation must be one of {DEGRADATION_MODES}, got {degradation!r}"
            )
        if cache is None:
            if server_types is None:
                raise ValueError("give server_types, a cache, or both")
            cache = ServeCache(server_types)
        elif server_types is not None:
            if fleet_signature(server_types) != cache.signature:
                raise ValueError(
                    "server_types do not match the shared cache's fleet geometry"
                )
        self.cache = cache
        self.name = str(name)
        # kept so checkpoint_roundtrip can build a genuinely fresh algorithm
        # when the session was constructed from a registry kind / spec dict
        self._algorithm_source = algorithm
        self.algorithm = build_serve_algorithm(algorithm)
        stream = cache.stream
        self.context = OnlineContext(
            server_types=stream.server_types,
            beta=stream.beta,
            zmax=stream.zmax,
            base_counts=stream.m,
        )
        self.algorithm.start(self.context)
        self.track_regret = bool(track_regret)
        # the private value stream, kept only when the algorithm holds none
        self._regret_tracker = (
            DPPrefixTracker()
            if self.track_regret and math.isnan(self.algorithm.prefix_optimum_cost())
            else None
        )
        self.degradation = degradation
        self.history = bool(history)
        self._t = 0
        self._previous = np.zeros(stream.d, dtype=int)
        self._configs: List[np.ndarray] = []
        self._base_capacity = float(np.sum(stream.m * stream.zmax))
        self._beta_list = [float(b) for b in stream.beta]
        # Hot-path SlotInfo reuse: registry-built algorithms (str/dict source)
        # are known not to retain slot references between steps, so the
        # session keeps one frozen SlotInfo per virtual slot and only advances
        # its ``t`` field each tick.  Custom algorithm *objects* get a fresh
        # SlotInfo per tick (they may legally stash the slot).
        self._slot_templates: dict = {}
        self._reuse_slots = isinstance(algorithm, (str, dict))
        # integer perf_counter_ns samples; converted to seconds at report time
        self._latencies = [] if self.history else deque(maxlen=COMPACT_LATENCY_WINDOW)
        self._cum_operating = 0.0
        self._cum_switching = 0.0
        self._feasible = True
        self._sla_violations = 0
        self._shed_total = 0.0
        self._forced_downs = 0
        # Observability: per-tick arithmetic stays on plain attributes (the
        # microsecond hot path), and a weakly-held collector mirrors them
        # into tenant-labelled series of the cache's registry at
        # snapshot/scrape time — including the tick-latency histogram over
        # the retained window.
        self.metrics = cache.metrics
        self.metrics.register_collector(self.collect_metrics)
        #: Optional :class:`~repro.serve.trace.TickTracer`; ``None`` (the
        #: default) costs a branch per phase of ``observe``.
        self._tracer = tracer

    # ------------------------------------------------------------- properties
    @property
    def d(self) -> int:
        return self.cache.stream.d

    @property
    def ticks(self) -> int:
        """Number of ticks observed so far."""
        return self._t

    @property
    def cumulative_cost(self) -> float:
        return self._cum_operating + self._cum_switching

    @property
    def sla_violations(self) -> int:
        """Ticks that shed load or were forced below the chosen configuration."""
        return self._sla_violations

    @property
    def shed_demand_total(self) -> float:
        """Total offered demand shed so far (shed mode only; 0.0 under strict)."""
        return self._shed_total

    @property
    def forced_downs(self) -> int:
        """Total machine-slots the environment forced below the algorithm's choice."""
        return self._forced_downs

    @property
    def schedule(self) -> Schedule:
        """The configurations chosen so far, as a batch-layer :class:`Schedule`."""
        if not self.history and self._t > 0:
            raise ValueError(
                "this session runs history=False (compact mode): per-tick "
                "configurations are not retained, only the restore-critical state"
            )
        if not self._configs:
            return Schedule.empty(0, self.d)
        return Schedule(np.stack(self._configs))

    @property
    def latencies_ns(self) -> np.ndarray:
        """Per-tick wall latency in integer nanoseconds, as metered
        (a bounded recent window under ``history=False``)."""
        return np.asarray(list(self._latencies), dtype=np.int64)

    @property
    def latencies_seconds(self) -> np.ndarray:
        """Per-tick wall latency of every ``observe`` call in seconds,
        converted from the stored nanosecond samples at read time (a bounded
        recent window under ``history=False``)."""
        return np.asarray(list(self._latencies), dtype=float) * 1e-9

    # ------------------------------------------------------------------ ticks
    def observe(
        self, demand: float, cost_row=None, counts=None, *, charge_ns: int = 0
    ) -> FleetState:
        """Feed the next demand tick and return the controller's decision.

        ``cost_row`` optionally reveals this tick's operating-cost functions
        (time-of-day tariffs — Section 3 of the paper) and ``counts`` this
        tick's available fleet (maintenance windows — Section 4.3); both
        default to the static fleet description.  Only *current*-tick
        information ever reaches the algorithm.

        Infeasible ticks — demand above capacity, or a configuration above
        the available counts — raise under ``degradation="strict"`` and shed
        deterministically under ``"shed"`` (see the class docstring).

        The tick is three phases — :meth:`prepare_tick` (validation, shed
        accounting, ledger slot, SlotInfo), :meth:`decide_tick`
        (``algorithm.step`` plus integrality/fleet-limit enforcement) and
        :meth:`commit_tick` (dispatch solve, switching cost, counters) — run
        back to back here.  The serve engine's cohorts replace the first two
        with one call of the class's lane rule (the rule ``step`` runs on one
        lane) and enter at :meth:`commit_tick`; the phase boundaries are
        state-free, so both paths are bit-identical.

        With a :class:`~repro.serve.trace.TickTracer` attached, every
        ``trace_every``-th tick records a ``prepare``, a ``decide[cold]`` or
        ``decide[table]`` and a ``commit`` span (``cold`` when the solver's
        ``unique_solves`` moved).  Tracing only reads clocks and counters, so
        traced replays stay bit-identical.

        ``charge_ns`` is work done for this tick before the call and added to
        its latency, not to its spans: the serve engine charges each member
        of a round's dispatch block its share of the block's wall
        (:meth:`~repro.serve.engine.ServeEngine.resolve`), as it charges
        cohort members, so a tick's latency still counts the solve it
        needed.
        """
        tracer = self._tracer
        sampled = tracer is not None and tracer.should_sample()
        t0 = time.perf_counter_ns()
        demand, served, shed, counts_t, vt, slot = self.prepare_tick(
            demand, cost_row, counts
        )
        if sampled:
            solves = self.cache.dispatcher.stats.unique_solves
            t1 = time.perf_counter_ns()
        rounded, r_list, forced = self.decide_tick(slot, counts_t)
        if sampled:
            t2 = time.perf_counter_ns()
        state = self.commit_tick(
            demand, served, shed, vt, rounded, r_list, forced,
            counts=counts_t, started_ns=t0 - charge_ns,
        )
        if sampled:
            t3 = time.perf_counter_ns()
            cold = self.cache.dispatcher.stats.unique_solves != solves
            tick = state.t
            tracer.record("prepare", self.name, tick, t0, t1)
            tracer.record("decide[cold]" if cold else "decide[table]", self.name, tick, t1, t2)
            tracer.record("commit", self.name, tick, t2, t3)
        return state

    def collect_metrics(self) -> None:
        """Scrape-time sync of the session's counters into the registry.

        Registered weakly at construction: live sessions surface
        tenant-labelled series (tick cursor, SLA counters, the tick-latency
        histogram over the retained window) whenever the registry snapshots;
        dead sessions cost nothing.  Their series keep the last scraped
        values, and past the series cap fold into the ``evicted`` aggregate
        every later snapshot keeps.
        """
        metrics = self.metrics
        label = {"tenant": self.name}
        metrics.counter("ticks", **label).set(self._t)
        metrics.counter("sla_violations", **label).set(self._sla_violations)
        metrics.counter("shed_demand", **label).set(round(self._shed_total, 9))
        metrics.counter("forced_downs", **label).set(self._forced_downs)
        metrics.gauge("cumulative_cost", deterministic=True, **label).set(
            round(self.cumulative_cost, 9)
        )
        hist = metrics.histogram("tick_latency_ns", **label)
        ns = self.latencies_ns
        idx = np.searchsorted(
            np.asarray(hist.bounds, dtype=np.int64), ns, side="left"
        )
        counts = np.bincount(idx, minlength=len(hist.bounds) + 1)
        hist.load(counts.tolist(), int(ns.sum()), int(ns.size))

    def prepare_tick(self, demand: float, cost_row=None, counts=None):
        """Phase 1 of a tick: validate, resolve shed/capacity, pin the ledger slot.

        Returns ``(demand, served, shed, counts_t, vt, slot)``.  ``slot`` is
        the :class:`SlotInfo` the algorithm will step on.  The serve engine's
        cohorts do not call this: they validate their demands and resolve
        their ledger slots themselves, and never materialise per-tenant slots.
        """
        demand, served, shed, row, counts_t = self.admit(demand, cost_row, counts)
        cache = self.cache
        if cost_row is None:
            vt = cache.virtual_slot_base(served)
        else:
            vt = cache.virtual_slot(served, row)

        # a virtual slot pins (served, row), so its SlotInfo is reusable tick
        # to tick — only ``t`` advances (bounded-ledger caches recycle vt ids,
        # which would leave templates stale, hence the unbounded-only gate)
        reusable = (
            self._reuse_slots and counts is None and cache.ledger_budget is None
        )
        slot = self._slot_templates.get(vt) if reusable else None
        if slot is not None:
            object.__setattr__(slot, "t", self._t)
        else:
            slot = self._slot(vt, served, row, counts_t)
            if reusable:
                self._slot_templates[vt] = slot
        return demand, served, shed, counts_t, vt, slot

    def _slot(self, vt: int, served: float, row: tuple, counts_t: np.ndarray) -> SlotInfo:
        """The current tick's :class:`SlotInfo`, reading the cache at ledger slot ``vt``."""
        stream = self.cache.stream
        return SlotInfo.reading(
            self.cache,
            vt,
            t=self._t,
            demand=served,
            cost_functions=row,
            counts=counts_t,
            beta=stream.beta,
            zmax=stream.zmax,
        )

    def cold_tensor(self, demand: float, cost_row=None, counts=None) -> Optional[tuple]:
        """``(ledger slot, grid)`` of a tick whose grid tensor may be unsolved.

        What the serve engine's round block asks of each arrival before any
        session observes.  ``None`` when the tick is known warm (two O(1)
        lookups, :meth:`ServeCache.warm`, before anything is built), when
        :meth:`prepare_tick` would reject it, when the algorithm names no
        :meth:`~repro.online.base.OnlineAlgorithm.evaluation_grid`, when its
        cost row is unhashable (each resolution gets a fresh slot, so a
        tensor solved now would never be read), and on budgeted caches,
        where a block adds solves: under ``ledger_budget`` resolving the
        round's slots first recycles slots before their tensors are read,
        and under ``tensor_budget_bytes`` the block is solved unmemoised, so
        the greedy baselines, which read ``g_t`` through the dispatcher's
        memo, solve their rows again.  Otherwise the slot is resolved here
        as :meth:`prepare_tick` will resolve it.
        """
        cache = self.cache
        if cache.ledger_budget is not None or cache.tensor_budget_bytes is not None:
            return None
        if cost_row is None and counts is None and cache.warm(demand):
            return None
        try:
            _, served, _, row, counts_t = self.admit(demand, cost_row, counts)
            grid = self.algorithm.evaluation_grid(counts_t)
        except (TypeError, ValueError):  # observe raises it in its turn
            return None
        if grid is None:
            return None
        if cost_row is None:
            return cache.virtual_slot_base(served), grid
        try:
            hash(row)
        except TypeError:
            return None
        return cache.virtual_slot(served, row), grid

    def admit(self, demand: float, cost_row=None, counts=None) -> tuple:
        """Validate a tick and resolve its capacity: ``(demand, served, shed, row, counts_t)``.

        Raises on an invalid demand, cost row or counts, and on demand above
        the tick's capacity under ``"strict"``; under ``"shed"`` the fleet
        serves exactly its capacity and ``shed`` is the rest.
        """
        stream = self.cache.stream
        demand = float(demand)
        if not math.isfinite(demand) or demand < 0:
            raise ValueError(f"demand must be finite and non-negative, got {demand!r}")
        if cost_row is None:
            row = stream.base_cost_row
        else:
            row = tuple(cost_row)
            if len(row) != stream.d:
                raise ValueError(f"cost_row must have {stream.d} entries, got {len(row)}")
        if counts is None:
            counts_t = stream.m
            capacity = self._base_capacity
        else:
            counts_t = np.asarray(counts, dtype=int)
            if counts_t.shape != (stream.d,):
                raise ValueError(f"counts must have shape ({stream.d},), got {counts_t.shape}")
            capacity = float(np.sum(counts_t * stream.zmax))
        served = demand
        shed = 0.0
        if demand > capacity + 1e-9:
            if self.degradation == "strict":
                raise ValueError(
                    f"tick {self._t}: demand {demand:g} exceeds the fleet capacity {capacity:g}"
                )
            # deterministic load shedding: serve exactly the capacity, account
            # for the remainder — the stream keeps flowing, telemetry records
            # the violation
            served = capacity
            shed = demand - capacity
        return demand, served, shed, row, counts_t

    def decide_tick(self, slot, counts_t):
        """Phase 2 of a tick: step the algorithm and enforce the decision contract.

        Returns ``(rounded, r_list, forced)`` — the integral configuration
        actually committed, its plain-list mirror, and how many machine-slots
        the environment forced below the algorithm's choice (shed mode).
        """
        return self.check_choice(self.algorithm.step(slot), counts_t)

    def check_choice(self, choice, counts_t):
        """The decision contract of :meth:`decide_tick`, on a ready choice.

        Checks shape, integrality and sign, and enforces the fleet limits
        ``counts_t`` (raising under ``"strict"``, forcing machines down under
        ``"shed"``).  The serve engine's cohorts call it on a lane rule's
        choice that leaves ``[0, counts_t]``.
        """
        stream = self.cache.stream
        choice = np.asarray(choice)
        if choice.shape != (stream.d,):
            raise ValueError(
                f"{self.algorithm.name}: step() must return a configuration of shape "
                f"({stream.d},), got {choice.shape}"
            )
        if choice.dtype.kind in "iu":
            # integer-dtype choices (every registry algorithm) skip the
            # rint/allclose integrality round-trip on the hot path
            rounded = choice.astype(int)
        else:
            rounded = np.rint(choice).astype(int)
            if not np.allclose(choice, rounded, atol=1e-9):
                raise ValueError(
                    f"{self.algorithm.name}: returned a non-integral configuration {choice}"
                )
        r_list = rounded.tolist()
        if min(r_list) < 0:
            raise ValueError(
                f"{self.algorithm.name}: configuration {rounded} has negative entries "
                f"at tick {self._t}"
            )
        forced = 0
        c_list = counts_t.tolist()
        if any(r > c for r, c in zip(r_list, c_list)):
            if self.degradation == "strict":
                raise ValueError(
                    f"{self.algorithm.name}: configuration {rounded} violates fleet limits "
                    f"{counts_t} at tick {self._t}"
                )
            # the environment took machines away under the algorithm's feet
            # (unplanned shrink): force the extra ones down now — the
            # algorithm's internal state keeps wanting them and will power
            # them straight back up when capacity recovers
            forced = int(np.sum(np.maximum(rounded - counts_t, 0)))
            rounded = np.minimum(rounded, counts_t)
            r_list = rounded.tolist()
        return rounded, r_list, forced

    def commit_tick(
        self,
        demand: float,
        served: float,
        shed: float,
        vt: int,
        rounded: np.ndarray,
        r_list,
        forced: int = 0,
        *,
        counts=None,
        started_ns=None,
        emit: bool = True,
    ) -> Optional[FleetState]:
        """Phase 3 of a tick: price, account, advance — the pure-state-update half.

        Reads the configuration's dispatch (:meth:`ServeCache.solve_config`:
        from the tick's solved grid block on a cold tick, memoised, so a
        cohort's commit returns the identical ``DispatchResult`` object an
        observed tick would), the switching-cost
        update, SLA/cumulative counters and the history/previous/tick-cursor
        advance.  The tick's latency runs from ``started_ns`` to the end of
        this commit (0 when ``started_ns`` is ``None``); the serve engine
        backdates ``started_ns`` by each cohort member's share of its cohort.
        ``emit=False`` skips building the :class:`FleetState` (telemetry off)
        and returns ``None``.  A regret-tracked session reads ``OPT(I_t)``
        from its algorithm, or steps its private tracker on ledger slot
        ``vt`` at the tick's available ``counts`` (default: the static fleet).
        """
        result = self.cache.solve_config(vt, rounded)
        operating = float(result.cost)
        if not math.isfinite(operating):
            self._feasible = False
        switching = 0.0
        for b, r, p in zip(self._beta_list, r_list, self._previous.tolist()):
            if r > p:
                switching += b * (r - p)

        prefix_opt = float("nan")
        if self.track_regret:
            tracker = self._regret_tracker
            if tracker is None:
                prefix_opt = self.algorithm.prefix_optimum_cost()
            else:
                stream = self.cache.stream
                counts_t = stream.m if counts is None else counts
                tracker.observe(self._slot(vt, served, stream.cost_row(vt), counts_t))
                prefix_opt = tracker.prefix_optimum_cost()

        violation = shed > 0 or forced > 0
        if violation:
            self._sla_violations += 1
        self._shed_total += shed
        self._forced_downs += forced
        self._cum_operating += operating
        self._cum_switching += switching
        if self.history:
            self._configs.append(rounded)
        self._previous = rounded
        self._t += 1
        latency_ns = 0 if started_ns is None else time.perf_counter_ns() - started_ns
        self._latencies.append(latency_ns)
        if not emit:
            return None
        return FleetState(
            t=self._t - 1,
            demand=demand,
            config=rounded,
            operating_cost=operating,
            switching_cost=switching,
            cumulative_cost=self.cumulative_cost,
            loads=result.loads,
            feasible=self._feasible,
            latency_ns=latency_ns,
            prefix_optimum_cost=prefix_opt,
            served_demand=served,
            shed_demand=shed,
            sla_violation=violation,
            forced_down=forced,
        )

    def finish(self) -> None:
        """Forward the end-of-stream hook to the wrapped algorithm."""
        self.algorithm.finish()

    # ---------------------------------------------------------------- summary
    def latency_summary(self) -> dict:
        """p50/p95/p99/mean/max tick latency in milliseconds (+ histogram)."""
        from .telemetry import latency_percentiles

        return latency_percentiles(latencies_ns=self.latencies_ns)

    def summary(self) -> dict:
        """JSON-safe session summary (telemetry footer / bench row)."""
        return {
            "tenant": self.name,
            "algorithm": self.algorithm.name,
            "ticks": self.ticks,
            "cumulative_cost": round(self.cumulative_cost, 9),
            "operating_cost": round(self._cum_operating, 9),
            "switching_cost": round(self._cum_switching, 9),
            "feasible": self._feasible,
            "degradation": self.degradation,
            "sla_violations": self._sla_violations,
            "shed_demand": round(self._shed_total, 9),
            "forced_downs": self._forced_downs,
            "latency": self.latency_summary(),
        }

    # ----------------------------------------------------------- checkpointing
    def checkpoint(self) -> dict:
        """JSON-serialisable snapshot of the whole session.

        Captures the tick cursor, cumulative costs, the chosen-configuration
        history and every decision-relevant byte of algorithm/tracker state
        (via the ``state_dict`` protocol).  The fleet description itself is
        *not* serialised — cost functions are code, not data — so restoring
        means: rebuild the session from the same configuration (scenario
        name, algorithm kind), then :meth:`restore` the payload.

        The payload carries an integrity ``checksum`` (CRC-32 over the
        canonical JSON of everything else); :meth:`restore` rejects payloads
        whose content no longer matches it with
        :class:`CheckpointCorruptError`.

        ``history=False`` sessions write *compact* checkpoints: the per-tick
        ``configs`` and ``latencies_ns`` arrays — the only O(T) fields — are
        dropped, leaving a payload whose size is constant in the stream
        length while still restoring to a bit-identical continuation (the
        algorithm state and the previous configuration are what the next
        decision reads; the history is telemetry).  The history is copied in
        one pass — one ``tolist()`` per configuration, one ``list()`` of the
        latencies: the session keeps configurations as int arrays and
        latencies as Python ints, so the payload, its checksum and the file
        bytes are those of an ``int()`` per element.
        """
        payload = {
            "version": CHECKPOINT_VERSION,
            "tenant": self.name,
            "algorithm": self.algorithm.name,
            "history": self.history,
            "tick": self._t,
            "previous_config": [int(v) for v in self._previous],
            "cum_operating": self._cum_operating,
            "cum_switching": self._cum_switching,
            "feasible": self._feasible,
            "degradation": self.degradation,
            "sla_violations": self._sla_violations,
            "shed_total": self._shed_total,
            "forced_downs": self._forced_downs,
            "algorithm_state": self.algorithm.state_dict(),
            "track_regret": self.track_regret,
            "regret_state": (
                None if self._regret_tracker is None else self._regret_tracker.state_dict()
            ),
        }
        if self.history:
            payload["configs"] = [c.tolist() for c in self._configs]
            payload["latencies_ns"] = list(self._latencies)
        payload["checksum"] = payload_checksum(payload)
        return payload

    def restore(self, payload: dict) -> "ControllerSession":
        """Load a :meth:`checkpoint` payload into this (freshly built) session.

        Version is checked first (an old payload fails with a version message,
        not a checksum one), then the integrity checksum — a payload without
        one, or whose bytes changed since :meth:`checkpoint`, raises
        :class:`CheckpointCorruptError`.  The session takes the payload's
        ``history`` and ``track_regret``; a regret payload without a
        ``regret_state`` needs an algorithm that holds ``OPT(I_t)`` itself.
        """
        if payload.get("version") != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {payload.get('version')!r} "
                f"(expected {CHECKPOINT_VERSION})"
            )
        _verify_checksum(payload, "checkpoint")
        if payload.get("algorithm") != self.algorithm.name:
            raise ValueError(
                f"checkpoint was taken from algorithm {payload.get('algorithm')!r} "
                f"but this session runs {self.algorithm.name!r}"
            )
        self._t = int(payload["tick"])
        self._previous = np.asarray(payload["previous_config"], dtype=int)
        # a compact payload restored into any session leaves it compact:
        # the history it would serve was never captured
        self.history = bool(payload["history"])
        self._cum_operating = float(payload["cum_operating"])
        self._cum_switching = float(payload["cum_switching"])
        self._feasible = bool(payload["feasible"])
        self.degradation = payload["degradation"]
        self._sla_violations = int(payload["sla_violations"])
        self._shed_total = float(payload["shed_total"])
        self._forced_downs = int(payload["forced_downs"])
        if self.history:
            self._configs = [np.asarray(c, dtype=int) for c in payload["configs"]]
            self._latencies = [int(v) for v in payload["latencies_ns"]]
        else:
            self._configs = []
            self._latencies = deque(maxlen=COMPACT_LATENCY_WINDOW)
        self.algorithm.load_state_dict(payload["algorithm_state"])
        # regret tracking follows the payload too: its private stream, or
        # ``null`` when the algorithm's own state holds OPT(I_t)
        self.track_regret = bool(payload["track_regret"])
        regret_state = payload["regret_state"]
        self._regret_tracker = None
        if regret_state is not None:
            self._regret_tracker = DPPrefixTracker()
            self._regret_tracker.load_state_dict(regret_state)
        elif self.track_regret and math.isnan(self.algorithm.prefix_optimum_cost()):
            raise ValueError(
                "checkpoint tracks regret without a regret stream, and "
                f"{self.algorithm.name} holds no prefix optimum of its own"
            )
        return self

    def checkpoint_roundtrip(self, reuse_cache: bool = False) -> "ControllerSession":
        """Serialise through actual JSON text and restore into a fresh session.

        This is the move the serve-smoke gate and ``repro serve replay
        --checkpoint-at`` both make: the round-trip covers the JSON
        encode/decode, not just the in-memory dict.  The fresh session gets a
        cold cache by default (simulating a process restart); ``reuse_cache``
        keeps the warm shared cache instead.  When the session was built from
        an :class:`OnlineAlgorithm` *object* (not a registry kind), that
        object is reused — its state is overwritten by the restore.
        """
        payload = json.loads(json.dumps(self.checkpoint()))
        kwargs = dict(
            track_regret=self.track_regret,
            degradation=self.degradation,
            history=self.history,
            name=self.name,
            tracer=self._tracer,
        )
        if reuse_cache:
            fresh = ControllerSession(self._algorithm_source, cache=self.cache, **kwargs)
        else:
            fresh = ControllerSession(
                self._algorithm_source, self.cache.server_types, **kwargs
            )
        return fresh.restore(payload)
