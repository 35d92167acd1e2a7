"""Load dispatching: evaluating the operating cost ``g_t(x)``.

For a server configuration ``x = (x_1, ..., x_d)`` and job volume ``lambda_t``,
equation (1) of the paper defines the operating cost of a time slot as

``g_t(x) = min_{z in Z} sum_j g_{t,j}(x_j, z_j)``,
``g_{t,j}(x, z) = x * f_{t,j}(lambda_t * z / x)``  (``inf`` if ``x = 0`` and ``lambda_t z > 0``),

where ``Z`` is the probability simplex over the ``d`` types.  By Lemma 2
(Jensen), splitting the volume assigned to a type equally among its active
servers is optimal, which is why the per-type cost only depends on the *total*
volume ``w_j = lambda_t z_j`` routed to the type.

Writing ``h_j(w) = x_j * f_{t,j}(w / x_j)``, evaluating ``g_t(x)`` is a separable
convex resource-allocation problem

``min sum_j h_j(w_j)   s.t.  sum_j w_j = lambda_t,  0 <= w_j <= c_j``,

with the type volume capped at ``c_j = min(x_j * zmax_j, lambda_t)``.  The KKT
conditions equalise marginal costs: there is a multiplier ``mu`` with
``w_j(mu) = x_j * clip((f_{t,j}')^{-1}(mu), 0, s_j)``, where ``s_j = c_j / x_j``
is the per-server load at which type ``j`` saturates, and the total
allocation ``W(mu) = sum_j w_j(mu)`` is non-decreasing in ``mu``.

Event sweep
-----------
Every built-in cost family describes its marginal ``f'`` as consecutive
pieces (:attr:`~repro.core.cost_functions.CostFunction.marginal_pieces`):
*steps*, on which ``f'`` stays constant while the piece fills, and *ramps*,
on which it rises.  Cut at the saturation load ``s_j``, a step adds a jump to
``W`` at its marginal and an affine ramp adds a constant slope between its
start and end marginals, so ``W`` is piecewise affine.  Per (demand,
configuration) cell the solver sorts these events once, reads ``W`` at every
event from cumulative sums of slopes and jumps, locates the event where
``W`` first reaches ``lambda_t`` and solves for ``mu*`` in closed form: inside
a ramp segment by affine interpolation, at a step by giving the stepping
types the remainder of the demand.

The one curved family, :class:`~repro.core.cost_functions.PowerCost` with an
exponent outside ``{1, 2}``, adds its exact volume at every event, and a
segment it runs through is refined by a safeguarded Newton method confined
to that segment.  Every cell is computed from its own data alone, so its cost
and loads are bit-identical whether it is solved on its own, in a grid or in
a block of slots.

Cost functions without pieces (:class:`~repro.core.cost_functions.CallableCost`)
keep a vectorised dual bisection on the inverse marginals: the
bracket starts at the derivative bound ``max_j f'_j(min(zmax_j, lambda_t))``,
and because ``mu*`` is non-decreasing in the demand each iteration
propagates brackets across the sorted demand rows.

Batched engine
--------------
The offline DP needs ``g_t(x)`` for every vertex of the state grid at *every*
slot, and the online algorithms re-evaluate the same grid slot after slot.
:meth:`DispatchSolver.solve_block` therefore solves the whole
``(slots x configurations)`` block at once:

* slots are **deduplicated** by their dispatch signature ``(lambda_t, f_{t,*})``
  — in the time-independent model of Section 2 this collapses ``T`` dispatch
  solves to the number of *unique* demand levels,
* unique slots sharing a cost row are solved together over a
  ``(unique_slots, n_configs)`` array, and
* results are **memoised** per ``(signature, configuration-set)``, which turns
  the repeated whole-grid queries of the online trackers (and Algorithm C's
  sub-slot refinement) into dictionary lookups, and
* a signature solved fresh on a configuration set answers any **subset** of
  it (a schedule's configurations, a fallback query) by gathering those
  rows, so a cold tick runs one solve, not one per query.  The solver keeps
  the widest set per signature; only cells computed from their own data
  alone (the event sweep, ``d == 1``) are gathered, never bisection rows,
  and a ``memoise=False`` call records no set.  When that set is a whole
  grid, :meth:`DispatchSolver.block_rows` locates configurations in it, so
  the configuration a serve tick pays and Algorithm C's Lemma-14 repair
  read the slot's grid tensor and load rows without a query.

A SciPy (SLSQP) reference solver is included for cross-validation in the test
suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..core.cost_functions import CostFunction, ScaledCost
from ..core.instance import ProblemInstance

__all__ = ["DispatchResult", "DispatchStats", "DispatchSolver", "reference_dispatch"]

_EPS = 1e-12


@dataclass(frozen=True)
class DispatchResult:
    """Result of one dispatch computation.

    Attributes
    ----------
    cost:
        Operating cost ``g_t(x)`` (``inf`` when the configuration cannot serve
        the demand).
    loads:
        Volume ``w_j`` routed to each server type (``w_j = lambda_t * z_j``).
    feasible:
        Whether the configuration has enough capacity for the demand.
    """

    cost: float
    loads: np.ndarray
    feasible: bool

    @property
    def fractions(self) -> np.ndarray:
        """The job fractions ``z_j`` (zero vector when the demand is zero)."""
        total = float(np.sum(self.loads))
        if total <= 0:
            return np.zeros_like(self.loads)
        return self.loads / total


@dataclass
class DispatchStats:
    """Work counters of a :class:`DispatchSolver` (reset with :meth:`reset`).

    ``slot_queries`` counts every (slot, configuration-set) row requested
    through the block engine; ``unique_solves`` counts how many of those
    actually ran a fresh solve.  The difference is served from the
    signature dedup / memo cache, or gathered from a solve of a wider
    configuration set, so every such row is a cache hit and
    ``cache_hit_rate = 1 - unique_solves / slot_queries``.

    ``bisection_iterations`` counts iterative refinement only: the steps of
    the :class:`~repro.core.cost_functions.CallableCost` bisection and the
    Newton steps on curved :class:`~repro.core.cost_functions.PowerCost`
    segments.  The event sweep of the other families needs none.
    ``bracket_expansions`` counts the bisection's bracket-repair rounds.
    """

    block_calls: int = 0
    slot_queries: int = 0
    unique_solves: int = 0
    bisection_iterations: int = 0
    bracket_expansions: int = 0

    @property
    def cache_hits(self) -> int:
        return self.slot_queries - self.unique_solves

    @property
    def cache_hit_rate(self) -> float:
        if self.slot_queries <= 0:
            return 0.0
        return 1.0 - self.unique_solves / self.slot_queries

    def reset(self) -> None:
        self.block_calls = 0
        self.slot_queries = 0
        self.unique_solves = 0
        self.bisection_iterations = 0
        self.bracket_expansions = 0

    def snapshot(self) -> dict:
        """Plain-dict summary for benchmark harnesses and reports."""
        return {
            "block_calls": self.block_calls,
            "slot_queries": self.slot_queries,
            "unique_solves": self.unique_solves,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "bisection_iterations": self.bisection_iterations,
            "bracket_expansions": self.bracket_expansions,
        }

    def delta_since(self, before: dict) -> dict:
        """Work counters accumulated since an earlier :meth:`snapshot`.

        Solvers are shared across many runs (the sweep engine runs every
        algorithm of a plan through one solver per instance), so a raw snapshot
        taken after a run reports *cumulative* totals.  Per-run reporting must
        therefore difference two snapshots; the cache-hit rate is recomputed
        from the deltas rather than copied.
        """
        block_calls = self.block_calls - int(before.get("block_calls", 0))
        slot_queries = self.slot_queries - int(before.get("slot_queries", 0))
        unique_solves = self.unique_solves - int(before.get("unique_solves", 0))
        cache_hits = slot_queries - unique_solves
        rate = 0.0 if slot_queries <= 0 else 1.0 - unique_solves / slot_queries
        return {
            "block_calls": block_calls,
            "slot_queries": slot_queries,
            "unique_solves": unique_solves,
            "cache_hits": cache_hits,
            "cache_hit_rate": round(rate, 4),
            "bisection_iterations": self.bisection_iterations - int(before.get("bisection_iterations", 0)),
            "bracket_expansions": self.bracket_expansions - int(before.get("bracket_expansions", 0)),
        }


@dataclass(frozen=True, eq=False)
class _RowPieces:
    """The marginal pieces of one cost row, flattened type by type.

    Piece ``k`` belongs to type ``owner[k]``, covers the per-server loads
    ``[offset[k], offset[k] + length[k])`` and has marginal
    ``start[k] + slope[k] * s**power[k]`` at ``s`` into the piece.  Each
    piece is one of three kinds: an affine ``ramp``, a ``curved`` ramp, or
    a step, which is also how a slope too shallow to invert in floating
    point is treated.  Steps carry slope 1, so every slope divides safely.
    """

    owner: np.ndarray
    #: index of each type's first piece (``np.add.reduceat`` boundaries)
    first: np.ndarray
    offset: np.ndarray
    length: np.ndarray
    start: np.ndarray
    slope: np.ndarray
    power: np.ndarray
    ramp: np.ndarray
    curved: np.ndarray
    steps: np.ndarray
    curved_index: np.ndarray

    @property
    def has_curved(self) -> bool:
        return len(self.curved_index) > 0

    @classmethod
    def of(cls, functions: Sequence[CostFunction]) -> Optional["_RowPieces"]:
        """The row's pieces, or ``None`` when a function has no closed-form marginal."""
        rows, first = [], []
        for j, f in enumerate(functions):
            pieces = f.marginal_pieces
            if pieces is None:
                return None
            first.append(len(rows))
            offset = 0.0
            for piece in pieces:
                rows.append((j, offset, piece.length, piece.start, piece.slope, piece.power))
                offset += piece.length
        owner, offset, length, start, slope, power = np.array(rows, dtype=float).T.copy()
        with np.errstate(divide="ignore", over="ignore"):
            rising = (slope > 0.0) & np.isfinite(1.0 / slope)
        curved = rising & (power != 1.0)
        return cls(
            owner=owner.astype(np.intp),
            first=np.array(first, dtype=np.intp),
            offset=offset,
            length=length,
            start=start,
            slope=np.where(rising, slope, 1.0),
            power=power,
            ramp=rising & ~curved,
            curved=curved,
            steps=~rising,
            curved_index=np.flatnonzero(curved),
        )


def _curved_load(rel: np.ndarray, slope: np.ndarray, power: np.ndarray, ext: np.ndarray) -> np.ndarray:
    """Per-server load on curved ramps ``rel`` above their start marginal, capped at ``ext``."""
    with np.errstate(over="ignore"):
        return np.minimum(np.power(np.maximum(rel, 0.0) / slope, 1.0 / power), ext)


class DispatchSolver:
    """Evaluates ``g_t(x)`` for configurations of a fixed problem instance.

    The solver memoises single-configuration queries (the online algorithms ask
    for the same configurations repeatedly), deduplicates whole-grid queries by
    dispatch signature, answers sub-grid queries from a grid it has already
    solved, and exposes the batched :meth:`solve_block` / :meth:`solve_grid`
    used by the offline dynamic programs.

    Parameters
    ----------
    instance:
        The problem instance providing demands, capacities and cost functions.
    """

    #: Relative tolerance of the :class:`~repro.core.cost_functions.CallableCost`
    #: dual bisection: it stops once the bracket width falls below ``tol``
    #: times the initial bracket scale.
    tol = 1e-10
    #: Hard cap on the steps of that bisection and of the Newton refinement of
    #: curved segments (60 gives ~1e-18 interval width, far below the float
    #: precision of the cost).
    max_bisection_steps = 60
    #: Cells per event sweep.  Bounds the sweep's (cells x events)
    #: temporaries on large blocks, such as the streaming DP's windows;
    #: cells never interact, so the chunking leaves every result unchanged.
    _SWEEP_CELLS = 4096

    def __init__(self, instance: ProblemInstance):
        self.instance = instance
        self.stats = DispatchStats()
        # the result memos are keyed by signature first, so forget() drops a
        # signature's entries without scanning: signature -> {(scale,
        # configuration): result} and {(scale, configs key): (costs, loads)}
        self._cache: dict = {}
        self._block_cache: dict = {}
        self._sig_cache: dict = {}
        self._sig_functions: dict = {}
        self._row_pieces: dict = {}
        self._configs_id_cache: dict = {}
        # signature -> the widest configuration set it was solved fresh on,
        # as (configs key, base cost row, load rows)
        self._solved: dict = {}
        # configs key of a solved set -> {row bytes: row index}
        self._row_index: dict = {}
        # (requested configs key, solved configs key) -> gather index or None
        self._gathers: dict = {}

    # ------------------------------------------------------------------ API
    def solve(self, t: int, x: Sequence[int]) -> DispatchResult:
        """Return the optimal dispatch for configuration ``x`` at slot ``t``."""
        x_arr = np.asarray(x, dtype=int)
        if x_arr.shape != (self.instance.d,):
            raise ValueError(f"configuration must have shape ({self.instance.d},), got {x_arr.shape}")
        sig, scale = self._slot_signature(t)
        key = (scale, tuple(int(v) for v in x_arr))
        memo = self._cache.get(sig)
        hit = None if memo is None else memo.get(key)
        if hit is not None:
            return hit
        costs, loads = self.solve_grid(t, x_arr[None, :])
        result = DispatchResult(cost=float(costs[0]), loads=loads[0], feasible=bool(np.isfinite(costs[0])))
        self._cache.setdefault(sig, {})[key] = result
        return result

    def block_rows(self, t: int, grid, configs: np.ndarray) -> Optional[tuple]:
        """Where slot ``t``'s solved block answers ``configs``: ``(flat indices, load rows)``.

        The one rule of the block readers, a serve cache's first answer for a
        configuration and Algorithm C's Lemma-14 repair: slot ``t``'s
        signature was solved fresh on exactly ``grid``'s configuration set
        (a memoised solve of a row whose cells do not depend on their block),
        and every row of ``configs`` lies on ``grid``.  Then cell ``i`` of
        the slot's ``grid`` value tensor and row ``i`` of the load rows are,
        bit for bit, what :meth:`solve` and :meth:`solve_grid` would gather
        for configuration ``i``.  ``None`` — ask the solver — on bisection
        rows (never recorded), after unmemoised blocks, for a record on
        another configuration set, and for configurations off the grid.
        """
        solved = self._solved.get(self._slot_signature(t)[0])
        if solved is None or solved[0] != self._configs_key(grid.configs()):
            return None
        index = grid.flat_index(configs)
        return None if index is None else (index, solved[2])

    def forget(self, t: int) -> None:
        """Drop slot ``t``'s signature and every result memoised for it.

        Called when a growable ledger reuses slot ``t`` for new content (the
        serve cache's ``ledger_budget`` eviction), so the memos stay bounded
        by the live slots.  Another live slot sharing the signature (the same
        demand at another price scale) simply solves again, bit-identically.
        """
        cached = self._sig_cache.pop(t, None)
        if cached is not None:
            sig = cached[0]
            self._cache.pop(sig, None)
            self._block_cache.pop(sig, None)
            self._solved.pop(sig, None)

    def clear_cache(self) -> None:
        """Drop memoised dispatch results (e.g. after mutating workloads in tests)."""
        self._cache.clear()
        self._block_cache.clear()
        self._sig_cache.clear()
        self._sig_functions.clear()
        self._row_pieces.clear()
        self._configs_id_cache.clear()
        self._solved.clear()
        self._row_index.clear()
        self._gathers.clear()

    # ----------------------------------------------------------- vectorised
    def solve_grid(self, t: int, configs: np.ndarray) -> tuple:
        """Evaluate ``g_t(x)`` for a batch of configurations.

        Parameters
        ----------
        t:
            Slot index (0-based).
        configs:
            Array of shape ``(n, d)``; each row is a configuration (fractional
            rows are allowed — the fractional baselines use them).

        Returns
        -------
        (costs, loads):
            ``costs`` has shape ``(n,)`` with ``inf`` for infeasible rows;
            ``loads`` has shape ``(n, d)`` with the optimal per-type volumes.
        """
        costs, loads = self.solve_block([t], configs)
        return costs[0], loads[0]

    def solve_block(self, ts: Sequence[int], configs: np.ndarray, memoise: bool = True) -> tuple:
        """Evaluate ``g_t(x)`` for every slot in ``ts`` times every row of ``configs``.

        This is the batched engine behind all solvers: slots are deduplicated
        by dispatch signature, a signature already solved on a superset of
        ``configs`` is gathered from that solve, the other unique slots
        sharing a cost row are solved together, and solutions are memoised
        per ``(signature, configuration-set)``.

        Parameters
        ----------
        ts:
            Slot indices (0-based, repeats allowed).
        configs:
            Array of shape ``(n, d)`` shared by all slots.
        memoise:
            When ``False``, previously cached results are still *read* (and
            gathered from) but no new ``(signature, configuration-set)``
            entries or solved sets are written.  The streaming DP passes
            ``False``: on long horizons with per-slot demands the memo would
            hold one cost row *and* one load block per slot — the very
            ``O(T * |M|)`` footprint the streaming pass removes.

        Returns
        -------
        (costs, loads):
            ``costs`` has shape ``(len(ts), n)``; ``loads`` has shape
            ``(len(ts), n, d)``.  Infeasible entries carry ``inf`` cost and
            zero loads.  The returned arrays are read-only (they may be shared
            with the internal memo cache).
        """
        inst = self.instance
        configs = np.asarray(configs)
        if configs.ndim != 2 or configs.shape[1] != inst.d:
            raise ValueError(f"configs must have shape (n, {inst.d})")
        ts = [int(t) for t in ts]
        n, d = configs.shape
        S = len(ts)
        self.stats.block_calls += 1
        self.stats.slot_queries += S

        out_costs = np.empty((S, n), dtype=float)
        out_loads = np.zeros((S, n, d), dtype=float)
        if S == 0:
            return out_costs, out_loads
        configs_key = self._configs_key(configs)
        float_configs: Optional[np.ndarray] = None

        # --- dedup: signature -> rows of the output block that share it.  A
        # slot's signature is its *base* cost row; its scale (price factor,
        # Algorithm C's 1/n_t sub-slot scaling) only multiplies the cost, so
        # slots differing by scale alone share one solve.
        pending: dict = {}
        for i, t in enumerate(ts):
            sig, scale = self._slot_signature(t)
            memo = self._block_cache.get(sig)
            cached = None if memo is None else memo.get((scale, configs_key))
            if cached is not None:
                out_costs[i], out_loads[i] = cached
                continue
            entry = pending.get(sig)
            if entry is None:
                pending[sig] = [(i, scale)]
            else:
                entry.append((i, scale))

        # --- a signature already solved fresh on a superset of ``configs``
        # is answered by gathering that solve's rows
        fresh = pending.items()
        if self._solved:
            fresh, gathered = [], []
            for sig, rows in pending.items():
                solved = self._solved.get(sig)
                index = None if solved is None else self._gather_index(configs_key, configs, solved[0], memoise)
                if index is None:
                    fresh.append((sig, rows))
                    continue
                costs_k, loads_k = solved[1][index], solved[2][index]
                costs_k.setflags(write=False)
                loads_k.setflags(write=False)
                gathered.append((sig, rows, costs_k, loads_k))
            self._emit(gathered, configs_key, memoise, out_costs, out_loads)

        # --- group unique signatures by cost row and solve each group at once
        groups: dict = {}
        for sig, rows in fresh:
            groups.setdefault(sig[1], []).append((sig, rows))
        for row_key, entries in groups.items():
            entries.sort(key=lambda e: e[0][0])  # ascending demand
            lams = np.array([e[0][0] for e in entries], dtype=float)
            if float_configs is None:
                float_configs = np.ascontiguousarray(configs, dtype=float)
            costs_u, loads_u = self._solve_rows(lams, float_configs, row_key)
            costs_u.setflags(write=False)
            loads_u.setflags(write=False)
            self.stats.unique_solves += len(entries)
            solved_rows = [(sig, rows, costs_u[k], loads_u[k]) for k, (sig, rows) in enumerate(entries)]
            # only cells computed from their own data alone may be gathered
            # later: the bisection's stopping width is block-wide
            if memoise and self._cellwise(row_key):
                for sig, _, costs_k, loads_k in solved_rows:
                    record = (configs_key, costs_k, loads_k)
                    if len(self._solved.setdefault(sig, record)[1]) < n:
                        self._solved[sig] = record
            self._emit(solved_rows, configs_key, memoise, out_costs, out_loads)

        out_costs.setflags(write=False)
        out_loads.setflags(write=False)
        return out_costs, out_loads

    # ------------------------------------------------------------- internals
    def _emit(self, entries, configs_key, memoise, out_costs, out_loads) -> None:
        """Write each ``(sig, rows, base cost row, loads)`` entry to its output rows.

        Each row's cost is the base row times that slot's scale.
        """
        for sig, rows, base_costs, loads in entries:
            scaled_costs: dict = {1.0: base_costs}
            memo = self._block_cache.setdefault(sig, {}) if memoise else None
            for i, scale in rows:
                row_costs = scaled_costs.get(scale)
                if row_costs is None:
                    # the optimal allocation is scale-invariant; only the
                    # cost is multiplied (inf stays inf for scale > 0)
                    row_costs = base_costs * scale
                    row_costs.setflags(write=False)
                    scaled_costs[scale] = row_costs
                if memoise:
                    memo[(scale, configs_key)] = (row_costs, loads)
                out_costs[i] = row_costs
                out_loads[i] = loads

    def _gather_index(self, configs_key, configs, solved_key, memoise):
        """Rows of a solved configuration set holding every row of ``configs``, or ``None``.

        Rows match by their float values, the solve's own input.  The solved
        set is rebuilt from the bytes of its key, which no caller can mutate.
        """
        if configs_key == solved_key:
            return slice(None)  # the solved set itself, queried at another scale
        pair = (configs_key, solved_key)
        if pair in self._gathers:
            return self._gathers[pair]
        rows = self._row_index.get(solved_key)
        if rows is None:
            shape, dtype, data = solved_key
            solved = np.frombuffer(data, dtype=dtype).reshape(shape).astype(float)
            rows = {row.tobytes(): k for k, row in enumerate(solved)}
            self._row_index[solved_key] = rows
        index = [rows.get(row.tobytes()) for row in np.ascontiguousarray(configs, dtype=float)]
        index = None if None in index else np.array(index, dtype=np.intp)
        if memoise:
            self._gathers[pair] = index
        return index

    def _cellwise(self, row_key) -> bool:
        """Whether a cost row's cells come out the same alone as in any block.

        True on the event sweep (``d == 1``, or a row with marginal pieces);
        the bisection's stopping width spans its whole block.
        """
        return self.instance.d == 1 or self._pieces(row_key) is not None

    def _pieces(self, row_key) -> Optional[_RowPieces]:
        """The marginal pieces of a cost row (``None`` for the bisection path)."""
        if row_key not in self._row_pieces:
            self._row_pieces[row_key] = _RowPieces.of(self._sig_functions[row_key])
        return self._row_pieces[row_key]

    def _configs_key(self, configs: np.ndarray):
        """Hashable content key of a configuration set.

        Read-only arrays (the cached :meth:`StateGrid.configs` enumerations the
        trackers re-query every slot) are keyed by identity after the first
        serialisation, so repeated lookups skip the ``tobytes`` copy.  The
        cached entry keeps a strong reference to the array, which pins its
        ``id``.
        """
        if not configs.flags.writeable:
            entry = self._configs_id_cache.get(id(configs))
            if entry is not None and entry[0] is configs:
                return entry[1]
            key = (configs.shape, configs.dtype.str, configs.tobytes())
            self._configs_id_cache[id(configs)] = (configs, key)
            return key
        return (configs.shape, configs.dtype.str, configs.tobytes())

    def _slot_signature(self, t: int):
        """Dispatch identity of slot ``t``: ``((lambda_t, base cost row), scale)``.

        Two slots with equal signatures have identical ``g_t`` up to the scalar
        ``scale`` — the engine solves one of them and reuses the result.  Rows
        in which every type carries the *same* positive ``ScaledCost`` factor
        (electricity-price profiles, Algorithm C's ``1/n_t`` sub-slot split)
        are normalised to their base row: scaling the whole objective by a
        positive constant does not change the optimal allocation, so the base
        solve is shared and only the cost is multiplied by ``scale``.  Exotic
        unhashable cost functions degrade gracefully to a per-slot signature
        (no cross-slot sharing).
        """
        cached = self._sig_cache.get(t)
        if cached is None:
            lam = float(self.instance.demand[t])
            row = self.instance.cost_row(t)
            scale = 1.0
            while row and all(type(f) is ScaledCost for f in row):
                factors = {f.factor for f in row}
                if len(factors) != 1:
                    break
                factor = factors.pop()
                if not factor > 0.0:
                    break
                scale *= factor
                row = tuple(f.base for f in row)
            try:
                hash(row)
            except TypeError:
                row, scale = ("slot", t), 1.0
            sig = (lam, row)
            self._sig_functions.setdefault(row, self.instance.cost_row(t) if row == ("slot", t) else row)
            cached = (sig, scale)
            self._sig_cache[t] = cached
        return cached

    def _solve_rows(self, lams: np.ndarray, configs: np.ndarray, row_key) -> tuple:
        """Solve the dispatch problem for ``u`` demand levels x ``n`` configurations.

        ``lams`` must be sorted ascending (the caller guarantees it; the
        bisection fallback propagates brackets along that order).
        ``row_key`` names the cost row in :attr:`_sig_functions`.
        """
        functions = self._sig_functions[row_key]
        u = len(lams)
        n, d = configs.shape
        zmax = self.instance.zmax

        # x_j * zmax_j for active types only (an idle type of unbounded
        # capacity has no volume, not 0 * inf)
        caps = np.zeros_like(configs)
        np.multiply(configs, zmax, out=caps, where=configs > 0)
        total_cap = caps.sum(axis=1)

        pos = lams > 0.0
        feasible = (total_cap[None, :] >= lams[:, None] - 1e-9) | ~pos[:, None]  # (u, n)
        w = np.zeros((u, n, d), dtype=float)
        # columns that no requested positive demand can use are skipped entirely
        active_cols = feasible[pos].any(axis=0)
        if np.any(active_cols):
            lam_p = lams[pos]
            sub_caps = caps[active_cols]
            if d == 1:
                w_sub = np.minimum(lam_p[:, None, None], sub_caps[None, :, :])
            else:
                pieces = self._pieces(row_key)
                if pieces is not None:
                    # one row per (demand level, configuration) cell
                    n_act = len(sub_caps)
                    cell_lam = np.repeat(lam_p, n_act)
                    cell_x = np.tile(configs[active_cols], (len(lam_p), 1))
                    cell_caps = np.tile(sub_caps, (len(lam_p), 1))
                    w_sub = np.empty(cell_x.shape)
                    for i in range(0, len(cell_lam), self._SWEEP_CELLS):
                        cut = slice(i, i + self._SWEEP_CELLS)
                        w_sub[cut] = self._sweep_rows(cell_lam[cut], cell_x[cut], cell_caps[cut], pieces)
                    w_sub = w_sub.reshape(len(lam_p), n_act, d)
                else:
                    w_sub = self._bisect_rows(
                        lam_p, configs[active_cols], sub_caps, functions, feasible[pos][:, active_cols]
                    )
            w[np.ix_(np.flatnonzero(pos), np.flatnonzero(active_cols))] = w_sub

        # cost = sum_j x_j f_j(w_j / x_j); idle servers of a type still pay f_j(0)
        costs = np.zeros((u, n), dtype=float)
        for j, f in enumerate(functions):
            xj = configs[:, j]
            on = xj > 0
            if not np.any(on):
                continue
            per_server = w[:, on, j] / xj[on][None, :]
            vals = np.asarray(f.value(per_server), dtype=float)
            costs[:, on] += xj[on][None, :] * vals
        costs[~feasible] = np.inf
        w[~feasible] = 0.0
        return costs, w

    def _sweep_rows(
        self,
        lam: np.ndarray,
        configs: np.ndarray,
        caps: np.ndarray,
        pieces: _RowPieces,
    ) -> np.ndarray:
        """Exact water-filling by an event sweep, one (demand, configuration) cell per row.

        ``lam`` has shape ``(cells,)``, ``configs`` and ``caps``
        (``x_j * zmax_j``) shape ``(cells, d)``.  Works on
        ``(cells, pieces)`` arrays and returns the type volumes ``w``, shape
        ``(cells, d)``.  Cells whose capacity falls short of the demand
        (within the feasibility tolerance) get every type at its cap.
        """
        pc = pieces
        cells, d = configs.shape
        vol_cap = np.minimum(caps, lam[:, None])  # c_j
        x = configs[:, pc.owner]  # (cells, K)
        # per-server load each piece carries before its type saturates
        ext = np.clip(vol_cap[:, pc.owner] / np.where(x > 0.0, x, 1.0) - pc.offset, 0.0, pc.length)
        vol = x * ext
        rise = pc.slope * (np.power(ext, pc.power) if pc.has_curved else ext)
        end = np.where(pc.steps, pc.start, pc.start + rise)
        # volume per unit of marginal along an affine ramp; steps jump instead
        rate = np.where(pc.ramp & (ext > 0.0), x / pc.slope, 0.0)
        jump = np.where(pc.steps, vol, 0.0)

        # --- events: every piece starts at `start` and ends at `end`
        marks = np.concatenate([np.broadcast_to(pc.start, end.shape), end], axis=1)
        order = np.argsort(marks, axis=1, kind="stable")
        rows = np.arange(cells)
        at = marks[rows[:, None], order]
        slopes = np.cumsum(np.concatenate([rate, -rate], axis=1)[rows[:, None], order], axis=1)
        jumps = np.concatenate([jump, np.zeros_like(jump)], axis=1)[rows[:, None], order]
        # affine volume just after each event: jumps so far plus the ramps
        # integrated over the gaps between events
        level = np.cumsum(jumps, axis=1)
        level[:, 1:] += np.cumsum(slopes[:, :-1] * np.diff(at, axis=1), axis=1)
        total = level + self._curved_volume(at, x, ext, pc) if pc.has_curved else level

        # --- locate the first event whose volume reaches the demand
        hit = total >= lam[:, None]
        e = np.argmax(hit, axis=1)
        reached = hit[rows, e]
        prev = np.maximum(e - 1, 0)
        at_e = at[rows, e]
        at_prev = at[rows, prev]
        # the demand falls inside the ramp segment (at_prev, at_e] unless the
        # event's own jump is what reaches it; mu* = anchor + past
        in_segment = (total[rows, e] - jumps[rows, e] >= lam) & (e > 0)
        anchor = np.where(in_segment, at_prev, at_e)
        level_prev = level[rows, prev]
        slope_prev = slopes[rows, prev]
        if pc.has_curved:
            past = self._newton_segment(
                lam, at_prev, at_e, level_prev, slope_prev, in_segment & reached, x, ext, pc
            )
        else:
            gap = np.divide(
                lam - level_prev, slope_prev, out=np.full(cells, np.inf), where=slope_prev > 0.0
            )
            past = np.where(in_segment, np.minimum(gap, at_e - at_prev), 0.0)

        # --- loads at mu*: ramps by their inverse marginal, steps below mu*
        # full, steps exactly at mu* share what the demand still needs.  The
        # marginal above each piece's start is taken from the exact event
        # `anchor`, so a nearly flat ramp does not amplify the rounding of mu*.
        rel = (anchor[:, None] - pc.start) + past[:, None]
        u = np.where(rel > 0.0, ext, 0.0)
        u = np.where(pc.ramp, np.clip(rel / pc.slope, 0.0, ext), u)
        if pc.has_curved:
            u = np.where(pc.curved, _curved_load(rel, pc.slope, pc.power, ext), u)
        loads = x * u
        on_mu = (rel == 0.0) & pc.steps & (vol > 0.0)
        if np.any(on_mu):
            sharing = np.where(on_mu, vol, 0.0)
            shared = sharing.sum(axis=1)
            need = lam - loads.sum(axis=1)
            theta = np.divide(need, shared, out=np.zeros(cells), where=shared > 0.0)
            loads += np.clip(theta, 0.0, 1.0)[:, None] * sharing
        if len(pc.owner) > d:
            loads = np.add.reduceat(loads, pc.first, axis=1)
        return np.where(reached[:, None], np.minimum(loads, vol_cap), vol_cap)

    @staticmethod
    def _curved_volume(at: np.ndarray, x: np.ndarray, ext: np.ndarray, pc: _RowPieces) -> np.ndarray:
        """Summed volume of the curved pieces at every event marginal ``at`` (cells x events)."""
        k = pc.curved_index
        rel = at[:, :, None] - pc.start[k]  # (cells, events, curved pieces)
        load = _curved_load(rel, pc.slope[k], pc.power[k], ext[:, None, k])
        return (x[:, None, k] * load).sum(axis=-1)

    def _newton_segment(
        self,
        lam: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        level_lo: np.ndarray,
        slope_lo: np.ndarray,
        in_segment: np.ndarray,
        x: np.ndarray,
        ext: np.ndarray,
        pc: _RowPieces,
    ) -> np.ndarray:
        """``mu* - lo`` of every cell whose demand falls inside a segment with curved ramps.

        On ``[lo, hi]`` the affine volume is ``level_lo + slope_lo * (mu - lo)``
        and the curved pieces add their exact volume.  The search runs on the
        offset ``mu - lo`` from the segment's start event.  A Newton step
        that would leave the shrinking bracket is replaced by bisection, and
        each cell stops on its own once its residual or its step vanishes,
        so the result does not depend on the other cells.  Cells outside a
        segment get offset 0.
        """
        past = np.zeros(len(lo))
        cells = np.flatnonzero(in_segment)
        if not len(cells):
            return past
        k = pc.curved_index
        slope_k, power = pc.slope[k], pc.power[k]
        target = lam[cells]
        above = lo[cells, None] - pc.start[k]  # segment start above each curve's start
        base = level_lo[cells]
        slope = slope_lo[cells]
        xc = x[cells][:, k]
        extc = ext[cells][:, k]

        def residual(t):
            rel = above + t[:, None]
            load = _curved_load(rel, slope_k, power, extc)
            value = base + slope * t + (xc * load).sum(axis=1) - target
            # d load / d mu = load / (power * rel) while the piece is filling
            inside = (rel > 0.0) & (load < extc)
            with np.errstate(over="ignore"):
                grow = np.where(inside, load / (power * np.where(inside, rel, 1.0)), 0.0)
            return value, slope + (xc * grow).sum(axis=1)

        # start from the secant of the segment's end points
        a = np.zeros(len(cells))
        b = hi[cells] - lo[cells]
        f_a, _ = residual(a)
        f_b, _ = residual(b)
        span = f_b - f_a
        t = np.where(span > 0.0, -b * f_a / np.where(span > 0.0, span, 1.0), 0.5 * b)
        t = np.clip(t, a, b)
        active = np.ones(len(cells), dtype=bool)
        tol = 4.0 * np.finfo(float).eps * target
        for _ in range(self.max_bisection_steps):
            self.stats.bisection_iterations += 1
            value, deriv = residual(t)
            below = value < 0.0
            a = np.where(active & below, t, a)
            b = np.where(active & ~below, t, b)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                step = t - value / deriv
            step = np.where((step > a) & (step < b), step, 0.5 * (a + b))
            done = (np.abs(value) <= tol) | (step == t)
            t = np.where(active & ~done, step, t)
            active &= ~done
            if not active.any():
                break
        past[cells] = t
        return past

    def _bisect_rows(
        self,
        lams: np.ndarray,
        configs: np.ndarray,
        caps: np.ndarray,
        functions: Sequence[CostFunction],
        feasible: np.ndarray,
    ) -> np.ndarray:
        """Water-filling by a 2-D dual bisection over (demand levels x configs).

        The path of cost functions without marginal pieces.  ``lams`` is
        sorted ascending.  The bracket starts at the derivative bound
        ``max_j f'_j(min(zmax_j, lambda))``: at that multiplier every active
        type runs at its effective capacity, so the total allocation covers
        any feasible demand.  Because ``mu^*`` is non-decreasing in the
        demand, every iteration propagates lower brackets to larger demands
        and upper brackets to smaller ones.  Every step writes into
        preallocated buffers.  Returns the type volumes ``w``.
        """
        p = len(lams)
        n, d = configs.shape
        zmax = self.instance.zmax
        lam_col = lams[:, None]
        eff_caps = np.minimum(caps[None, :, :], lams[:, None, None])  # c_j, (p, n, d)
        # per-server saturation load c_j / x_j (0 for idle types)
        sat = eff_caps / np.where(configs > 0.0, configs, 1.0)[None, :, :]

        def alloc(mu: np.ndarray, want_loads: bool):
            """Allocation at multiplier ``mu`` — totals only unless ``want_loads``."""
            tot = np.zeros_like(mu)
            w = np.empty((p, n, d), dtype=float) if want_loads else None
            for j, f in enumerate(functions):
                inv = np.asarray(f.inverse_derivative(mu), dtype=float)
                zj = np.minimum(np.maximum(inv, 0.0), sat[:, :, j])
                wj = configs[None, :, j] * zj
                tot += wj
                if want_loads:
                    w[:, :, j] = wj
            return (tot, w) if want_loads else tot

        # ---- initial bracket from the derivative bound (no doubling search)
        hi0 = np.zeros(p, dtype=float)
        for j, f in enumerate(functions):
            z_at = np.minimum(zmax[j], lams) if np.isfinite(zmax[j]) else lams
            dj = np.asarray(f.derivative(z_at), dtype=float)
            dj = np.where(np.isfinite(dj), dj, 0.0)
            np.maximum(hi0, dj, out=hi0)
        np.maximum.accumulate(hi0, out=hi0)  # monotone in the (sorted) demand
        mu_lo = np.full((p, n), -1.0)
        mu_hi = np.tile(hi0[:, None], (1, n))

        # safety net for cost functions whose reported derivative is inexact
        # (finite-difference CallableCost): expand until every feasible row is
        # covered, breaking out immediately in the regular case
        for _ in range(64):
            tot = alloc(mu_hi, want_loads=False)
            need = (tot < lam_col - 1e-12) & feasible
            if not np.any(need):
                break
            self.stats.bracket_expansions += 1
            mu_hi = np.where(need, np.maximum(mu_hi, 0.5) * 2.0, mu_hi)

        mid = np.empty_like(mu_lo)
        mask = np.empty(mu_lo.shape, dtype=bool)
        hi_rev = mu_hi[::-1]
        width_tol = self.tol * max(1.0, float(hi0[-1]) if p else 1.0)
        propagate = p > 1
        for _ in range(self.max_bisection_steps):
            if propagate:
                np.maximum.accumulate(mu_lo, axis=0, out=mu_lo)
                np.minimum.accumulate(hi_rev, axis=0, out=hi_rev)
            if float(np.max(mu_hi - mu_lo)) <= width_tol:
                break
            self.stats.bisection_iterations += 1
            np.add(mu_lo, mu_hi, out=mid)
            mid *= 0.5
            tot = alloc(mid, want_loads=False)
            # rows still short of their demand raise the lower bracket
            np.less(tot, lam_col, out=mask)
            np.copyto(mu_lo, mid, where=mask)
            np.logical_not(mask, out=mask)
            np.copyto(mu_hi, mid, where=mask)

        sum_lo, w_lo = alloc(mu_lo, want_loads=True)
        sum_hi, w_hi = alloc(mu_hi, want_loads=True)
        gap = sum_hi - sum_lo
        theta = np.where(gap > _EPS, (lam_col - sum_lo) / np.where(gap > _EPS, gap, 1.0), 0.0)
        theta = np.clip(theta, 0.0, 1.0)
        w = w_lo + theta[:, :, None] * (w_hi - w_lo)

        # remove any residual drift by scaling towards the demand (within caps)
        total = w.sum(axis=2)
        deficit = lam_col - total
        room = eff_caps - w
        room_total = room.sum(axis=2)
        positive = (deficit > _EPS) & (room_total > _EPS)
        if np.any(positive):
            safe_room = np.where(room_total[:, :, None] > _EPS, room_total[:, :, None], 1.0)
            share = np.where(room_total[:, :, None] > _EPS, room / safe_room, 0.0)
            w = w + np.where(positive[:, :, None], share * deficit[:, :, None], 0.0)
        overshoot = (w.sum(axis=2) - lam_col) > _EPS
        if np.any(overshoot):
            scale = lam_col / np.maximum(w.sum(axis=2), _EPS)
            w = np.where(overshoot[:, :, None], w * scale[:, :, None], w)
        return w


def reference_dispatch(instance: ProblemInstance, t: int, x: Sequence[int]) -> DispatchResult:
    """Solve the dispatch problem with SciPy's SLSQP (reference implementation).

    Slow but independent of the event sweep; used by the test suite to
    validate :class:`DispatchSolver` on randomly generated instances.
    """
    from scipy import optimize

    x_arr = np.asarray(x, dtype=float)
    d = instance.d
    lam = float(instance.demand[t])
    zmax = instance.zmax
    functions = instance.cost_row(t)
    # x_j * zmax_j for active types only (no 0 * inf for idle unbounded types)
    full_caps = np.zeros(d)
    np.multiply(x_arr, zmax, out=full_caps, where=x_arr > 0)
    caps = np.minimum(full_caps, lam if lam > 0 else 0.0)

    idle = np.array([f.idle_cost() for f in functions])
    if lam <= 0:
        return DispatchResult(cost=float(x_arr @ idle), loads=np.zeros(d), feasible=True)
    if full_caps.sum() < lam - 1e-9:
        return DispatchResult(cost=math.inf, loads=np.zeros(d), feasible=False)

    def objective(w):
        total = 0.0
        for j, f in enumerate(functions):
            if x_arr[j] > 0:
                total += x_arr[j] * float(f.value(w[j] / x_arr[j]))
        return total

    w0 = np.where(caps > 0, caps, 0.0)
    if w0.sum() > 0:
        w0 = w0 * (lam / w0.sum())
    constraints = [{"type": "eq", "fun": lambda w: np.sum(w) - lam}]
    bounds = [(0.0, float(c)) for c in caps]
    res = optimize.minimize(
        objective,
        w0,
        method="SLSQP",
        bounds=bounds,
        constraints=constraints,
        options={"maxiter": 200, "ftol": 1e-12},
    )
    w = np.clip(res.x, 0.0, caps)
    if w.sum() > 0:
        w = w * (lam / w.sum())
    return DispatchResult(cost=float(objective(w)), loads=w, feasible=True)
