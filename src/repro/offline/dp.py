"""The dynamic-programming engine behind the offline algorithms.

Section 4.1 of the paper solves the offline right-sizing problem by a shortest
path in a layered graph: one layer of vertices per time slot, one vertex per
server configuration, power-up/-down edges inside a layer and operating-cost
edges between the two half-layers of a slot.  Because the graph is layered, the
shortest path is a straightforward forward dynamic program over *value tensors*

``V_t[x] = (cheapest cost of serving slots 0..t and ending slot t in configuration x)``

with the recurrence

``V_t[x] = g_t(x) + min_{x'} ( V_{t-1}[x'] + sum_j beta_j (x_j - x'_j)^+ )``

and ``V_{-1} = 0`` concentrated at the empty configuration.  The inner
minimisation is the separable min-plus transition of
:mod:`repro.offline.transitions`.  Since powering down at the end of the
horizon is free, ``OPT = min_x V_{T-1}[x]``.

Memory model
------------
The forward recurrence only ever needs the *previous* value tensor, but
reconstructing the argmin chain classically requires all ``T`` tensors —
``O(T * |M|)`` memory, the scaling wall on long horizons.  The engine therefore
runs a **streaming value pass with checkpointed backtracking** (Hirschberg-style
divide and conquer on the layered graph): the forward pass records its tensors
in a :class:`ValueHistory`, which keeps one every ``checkpoint_every`` slots
and, for the backward pass, rematerialises each checkpoint window by re-running
the forward DP inside it — ``O(sqrt(T) * |M|)`` memory at most one extra
forward pass of work.  :class:`ForwardDP` is the one forward step and
:func:`forward_pass` the one forward pass over a horizon; :class:`ValueHistory`
is the one owner of kept tensors and of the backward argmin walk.  The sweep
engine's per-``gamma`` history
(:meth:`~repro.exp.shared.SharedInstanceContext.history`) is a
:func:`forward_pass` too, and receding-horizon control
(:func:`~repro.online.baselines.receding_horizon_schedule`) walks a
:class:`ValueHistory` of its own seeded loop.
Operating-cost tensors are likewise produced window by window, one per
dispatch signature and grid (:class:`WindowedOperatingCosts`), and the
backward walk prices the schedule from the ``g_t(x_t)`` it reads
(:meth:`ValueHistory.priced_schedule`).  Small instances (below
:data:`STREAMING_TABLE_BYTES_THRESHOLD` of table history) keep the classic
full-history pass, which costs no recompute; ``keep_tables=True`` forces it
and exposes the tensors.

The same engine serves

* the exact algorithm (full grids, Section 4.1),
* the (1+eps)-approximation (geometric grids ``M^gamma``, Section 4.2),
* time-dependent data-center sizes (per-slot grids, Section 4.3), and
* the incremental prefix-optimum tracker used by the online algorithms
  (:mod:`repro.online.tracker`), which steps one :class:`ForwardDP` a slot at
  a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.instance import ProblemInstance
from ..core.schedule import Schedule
from ..dispatch.allocation import DispatchSolver
from .state_grid import StateGrid, slot_grids
from .transitions import (
    make_transition_plan,
    startup_cost_tensor,
    switching_cost_tensor,
    transition,
)

__all__ = [
    "ForwardDP",
    "OfflineResult",
    "STREAMING_TABLE_BYTES_THRESHOLD",
    "ValueHistory",
    "WindowedOperatingCosts",
    "check_window",
    "default_checkpoint_every",
    "forward_pass",
    "operating_cost_tensors",
    "solve_dp",
]


#: Table-history size (bytes) below which the DP keeps all value tensors even
#: in streaming-eligible calls: rematerialising windows costs up to one extra
#: forward pass, which only pays off once the history is actually large.
STREAMING_TABLE_BYTES_THRESHOLD = 32 * 1024 * 1024


def default_checkpoint_every(
    T: int,
    max_states: int,
    threshold: int = STREAMING_TABLE_BYTES_THRESHOLD,
) -> Optional[int]:
    """Auto-tuned checkpoint window for a ``T``-slot DP over ``max_states`` states.

    Returns ``None`` (keep the full table history — no recompute) while
    ``T * max_states`` float64 values stay below ``threshold`` bytes, else
    ``ceil(sqrt(T))``.  Streaming memory is ``T/k`` checkpoint tensors plus
    ``k`` rematerialised window tensors, which is minimised at ``k = sqrt(T)``
    independent of the grid size — ``prod_j |M_j|`` only decides *whether*
    the 2x-forward-FLOPs trade is worth taking at all.
    """
    if T <= 2:
        return None
    if T * max(int(max_states), 1) * 8 <= threshold:
        return None
    return max(1, int(math.ceil(math.sqrt(T))))


def check_window(window: Optional[int], name: str) -> Optional[int]:
    """``window`` as an ``int`` (``None`` stays ``None``); raises unless it is positive."""
    if window is None:
        return None
    if int(window) < 1:
        raise ValueError(f"{name} must be a positive integer when given")
    return int(window)


@dataclass(frozen=True, eq=False)
class OfflineResult:
    """Result of an offline optimisation run.

    Attributes
    ----------
    schedule:
        The computed schedule (optimal on the given grids), or ``None`` when
        the run was asked for the cost only (``return_schedule=False``).  A
        cost-only result used to carry a zero-length placeholder schedule that
        could silently masquerade as a solved one; ``None`` makes the
        distinction explicit.
    cost:
        The total cost ``C(X)`` with respect to the *original* instance,
        priced by the backward walk (:meth:`ValueHistory.priced_schedule`);
        a cost-only run reports ``min_x V_{T-1}[x]``.
    grids:
        The per-slot state grids that were searched.
    value_tables:
        The per-slot DP value tensors (only kept when requested; useful for
        diagnostics and for warm-starting analyses).
    gamma:
        The grid-reduction parameter (``None`` for the exact algorithm).
    checkpoint_every:
        The checkpoint window of the streaming value pass, or ``None`` when
        the run kept the full table history (small instances,
        ``keep_tables=True``).
    """

    schedule: Optional[Schedule]
    cost: float
    grids: tuple
    value_tables: Optional[tuple] = None
    gamma: Optional[float] = None
    checkpoint_every: Optional[int] = None

    @property
    def num_states_explored(self) -> int:
        """Total number of (slot, configuration) pairs examined."""
        return int(sum(g.size for g in self.grids))


def operating_cost_tensors(
    instance: ProblemInstance,
    grids: Sequence[StateGrid],
    dispatcher: DispatchSolver,
) -> List[np.ndarray]:
    """Evaluate ``g_t`` for *all* slots as one batched dispatch computation.

    Slots sharing a grid (always the case for time-invariant fleets, where
    :func:`~repro.offline.state_grid.grid_for_slot` memoisation hands every
    slot the same object) are pushed through a single
    :meth:`~repro.dispatch.DispatchSolver.solve_block` call, which additionally
    deduplicates slots with equal demand/cost signatures and vectorises the
    solve across the remaining unique slots.

    This materialises all ``T`` tensors at once — ``O(T * |M|)`` live memory.
    The DP itself streams them through :class:`WindowedOperatingCosts` instead;
    this whole-horizon variant remains for consumers that genuinely need every
    slot at once (the explicit Figure-4 graph construction).
    """
    tensors: List[Optional[np.ndarray]] = [None] * len(grids)
    by_grid: dict = {}
    for t, grid in enumerate(grids):
        by_grid.setdefault(grid.key, (grid, []))[1].append(t)
    for grid, ts in by_grid.values():
        costs, _ = dispatcher.solve_block(ts, grid.configs())
        for i, t in enumerate(ts):
            tensors[t] = costs[i].reshape(grid.shape)
    return tensors  # type: ignore[return-value]


class WindowedOperatingCosts:
    """Produce ``g_t`` value tensors one checkpoint window at a time.

    Slots are keyed by their grid's ``grid.key`` and their dispatch
    signature (``_slot_signature(t)``), and equal keys have the same
    ``g_t``.  The provider numbers the keys once, when it is built:
    :attr:`key_of` holds one integer key id per slot.  Without a per-slot
    cost table every slot reads the instance's one cost row, so its demand
    stands for its signature and one ``np.unique`` over the demands numbers
    them; otherwise the provider asks for each slot's signature once.

    The provider materialises the window containing the requested slot and
    drops the previous window.  ``window`` is a positive integer, clamped to
    ``T`` (``None``: the whole horizon).  Windows are aligned to multiples of
    ``window``, which makes the backward pass rematerialise exactly the
    tensors the forward pass produced.  A window asks
    :meth:`~repro.dispatch.DispatchSolver.solve_block` for one representative
    slot per key (its first slot in the window; keys in first-slot order,
    grouped by grid), at most ``500_000 // (|M| * (1 + d))`` of them per call
    (so one call's cost and load block stays within ~500k floats), and the
    key's slots share its one read-only tensor.  The engine deduplicates by
    signature anyway, so every cell is the one a whole-window block gives.
    Each solved tensor is checked once: a key no configuration can serve
    raises ``ValueError`` naming the window's earliest such slot.

    With ``memoise=False`` the dispatch engine is told not to cache the
    per-slot results (on long horizons that cache — one cost row *and* one
    ``|M| x d`` load block per signature — is itself ``O(T * |M|)``).  The
    provider instead keeps its own **byte-capped memo of the key tensors**:
    real long-horizon traces carry far fewer distinct keys than slots, so
    later windows (and the entire backtracking pass) reuse the forward pass's
    tensors instead of re-running the dispatch solve, while adversarially
    unique horizons simply stop inserting once the budget is reached and
    degrade to recompute.
    """

    def __init__(
        self,
        instance: ProblemInstance,
        grids: Sequence[StateGrid],
        dispatcher: DispatchSolver,
        window: Optional[int] = None,
        memoise: bool = True,
        memo_bytes: int = 32 * 1024 * 1024,
    ):
        self.instance = instance
        self.grids = tuple(grids)
        self.dispatcher = dispatcher
        T = len(self.grids)
        self.window = T if window is None else min(check_window(window, "window"), max(T, 1))
        self.memoise = memoise
        self.memo_bytes = int(memo_bytes)
        #: ``key_of[t]`` is slot ``t``'s key id.
        self.key_of: List[int] = self._index_keys()
        self._lo = self._hi = 0  # the live window's slots
        self._tensors: dict = {}  # key id -> tensor, for the live window
        self._sig_memo: dict = {}  # key id -> tensor, within memo_bytes
        self._sig_memo_used = 0
        #: Number of window materialisations (2x the window count for a full
        #: streaming solve: one forward pass, one backtracking pass).
        self.windows_materialised = 0
        #: Slots served from the key memo instead of a dispatch solve.
        self.signature_memo_hits = 0

    def _index_keys(self) -> List[int]:
        """One key id per slot; slots share an id exactly when their keys are equal."""
        instance, grids = self.instance, self.grids
        T = len(grids)
        # equal grid keys share an id, looked up once per grid object
        grid_ids, by_key = dict.fromkeys(grids), {}
        for grid in grid_ids:
            grid_ids[grid] = by_key.setdefault(grid.key, len(by_key))
        grid_of = np.fromiter(map(grid_ids.__getitem__, grids), np.int64, T)
        if instance.cost_functions is None:
            # every slot reads one cost row, so equal demands have equal g_t
            sig_of = np.unique(instance.demand, return_inverse=True)[1]
        else:
            signature, sigs = self.dispatcher._slot_signature, {}
            sig_of = np.fromiter(
                (sigs.setdefault(signature(t), len(sigs)) for t in range(T)), np.int64, T
            )
        return (sig_of * len(by_key) + grid_of).tolist()

    def tensor(self, t: int) -> np.ndarray:
        """The ``g_t`` value tensor of slot ``t`` (materialising its window)."""
        if not self._lo <= t < self._hi:
            self._materialise(t - t % self.window)
        return self._tensors[self.key_of[t]]

    def _materialise(self, lo: int) -> None:
        hi = min(lo + self.window, len(self.grids))
        # the previous window goes first, so one window is live at a time
        self._lo = self._hi = 0
        self._tensors = tensors = {}
        keys, first, counts = np.unique(
            self.key_of[lo:hi], return_index=True, return_counts=True
        )
        order = np.argsort(first)
        # grid key -> (grid, [(key id, first slot)]) of the keys the memo misses
        pending: dict = {}
        for key, t, count in zip(
            keys[order].tolist(), (first[order] + lo).tolist(), counts[order].tolist()
        ):
            hit = self._sig_memo.get(key)
            if hit is not None:
                tensors[key] = hit
                self.signature_memo_hits += count
                continue
            grid = self.grids[t]
            pending.setdefault(grid.key, (grid, []))[1].append((key, t))
        infeasible = []
        for grid, entries in pending.values():
            # bound each call's transient (slots x |M| x (1 + d)) result block
            chunk = max(1, 500_000 // (grid.size * (1 + self.instance.d)))
            for start in range(0, len(entries), chunk):
                part = entries[start : start + chunk]
                costs, _ = self.dispatcher.solve_block(
                    [t for _, t in part], grid.configs(), memoise=self.memoise
                )
                feasible = np.isfinite(costs).any(axis=1).tolist()
                for row, ok, (key, t) in zip(costs, feasible, part):
                    tensors[key] = tensor = row.reshape(grid.shape)  # read-only, like the block
                    if not ok:
                        infeasible.append(t)
                    elif self._sig_memo_used + tensor.nbytes <= self.memo_bytes:
                        self._sig_memo[key] = tensor
                        self._sig_memo_used += tensor.nbytes
        if infeasible:
            raise ValueError(
                f"slot {min(infeasible)}: no configuration on the grid can serve the demand "
                "(instance infeasible or grid too coarse)"
            )
        self._lo, self._hi = lo, hi
        self.windows_materialised += 1


class ForwardDP:
    """One step of the forward recurrence ``V_t = g_t + min-plus(V_{t-1})``.

    Holds the newest ``grid`` and ``value`` tensor (``None`` before the first
    step, unless seeded, e.g. at a history checkpoint) and the same-grid
    :class:`~repro.offline.transitions.TransitionPlan` (of the last grid and
    ``beta`` objects).  :meth:`step` charges the start-up costs on the first
    step, runs the plan when the grid is the previous step's grid object, and
    a fresh ``transition`` only on a grid change; the two run one kernel, so
    the tensors are the same bit for bit.  A plan-produced tensor lives in
    the plan's buffers and a later step overwrites it, so a tensor that must
    outlive the next steps is stepped with ``keep=True``, which copies it.
    """

    __slots__ = ("grid", "value", "_plan", "_plan_grid", "_plan_beta")

    def __init__(self, grid: Optional[StateGrid] = None, value: Optional[np.ndarray] = None):
        self.grid = grid
        self.value = value
        self._plan = None
        self._plan_grid: Optional[StateGrid] = None
        self._plan_beta: Optional[np.ndarray] = None

    def step(
        self, grid: StateGrid, g_tensor: np.ndarray, beta: np.ndarray, keep: bool = False
    ) -> np.ndarray:
        """Advance to ``V_t`` on ``grid`` with the operating costs ``g_tensor``."""
        value = self.value
        if value is None:
            arrival = startup_cost_tensor(grid.values, beta)
        elif grid is self.grid:
            if grid is not self._plan_grid or beta is not self._plan_beta:
                self._plan = make_transition_plan(grid.values, grid.values, beta)
                self._plan_grid, self._plan_beta = grid, beta
            arrival = self._plan.apply(value)
            if keep:
                arrival = arrival.copy()
        else:
            arrival = transition(value, self.grid.values, grid.values, beta)
        # arrival is a fresh tensor or a plan-owned buffer: accumulate in place
        self.value = np.add(arrival, g_tensor, out=arrival)
        self.grid = grid
        return self.value


class ValueHistory:
    """The value tensors ``V_t`` a backward pass reads: kept or rematerialised.

    A forward pass appends each step's grid and tensor.  ``window=None`` keeps
    every tensor; a ``window`` keeps every ``window``-th one (the checkpoints)
    plus the newest, and :meth:`value_at` rematerialises any other step by
    stepping a :class:`ForwardDP` from its window's checkpoint on the
    ``g_tensor(t)`` operating-cost tensors, so every tensor comes back
    bit-identical.
    The last rematerialised window stays cached: a walk through one window
    recomputes it once, in any order.  ``beta`` is the switching-cost vector
    the transitions and :meth:`backtrack` charge.
    """

    __slots__ = (
        "beta", "window", "g_tensor", "grids", "operating",
        "_kept", "_newest", "_window_values", "_window_costs",
    )

    def __init__(
        self,
        beta: np.ndarray,
        window: Optional[int] = None,
        g_tensor: Optional[Callable[[int], np.ndarray]] = None,
    ):
        self.beta = beta
        self.window = check_window(window, "window")
        self.g_tensor = g_tensor
        #: ``grids[t]`` is the grid ``V_t`` lives on.
        self.grids: List[StateGrid] = []
        #: ``g_t(x_t)`` along the last :meth:`backtrack`'s path.
        self.operating: Optional[np.ndarray] = None
        self._kept: dict = {}  # step -> tensor: every step, or every window-th
        self._newest: Optional[np.ndarray] = None
        self._window_values: dict = {}  # the last rematerialised window
        self._window_costs: dict = {}  # ... and the g_tensor(t) it stepped on

    def __len__(self) -> int:
        return len(self.grids)

    def keeps(self, t: int) -> bool:
        """Whether step ``t``'s tensor is still held after later steps are appended."""
        return self.window is None or t % self.window == 0

    def append(self, grid: StateGrid, value: np.ndarray) -> None:
        """Record the next step's grid and tensor (held by reference, not copied)."""
        if self.keeps(len(self.grids)):
            self._kept[len(self.grids)] = value
        self.grids.append(grid)
        self._newest = value

    @property
    def values(self) -> tuple:
        """Every step's tensor; a windowed history refuses (it keeps O(T/window))."""
        if self.window is not None:
            raise RuntimeError(
                "a windowed ValueHistory keeps every window-th tensor; "
                "use value_at(t) / backtrack() instead of .values"
            )
        return tuple(self._kept.values())

    def value_at(self, t: int) -> np.ndarray:
        """The tensor ``V_t``, rematerialising its window if it is not kept."""
        if not 0 <= t < len(self.grids):
            raise IndexError(f"step {t} outside the recorded range 0..{len(self.grids) - 1}")
        if t == len(self.grids) - 1:
            return self._newest
        value = self._kept.get(t)
        if value is None:
            value = self._window_values.get(t)
        if value is None:
            value = self._rematerialise(t - t % self.window)[t]
        return value

    def _rematerialise(self, c: int) -> dict:
        """Recompute (and cache) the unkept tensors of the window starting at ``c``."""
        # the previous window goes first, so one window is live at a time
        self._window_values = window = {}
        self._window_costs = costs = {}
        forward = ForwardDP(self.grids[c], self._kept[c])
        # the newest tensor is held, so the recompute stops short of it
        for t in range(c + 1, min(c + self.window, len(self.grids) - 1)):
            costs[t] = g_tensor = self.g_tensor(t)
            value = forward.step(self.grids[t], g_tensor, self.beta, keep=True)
            value.setflags(write=False)
            window[t] = value
        return window

    def backtrack(self) -> np.ndarray:
        """The optimal configuration path over every recorded step, ``(T, d)``.

        The path ends at the argmin of the newest tensor (powering down after
        the horizon is free) and walks backwards through the argmin of
        ``V_{t-1} + S(., x_t)``; reading the steps newest first rematerialises
        each window of a windowed history once.  Two scratch buffers are
        threaded through the walk, and the switching-cost tensor is memoised
        on the step's grid and the next step's grid and flat index: optimal
        schedules hold their configuration over long stretches, so most steps
        reuse it.  The walk reads flat indices (row ``i`` of
        ``grid.configs()`` is entry ``i`` of a C-order tensor).  With a
        ``g_tensor``, the walk records each ``g_t(x_t)`` in :attr:`operating`
        while the step's window is live.
        """
        T = len(self.grids)
        configs = np.zeros((T, len(self.beta)), dtype=int)
        operating = None if self.g_tensor is None else np.zeros(T)
        switch: Optional[np.ndarray] = None
        total: Optional[np.ndarray] = None
        switch_key: Optional[tuple] = None
        index = 0
        for t in range(T - 1, -1, -1):
            grid = self.grids[t]
            table = self.value_at(t)
            if t < T - 1:
                key = (grid, self.grids[t + 1], index)
                if switch_key != key:
                    out = switch if switch is not None and switch.shape == grid.shape else None
                    switch = switching_cost_tensor(grid.values, configs[t + 1], self.beta, out=out)
                    switch_key = key
                if total is None or total.shape != grid.shape:
                    total = np.empty(grid.shape)
                table = np.add(table, switch, out=total)
            index = int(table.argmin())
            configs[t] = grid.configs()[index]
            if operating is not None:
                # a rematerialised step prices from the tensor it stepped on
                g_tensor = self._window_costs.get(t)
                operating[t] = (self.g_tensor(t) if g_tensor is None else g_tensor).flat[index]
        self.operating = operating
        return configs

    def priced_schedule(self) -> Tuple[Schedule, float]:
        """:meth:`backtrack`'s schedule and its cost ``C(X)``, priced from the walk.

        Needs a ``g_tensor``.  Summed as :class:`~repro.core.costs.CostBreakdown`
        sums it, so a piece-row cost is
        :func:`~repro.core.costs.evaluate_schedule`'s total bit for bit (a
        dispatch cell is the same in any block); the ``CallableCost``
        bisection agrees to its tolerance.
        """
        schedule = Schedule(self.backtrack())
        switching = (schedule.power_ups() * self.beta[None, :]).sum(axis=1)
        return schedule, float(np.sum(self.operating) + np.sum(switching))


def forward_pass(
    costs: WindowedOperatingCosts,
    beta: np.ndarray,
    history: Optional[ValueHistory] = None,
) -> np.ndarray:
    """Run the forward recurrence over a provider's horizon and return ``V_{T-1}``.

    ``costs.grids[t]`` is slot ``t``'s grid and ``costs.tensor(t)`` its
    operating-cost tensor; the provider raises ``ValueError`` on a slot no
    configuration can serve.  Each step's grid and tensor are appended to the
    (empty) ``history`` when one is given, and the steps it keeps are stepped
    with ``keep=True``, so no kept tensor aliases a plan buffer.
    """
    forward, tensor = ForwardDP(), costs.tensor
    for t, grid in enumerate(costs.grids):
        if history is None:
            forward.step(grid, tensor(t), beta)
        else:
            history.append(grid, forward.step(grid, tensor(t), beta, keep=history.keeps(t)))
    return forward.value


def solve_dp(
    instance: ProblemInstance,
    gamma: Optional[float] = None,
    dispatcher: Optional[DispatchSolver] = None,
    keep_tables: bool = False,
    return_schedule: bool = True,
    checkpoint_every: Optional[int] = None,
) -> OfflineResult:
    """Run the forward DP / shortest-path computation.

    Parameters
    ----------
    instance:
        The problem instance.
    gamma:
        When given, use the reduced grids ``M^gamma_{t,j}`` (approximation
        algorithm); when ``None``, use the full grids (exact algorithm).
    dispatcher:
        Shared dispatch solver (created on demand).
    keep_tables:
        Keep all per-slot value tensors in the result.  Forces the classic
        full-history pass (``O(T * |M|)`` memory) regardless of
        ``checkpoint_every``.
    return_schedule:
        When ``False``, only the optimal cost is computed (the backward pass
        and the memory for the table history are skipped); the result's
        ``schedule`` is ``None``.
    checkpoint_every:
        Checkpoint window of the streaming value pass.  ``None`` auto-tunes
        via :func:`default_checkpoint_every`: small instances keep the full
        history (no recompute), large ones stream with a ``sqrt(T)`` window.
        Any explicit value forces streaming with that window (must be >= 1;
        values above ``T`` are clamped) — ``O(T/k + k)`` value tensors live
        instead of ``T``, at the cost of re-running the forward DP once
        inside each window during backtracking.

    Returns
    -------
    OfflineResult
        The schedule is optimal among all schedules whose configurations lie on
        the per-slot grids; with full grids this is the global optimum.
    """
    T, d = instance.T, instance.d
    beta = instance.beta
    dispatcher = dispatcher or DispatchSolver(instance)

    grids = slot_grids(instance, gamma)

    if T == 0:
        return OfflineResult(
            schedule=Schedule.empty(0, d) if return_schedule else None,
            cost=0.0,
            grids=grids,
            value_tables=() if keep_tables else None,
            gamma=gamma,
        )

    checkpoint_every = check_window(checkpoint_every, "checkpoint_every")
    if keep_tables:
        window = None
    elif checkpoint_every is not None:
        window = min(checkpoint_every, T)
    else:
        window = default_checkpoint_every(T, max(g.size for g in grids))
    provider = WindowedOperatingCosts(
        instance, grids, dispatcher, window=window, memoise=window is None
    )

    history = (
        ValueHistory(beta, window, provider.tensor) if keep_tables or return_schedule else None
    )
    best_cost = float(np.min(forward_pass(provider, beta, history)))
    if not np.isfinite(best_cost):
        raise ValueError("no feasible schedule exists on the given grids")
    # the backward pass prices its path from the operating costs it reads
    schedule, cost = history.priced_schedule() if return_schedule else (None, best_cost)
    return OfflineResult(
        schedule=schedule,
        cost=cost,
        grids=grids,
        value_tables=history.values if keep_tables else None,
        gamma=gamma,
        checkpoint_every=window,
    )
