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
divide and conquer on the layered graph): the forward pass retains one value
tensor every ``checkpoint_every`` slots, and the backward pass rematerialises
each checkpoint window by re-running the forward DP inside it — ``O(sqrt(T) *
|M|)`` memory at most one extra forward pass of work.  Operating-cost tensors
are likewise produced window by window (:class:`WindowedOperatingCosts`)
instead of all-T upfront, and the dispatch engine is asked not to memoise
per-slot results while streaming.  Small instances (below
:data:`STREAMING_TABLE_BYTES_THRESHOLD` of table history) keep the classic
full-history pass, which costs no recompute; ``keep_tables=True`` forces it and
exposes the tensors.

The same engine serves

* the exact algorithm (full grids, Section 4.1),
* the (1+eps)-approximation (geometric grids ``M^gamma``, Section 4.2),
* time-dependent data-center sizes (per-slot grids, Section 4.3), and
* the incremental prefix-optimum tracker used by the online algorithms
  (:mod:`repro.online.tracker`), which simply keeps the last value tensor and
  feeds one more slot at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..core.costs import evaluate_schedule
from ..core.instance import ProblemInstance
from ..core.schedule import Schedule
from ..dispatch.allocation import DispatchSolver
from .state_grid import StateGrid, grid_for_slot
from .transitions import (
    make_transition_plan,
    startup_cost_tensor,
    switching_cost_tensor,
    transition,
)

__all__ = [
    "OfflineResult",
    "STREAMING_TABLE_BYTES_THRESHOLD",
    "WindowedOperatingCosts",
    "backtrack_schedule",
    "default_checkpoint_every",
    "operating_cost_tensor",
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
        The total cost ``C(X)`` with respect to the *original* instance.
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


def operating_cost_tensor(
    instance: ProblemInstance,
    t: int,
    grid: StateGrid,
    dispatcher: DispatchSolver,
) -> np.ndarray:
    """Evaluate ``g_t(x)`` for every configuration of ``grid`` as a value tensor."""
    configs = grid.configs()
    costs, _ = dispatcher.solve_grid(t, configs)
    return costs.reshape(grid.shape)


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

    The provider materialises the window containing the requested slot —
    grouping the window's slots by grid and issuing one batched
    :meth:`~repro.dispatch.DispatchSolver.solve_block` per distinct grid, the
    same per-grid batching the whole-horizon path uses — and drops the previous
    window, so at most ``window`` cost tensors are live.  Windows are aligned
    to multiples of ``window``, which makes the backward pass rematerialise
    exactly the tensors the forward pass produced.

    With ``memoise=False`` the dispatch engine is told not to cache the
    per-slot results (on long horizons that cache — one cost row *and* one
    ``|M| x d`` load block per signature — is itself ``O(T * |M|)``).  The
    provider instead keeps its own **byte-capped signature memo of cost
    tensors only**: real long-horizon traces carry far fewer distinct
    ``(demand, cost-row)`` signatures than slots, so later windows (and the
    entire backtracking pass) reuse the forward pass's tensors instead of
    re-running the dispatch solve, while adversarially unique horizons simply
    stop inserting once the budget is reached and degrade to recompute.
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
        self.window = T if window is None else max(1, min(int(window), max(T, 1)))
        self.memoise = memoise
        self.memo_bytes = int(memo_bytes)
        self._tensors: dict = {}
        self._sig_memo: dict = {}
        self._sig_memo_used = 0
        #: Number of window materialisations (2x the window count for a full
        #: streaming solve: one forward pass, one backtracking pass).
        self.windows_materialised = 0
        #: Slots served from the signature memo instead of a dispatch solve.
        self.signature_memo_hits = 0

    def tensor(self, t: int) -> np.ndarray:
        """The ``g_t`` value tensor of slot ``t`` (materialising its window)."""
        g_tensor = self._tensors.get(t)
        if g_tensor is None:
            self._materialise((t // self.window) * self.window)
            g_tensor = self._tensors[t]
        return g_tensor

    def _materialise(self, lo: int) -> None:
        hi = min(lo + self.window, len(self.grids))
        self._tensors.clear()
        by_grid: dict = {}
        sig_keys: dict = {}
        use_sig_memo = not self.memoise  # streaming mode only; the classic
        # whole-horizon pass already deduplicates inside its single block
        for t in range(lo, hi):
            grid = self.grids[t]
            if use_sig_memo:
                sig_keys[t] = (self.dispatcher._slot_signature(t), grid.key)
                hit = self._sig_memo.get(sig_keys[t])
                if hit is not None:
                    self._tensors[t] = hit
                    self.signature_memo_hits += 1
                    continue
            by_grid.setdefault(grid.key, (grid, []))[1].append(t)
        for grid, ts in by_grid.values():
            costs, _ = self.dispatcher.solve_block(ts, grid.configs(), memoise=self.memoise)
            for i, t in enumerate(ts):
                if not use_sig_memo:
                    self._tensors[t] = costs[i].reshape(grid.shape)
                    continue
                key = sig_keys[t]
                cached = self._sig_memo.get(key)
                if cached is not None:
                    # duplicate signature within the window, first copy wins
                    self._tensors[t] = cached
                    continue
                # copy the row out of the (window x configs) block so a memo
                # entry pins |M| floats, not the whole window's result (and
                # the block's load array can be freed immediately)
                tensor = costs[i].reshape(grid.shape).copy()
                tensor.setflags(write=False)
                self._tensors[t] = tensor
                if self._sig_memo_used + tensor.nbytes <= self.memo_bytes:
                    self._sig_memo[key] = tensor
                    self._sig_memo_used += tensor.nbytes
        self.windows_materialised += 1


def _check_some_feasible(tensor: np.ndarray, t: int) -> None:
    if not np.any(np.isfinite(tensor)):
        raise ValueError(
            f"slot {t}: no configuration on the grid can serve the demand "
            "(instance infeasible or grid too coarse)"
        )


def _backtrack_windowed(
    grids: Sequence[StateGrid],
    beta: np.ndarray,
    T: int,
    window: int,
    tables_for_window: Callable[[int, int], Sequence[np.ndarray]],
) -> np.ndarray:
    """Walk the argmin chain backwards, one table window at a time.

    ``tables_for_window(c, e)`` returns the value tensors of slots ``c..e``
    (inclusive); windows are processed from the last to the first, each seeded
    by the configuration the following window chose for its first slot.  With
    ``window >= T`` and the full table list this is the classic single-sweep
    backtrack; with rematerialising callbacks it is the checkpointed
    ``O(sqrt(T))``-memory variant.  Two scratch buffers are threaded through
    the walk; the switching-cost tensor is additionally memoised on its
    ``(grid, next configuration)`` pair — optimal schedules hold their
    configuration over long stretches, so most slots reuse it outright.
    """
    d = len(beta)
    configs = np.zeros((T, d), dtype=int)
    if T == 0:
        return configs
    switch: Optional[np.ndarray] = None
    total: Optional[np.ndarray] = None
    switch_key: Optional[tuple] = None

    def argmin_prev(grid: StateGrid, table: np.ndarray, x_next: np.ndarray) -> np.ndarray:
        nonlocal switch, total, switch_key
        key = (id(grid), tuple(int(v) for v in x_next))
        if switch_key != key:
            out = switch if switch is not None and switch.shape == grid.shape else None
            switch = switching_cost_tensor(grid.values, x_next, beta, out=out)
            switch_key = key
        if total is None or total.shape != grid.shape:
            total = np.empty(grid.shape)
        np.add(table, switch, out=total)
        idx = np.unravel_index(int(np.argmin(total)), grid.shape)
        return grid.config_at(idx)

    next_config: Optional[np.ndarray] = None
    for c in range(((T - 1) // window) * window, -1, -window):
        e = min(c + window, T) - 1
        tables = tables_for_window(c, e)
        if next_config is None:
            # final slot of the horizon: free power-down, plain argmin
            idx = np.unravel_index(int(np.argmin(tables[e - c])), grids[e].shape)
            configs[e] = grids[e].config_at(idx)
        else:
            configs[e] = argmin_prev(grids[e], tables[e - c], next_config)
        for t in range(e, c, -1):
            configs[t - 1] = argmin_prev(grids[t - 1], tables[t - 1 - c], configs[t])
        next_config = configs[c]
    return configs


def backtrack_schedule(
    grids: Sequence[StateGrid],
    tables: Sequence[np.ndarray],
    beta: np.ndarray,
) -> np.ndarray:
    """Reconstruct the optimal configuration path from the DP value tensors.

    ``tables[t]`` is the value tensor ``V_t`` on ``grids[t]``; the path ends at
    the argmin of the final tensor and walks backwards through the argmin of
    ``V_{t-1} + S(., x_t)``.  Shared by :func:`solve_dp` and the sweep engine's
    shared-context path (which reuses the memoised per-slot value stream as the
    tables).
    """
    T = len(grids)
    return _backtrack_windowed(grids, beta, T, max(T, 1), lambda c, e: tables)


def _backtrack_checkpointed(
    grids: Sequence[StateGrid],
    beta: np.ndarray,
    T: int,
    window: int,
    checkpoints: dict,
    provider: WindowedOperatingCosts,
) -> np.ndarray:
    """Checkpointed backward pass: rematerialise each window by forward DP.

    ``checkpoints`` maps window-start slots to their value tensors (consumed —
    each checkpoint is released once its window has been walked, so the live
    set only shrinks).  Rematerialisation repeats the exact forward-pass
    operations from the checkpoint, so the recovered tables — and therefore
    the argmin chain — are bit-identical to the full-history pass.
    """

    def tables_for_window(c: int, e: int) -> List[np.ndarray]:
        value = checkpoints.pop(c)
        tables = [value]
        for t in range(c + 1, e + 1):
            g_tensor = provider.tensor(t)
            arrival = transition(value, grids[t - 1].values, grids[t].values, beta)
            value = np.add(arrival, g_tensor, out=arrival)
            tables.append(value)
        return tables

    return _backtrack_windowed(grids, beta, T, window, tables_for_window)


def solve_dp(
    instance: ProblemInstance,
    gamma: Optional[float] = None,
    grids: Optional[Sequence[StateGrid]] = None,
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
        Ignored when explicit ``grids`` are supplied.
    grids:
        Optional explicit per-slot grids (advanced use; length must be ``T``).
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

    if grids is not None:
        grids = tuple(grids)
        if len(grids) != T:
            raise ValueError(f"expected {T} grids, got {len(grids)}")
    else:
        grids = tuple(grid_for_slot(instance, t, gamma) for t in range(T))

    if T == 0:
        return OfflineResult(
            schedule=Schedule.empty(0, d) if return_schedule else None,
            cost=0.0,
            grids=grids,
            value_tables=() if keep_tables else None,
            gamma=gamma,
        )

    if checkpoint_every is not None and int(checkpoint_every) < 1:
        raise ValueError("checkpoint_every must be a positive integer when given")
    if keep_tables:
        window = None
    elif checkpoint_every is not None:
        window = min(int(checkpoint_every), T)
    else:
        window = default_checkpoint_every(T, max(g.size for g in grids))
    streaming = window is not None
    provider = WindowedOperatingCosts(
        instance, grids, dispatcher, window=window, memoise=not streaming
    )

    keep_history = keep_tables or (return_schedule and not streaming)
    track_checkpoints = streaming and return_schedule

    tables: List[np.ndarray] = []
    checkpoints: dict = {}
    value: Optional[np.ndarray] = None

    # Streaming passes may run repeated same-grid slots through one
    # preallocated TransitionPlan (bit-identical kernels, no per-slot buffer
    # churn).  The full-history pass must not: the plan reuses its output
    # buffers, and `tables` needs every slot's tensor to stay distinct.
    use_plan = not keep_history
    plan = None
    plan_grid_key = None
    from_plan = False

    for t in range(T):
        grid = grids[t]
        g_tensor = provider.tensor(t)
        _check_some_feasible(g_tensor, t)
        if t == 0:
            arrival = startup_cost_tensor(grid.values, beta)
            from_plan = False
        else:
            arrival = None
            if use_plan and grid.key == grids[t - 1].key:
                if plan_grid_key != grid.key:
                    plan_grid_key = grid.key
                    plan = make_transition_plan(grid.values, grid.values, beta)
                if plan is not None:
                    arrival = plan.apply(value)
                    from_plan = True
            if arrival is None:
                arrival = transition(value, grids[t - 1].values, grid.values, beta)
                from_plan = False
        # arrival is a fresh tensor every slot (or a plan-owned buffer), so
        # accumulate in place
        value = np.add(arrival, g_tensor, out=arrival)
        if keep_history:
            tables.append(value)
        elif track_checkpoints and t % window == 0:
            # a plan-owned buffer is overwritten two slots later (ping-pong):
            # checkpoints must own their bytes
            checkpoints[t] = value.copy() if from_plan else value

    assert value is not None
    best_flat = int(np.argmin(value))
    best_cost = float(value.reshape(-1)[best_flat])
    if not np.isfinite(best_cost):
        raise ValueError("no feasible schedule exists on the given grids")

    if not return_schedule:
        return OfflineResult(
            schedule=None,
            cost=best_cost,
            grids=grids,
            value_tables=tuple(tables) if keep_tables else None,
            gamma=gamma,
            checkpoint_every=window if streaming else None,
        )

    # ------------------------------------------------------------ backward pass
    if keep_history:
        configs = backtrack_schedule(grids, tables, beta)
    else:
        configs = _backtrack_checkpointed(grids, beta, T, window, checkpoints, provider)
    schedule = Schedule(configs)
    # Re-evaluate the schedule cost explicitly; for the exact algorithm this
    # equals ``best_cost`` (up to dispatch tolerance) and serves as a sanity
    # check, and for reduced grids it is by definition identical as well.
    breakdown = evaluate_schedule(instance, schedule, dispatcher, memoise=not streaming)
    return OfflineResult(
        schedule=schedule,
        cost=float(breakdown.total),
        grids=grids,
        value_tables=tuple(tables) if keep_tables else None,
        gamma=gamma,
        checkpoint_every=window if streaming else None,
    )
