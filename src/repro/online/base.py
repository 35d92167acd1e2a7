"""Online algorithm interface and driver.

In the online version of the right-sizing problem the job volumes ``lambda_t``
and operating-cost functions ``f_{t,j}`` arrive one by one; the configuration
``x_t`` must be fixed before anything about slots ``t' > t`` is revealed.

The driver :func:`run_online` enforces this information model: an algorithm
only ever receives a :class:`SlotInfo` describing the *current* slot (demand,
cost functions, available fleet, and an evaluator for the slot's operating
cost ``g_t``), plus the static fleet description at start-up.  The total
horizon ``T`` is *not* revealed.

Algorithms return one integral configuration per step; the driver validates it
against the fleet limits, assembles the schedule, and evaluates its exact cost,
and it collects each step's :class:`Decision` record (the facts the paper's
analysis reads per slot) into :attr:`OnlineRunResult.decisions`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from ..core.costs import CostBreakdown, breakdown_from_parts, evaluate_schedule
from ..core.instance import ProblemInstance
from ..core.schedule import Schedule
from ..dispatch.allocation import DispatchSolver
from ..offline.state_grid import grid_for_slot

__all__ = [
    "Decision",
    "OnlineContext",
    "SlotContext",
    "SlotInfo",
    "OnlineAlgorithm",
    "OnlineRunResult",
    "run_online",
]


@dataclass(frozen=True, eq=False)
class OnlineContext:
    """Static information available to an online algorithm before the first slot."""

    server_types: tuple
    beta: np.ndarray
    zmax: np.ndarray
    base_counts: np.ndarray

    @property
    def d(self) -> int:
        return len(self.server_types)


@dataclass(frozen=True, eq=False)
class SlotInfo:
    """Everything an online algorithm may see about the current time slot ``t``.

    ``operating_cost`` evaluates ``g_t(x)`` for one or many configurations of
    the *current* slot; it is backed by the instance's dispatch solver but can
    only be queried for this slot, so no future information leaks.
    Configurations may be fractional (used by the fractional baselines).
    """

    t: int
    demand: float
    cost_functions: tuple
    counts: np.ndarray
    beta: np.ndarray
    zmax: np.ndarray
    _evaluator: Callable[[np.ndarray], np.ndarray]
    #: Optional fast path: ``grid -> value tensor of g_t over the whole grid``.
    #: Populated by :class:`SlotContext` so that every tracker sharing the
    #: context reads one precomputed tensor instead of re-querying dispatch.
    _grid_evaluator: Optional[Callable] = None

    def idle_costs(self) -> np.ndarray:
        """Idle operating costs ``l_{t,j} = f_{t,j}(0)`` of the current slot."""
        return np.array([f.idle_cost() for f in self.cost_functions], dtype=float)

    def operating_cost(self, configs) -> np.ndarray:
        """Evaluate ``g_t`` for a single configuration or a batch of configurations."""
        arr = np.asarray(configs, dtype=float)
        single = arr.ndim == 1
        batch = arr[None, :] if single else arr
        costs = self._evaluator(batch)
        return float(costs[0]) if single else costs

    def grid_operating_cost(self, grid) -> np.ndarray:
        """Value tensor of ``g_t`` over a whole :class:`~repro.offline.state_grid.StateGrid`.

        The returned tensor is read-only and may be shared between callers.
        """
        if self._grid_evaluator is not None:
            return self._grid_evaluator(grid)
        return self.operating_cost(grid.configs()).reshape(grid.shape)

    def with_scaled_costs(self, factor: float) -> "SlotInfo":
        """A copy of this slot whose operating costs are multiplied by ``factor``.

        Used by Algorithm C, which splits a slot into ``n_t`` sub-slots each
        carrying ``1/n_t`` of the operating cost (Section 3.2).
        """
        scaled_functions = tuple(f.scaled(factor) for f in self.cost_functions)
        evaluator = self._evaluator
        grid_evaluator = self._grid_evaluator

        def scaled_evaluator(configs: np.ndarray) -> np.ndarray:
            return factor * evaluator(configs)

        scaled_grid_evaluator = None
        if grid_evaluator is not None:
            def scaled_grid_evaluator(grid) -> np.ndarray:
                return factor * grid_evaluator(grid)

        return SlotInfo(
            t=self.t,
            demand=self.demand,
            cost_functions=scaled_functions,
            counts=self.counts,
            beta=self.beta,
            zmax=self.zmax,
            _evaluator=scaled_evaluator,
            _grid_evaluator=scaled_grid_evaluator,
        )


class Decision(NamedTuple):
    """The analysis facts of one online step (one slot ``t``).

    ``xhat`` is the prefix optimum ``\\hat x^t_t`` and ``power_ups`` the
    servers ``w_t`` powered up (Algorithms A and B); ``retired`` is B's
    retirement set ``W_t`` as ``(type, power-up slot)`` pairs; ``lower`` and
    ``upper`` are LCP's targets ``(X^L_t, X^U_t)``; ``sub_slots`` is C's
    ``n_t``.  A field the algorithm does not produce keeps its default.  The
    arrays are the step's own (references, not copies), and the algorithms
    build the record positionally, in this field order, on the tick path.
    """

    xhat: Optional[np.ndarray] = None
    power_ups: Optional[np.ndarray] = None
    retired: Sequence = ()
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    sub_slots: Optional[int] = None


class OnlineAlgorithm(abc.ABC):
    """Base class of integral online right-sizing algorithms.

    An algorithm holds decision state only: what the next :meth:`step`
    needs.  Algorithms A, B, C and LCP describe each step in a
    :class:`Decision` that overwrites :attr:`last_decision`, so a long-lived
    session holds one record however many ticks it serves.
    """

    #: Human-readable identifier used in reports and benchmark tables.
    name: str = "online"

    #: The :class:`Decision` of the latest step (the per-tick provenance
    #: hook); ``None`` for algorithms that record none, such as the baselines.
    last_decision: Optional[Decision] = None

    def start(self, context: OnlineContext) -> None:
        """Reset internal state for a new run (called once before the first slot)."""

    @abc.abstractmethod
    def step(self, slot: SlotInfo) -> np.ndarray:
        """Choose the configuration ``x_t`` for the current slot."""

    def finish(self) -> None:
        """Hook called after the last slot (optional bookkeeping)."""

    def evaluation_grid(self, counts: np.ndarray):
        """The grid whose ``g_t`` tensor :meth:`step` reads at available ``counts``.

        A :class:`~repro.offline.state_grid.StateGrid` or ``None`` (the
        default: the step reads no grid tensor, or does not say).  The serve
        engine solves a round's cold tensors on these grids in one dispatch
        block before the sessions step.  Dispatch is exact per cell, so a
        wrong answer costs a wasted solve, never a different decision.
        """
        return None

    # -------------------------------------------------------- checkpointing
    def state_dict(self) -> dict:
        """JSON-safe snapshot of all *decision-relevant* state.

        The serve layer (:mod:`repro.serve`) persists this dict in a
        :meth:`~repro.serve.ControllerSession.checkpoint` and feeds it back
        through :meth:`load_state_dict` after a restart; an algorithm must
        capture enough state here that every future :meth:`step` decision is
        unchanged by the round-trip.  :attr:`last_decision` describes a past
        step and is not part of it.  Stateless algorithms inherit this empty
        default.
        """
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (called after :meth:`start`)."""
        if state:
            raise ValueError(
                f"{self.name}: cannot restore checkpoint state {sorted(state)} "
                "(algorithm does not override load_state_dict)"
            )


@dataclass(frozen=True, eq=False)
class OnlineRunResult:
    """Outcome of running an online algorithm over a full instance.

    ``dispatch_stats`` holds the *per-run delta* of the dispatch engine's work
    counters (block calls, unique solves, cache-hit rate) — the benchmark
    harness uses it to track how much of the per-slot grid work the batched
    engine deduplicates.  Deltas (not cumulative snapshots) are reported
    because the sweep engine shares one solver across every run of an
    instance.

    ``decisions`` holds the algorithm's :attr:`~OnlineAlgorithm.last_decision`
    after every slot, one entry per slot (``None`` entries for algorithms that
    record none).
    """

    algorithm: str
    schedule: Schedule
    breakdown: CostBreakdown
    dispatch_stats: Optional[dict] = None
    decisions: tuple = ()

    @property
    def cost(self) -> float:
        return self.breakdown.total

    def summary(self) -> dict:
        out = {"algorithm": self.algorithm}
        out.update(self.breakdown.summary())
        return out


class SlotContext:
    """Reusable per-instance driver state shared by many online runs.

    ``run_online`` builds ``T`` :class:`SlotInfo` objects and evaluates the
    final schedule for every run.  When one instance is swept by several
    algorithms (the sweep engine's core loop), that work is identical across
    runs; a ``SlotContext`` does it once:

    * one shared :class:`DispatchSolver`,
    * prebuilt, immutable per-slot :class:`SlotInfo` objects whose
      :meth:`SlotInfo.grid_operating_cost` serves memoised whole-grid value
      tensors — computed once per distinct dispatch signature and handed to
      every algorithm and tracker that shares the context, and
    * schedule evaluation by *gathering* costs and loads from those tensors
      (:meth:`evaluate_schedule`) instead of re-solving each schedule's
      configuration set from scratch.

    ``tensor_budget_bytes`` caps the grid-tensor memo (and tells the dispatch
    engine not to mirror the entries in its own block cache): once the budget
    is spent, further slots are re-solved per query instead of memoised.  A
    horizon whose demands are all distinct would otherwise pin one ``|M|``
    cost tensor plus one ``|M| x d`` load block per slot — the very
    ``O(T * |M| * d)`` footprint the checkpointed value histories exist to
    avoid, which is why :class:`~repro.exp.shared.SharedInstanceContext`
    sets a budget whenever it runs checkpointed.  ``None`` (default) keeps
    the unbounded classic behaviour.
    """

    def __init__(
        self,
        instance: ProblemInstance,
        dispatcher: Optional[DispatchSolver] = None,
        tensor_budget_bytes: Optional[int] = None,
    ):
        self.instance = instance
        self.dispatcher = dispatcher or DispatchSolver(instance)
        self.context = OnlineContext(
            server_types=instance.server_types,
            beta=instance.beta,
            zmax=instance.zmax,
            base_counts=instance.m,
        )
        self.tensor_budget_bytes = tensor_budget_bytes
        self._tensor_bytes_used = 0
        self._slots: list = [None] * instance.T
        self._tensor_cache: dict = {}
        self._batched_grids: set = set()

    def _cache_tensors(self, key, costs: np.ndarray, loads: np.ndarray) -> None:
        if self.tensor_budget_bytes is not None:
            size = costs.nbytes + loads.nbytes
            if self._tensor_bytes_used + size > self.tensor_budget_bytes:
                return
            self._tensor_bytes_used += size
            # copy rows out of the batched block so a cached entry pins its
            # own bytes, not the whole (slots x configs) result it came from
            costs = costs.copy()
            costs.setflags(write=False)
            loads = loads.copy()
            loads.setflags(write=False)
        self._tensor_cache[key] = (costs, loads)

    def slot(self, t: int) -> SlotInfo:
        """The (cached) :class:`SlotInfo` of slot ``t``."""
        slot = self._slots[t]
        if slot is None:
            instance, dispatcher = self.instance, self.dispatcher

            def evaluator(batch: np.ndarray, _t: int = t) -> np.ndarray:
                costs, _ = dispatcher.solve_grid(_t, batch)
                return costs

            def grid_evaluator(grid, _t: int = t) -> np.ndarray:
                return self._grid_tensors(_t, grid)[0]

            slot = SlotInfo(
                t=t,
                demand=float(instance.demand[t]),
                cost_functions=instance.cost_row(t),
                counts=instance.counts_at(t),
                beta=instance.beta,
                zmax=instance.zmax,
                _evaluator=evaluator,
                _grid_evaluator=grid_evaluator,
            )
            self._slots[t] = slot
        return slot

    def _grid_tensors(self, t: int, grid) -> tuple:
        """``(cost tensor, per-config loads)`` of ``g_t`` over ``grid``.

        Memoised per ``(dispatch signature, scale, grid)``, so slots that share
        a signature share one tensor and repeat queries skip even the dispatch
        block-cache lookup and reshape.  The first query for a grid triggers
        :meth:`_batch_grid`, which pushes *every* slot sharing the grid through
        one ``solve_block`` call — keeping the cross-demand vectorisation
        that slot-by-slot queries would forfeit.
        """
        sig, scale = self.dispatcher._slot_signature(t)
        key = (sig, scale, grid.key)
        hit = self._tensor_cache.get(key)
        if hit is None:
            self._batch_grid(grid)
            hit = self._tensor_cache.get(key)
        if hit is None:
            # budget-evicted slot, or a slot whose counts match no batch:
            # re-solve per query (correct, just not memoised)
            costs, loads = self.dispatcher.solve_block(
                [t], grid.configs(), memoise=self.tensor_budget_bytes is None
            )
            hit = (costs[0].reshape(grid.shape), loads[0])
            self._cache_tensors(key, *hit)
        return hit

    def _batch_grid(self, grid) -> None:
        """Solve ``g_t`` over ``grid`` for all matching slots in one block.

        A grid applies to every slot whose available counts equal the grid's
        per-dimension maxima (full and geometric grids both satisfy this), so
        those slots form one dispatch block: the solver deduplicates them by
        signature and runs a single vectorised solve across the unique
        demands, exactly as the offline DP's ``operating_cost_tensors`` does.
        """
        if grid.key in self._batched_grids:
            return
        self._batched_grids.add(grid.key)
        instance = self.instance
        counts_key = tuple(int(v) for v in grid.max_values())
        pending_keys: list = []
        pending_ts: list = []
        seen: set = set()
        for t in range(instance.T):
            if tuple(int(c) for c in instance.counts_at(t)) != counts_key:
                continue
            sig, scale = self.dispatcher._slot_signature(t)
            key = (sig, scale, grid.key)
            if key in self._tensor_cache or key in seen:
                continue
            seen.add(key)
            pending_keys.append(key)
            pending_ts.append(t)
        if not pending_ts:
            return
        memoise = self.tensor_budget_bytes is None
        if memoise:
            chunk = len(pending_ts)
        else:
            # bound the transient (slots x configs x (1+d)) result block the
            # same way evaluate_schedule chunks long horizons — one unchunked
            # call would materialise O(T * |M| * d) regardless of the budget
            chunk = max(1, 500_000 // max(grid.size * (1 + self.instance.d), 1))
        for lo in range(0, len(pending_ts), chunk):
            if not memoise and self._tensor_bytes_used >= self.tensor_budget_bytes:
                # budget exhausted: the remaining slots would be solved only
                # to be discarded — leave them to the per-query safety net
                break
            costs, loads = self.dispatcher.solve_block(
                pending_ts[lo : lo + chunk], grid.configs(), memoise=memoise
            )
            for i, key in enumerate(pending_keys[lo : lo + chunk]):
                self._cache_tensors(key, costs[i].reshape(grid.shape), loads[i])

    def evaluate_schedule(self, schedule: Schedule) -> CostBreakdown:
        """Exact cost breakdown of a schedule, gathered from the grid tensors.

        Gathers only from tensors that earlier runs already materialised; a
        cold slot (e.g. a reduced-grid-only sweep that never touched the full
        grid) falls back to the general path, which solves just the schedule's
        own configurations instead of a whole grid.
        """
        instance = self.instance
        T, d = instance.T, instance.d
        operating = np.zeros(T)
        loads = np.zeros((T, d))
        feasible = True
        # the fallback must honour the tensor budget: with memoise=True it
        # would repopulate the unbounded dispatch block cache the budget caps
        memoise = self.tensor_budget_bytes is None
        for t in range(T):
            grid = grid_for_slot(instance, t)
            sig, scale = self.dispatcher._slot_signature(t)
            hit = self._tensor_cache.get((sig, scale, grid.key))
            if hit is None:
                return evaluate_schedule(instance, schedule, self.dispatcher, memoise=memoise)
            try:
                idx = grid.index_of(schedule[t])
            except ValueError:
                # off-grid configuration (exceeds the slot's fleet): take the
                # general path, which reports the slot as infeasible
                return evaluate_schedule(instance, schedule, self.dispatcher, memoise=memoise)
            costs, load_rows = hit
            flat = int(np.ravel_multi_index(idx, grid.shape))
            operating[t] = float(costs.reshape(-1)[flat])
            loads[t] = load_rows[flat]
            if not np.isfinite(operating[t]):
                feasible = False
        return breakdown_from_parts(instance, schedule, operating, loads, feasible)


def run_online(
    instance: ProblemInstance,
    algorithm: OnlineAlgorithm,
    dispatcher: Optional[DispatchSolver] = None,
    slot_context: Optional[SlotContext] = None,
) -> OnlineRunResult:
    """Feed an instance slot-by-slot to an online algorithm and evaluate the result.

    The driver reveals each slot only when its configuration is requested; the
    algorithm therefore operates under the paper's online information model.
    The chosen configurations are validated against the per-slot fleet sizes;
    choosing more servers than exist raises immediately (this would mean the
    algorithm is not producing feasible schedules, cf. Lemmas 1 and 10).

    ``slot_context`` enables the shared-context path of the sweep engine: the
    run reuses the context's dispatch solver, prebuilt slots and memoised grid
    tensors, and the final schedule is evaluated by gathering from those
    tensors.  ``dispatch_stats`` always reports the *per-run delta* of the
    solver's work counters, so shared solvers do not leak one run's work into
    the next run's report.
    """
    if slot_context is not None:
        if slot_context.instance is not instance:
            raise ValueError("slot_context was built for a different instance")
        if dispatcher is not None and dispatcher is not slot_context.dispatcher:
            raise ValueError("give either a dispatcher or a slot_context, not both")
        dispatcher = slot_context.dispatcher
        context = slot_context.context
    else:
        dispatcher = dispatcher or DispatchSolver(instance)
        context = OnlineContext(
            server_types=instance.server_types,
            beta=instance.beta,
            zmax=instance.zmax,
            base_counts=instance.m,
        )
    stats_before = dispatcher.stats.snapshot()
    algorithm.start(context)

    T, d = instance.T, instance.d
    configs = np.zeros((T, d), dtype=int)
    decisions = []
    for t in range(T):
        if slot_context is not None:
            slot = slot_context.slot(t)
        else:
            def evaluator(batch: np.ndarray, _t: int = t) -> np.ndarray:
                costs, _ = dispatcher.solve_grid(_t, batch)
                return costs

            slot = SlotInfo(
                t=t,
                demand=float(instance.demand[t]),
                cost_functions=instance.cost_row(t),
                counts=instance.counts_at(t),
                beta=instance.beta,
                zmax=instance.zmax,
                _evaluator=evaluator,
            )
        choice = np.asarray(algorithm.step(slot))
        if choice.shape != (d,):
            raise ValueError(
                f"{algorithm.name}: step() must return a configuration of shape ({d},), got {choice.shape}"
            )
        rounded = np.rint(choice).astype(int)
        if not np.allclose(choice, rounded, atol=1e-9):
            raise ValueError(f"{algorithm.name}: returned a non-integral configuration {choice}")
        if np.any(rounded < 0) or np.any(rounded > slot.counts):
            raise ValueError(
                f"{algorithm.name}: configuration {rounded} violates fleet limits {slot.counts} at slot {t}"
            )
        configs[t] = rounded
        decisions.append(algorithm.last_decision)
    algorithm.finish()

    schedule = Schedule(configs)
    if slot_context is not None:
        breakdown = slot_context.evaluate_schedule(schedule)
    else:
        breakdown = evaluate_schedule(instance, schedule, dispatcher)
    return OnlineRunResult(
        algorithm=algorithm.name,
        schedule=schedule,
        breakdown=breakdown,
        dispatch_stats=dispatcher.stats.delta_since(stats_before),
        decisions=tuple(decisions),
    )
