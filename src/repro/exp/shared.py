"""Per-instance shared execution context of the sweep engine.

Running ``N`` online algorithms plus the offline optimum on one instance
repeats three kinds of work that are identical across runs:

1. building a :class:`~repro.dispatch.allocation.DispatchSolver` and solving
   the per-slot grid operating-cost tensors ``g_t``,
2. constructing the ``T`` :class:`~repro.online.base.SlotInfo` objects, and
3. the prefix-DP forward pass (Algorithms A, B and LCP recompute the *same*
   tensors ``V_t`` slot by slot).

:class:`SharedInstanceContext` does each exactly once: one slot context (1, 2
— see :class:`~repro.online.base.SlotContext`, whose per-``gamma``
:class:`~repro.offline.dp.WindowedOperatingCosts` providers are the ``g_t``
every run, tracker and history reads), and one
:func:`~repro.offline.dp.forward_pass` into a
:class:`~repro.offline.dp.ValueHistory` per ``gamma`` (3), which every
tracker of that ``gamma`` replays.  The offline optimum is ``min_x V_{T-1}[x]``
of the same history, so the DP is not run a second time for the baseline cost,
and the optimal *schedule* is the history's backward pass.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.costs import CostBreakdown, evaluate_schedule
from ..core.instance import ProblemInstance
from ..core.schedule import Schedule
from ..dispatch.allocation import DispatchSolver
from ..offline.dp import OfflineResult, ValueHistory, check_window, forward_pass
from ..offline.graph_approx import solve_approx
from ..online.base import OnlineAlgorithm, OnlineRunResult, SlotContext, run_online
from ..online.tracker import DPPrefixTracker

__all__ = ["SharedInstanceContext"]


class SharedInstanceContext:
    """All cross-run shared state for sweeping one problem instance.

    ``checkpoint_every`` windows the shared value histories, the
    ``O(sqrt(T) * |M|)``-memory mode of the streaming DP core: a history then
    keeps one tensor per checkpoint window instead of every slot's, and its
    readers rematerialise windows on demand.  Every replay (each tracker, and
    the offline optimum's backward pass) costs up to one extra forward DP —
    the trade that lets long-horizon sweeps fit in memory.  It is also the
    slot context's window, so the ``g_t`` tensors come one window at a time
    (plus the provider's byte-capped key memo) and no read writes the
    dispatch engine's memo: a horizon of per-slot-unique demands cannot
    rebuild the ``O(T * |M| * d)`` footprint through the dispatch layer.
    A ``checkpoint_every`` that is not a positive integer raises
    ``ValueError``, as :func:`~repro.offline.dp.solve_dp` does.
    """

    def __init__(
        self,
        instance: ProblemInstance,
        dispatcher: Optional[DispatchSolver] = None,
        checkpoint_every: Optional[int] = None,
    ):
        self.instance = instance
        self.checkpoint_every = check_window(checkpoint_every, "checkpoint_every")
        self.slots = SlotContext(instance, dispatcher, window=self.checkpoint_every)
        self.dispatcher = self.slots.dispatcher
        self._histories: dict = {}
        self._optimal_cost: Optional[float] = None

    # ------------------------------------------------------------- online runs
    def run(self, algorithm: OnlineAlgorithm) -> OnlineRunResult:
        """Run an online algorithm through the shared slot context."""
        return run_online(self.instance, algorithm, slot_context=self.slots)

    def history(self, gamma: Optional[float] = None) -> ValueHistory:
        """This context's one value history of the instance on ``gamma``'s grids.

        Built on first use by one :func:`~repro.offline.dp.forward_pass` over
        the slot context's provider of ``gamma``'s grids (the tensors the
        slots read), windowed at ``checkpoint_every``.
        """
        key = None if gamma is None else float(gamma)
        history = self._histories.get(key)
        if history is None:
            costs, beta = self.slots.costs(gamma), self.instance.beta
            history = ValueHistory(beta, self.checkpoint_every, costs.tensor)
            forward_pass(costs, beta, history)
            self._histories[key] = history
        return history

    def tracker(self, gamma: Optional[float] = None) -> DPPrefixTracker:
        """A prefix-optimum tracker replaying this context's value history.

        Algorithms A, B and LCP read one history between them instead of
        three forward passes.  (Algorithm C's inner tracker observes scaled
        sub-slots and keeps a private :class:`DPPrefixTracker`.)
        """
        return DPPrefixTracker(gamma=gamma, history=self.history(gamma))

    # ---------------------------------------------------------- offline solves
    def solve_optimal(self, return_schedule: bool = False) -> OfflineResult:
        """Offline optimum, read from the exact value history.

        The history's tensors are the forward-DP tables of
        :func:`repro.offline.dp.solve_dp` on the same grids, so the reported
        cost is the same ``min_x V_{T-1}[x]`` and the schedule (when requested)
        comes from the same backward pass, which rematerialises the windows of
        a checkpointed context and prices the schedule from the grid tensors
        it reads (:meth:`~repro.offline.dp.ValueHistory.priced_schedule`).
        """
        instance = self.instance
        T, d = instance.T, instance.d
        if T == 0:
            return OfflineResult(
                schedule=Schedule.empty(0, d) if return_schedule else None, cost=0.0, grids=()
            )
        history = self.history(None)
        best_cost = float(np.min(history.value_at(T - 1)))
        if not np.isfinite(best_cost):
            raise ValueError("no feasible schedule exists on the given grids")
        self._optimal_cost = best_cost
        schedule, cost = history.priced_schedule() if return_schedule else (None, best_cost)
        return OfflineResult(
            schedule=schedule,
            cost=cost,
            grids=tuple(history.grids),
            checkpoint_every=history.window,
        )

    def optimal_cost(self) -> float:
        """The instance's optimal total cost (cached after the first call)."""
        if self._optimal_cost is None:
            self.solve_optimal(return_schedule=False)
        return self._optimal_cost

    def solve_approx(self, epsilon: Optional[float] = None, gamma: Optional[float] = None,
                     return_schedule: bool = True,
                     checkpoint_every: Optional[int] = None) -> OfflineResult:
        """The ``(1+eps)``-approximation, sharing this context's dispatch solver.

        Streaming defaults to the context's ``checkpoint_every`` (pass an
        explicit value to override for one solve).
        """
        return solve_approx(
            self.instance,
            epsilon=epsilon,
            gamma=gamma,
            dispatcher=self.dispatcher,
            return_schedule=return_schedule,
            checkpoint_every=self.checkpoint_every if checkpoint_every is None else checkpoint_every,
        )

    # -------------------------------------------------------------- evaluation
    def evaluate(self, schedule: Schedule) -> CostBreakdown:
        """Exact cost breakdown through the shared dispatch solver."""
        return evaluate_schedule(
            self.instance, schedule, self.dispatcher, memoise=self.checkpoint_every is None
        )
