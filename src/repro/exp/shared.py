"""Per-instance shared execution context of the sweep engine.

Running ``N`` online algorithms plus the offline optimum on one instance
repeats four kinds of work that are identical across runs:

1. building a :class:`~repro.dispatch.allocation.DispatchSolver` and solving
   the per-slot grid operating-cost tensors,
2. constructing the ``T`` :class:`~repro.online.base.SlotInfo` objects,
3. maintaining the prefix-DP value stream (Algorithms A, B and LCP
   recompute the *same* tensors ``V_t`` slot by slot), and
4. evaluating final schedules against every slot.

:class:`SharedInstanceContext` does each exactly once: one dispatch solver and
slot context (1, 2, 4 — see :class:`~repro.online.base.SlotContext`), one
memoised :class:`~repro.online.tracker.SharedValueStream` per ``gamma`` (3),
and an offline optimum derived from that very stream — ``min_x V_{T-1}[x]`` —
so the prefix DP is not run a second time for the baseline cost, and the
optimal *schedule* is reconstructed by the standard backward pass over the
memoised tensors.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.costs import CostBreakdown
from ..core.instance import ProblemInstance
from ..core.schedule import Schedule
from ..dispatch.allocation import DispatchSolver
from ..offline.dp import OfflineResult
from ..offline.graph_approx import solve_approx
from ..online.base import OnlineAlgorithm, OnlineRunResult, SlotContext, run_online
from ..online.tracker import DPPrefixTracker, SharedValueStream

__all__ = ["SharedInstanceContext"]


class SharedInstanceContext:
    """All cross-run shared state for sweeping one problem instance.

    ``checkpoint_every`` puts the shared prefix-DP value streams into the
    checkpointed ``O(sqrt(T) * |M|)``-memory mode of the streaming DP core:
    trackers then retain one tensor per checkpoint window instead of the full
    per-slot history, and the offline optimum's backward pass rematerialises
    windows on demand.  Replays (every tracker after the first, plus the
    backward pass) each cost up to one extra forward DP — the trade that lets
    long-horizon sweeps fit in memory.  A checkpointed context also caps the
    slot context's grid-tensor memo (``tensor_budget_bytes``, default 64 MB)
    so a horizon of per-slot-unique demands cannot rebuild the
    ``O(T * |M| * d)`` footprint through the dispatch layer; slots past the
    budget are re-solved per query.
    """

    #: Grid-tensor memo cap applied when the context runs checkpointed.
    DEFAULT_TENSOR_BUDGET_BYTES = 64 * 1024 * 1024

    def __init__(
        self,
        instance: ProblemInstance,
        dispatcher: Optional[DispatchSolver] = None,
        checkpoint_every: Optional[int] = None,
        tensor_budget_bytes: Optional[int] = None,
    ):
        self.instance = instance
        if tensor_budget_bytes is None and checkpoint_every is not None:
            tensor_budget_bytes = self.DEFAULT_TENSOR_BUDGET_BYTES
        self.slots = SlotContext(instance, dispatcher, tensor_budget_bytes=tensor_budget_bytes)
        self.dispatcher = self.slots.dispatcher
        self.checkpoint_every = checkpoint_every
        self._streams: dict = {}
        self._optimal_cost: Optional[float] = None

    # ------------------------------------------------------------- online runs
    def run(self, algorithm: OnlineAlgorithm) -> OnlineRunResult:
        """Run an online algorithm through the shared slot context."""
        return run_online(self.instance, algorithm, slot_context=self.slots)

    def stream(self, gamma: Optional[float] = None) -> SharedValueStream:
        """This context's one memoised prefix-DP value stream for ``gamma``.

        Algorithms A, B and LCP read it between them instead of three
        independent ones.  (Algorithm C's inner tracker observes scaled
        sub-slots and keeps a private :class:`DPPrefixTracker`.)
        """
        key = None if gamma is None else float(gamma)
        stream = self._streams.get(key)
        if stream is None:
            stream = SharedValueStream(gamma=gamma, checkpoint_every=self.checkpoint_every)
            self._streams[key] = stream
        return stream

    def tracker(self, gamma: Optional[float] = None) -> DPPrefixTracker:
        """A prefix-optimum tracker backed by this context's shared value stream."""
        return DPPrefixTracker(gamma=gamma, stream=self.stream(gamma))

    # ---------------------------------------------------------- offline solves
    def _full_stream(self):
        """The exact (gamma=None) value stream, advanced to the full horizon."""
        stream = self.stream(None)
        for t in range(len(stream), self.instance.T):
            stream.at(t, self.slots.slot(t))
        return stream

    def solve_optimal(self, return_schedule: bool = False) -> OfflineResult:
        """Offline optimum, computed from the shared value stream.

        The stream's tensors equal the forward-DP tables of
        :func:`repro.offline.dp.solve_dp` on the same grids, so the reported
        cost is the same ``min_x V_{T-1}[x]`` and the schedule (when requested)
        comes from the same backward pass — without running the DP again when
        any tracker already advanced the stream.  With a checkpointed context
        the backward pass rematerialises the stream's windows instead of
        reading a full table history.
        """
        instance = self.instance
        T, d = instance.T, instance.d
        if T == 0:
            return OfflineResult(
                schedule=Schedule.empty(0, d) if return_schedule else None, cost=0.0, grids=()
            )
        stream = self._full_stream()
        best_cost = float(np.min(stream.value_at(T - 1)))
        if not np.isfinite(best_cost):
            raise ValueError("no feasible schedule exists on the given grids")
        self._optimal_cost = best_cost
        if not return_schedule:
            return OfflineResult(
                schedule=None,
                cost=best_cost,
                grids=stream.grids,
                checkpoint_every=stream.checkpoint_every,
            )
        configs = stream.backtrack()
        schedule = Schedule(configs)
        breakdown = self.slots.evaluate_schedule(schedule)
        return OfflineResult(
            schedule=schedule,
            cost=float(breakdown.total),
            grids=stream.grids,
            checkpoint_every=stream.checkpoint_every,
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
        """Exact cost breakdown via the shared per-slot grid tensors."""
        return self.slots.evaluate_schedule(schedule)
