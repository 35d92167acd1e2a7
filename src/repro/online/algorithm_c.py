"""Online Algorithm C: sub-slot refinement achieving ``2d + 1 + eps`` (Section 3.2).

Algorithm B's competitive ratio carries the additive constant
``c(I) = sum_j max_t l_{t,j} / beta_j``, which can be large when idle costs are
comparable to switching costs.  Algorithm C removes it by a refinement trick:

* every original slot ``t`` is split into ``n_t = ceil( d/eps * max_j l_{t,j}/beta_j )``
  *sub-slots*, each carrying ``1/n_t`` of the slot's operating cost and the
  full demand ``lambda_t`` (i.e. state changes are allowed "inside" a slot),
* Algorithm B runs on the refined instance — its constant becomes
  ``c(~I) <= d/n <= eps`` (equation (16)),
* the configuration reported for the original slot is the sub-slot
  configuration with the cheapest operating cost,
  ``x^C_t = x^B_{mu(t)}`` with ``mu(t) = argmin_{u in U(t)} ~g_u(x^B_u)``
  (Lemma 14 shows this repair never increases the cost).

Theorem 15: for every ``eps > 0`` this yields a ``(2d + 1 + eps)``-competitive
algorithm for time-dependent operating costs.

The algorithm holds decision state only (the inner Algorithm B and the
sub-slot cursor); each original slot's ``n_t`` is its
:class:`~repro.online.base.Decision` record.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .algorithm_b import AlgorithmB
from .base import Decision, OnlineAlgorithm, OnlineContext, SlotInfo
from .tracker import DPPrefixTracker, PrefixOptimumTracker

__all__ = ["AlgorithmC", "sub_slot_count"]


def sub_slot_count(d: int, epsilon: float, idle_costs: np.ndarray, beta: np.ndarray) -> int:
    """The number of sub-slots ``n_t`` used for one original slot.

    ``n_t = ceil( d/eps * max_j l_{t,j} / beta_j )``, and at least 1 so that the
    slot is always represented.  (The paper sets ``n = d/eps`` and
    ``n_t = n * max_j l_{t,j}/beta_j``; taking the ceiling keeps ``n_t``
    integral without weakening the bound ``c(~I) <= eps``.)
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    idle_costs = np.asarray(idle_costs, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if np.any(beta <= 0):
        raise ValueError("switching costs must be positive for the refinement")
    ratio = float(np.max(idle_costs / beta)) if len(idle_costs) else 0.0
    n_t = math.ceil((d / epsilon) * ratio)
    return max(1, int(n_t))


class AlgorithmC(OnlineAlgorithm):
    """The ``(2d + 1 + eps)``-competitive online algorithm of Section 3.2.

    Parameters
    ----------
    epsilon:
        The desired additive slack ``eps > 0``.  Smaller values mean more
        sub-slots per original slot and therefore more work per step.
    tracker / gamma:
        Prefix-optimum tracker used by the *internal* Algorithm B on the
        refined instance; defaults to the exact incremental DP tracker.
    max_sub_slots:
        Safety cap on ``n_t`` (the refinement count grows with
        ``max_j l_{t,j}/beta_j``; the cap guards against pathological
        instances with near-zero switching costs).  ``None`` disables the cap.
    """

    name = "algorithm-C"

    def __init__(
        self,
        epsilon: float = 0.25,
        tracker: Optional[PrefixOptimumTracker] = None,
        gamma: Optional[float] = None,
        max_sub_slots: Optional[int] = 1000,
    ):
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if tracker is not None and gamma is not None:
            raise ValueError("give either an explicit tracker or gamma, not both")
        self.epsilon = float(epsilon)
        self.max_sub_slots = max_sub_slots
        self._inner = AlgorithmB(tracker=tracker, gamma=gamma)
        self._d = 0
        self._sub_slot_cursor = 0

    # ---------------------------------------------------------------- life-cycle
    def start(self, context: OnlineContext) -> None:
        self._d = context.d
        self._inner.start(context)
        self._sub_slot_cursor = 0

    def step(self, slot: SlotInfo) -> np.ndarray:
        n_t = sub_slot_count(self._d, self.epsilon, slot.idle_costs(), slot.beta)
        if self.max_sub_slots is not None:
            n_t = min(n_t, int(self.max_sub_slots))

        scaled = slot.with_scaled_costs(1.0 / n_t)
        sub_configs = []
        for _ in range(n_t):
            sub_slot = SlotInfo(
                t=self._sub_slot_cursor,
                demand=scaled.demand,
                cost_functions=scaled.cost_functions,
                counts=scaled.counts,
                beta=scaled.beta,
                zmax=scaled.zmax,
                _evaluator=scaled._evaluator,
                _grid_evaluator=scaled._grid_evaluator,
            )
            sub_configs.append(np.asarray(self._inner.step(sub_slot), dtype=int))
            self._sub_slot_cursor += 1

        # Repair step (Lemma 14): pick the sub-slot configuration with the
        # cheapest operating cost for the original slot.  Since every sub-slot
        # cost is the original cost divided by n_t, minimising ~g_u(x) is the
        # same as minimising g_t(x).  Consecutive sub-slots mostly repeat the
        # same configuration, so evaluate the distinct ones only (the dispatch
        # engine memoises them anyway, but this keeps even the lookup count
        # independent of n_t).
        stacked = np.stack(sub_configs)
        unique, inverse = np.unique(stacked, axis=0, return_inverse=True)
        inverse = np.asarray(inverse).reshape(-1)
        costs = slot.operating_cost(unique)
        best = int(np.argmin(np.asarray(costs)[inverse]))
        self.last_decision = Decision(None, None, (), None, None, n_t)
        return sub_configs[best]

    def evaluation_grid(self, counts: np.ndarray):
        # every sub-slot reads the slot's tensor, scaled, on the inner B's grid
        return self._inner.evaluation_grid(counts)

    # -------------------------------------------------------- checkpointing
    def state_dict(self) -> dict:
        """Decision-relevant state: the inner Algorithm B plus the sub-slot cursor."""
        return {
            "inner": self._inner.state_dict(),
            "cursor": int(self._sub_slot_cursor),
            "d": int(self._d),
        }

    def load_state_dict(self, state: dict) -> None:
        self._d = int(state["d"])
        self._inner.load_state_dict(state["inner"])
        self._sub_slot_cursor = int(state["cursor"])
