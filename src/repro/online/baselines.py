"""Simple baselines for the comparison benchmarks.

None of these carry interesting worst-case guarantees; they bracket the
behaviour of the paper's algorithms in the experiment harness:

* :class:`AllOn` — keep the whole fleet active (the "no right-sizing" status
  quo the paper's introduction argues against: idle servers still burn roughly
  half their peak power).
* :class:`FollowDemand` — per slot, use the cheapest configuration for that
  slot and ignore switching costs entirely (the other extreme; thrashes when
  the demand fluctuates).
* :class:`Reactive` — myopic: per slot, minimise ``g_t(x) + switching cost
  from the previous configuration``; a natural greedy that still has no
  look-back structure.
* :func:`optimal_static_schedule` — the best *single* configuration held for
  the whole horizon (an offline quantity; useful as a "capacity planning
  without elasticity" reference).
* :func:`receding_horizon_schedule` — semi-online with a lookahead window
  (offline information within the window); quantifies the value of knowing
  the near future.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.costs import evaluate_schedule
from ..core.instance import ProblemInstance
from ..core.schedule import Schedule
from ..dispatch.allocation import DispatchSolver
from ..offline.dp import ValueHistory
from ..offline.state_grid import StateGrid, grid_for_slot
from ..offline.transitions import transition
from .base import OnlineAlgorithm, OnlineContext, SlotInfo

__all__ = [
    "AllOn",
    "FollowDemand",
    "Reactive",
    "optimal_static_schedule",
    "receding_horizon_schedule",
]


def _greedy_grid(counts, gamma: Optional[float]) -> StateGrid:
    """The grid the greedy baselines minimise over: full, or ``M^gamma``."""
    return StateGrid.full(counts) if gamma is None else StateGrid.geometric(counts, gamma)


class AllOn(OnlineAlgorithm):
    """Keep every available server powered up in every slot."""

    name = "all-on"

    def step(self, slot: SlotInfo) -> np.ndarray:
        return np.asarray(slot.counts, dtype=int)


class FollowDemand(OnlineAlgorithm):
    """Per slot, pick the configuration minimising ``g_t`` alone (ignoring switching).

    Ties are broken towards fewer servers (lexicographically smallest argmin).
    A ``gamma`` parameter restricts the search to the reduced grid ``M^gamma``
    for large fleets.
    """

    name = "follow-demand"

    def __init__(self, gamma: Optional[float] = None):
        self.gamma = gamma

    def evaluation_grid(self, counts: np.ndarray) -> StateGrid:
        return _greedy_grid(counts, self.gamma)

    def step(self, slot: SlotInfo) -> np.ndarray:
        configs = self.evaluation_grid(slot.counts).configs()
        costs = slot.operating_cost(configs)
        best = int(np.argmin(costs))
        return configs[best].astype(int)


class Reactive(OnlineAlgorithm):
    """Myopic greedy: minimise ``g_t(x) + sum_j beta_j (x_j - x^{prev}_j)^+`` per slot."""

    name = "reactive"

    def __init__(self, gamma: Optional[float] = None):
        self.gamma = gamma
        self._current: Optional[np.ndarray] = None

    def start(self, context: OnlineContext) -> None:
        self._current = np.zeros(context.d, dtype=int)

    def evaluation_grid(self, counts: np.ndarray) -> StateGrid:
        return _greedy_grid(counts, self.gamma)

    def step(self, slot: SlotInfo) -> np.ndarray:
        configs = self.evaluation_grid(slot.counts).configs()
        costs = slot.operating_cost(configs)
        switch = np.sum(
            np.maximum(configs - self._current[None, :], 0) * slot.beta[None, :], axis=1
        )
        best = int(np.argmin(costs + switch))
        self._current = configs[best].astype(int)
        return self._current.copy()

    def state_dict(self) -> dict:
        return {
            "current": None if self._current is None else [int(v) for v in self._current],
        }

    def load_state_dict(self, state: dict) -> None:
        current = state["current"]
        self._current = None if current is None else np.asarray(current, dtype=int)


def optimal_static_schedule(
    instance: ProblemInstance,
    dispatcher: Optional[DispatchSolver] = None,
) -> Schedule:
    """The cheapest schedule that never changes its configuration.

    All servers are powered up once at the beginning; the configuration must be
    feasible for every slot.  Requires constant fleet sizes (with time-varying
    counts a static configuration may not exist).
    """
    dispatcher = dispatcher or DispatchSolver(instance)
    grid = StateGrid.full(instance.m)
    configs = grid.configs()
    totals = np.zeros(len(configs))
    for t in range(instance.T):
        costs, _ = dispatcher.solve_grid(t, configs)
        totals += costs
    totals += configs @ instance.beta
    best = int(np.argmin(totals))
    if not np.isfinite(totals[best]):
        raise ValueError("no single configuration is feasible for every slot")
    return Schedule.constant(instance.T, configs[best])


def receding_horizon_schedule(
    instance: ProblemInstance,
    lookahead: int,
    dispatcher: Optional[DispatchSolver] = None,
) -> Schedule:
    """Receding-horizon control with a fixed lookahead window.

    At every slot the controller knows the next ``lookahead`` slots, solves
    that window optimally (conditioned on its current configuration), commits
    the first decision and moves on.  ``lookahead = 0`` degenerates to the
    myopic :class:`Reactive` baseline; ``lookahead >= T`` recovers the offline
    optimum.  This quantifies how much of the online penalty stems from not
    knowing the near future (a question the related work on "online convex
    optimisation using predictions" studies).
    """
    if lookahead < 0:
        raise ValueError("lookahead must be non-negative")
    dispatcher = dispatcher or DispatchSolver(instance)
    T, d = instance.T, instance.d
    beta = instance.beta
    xs = np.zeros((T, d), dtype=int)
    current = np.zeros(d, dtype=int)

    for t in range(T):
        # forward DP over the window, seeded with the switching cost from `current`
        history = ValueHistory(beta)
        value = None
        for u in range(t, min(T, t + lookahead + 1)):
            grid = grid_for_slot(instance, u)
            costs, _ = dispatcher.solve_grid(u, grid.configs())
            g_tensor = costs.reshape(grid.shape)
            if value is None:
                # switching cost from `current` to every configuration of the grid
                arrival = np.zeros(grid.shape)
                for j in range(d):
                    vals = np.asarray(grid.values[j], dtype=float)
                    per_dim = beta[j] * np.maximum(vals - current[j], 0.0)
                    shape = [1] * d
                    shape[j] = len(vals)
                    arrival = arrival + per_dim.reshape(shape)
            else:
                arrival = transition(value, history.grids[-1].values, grid.values, beta)
            value = arrival + g_tensor
            history.append(grid, value)
        # commit the first decision of the window-optimal path
        current = history.backtrack()[0]
        xs[t] = current
    return Schedule(xs)
