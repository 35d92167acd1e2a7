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
from .base import Lanes, OnlineAlgorithm, OnlineContext, SlotInfo

__all__ = [
    "AllOn",
    "FollowDemand",
    "Reactive",
    "optimal_static_schedule",
    "receding_horizon_schedule",
]


class AllOn(OnlineAlgorithm):
    """Keep every available server powered up in every slot."""

    name = "all-on"
    grid_family = "counts"  # no grid: shares no grid record with a grid reader

    def step(self, slot: SlotInfo) -> np.ndarray:
        return self.decide_lanes((self,), Lanes.of_slot(slot))[0]

    @classmethod
    def lane_grid(cls, counts: np.ndarray, family) -> None:
        return None

    @classmethod
    def decide_lanes(cls, algorithms, lanes: Lanes) -> np.ndarray:
        return np.tile(np.asarray(lanes.counts).astype(int), (len(algorithms), 1))


class _GreedyBaseline(OnlineAlgorithm):
    """A greedy baseline over each slot's full grid, or its reduced grid ``M^gamma``."""

    def __init__(self, gamma: Optional[float] = None):
        self.gamma = gamma

    @property
    def grid_family(self) -> Optional[float]:
        return self.gamma

    def evaluation_grid(self, counts: np.ndarray) -> StateGrid:
        return StateGrid.for_gamma(counts, self.gamma)


class FollowDemand(_GreedyBaseline):
    """Per slot, pick the configuration minimising ``g_t`` alone (ignoring switching).

    Ties are broken towards fewer servers (lexicographically smallest argmin).
    """

    name = "follow-demand"

    def step(self, slot: SlotInfo) -> np.ndarray:
        grid = self.evaluation_grid(slot.counts)
        costs = slot.operating_cost(grid.configs())
        return self.decide_lanes((self,), Lanes.of_slot(slot, grid, costs))[0]

    @classmethod
    def decide_lanes(cls, algorithms, lanes: Lanes) -> np.ndarray:
        # one switching-blind argmin per distinct tensor
        best = np.argmin(lanes.tensors.reshape(len(lanes.tensors), -1), axis=1)
        return lanes.grid.configs()[best[lanes.rows]]


class Reactive(_GreedyBaseline):
    """Myopic greedy: minimise ``g_t(x) + sum_j beta_j (x_j - x^{prev}_j)^+`` per slot."""

    name = "reactive"

    def __init__(self, gamma: Optional[float] = None):
        super().__init__(gamma)
        self._current: Optional[np.ndarray] = None

    def start(self, context: OnlineContext) -> None:
        self._current = np.zeros(context.d, dtype=int)

    def step(self, slot: SlotInfo) -> np.ndarray:
        grid = self.evaluation_grid(slot.counts)
        costs = slot.operating_cost(grid.configs())
        return self.decide_lanes((self,), Lanes.of_slot(slot, grid, costs))[0].copy()

    @classmethod
    def decide_lanes(cls, algorithms, lanes: Lanes) -> np.ndarray:
        configs = lanes.grid.configs()
        prev = np.array([algorithm._current for algorithm in algorithms])
        # per lane: int subtraction, clamp, * beta, sum over the type axis
        rises = configs - prev[:, None, :]
        np.maximum(rises, 0, out=rises)
        switch = np.sum(rises * lanes.beta, axis=2)
        costs = lanes.tensors.reshape(len(lanes.tensors), -1)[lanes.rows]
        chosen = configs[np.argmin(costs + switch, axis=1)]
        for algorithm, current in zip(algorithms, chosen):
            algorithm._current = current  # rows are never mutated in place
        return chosen

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
