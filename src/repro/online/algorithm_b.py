"""Online Algorithm B for time-dependent operating costs (Section 3.1).

Algorithm B generalises Algorithm A to operating-cost functions ``f_{t,j}``
that change over time (e.g. variable electricity prices).  The power-up rule
is unchanged — always keep at least as many servers active as the last slot of
an optimal prefix schedule — but the power-down rule becomes adaptive: a server
powered up at slot ``s`` stays active until the *accumulated idle operating
cost since its power-up* first exceeds its switching cost, i.e. it runs for

``\\bar t_{s,j} = max{ \\bar t : sum_{u=s+1}^{s+\\bar t} l_{u,j} <= beta_j }``

further slots (``l_{t,j} = f_{t,j}(0)``).  Crucially this rule is *online*: the
runtime is unknown at power-up time, but whether the server must be shut down
*now* only depends on idle costs that have already been revealed.

Theorem 13 shows Algorithm B is ``(2d + 1 + c(I))``-competitive with
``c(I) = sum_j max_t l_{t,j} / beta_j``; Algorithm C (Section 3.2) shrinks the
additive constant to any ``eps > 0`` by sub-slot refinement.

The algorithm holds decision state only: the fleet and the open power-up
records.  Each step's ``\\hat x^t_t``, power-ups ``w_t`` and retirement set
``W_t`` (Figure 3) are its :class:`~repro.online.base.Decision` record, from
which :func:`~repro.online.blocks.retirement_blocks` rebuilds the blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .base import Decision, OnlineContext, SlotInfo
from .tracker import PrefixOptimumAlgorithm, PrefixOptimumTracker

__all__ = ["AlgorithmB", "compute_runtimes", "compute_retirement_sets"]


@dataclass
class _PowerUpRecord:
    """Bookkeeping for the servers of one type powered up at one slot."""

    slot: int
    count: int
    accumulated_idle: float = 0.0


class AlgorithmB(PrefixOptimumAlgorithm):
    """The ``(2d + 1 + c(I))``-competitive online algorithm of Section 3.1."""

    name = "algorithm-B"

    def __init__(self, tracker: Optional[PrefixOptimumTracker] = None, gamma: Optional[float] = None):
        super().__init__(tracker, gamma)
        self._d = 0
        self._current: Optional[np.ndarray] = None
        self._records: List[List[_PowerUpRecord]] = []

    # ---------------------------------------------------------------- life-cycle
    def start(self, context: OnlineContext) -> None:
        self._d = context.d
        self._tracker.reset()
        self._current = np.zeros(self._d, dtype=int)
        self._records = [[] for _ in range(self._d)]

    def step(self, slot: SlotInfo) -> np.ndarray:
        if self._current is None:
            raise RuntimeError("start() must be called before step()")
        xhat = np.asarray(self._tracker.observe(slot), dtype=int)
        return self.decide(slot.t, (xhat,), slot)

    @classmethod
    def decide_lanes(cls, algorithms, lanes) -> np.ndarray:
        return cls.decide_prefix_lanes(algorithms, lanes, ("smallest",))

    def decide(self, t: int, optima: tuple, slot) -> np.ndarray:
        """The power-down and power-up rules at slot ``t``, ``optima = (\\hat x^t_t,)``,
        given ``slot``'s idle costs ``l_{t,j}`` and switching costs ``beta``."""
        (xhat,) = optima
        idle = slot.idle_costs()
        beta = slot.beta
        # Power-down rule: retire the servers whose accumulated idle cost since
        # power-up would exceed beta_j if they also stayed active during slot t.
        retired = []
        for j in range(self._d):
            # a zero idle cost can never push the accumulated idle over beta_j
            # (records only survive while accumulated <= beta_j), so the scan
            # of the power-up records is skipped entirely
            if idle[j] == 0.0 and self._records[j]:
                continue
            surviving = []
            for record in self._records[j]:
                if record.accumulated_idle + idle[j] > beta[j] + 1e-12:
                    self._current[j] -= record.count
                    retired.append((j, record.slot))
                else:
                    record.accumulated_idle += idle[j]
                    surviving.append(record)
            self._records[j] = surviving

        # Power-up rule: match the prefix optimum.
        w_t = np.maximum(xhat - self._current, 0)
        for j in range(self._d):
            if w_t[j] > 0:
                self._records[j].append(_PowerUpRecord(slot=t, count=int(w_t[j])))
        self._current = np.maximum(self._current, xhat)
        self.last_decision = Decision(xhat, w_t, retired)
        return self._current.copy()

    # -------------------------------------------------------- checkpointing
    def state_dict(self) -> dict:
        """Decision-relevant state: tracker, fleet and open power-up records."""
        return {
            "tracker": self._tracker.state_dict(),
            "current": None if self._current is None else [int(v) for v in self._current],
            "records": [
                [
                    {"slot": int(r.slot), "count": int(r.count), "idle": float(r.accumulated_idle)}
                    for r in records
                ]
                for records in self._records
            ],
            "d": int(self._d),
        }

    def load_state_dict(self, state: dict) -> None:
        self._d = int(state["d"])
        self._tracker.load_state_dict(state["tracker"])
        current = state["current"]
        self._current = None if current is None else np.asarray(current, dtype=int)
        self._records = [
            [
                _PowerUpRecord(slot=int(r["slot"]), count=int(r["count"]),
                               accumulated_idle=float(r["idle"]))
                for r in records
            ]
            for records in state["records"]
        ]


# --------------------------------------------------------------------------- #
# Stand-alone helpers mirroring the paper's definitions (used in tests/benches)
# --------------------------------------------------------------------------- #


def compute_runtimes(idle_costs: np.ndarray, beta: float) -> np.ndarray:
    """The runtimes ``\\bar t_{t,j}`` of the paper for a single server type.

    ``idle_costs[t]`` is ``l_{t,j}`` for ``t = 0..T-1`` (0-based slots).  The
    returned array contains, for every slot ``t``, the largest ``\\bar t`` such
    that ``sum_{u=t+1}^{t+\\bar t} l_u <= beta`` — i.e. how many *further* slots
    a server powered up at ``t`` stays active.  Values whose defining sum would
    need idle costs beyond the horizon are still reported (they are simply
    capped by the horizon), matching the "not known yet" entries of Figure 3.
    """
    idle_costs = np.asarray(idle_costs, dtype=float)
    T = len(idle_costs)
    runtimes = np.zeros(T, dtype=int)
    for t in range(T):
        total = 0.0
        steps = 0
        for u in range(t + 1, T):
            total += idle_costs[u]
            if total > beta + 1e-12:
                break
            steps += 1
        runtimes[t] = steps
    return runtimes


def compute_retirement_sets(idle_costs: np.ndarray, beta: float) -> List[List[int]]:
    """The sets ``W_t`` of Algorithm B's pseudocode for a single server type.

    ``W_t`` contains every power-up slot ``u < t`` with
    ``sum_{v=u+1}^{t-1} l_v <= beta < sum_{v=u+1}^{t} l_v`` — the servers
    powered up at ``u`` are shut down when slot ``t`` is processed.  Returned
    as a list indexed by ``t`` (0-based); the paper's Figure 3 lists these sets
    with 1-based indices.
    """
    idle_costs = np.asarray(idle_costs, dtype=float)
    T = len(idle_costs)
    sets: List[List[int]] = [[] for _ in range(T)]
    for u in range(T):
        total = 0.0
        for t in range(u + 1, T):
            total += idle_costs[t]
            if total > beta + 1e-12:
                sets[t].append(u)
                break
    return sets
