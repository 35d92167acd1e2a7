"""Online Algorithm A for time-independent operating costs (Section 2).

Algorithm A is ``(2d + 1)``-competitive (Theorem 8) and ``2d``-competitive for
load-independent operating costs (Corollary 9), which matches the lower bound
of ``2d`` known from the companion paper.

The algorithm maintains two invariants:

1. **Power-up rule** — after every slot, per server type at least as many
   servers are active as in the last slot of an optimal schedule of the prefix
   instance ``I_t``: ``x^A_{t,j} >= \\hat x^t_{t,j}``.
2. **Ski-rental power-down rule** — a server powered up at slot ``s`` stays
   active for exactly ``\\bar t_j = ceil(beta_j / f_j(0))`` slots (including
   ``s``) and is then shut down regardless of whether it was used; at that
   point its accumulated idle cost equals its power-up cost, exactly like the
   break-even point of the classical ski-rental problem.

The implementation separates the *tracker* (which produces ``\\hat x^t_t``,
see :mod:`repro.online.tracker`) from the power-up/-down bookkeeping, so the
bookkeeping can be tested against the exact series shown in Figure 1.  The
algorithm holds decision state only; each step's ``\\hat x^t_t`` and
power-ups ``w_t`` are its :class:`~repro.online.base.Decision` record, from
which :func:`~repro.online.blocks.fixed_runtime_blocks` rebuilds the blocks.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from .base import Decision, OnlineContext, SlotInfo
from .tracker import PrefixOptimumAlgorithm, PrefixOptimumTracker

__all__ = ["AlgorithmA"]


class AlgorithmA(PrefixOptimumAlgorithm):
    """The deterministic ``(2d+1)``-competitive online algorithm of Section 2.

    ``tracker`` supplies the prefix optima ``\\hat x^t_t`` (default: the
    exact incremental DP tracker; a
    :class:`~repro.online.tracker.FixedSequenceTracker` for unit tests);
    ``gamma`` is a shortcut for ``DPPrefixTracker(gamma=gamma)``.

    Notes
    -----
    Algorithm A assumes *time-independent* operating-cost functions: the
    server runtime ``\\bar t_j`` is computed from the cost functions of the
    first slot.  For time-dependent costs use
    :class:`~repro.online.algorithm_b.AlgorithmB` /
    :class:`~repro.online.algorithm_c.AlgorithmC` instead (the driver does not
    enforce this — running A on a time-dependent instance simply voids the
    theoretical guarantee).
    """

    name = "algorithm-A"

    def __init__(self, tracker: Optional[PrefixOptimumTracker] = None, gamma: Optional[float] = None):
        super().__init__(tracker, gamma)
        self._runtimes: Optional[np.ndarray] = None
        self._runtime_ticks: Optional[List[int]] = None
        self._current: Optional[np.ndarray] = None
        self._expiry: Dict[int, np.ndarray] = {}
        self._d = 0

    # ---------------------------------------------------------------- life-cycle
    def start(self, context: OnlineContext) -> None:
        self._d = context.d
        self._tracker.reset()
        self._runtimes = None
        self._runtime_ticks = None
        self._current = np.zeros(self._d, dtype=int)
        self._expiry = {}

    def step(self, slot: SlotInfo) -> np.ndarray:
        if self._current is None:
            raise RuntimeError("start() must be called before step()")
        xhat = np.asarray(self._tracker.observe(slot), dtype=int)
        return self.decide(slot.t, (xhat,), slot)

    @classmethod
    def decide_lanes(cls, algorithms, lanes) -> np.ndarray:
        return cls.decide_prefix_lanes(algorithms, lanes, ("smallest",))

    def decide(self, t: int, optima: tuple, slot) -> np.ndarray:
        """The power-down and power-up rules at slot ``t``, ``optima = (\\hat x^t_t,)``.

        The first decision fixes the runtimes from ``slot``'s idle costs.
        """
        (xhat,) = optima
        if self._runtimes is None:
            # \bar t_j = max(ceil(beta_j / f_j(0)), 1), inf for zero idle cost
            idle = slot.idle_costs()
            ratio = slot.beta / np.where(idle > 0.0, idle, 1.0)
            self._runtimes = np.where(idle > 0.0, np.maximum(np.ceil(ratio), 1.0), math.inf)
        if self._runtime_ticks is None:
            # integer ski-rental runtimes as plain ints (-1 = infinite): the
            # per-type expiry bookkeeping below stays off numpy scalars
            self._runtime_ticks = [
                int(r) if math.isfinite(r) else -1 for r in self._runtimes
            ]

        # Power-down rule: servers powered up exactly \bar t_j slots ago expire
        # now.  Expirations are scheduled at power-up time, so each step pops a
        # single pre-aggregated vector instead of scanning the power-up log.
        expired = self._expiry.pop(t, None)
        if expired is not None:
            self._current -= expired

        # Power-up rule: match the prefix optimum.
        w_t = xhat - self._current
        np.maximum(w_t, 0, out=w_t)
        self._current = np.maximum(self._current, xhat)
        for j, w in enumerate(w_t.tolist()):
            if w > 0:
                runtime = self._runtime_ticks[j]
                if runtime >= 0:
                    due = t + runtime
                    bucket = self._expiry.get(due)
                    if bucket is None:
                        bucket = np.zeros(self._d, dtype=int)
                        self._expiry[due] = bucket
                    bucket[j] += w
        self.last_decision = Decision(xhat, w_t)
        return self._current.copy()

    # -------------------------------------------------------- checkpointing
    def state_dict(self) -> dict:
        """Decision-relevant state: tracker, runtimes, fleet, pending expiries.

        ``inf`` runtimes (zero idle cost) are encoded as ``None`` to stay
        strictly JSON-safe.
        """
        return {
            "tracker": self._tracker.state_dict(),
            "runtimes": None if self._runtimes is None else [
                None if math.isinf(r) else float(r) for r in self._runtimes
            ],
            "current": None if self._current is None else [int(v) for v in self._current],
            "expiry": {str(t): [int(v) for v in vec] for t, vec in self._expiry.items()},
            "d": int(self._d),
        }

    def load_state_dict(self, state: dict) -> None:
        self._d = int(state["d"])
        self._tracker.load_state_dict(state["tracker"])
        runtimes = state["runtimes"]
        self._runtimes = None if runtimes is None else np.array(
            [math.inf if r is None else float(r) for r in runtimes]
        )
        self._runtime_ticks = None
        current = state["current"]
        self._current = None if current is None else np.asarray(current, dtype=int)
        self._expiry = {
            int(t): np.asarray(vec, dtype=int) for t, vec in state["expiry"].items()
        }

    # ------------------------------------------------------------------ analysis
    @property
    def runtimes(self) -> Optional[np.ndarray]:
        """The per-type runtimes ``\\bar t_j`` (``inf`` when the idle cost is zero)."""
        return None if self._runtimes is None else self._runtimes.copy()
