"""Lazy Capacity Provisioning (LCP) baseline for homogeneous data centers.

Lin, Wierman, Andrew and Thereska introduced the right-sizing model for
*homogeneous* data centers (``d = 1``) and proposed the 3-competitive Lazy
Capacity Provisioning algorithm; Albers & Quedenfeld (SPAA 2018) later showed
3 is the optimal deterministic ratio in the discrete setting.  This paper
(Section 1, "Related work") uses those results as the starting point for the
heterogeneous generalisation, so LCP is the natural baseline to compare the
heterogeneous Algorithms A/B/C against on single-type instances.

The implementation follows the classic *lazy projection* scheme in the
discrete setting:

* a lower target ``X^L_t`` — the smallest last configuration among optimal
  schedules of the prefix instance ``I_t``,
* an upper target ``X^U_t`` — the largest such configuration,
* ``x^LCP_t = clip(x^LCP_{t-1}, X^L_t, X^U_t)`` — move only when forced.

Both targets are optimal last configurations of the same prefix-DP value
tensor ``V_t``, so one incremental DP tracker produces both, as its
``"smallest"`` and ``"largest"`` argmins
(:meth:`~repro.online.tracker.DPPrefixTracker.argmin`).  ``step`` is that
tracker's ``observe`` plus the projection rule ``decide``; the batched serve
engine runs the same ``decide`` after advancing a cohort of LCP trackers in
one stacked transition.  The algorithm holds decision state only; each
step's normalised targets ``(X^L_t, X^U_t)`` are its
:class:`~repro.online.base.Decision` record.

This is a faithful adaptation of LCP's "lazy between prefix optima" principle
to the discrete heterogeneous code base rather than a line-by-line port of the
original (which is defined through charging arguments specific to ``d = 1``);
see DESIGN.md.  For ``d > 1`` the per-type clipping is
still well defined and is provided as a heuristic (`allow_heterogeneous=True`),
but no competitive guarantee is claimed — the benchmarks use it to illustrate
why the heterogeneous problem needs the new algorithms of this paper.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import Decision, OnlineAlgorithm, OnlineContext, SlotInfo
from .tracker import DPPrefixTracker, PrefixOptimumTracker

__all__ = ["LazyCapacityProvisioning"]


class LazyCapacityProvisioning(OnlineAlgorithm):
    """Discrete Lazy Capacity Provisioning (Lin et al.) on top of the prefix-optimum DP.

    One tracker, two argmins: the lower and upper targets are the
    ``"smallest"`` and ``"largest"`` optimal last configurations of one
    prefix-DP value tensor.  An explicit ``tracker`` (as for Algorithms A, B
    and C) lets the sweep engine hand LCP a tracker on its per-instance
    shared value stream, which Algorithms A and B read too; without one, LCP
    keeps a private :class:`~repro.online.tracker.DPPrefixTracker` on
    ``gamma``'s grids.
    """

    name = "LCP"

    def __init__(
        self,
        gamma: Optional[float] = None,
        allow_heterogeneous: bool = False,
        tracker: Optional[PrefixOptimumTracker] = None,
    ):
        if tracker is not None and gamma is not None:
            raise ValueError("give either an explicit tracker or gamma, not both")
        self._tracker = tracker if tracker is not None else DPPrefixTracker(gamma=gamma)
        self.allow_heterogeneous = bool(allow_heterogeneous)
        self._current: Optional[np.ndarray] = None

    def start(self, context: OnlineContext) -> None:
        if context.d != 1 and not self.allow_heterogeneous:
            raise ValueError(
                "LCP is defined for homogeneous data centers (d=1); "
                "pass allow_heterogeneous=True to use the per-type heuristic extension"
            )
        self._tracker.reset()
        self._current = np.zeros(context.d, dtype=int)

    def step(self, slot: SlotInfo) -> np.ndarray:
        lower = np.asarray(self._tracker.observe(slot), dtype=int)
        upper = np.asarray(self._tracker.argmin("largest"), dtype=int)
        return self.decide(lower, upper)

    def evaluation_grid(self, counts: np.ndarray):
        return self._tracker.grid(counts)

    def decide(self, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
        """Project the current configuration onto ``[lower, upper]``.

        ``lower`` and ``upper`` are the smallest and largest optimal last
        configurations of the prefix instance, after the tracker has observed
        the slot.
        """
        # Degenerate ties can make the two targets cross on heterogeneous
        # instances (different optimal schedules trade one type for another);
        # normalise so that the projection interval is well defined.
        lo = np.minimum(lower, upper)
        hi = np.maximum(lower, upper)
        self._current = np.clip(self._current, lo, hi)
        self.last_decision = Decision(None, None, (), lo, hi)
        return self._current.copy()

    # -------------------------------------------------------- checkpointing
    def state_dict(self) -> dict:
        """Decision-relevant state: current configuration and the tracker."""
        return {
            "current": None if self._current is None else [int(v) for v in self._current],
            "tracker": self._tracker.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        current = state["current"]
        self._current = None if current is None else np.asarray(current, dtype=int)
        self._tracker.load_state_dict(state["tracker"])
