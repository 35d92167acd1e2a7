"""(1 + eps)-approximation algorithm (Section 4.2, Theorems 16 and 21).

The approximation restricts the number of active servers of every type to the
geometrically spaced set ``M^gamma_j`` and runs the same shortest-path /
dynamic-programming computation on the reduced graph ``G^gamma``.  Theorem 16
shows that the schedule corresponding to the shortest path in ``G^gamma`` costs
at most ``(2*gamma - 1) * C(X^*)``; with ``gamma = 1 + eps/2`` this is the
``(1 + eps)``-approximation of Theorem 21, computed in
``O(T * eps^{-d} * prod_j log m_j)`` time.

Section 4.3 extends the construction to time-dependent fleet sizes ``m_{t,j}``
by simply building the reduced grid per slot; this module supports that
transparently through :func:`repro.offline.state_grid.grid_for_slot`.
"""

from __future__ import annotations

from typing import Optional

from ..core.instance import ProblemInstance
from ..dispatch.allocation import DispatchSolver
from .dp import OfflineResult, solve_dp

__all__ = ["solve_approx", "gamma_for_epsilon", "approximation_guarantee"]


def gamma_for_epsilon(epsilon: float) -> float:
    """The grid-spacing parameter ``gamma = 1 + eps/2`` used by Theorem 21."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return 1.0 + epsilon / 2.0


def approximation_guarantee(gamma: float) -> float:
    """The worst-case approximation factor ``2*gamma - 1`` of Theorem 16."""
    if gamma <= 1.0:
        raise ValueError("gamma must be > 1")
    return 2.0 * gamma - 1.0


def solve_approx(
    instance: ProblemInstance,
    epsilon: Optional[float] = None,
    gamma: Optional[float] = None,
    dispatcher: Optional[DispatchSolver] = None,
    keep_tables: bool = False,
    return_schedule: bool = True,
    checkpoint_every: Optional[int] = None,
) -> OfflineResult:
    """Compute a ``(2*gamma - 1)``-approximate schedule on the reduced grids.

    Exactly one of ``epsilon`` and ``gamma`` may be given; ``epsilon`` is
    translated to ``gamma = 1 + eps/2`` so that the guarantee is ``1 + eps``.
    When neither is given, ``epsilon = 1`` (a 2-approximation) is used.

    The returned :class:`~repro.offline.dp.OfflineResult` carries the ``gamma``
    that was used; ``approximation_guarantee(result.gamma)`` is the proven
    worst-case factor, which the benchmarks compare against the measured ratio.
    ``checkpoint_every`` tunes the streaming value pass on long horizons
    exactly as in :func:`repro.offline.dp.solve_dp` — combined
    with the geometric grids this is what makes fleets of ``m_j ~ 10^4``
    servers over tens of thousands of slots fit in memory.
    """
    if epsilon is not None and gamma is not None:
        raise ValueError("give either epsilon or gamma, not both")
    if gamma is None:
        gamma = gamma_for_epsilon(1.0 if epsilon is None else epsilon)
    if gamma <= 1.0:
        raise ValueError("gamma must be > 1")
    return solve_dp(
        instance,
        gamma=gamma,
        dispatcher=dispatcher,
        keep_tables=keep_tables,
        return_schedule=return_schedule,
        checkpoint_every=checkpoint_every,
    )
