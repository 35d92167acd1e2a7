"""Load-dispatch solver: batched evaluation of the operating cost ``g_t(x)``."""

from .allocation import DispatchResult, DispatchSolver, DispatchStats, reference_dispatch

__all__ = [
    "DispatchResult",
    "DispatchSolver",
    "DispatchStats",
    "reference_dispatch",
]
