"""Empirical competitive- and approximation-ratio computations.

The paper's guarantees are worst-case bounds: Algorithm A is ``(2d+1)``-
competitive, B is ``(2d+1+c(I))``-competitive, C is ``(2d+1+eps)``-competitive
(Theorems 8, 13, 15), and the reduced-grid offline schedule is a
``(2*gamma-1)``-approximation (Theorem 16).  The benchmark harness measures the
*empirical* ratios on concrete workloads and checks that they respect — and
shows how far they typically stay below — the proven bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from ..core.costs import evaluate_schedule
from ..core.instance import ProblemInstance
from ..dispatch.allocation import DispatchSolver
from ..offline.graph_optimal import solve_optimal
from ..online.base import OnlineAlgorithm, run_online

__all__ = ["RatioResult", "empirical_ratio", "ratio_table", "theoretical_bound"]


@dataclass(frozen=True, eq=False)
class RatioResult:
    """Outcome of one algorithm-vs-optimum comparison."""

    instance: str
    algorithm: str
    online_cost: float
    optimal_cost: float
    bound: Optional[float] = None

    @property
    def ratio(self) -> float:
        if self.optimal_cost <= 0:
            return float("inf") if self.online_cost > 0 else 1.0
        return self.online_cost / self.optimal_cost

    @property
    def within_bound(self) -> Optional[bool]:
        if self.bound is None:
            return None
        return self.ratio <= self.bound + 1e-6

    def as_row(self) -> dict:
        row = {
            "instance": self.instance,
            "algorithm": self.algorithm,
            "cost": round(self.online_cost, 4),
            "optimal": round(self.optimal_cost, 4),
            "ratio": round(self.ratio, 4),
        }
        if self.bound is not None:
            row["bound"] = round(self.bound, 4)
            row["within_bound"] = bool(self.within_bound)
        return row


def theoretical_bound(instance: ProblemInstance, algorithm: str, epsilon: Optional[float] = None) -> float:
    """The proven competitive ratio applicable to an algorithm on an instance.

    ``algorithm`` is one of ``"A"``, ``"B"``, ``"C"``; for ``"A"`` the bound is
    ``2d`` when the instance is load- (and time-) independent (Corollary 9) and
    ``2d + 1`` otherwise; for ``"B"`` it is ``2d + 1 + c(I)`` (Theorem 13); for
    ``"C"`` it is ``2d + 1 + eps`` (Theorem 15).
    """
    d = instance.d
    key = algorithm.upper().strip().replace("ALGORITHM-", "")
    if key == "A":
        if not instance.has_time_dependent_costs and instance.is_load_independent():
            return 2.0 * d
        return 2.0 * d + 1.0
    if key == "B":
        return 2.0 * d + 1.0 + instance.c_constant()
    if key == "C":
        if epsilon is None:
            raise ValueError("epsilon is required for Algorithm C's bound")
        return 2.0 * d + 1.0 + float(epsilon)
    raise ValueError(f"unknown algorithm key {algorithm!r}")


def empirical_ratio(
    instance: ProblemInstance,
    algorithm: OnlineAlgorithm,
    optimal_cost: Optional[float] = None,
    bound: Optional[float] = None,
    dispatcher: Optional[DispatchSolver] = None,
) -> RatioResult:
    """Run an online algorithm and compare its cost against the offline optimum."""
    dispatcher = dispatcher or DispatchSolver(instance)
    result = run_online(instance, algorithm, dispatcher=dispatcher)
    if optimal_cost is None:
        optimal_cost = solve_optimal(instance, dispatcher=dispatcher, return_schedule=False).cost
    return RatioResult(
        instance=instance.name,
        algorithm=result.algorithm,
        online_cost=result.cost,
        optimal_cost=float(optimal_cost),
        bound=bound,
    )


def ratio_table(
    instances: Sequence[ProblemInstance],
    algorithm_factories: Sequence,
    bounds: Optional[Sequence[Optional[float]]] = None,
) -> list:
    """Compare a family of algorithms across a family of instances.

    ``algorithm_factories`` is a sequence of zero-argument callables returning
    fresh :class:`OnlineAlgorithm` objects (fresh state per run).  Returns a
    list of :class:`RatioResult`, one per (instance, algorithm) pair.

    The comparison routes through the sweep engine
    (:func:`repro.exp.run_plan`): every instance's runs share one dispatch
    solver and its per-slot grid tensors, and the offline optimum is taken
    from the engine's shared prefix-DP value history instead of a separate
    solve.
    """
    from ..exp.engine import AlgorithmSpec, SweepPlan, run_plan

    specs = []
    for k, factory in enumerate(algorithm_factories):
        bound = bounds[k] if bounds is not None else None
        specs.append(
            AlgorithmSpec(
                kind=f"custom-{k}",
                bound=bound,
                factory=lambda ctx, _factory=factory: _factory(),
            )
        )
    report = run_plan(SweepPlan(instances=tuple(instances), algorithms=tuple(specs)))
    return report.ratio_results()
