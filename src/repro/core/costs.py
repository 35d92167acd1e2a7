"""Exact cost evaluation of schedules.

The total cost of a schedule (equation (2) of the paper) is

``C(X) = sum_t [ g_t(x_t) + sum_j beta_j (x_{t,j} - x_{t-1,j})^+ ]``.

This module evaluates it exactly (up to the tolerance of the dispatch solver)
and additionally provides the *idle / load-dependent* decomposition of the
operating cost that drives the competitive analysis of Sections 2-3:

``L_{t,j}(X) = x_{t,j} * ( f_{t,j}(lambda_t z_{t,j} / x_{t,j}) - f_{t,j}(0) )``

is the load-dependent part (Lemma 4 shows it is dominated by the optimum), and
``x_{t,j} * f_{t,j}(0)`` is the idle part charged against blocks in Lemmas 6/7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..dispatch.allocation import DispatchSolver
from .instance import ProblemInstance
from .schedule import Schedule

__all__ = [
    "CostBreakdown",
    "evaluate_schedule",
    "total_cost",
    "operating_cost",
    "switching_cost",
]


@dataclass(frozen=True, eq=False)
class CostBreakdown:
    """Complete per-slot cost decomposition of a schedule.

    Attributes
    ----------
    operating:
        ``(T,)`` array with ``g_t(x_t)`` per slot.
    switching:
        ``(T,)`` array with the power-up cost paid when entering each slot.
    idle:
        ``(T, d)`` array with the idle operating cost ``x_{t,j} f_{t,j}(0)``.
    load_dependent:
        ``(T, d)`` array with ``L_{t,j}(X)``.
    loads:
        ``(T, d)`` array with the dispatched volumes ``w_{t,j}``.
    feasible:
        Whether every slot could serve its demand.
    """

    operating: np.ndarray
    switching: np.ndarray
    idle: np.ndarray
    load_dependent: np.ndarray
    loads: np.ndarray
    feasible: bool

    @property
    def total(self) -> float:
        """Total schedule cost ``C(X)``."""
        return float(np.sum(self.operating) + np.sum(self.switching))

    @property
    def total_operating(self) -> float:
        return float(np.sum(self.operating))

    @property
    def total_switching(self) -> float:
        return float(np.sum(self.switching))

    @property
    def total_idle(self) -> float:
        return float(np.sum(self.idle))

    @property
    def total_load_dependent(self) -> float:
        return float(np.sum(self.load_dependent))

    def summary(self) -> dict:
        """Dictionary summary used by the reporting helpers."""
        return {
            "total": self.total,
            "operating": self.total_operating,
            "switching": self.total_switching,
            "idle": self.total_idle,
            "load_dependent": self.total_load_dependent,
            "feasible": self.feasible,
        }


def evaluate_schedule(
    instance: ProblemInstance,
    schedule: Schedule,
    dispatcher: Optional[DispatchSolver] = None,
    memoise: bool = True,
) -> CostBreakdown:
    """Evaluate a schedule against an instance, returning the full cost breakdown.

    Infeasible slots (demand exceeding the capacity of the chosen configuration)
    contribute ``inf`` operating cost, mirroring equation (1).  ``memoise=False``
    forwards to :meth:`~repro.dispatch.DispatchSolver.solve_block` so a caller
    that bounds its memory (a windowed slot context) does not repopulate the
    per-slot dispatch cache it deliberately avoided building.
    """
    if schedule.x.shape != (instance.T, instance.d):
        raise ValueError(
            f"schedule shape {schedule.x.shape} does not match instance "
            f"(T={instance.T}, d={instance.d})"
        )
    dispatcher = dispatcher or DispatchSolver(instance)

    T, d = instance.T, instance.d
    operating = np.zeros(T)
    loads = np.zeros((T, d))
    feasible = True

    # Batch all dispatch work through the block engine: evaluate the schedule's
    # unique configurations against every slot.  The engine deduplicates slots
    # by (demand, cost-row) signature, so the number of actual dispatch
    # solves is (unique signatures) x (unique configs) fused into vectorised
    # passes — far cheaper than T sequential single-configuration solves.
    # Long horizons are *chunked* so the transient (slots x configs) result
    # block stays bounded (~500k entries, so a long schedule never costs an
    # O(T * |M|) allocation); a single chunk reproduces the historical
    # one-block behaviour exactly.  Only when the schedule has so many
    # distinct configurations that chunks would degenerate to a handful of
    # slots does the per-slot single-configuration path remain the cheaper
    # option.
    unique_configs, inverse = np.unique(schedule.x, axis=0, return_inverse=True)
    inverse = np.asarray(inverse).reshape(-1)
    chunk = max(1, 500_000 // max(len(unique_configs), 1)) if T else 0
    use_block = T > 0 and chunk >= 4

    for lo in range(0, T, chunk if use_block else max(T, 1)):
        if use_block:
            ts = range(lo, min(lo + chunk, T))
            block_costs, block_loads = dispatcher.solve_block(ts, unique_configs, memoise=memoise)
        else:
            ts = range(T)
        for i, t in enumerate(ts):
            x_t = schedule[t]
            counts = instance.counts_at(t)
            if np.any(x_t > counts):
                operating[t] = np.inf
                feasible = False
                continue
            if use_block:
                k = int(inverse[t])
                cost_t = float(block_costs[i, k])
                loads_t = block_loads[i, k]
            else:
                result = dispatcher.solve(t, x_t)
                cost_t = result.cost
                loads_t = result.loads
            operating[t] = cost_t
            loads[t] = loads_t
            if not np.isfinite(cost_t):
                feasible = False

    idle = np.zeros((T, d))
    load_dep = np.zeros((T, d))
    for t in range(T):
        if not np.isfinite(operating[t]):
            continue
        x_t = schedule[t]
        loads_t = loads[t]
        functions = instance.cost_row(t)
        for j in range(d):
            f = functions[j]
            idle_cost = f.idle_cost()
            idle[t, j] = x_t[j] * idle_cost
            if x_t[j] > 0:
                per_server = loads_t[j] / x_t[j]
                load_dep[t, j] = x_t[j] * (float(f.value(per_server)) - idle_cost)

    switching = (schedule.power_ups() * instance.beta[None, :]).sum(axis=1)
    return CostBreakdown(
        operating=operating,
        switching=switching,
        idle=idle,
        load_dependent=load_dep,
        loads=loads,
        feasible=feasible,
    )


def total_cost(
    instance: ProblemInstance,
    schedule: Schedule,
    dispatcher: Optional[DispatchSolver] = None,
) -> float:
    """Total cost ``C(X)`` of a schedule (``inf`` when infeasible)."""
    return evaluate_schedule(instance, schedule, dispatcher).total


def operating_cost(
    instance: ProblemInstance,
    schedule: Schedule,
    dispatcher: Optional[DispatchSolver] = None,
) -> float:
    """Total operating cost ``C_op(X) = sum_t g_t(x_t)``."""
    return evaluate_schedule(instance, schedule, dispatcher).total_operating


def switching_cost(instance: ProblemInstance, schedule: Schedule) -> float:
    """Total switching cost ``C_sw(X)`` (no dispatch required)."""
    return schedule.switching_cost(instance)
