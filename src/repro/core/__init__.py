"""Core problem model: cost functions, server types, instances, schedules, costs."""

from .cost_functions import (
    CallableCost,
    ConstantCost,
    CostFunction,
    LinearCost,
    PiecewiseLinearCost,
    PowerCost,
    QuadraticCost,
    ScaledCost,
    ShiftedCost,
    check_valid_cost_function,
)
from .costs import CostBreakdown, evaluate_schedule, operating_cost, switching_cost, total_cost
from .instance import ProblemInstance
from .schedule import Schedule
from .server import ServerType

__all__ = [
    "CallableCost",
    "ConstantCost",
    "CostBreakdown",
    "CostFunction",
    "LinearCost",
    "PiecewiseLinearCost",
    "PowerCost",
    "ProblemInstance",
    "QuadraticCost",
    "ScaledCost",
    "Schedule",
    "ServerType",
    "ShiftedCost",
    "check_valid_cost_function",
    "evaluate_schedule",
    "operating_cost",
    "switching_cost",
    "total_cost",
]
