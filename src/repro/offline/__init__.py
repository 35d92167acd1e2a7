"""Offline algorithms: exact shortest-path DP, (1+eps)-approximation, reference solvers."""

from .bruteforce import exhaustive_optimal, pairwise_dp_optimal
from .dp import OfflineResult, solve_dp
from .fractional import FractionalBound, convex_lower_bound
from .graph_approx import approximation_guarantee, gamma_for_epsilon, solve_approx
from .graph_optimal import build_graph, optimal_cost, shortest_path_schedule, solve_optimal
from .milp import MilpResult, is_linear_instance, solve_lp_relaxation, solve_milp
from .rounding import round_schedule_to_grid, rounding_invariant_holds
from .state_grid import StateGrid, geometric_levels, grid_for_slot, slot_grids

__all__ = [
    "FractionalBound",
    "MilpResult",
    "OfflineResult",
    "StateGrid",
    "approximation_guarantee",
    "build_graph",
    "convex_lower_bound",
    "exhaustive_optimal",
    "gamma_for_epsilon",
    "geometric_levels",
    "grid_for_slot",
    "is_linear_instance",
    "optimal_cost",
    "pairwise_dp_optimal",
    "round_schedule_to_grid",
    "rounding_invariant_holds",
    "shortest_path_schedule",
    "slot_grids",
    "solve_approx",
    "solve_dp",
    "solve_lp_relaxation",
    "solve_milp",
    "solve_optimal",
]
