"""Online algorithms: the paper's Algorithms A/B/C, trackers, baselines, adversaries."""

from .adversary import (
    AdaptiveAdversaryResult,
    ChasingGameResult,
    adaptive_adversary,
    convex_chasing_game,
    greedy_cube_strategy,
    interleaved_ski_rental_instance,
    rounding_pathology,
    ski_rental_instance,
    ski_rental_trace,
)
from .algorithm_a import AlgorithmA
from .algorithm_b import AlgorithmB, compute_retirement_sets, compute_runtimes
from .algorithm_c import AlgorithmC, sub_slot_count
from .base import (
    Decision, OnlineAlgorithm, OnlineContext, OnlineRunResult, SlotContext, SlotInfo, run_online,
)
from .baselines import AllOn, FollowDemand, Reactive, optimal_static_schedule, receding_horizon_schedule
from .blocks import Block, block_index_sets, blocks_from_power_ups, special_slots, verify_partition
from .lcp import LazyCapacityProvisioning
from .obd import FractionalRunResult, round_up, run_obd
from .tracker import (
    DPPrefixTracker,
    FixedSequenceTracker,
    PrefixOptimumTracker,
    SharedValueStream,
    argmin_config,
)

__all__ = [
    "AdaptiveAdversaryResult",
    "AlgorithmA",
    "AlgorithmB",
    "AlgorithmC",
    "AllOn",
    "Block",
    "ChasingGameResult",
    "DPPrefixTracker",
    "Decision",
    "FixedSequenceTracker",
    "FollowDemand",
    "FractionalRunResult",
    "LazyCapacityProvisioning",
    "OnlineAlgorithm",
    "OnlineContext",
    "OnlineRunResult",
    "PrefixOptimumTracker",
    "Reactive",
    "SharedValueStream",
    "SlotContext",
    "SlotInfo",
    "adaptive_adversary",
    "argmin_config",
    "block_index_sets",
    "blocks_from_power_ups",
    "compute_retirement_sets",
    "compute_runtimes",
    "convex_chasing_game",
    "greedy_cube_strategy",
    "interleaved_ski_rental_instance",
    "optimal_static_schedule",
    "receding_horizon_schedule",
    "round_up",
    "rounding_pathology",
    "run_obd",
    "run_online",
    "ski_rental_instance",
    "ski_rental_trace",
    "special_slots",
    "sub_slot_count",
    "verify_partition",
]
