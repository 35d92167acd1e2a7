"""SCALE — engineering microbenchmarks: dispatch solver and DP throughput.

Not a paper artifact, but the quantity that makes the reproduction practical:
the offline DP evaluates ``g_t(x)`` for every grid vertex per slot, so the
batched event-sweep dispatcher and the separable min-plus transition are
the two hot loops.  These benchmarks track their throughput so performance
regressions are visible, and emit machine-readable ``BENCH_dispatch.json`` /
``BENCH_dp.json`` files (wall time, states explored, cache-hit rate) for the
perf-trajectory record.
"""

import numpy as np

from repro import ProblemInstance, QuadraticCost, LinearCost, ServerType, solve_optimal
from repro.bench import write_bench_json
from repro.dispatch import DispatchSolver
from repro.offline import StateGrid
from repro.offline.transitions import transition
from repro.workloads import diurnal_trace

from bench_utils import OUTPUT_DIR, result_section, timed, write_result


def _instance(m=(30, 10), T=16):
    types = (
        ServerType("a", count=m[0], switching_cost=5.0, capacity=1.0,
                   cost_function=QuadraticCost(idle=0.5, a=0.2, b=0.8)),
        ServerType("b", count=m[1], switching_cost=10.0, capacity=3.0,
                   cost_function=LinearCost(idle=1.0, slope=0.6)),
    )
    peak = 0.8 * (m[0] + 3 * m[1])
    return ProblemInstance(types, diurnal_trace(T, period=T // 2, base=peak / 6, peak=peak, noise=0.0))


def test_dispatch_grid_throughput(benchmark):
    """Vectorised evaluation of g_t(x) over a full 31x11 grid (warm engine)."""
    instance = _instance()
    solver = DispatchSolver(instance)
    grid = StateGrid.full(instance.m)
    configs = grid.configs()

    def run():
        costs, _ = solver.solve_grid(4, configs)
        return costs

    costs = benchmark(run)
    assert np.isfinite(costs).sum() > 0
    write_result(
        "SCALE_dispatch_throughput",
        f"grid of {len(configs)} configurations evaluated per call "
        f"(finite costs: {int(np.isfinite(costs).sum())})",
    )

    # ---- machine-readable record: cold block solve vs. warm (memoised) query
    cold_solver = DispatchSolver(instance)
    (block_costs, _), cold_seconds = timed(
        lambda: cold_solver.solve_block(range(instance.T), configs)
    )
    cold_stats = cold_solver.stats.snapshot()
    _, warm_seconds = timed(lambda: cold_solver.solve_block(range(instance.T), configs))
    warm_stats = cold_solver.stats.snapshot()
    write_bench_json(
        OUTPUT_DIR / "BENCH_dispatch.json",
        {
            "benchmark": "dispatch",
            "workload": {"T": instance.T, "configs": len(configs), "d": instance.d},
            "cold_block_seconds": round(cold_seconds, 6),
            "warm_block_seconds": round(warm_seconds, 6),
            "single_grid_call_seconds_mean": float(benchmark.stats.stats.mean)
            if benchmark.stats is not None else None,
            "unique_slots_solved": cold_stats["unique_solves"],
            "bisection_iterations": cold_stats["bisection_iterations"],
            "cache_hit_rate_after_warm_pass": warm_stats["cache_hit_rate"],
            "finite_costs": int(np.isfinite(block_costs).sum()),
        },
    )


def test_transition_throughput(benchmark):
    """Separable min-plus transition on a 101x41 value tensor."""
    rng = np.random.default_rng(0)
    values = [np.arange(101), np.arange(41)]
    tensor = rng.uniform(0, 100, size=(101, 41))
    beta = [3.0, 7.0]

    result = benchmark(lambda: transition(tensor, values, values, beta))
    assert result.shape == tensor.shape
    assert np.all(result <= tensor + 1e-12)


def test_offline_solver_end_to_end(benchmark):
    """Full exact solve of a 31x11-state, 16-slot instance."""
    instance = _instance()

    result = benchmark.pedantic(
        lambda: solve_optimal(instance, return_schedule=True), rounds=1, iterations=1
    )
    assert result.schedule.is_feasible(instance)
    rows = [{
        "states_per_slot": result.grids[0].size,
        "slots": instance.T,
        "total_cost": round(result.cost, 2),
    }]
    write_result("SCALE_offline_solver", result_section("end-to-end exact solve", rows))
