"""SCALE — engineering microbenchmarks: dispatch solver and DP throughput.

Not a paper artifact, but the quantity that makes the reproduction practical:
the offline DP evaluates ``g_t(x)`` for every grid vertex per slot, so the
batched dispatcher (each demand read off its configuration set's volume
table) and the separable min-plus transition are the two hot loops.  These
benchmarks track their throughput so performance regressions are visible,
and emit a machine-readable ``BENCH_dispatch.json`` file (wall times, solve
counts, cache-hit rate) whose ``runs`` series keeps the perf-trajectory
record.  ``make bench-dispatch`` runs them and refreshes that file.
"""

import statistics

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
    """Vectorised evaluation of g_t(x) over a full 31x11 grid, solved fresh.

    Each round gets a new solver (built untimed), so every timed call is a
    dispatch solve, not a memo lookup.
    """
    instance = _instance()
    grid = StateGrid.full(instance.m)
    configs = grid.configs()

    def fresh_solver():
        return (DispatchSolver(instance),), {}

    def run(solver):
        costs, _ = solver.solve_grid(4, configs)
        return costs

    costs = benchmark.pedantic(run, setup=fresh_solver, rounds=50, iterations=1)
    assert np.isfinite(costs).sum() > 0
    write_result(
        "SCALE_dispatch_throughput",
        f"grid of {len(configs)} configurations solved per call "
        f"(finite costs: {int(np.isfinite(costs).sum())})",
    )

    # ---- machine-readable record: cold block solve vs. warm (memoised) query
    cold_walls = []
    for _ in range(11):
        cold_solver = DispatchSolver(instance)
        (block_costs, _), seconds = timed(
            lambda: cold_solver.solve_block(range(instance.T), configs)
        )
        cold_walls.append(seconds)
    cold_stats = cold_solver.stats.snapshot()
    _, warm_seconds = timed(lambda: cold_solver.solve_block(range(instance.T), configs))
    warm_stats = cold_solver.stats.snapshot()
    walls = {
        "cold_block_seconds": round(statistics.median(cold_walls), 6),
        "warm_block_seconds": round(warm_seconds, 6),
        "single_grid_solve_seconds_mean": float(benchmark.stats.stats.mean)
        if benchmark.stats is not None else None,
    }
    write_bench_json(
        OUTPUT_DIR / "BENCH_dispatch.json",
        {
            "benchmark": "dispatch",
            "workload": {"T": instance.T, "configs": len(configs), "d": instance.d},
            **walls,
            "unique_slots_solved": cold_stats["unique_solves"],
            "bisection_iterations": cold_stats["bisection_iterations"],
            "cache_hit_rate_after_warm_pass": warm_stats["cache_hit_rate"],
            "finite_costs": int(np.isfinite(block_costs).sum()),
        },
        headline={"benchmark": "dispatch", **walls},
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
