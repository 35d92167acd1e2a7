"""THM21 — Theorem 21: runtime of the approximation vs. the exact algorithm.

The exact shortest-path algorithm costs ``Theta(T * prod_j (m_j + 1))`` state
evaluations; the (1+eps)-approximation costs ``O(T * eps^-d * prod_j log m_j)``.
This benchmark measures wall-clock runtimes while sweeping

* the fleet size ``m`` (exact vs. approximate),
* the horizon ``T`` (both scale linearly), and
* ``eps`` (the approximation's grid grows like ``(1/eps)^d``),

and reports measured times together with the number of explored states, so the
predicted growth rates can be compared against the measurement.
"""

import time

import numpy as np

from repro import ProblemInstance, QuadraticCost, ServerType, solve_approx, solve_optimal
from repro.bench import write_bench_json
from repro.dispatch import DispatchSolver
from repro.workloads import diurnal_trace

from bench_utils import OUTPUT_DIR, result_section, write_result


def _instance(m: int, T: int) -> ProblemInstance:
    types = (
        ServerType("a", count=m, switching_cost=5.0, capacity=1.0,
                   cost_function=QuadraticCost(idle=0.5, a=0.2, b=0.8)),
        ServerType("b", count=max(2, m // 4), switching_cost=10.0, capacity=3.0,
                   cost_function=QuadraticCost(idle=1.0, a=0.3, b=0.3)),
    )
    peak = 0.8 * (m * 1.0 + max(2, m // 4) * 3.0)
    demand = diurnal_trace(T, period=max(4, T // 2), base=peak / 8, peak=peak, noise=0.0)
    return ProblemInstance(types, demand, name=f"scaling-m{m}-T{T}")


def _timed(func):
    start = time.perf_counter()
    result = func()
    return result, time.perf_counter() - start


def _run():
    fleet_rows = []
    dispatch_counters = []
    for m in (8, 16, 32, 64):
        instance = _instance(m, T=12)
        dispatcher = DispatchSolver(instance)
        exact, t_exact = _timed(
            lambda: solve_optimal(instance, dispatcher=dispatcher, return_schedule=False)
        )
        approx, t_approx = _timed(lambda: solve_approx(instance, epsilon=0.5, return_schedule=False))
        dispatch_counters.append({"m": m, **dispatcher.stats.snapshot()})
        fleet_rows.append(
            {
                "m": m,
                "exact_states": exact.num_states_explored,
                "exact_seconds": round(t_exact, 4),
                "approx_states": approx.num_states_explored,
                "approx_seconds": round(t_approx, 4),
                "state_reduction": round(exact.num_states_explored / approx.num_states_explored, 2),
            }
        )

    horizon_rows = []
    for T in (8, 16, 32, 64):
        instance = _instance(24, T=T)
        approx, t_approx = _timed(lambda: solve_approx(instance, epsilon=0.5, return_schedule=False))
        horizon_rows.append(
            {"T": T, "approx_states": approx.num_states_explored, "approx_seconds": round(t_approx, 4)}
        )

    eps_rows = []
    instance = _instance(64, T=12)
    for eps in (2.0, 1.0, 0.5, 0.25):
        approx, t_approx = _timed(lambda: solve_approx(instance, epsilon=eps, return_schedule=False))
        eps_rows.append(
            {
                "eps": eps,
                "grid_states_per_slot": approx.grids[0].size,
                "approx_seconds": round(t_approx, 4),
                "cost": round(approx.cost, 2),
            }
        )
    return fleet_rows, horizon_rows, eps_rows, dispatch_counters


#: Rounds of the whole sweep; the trend and every row record the fastest,
#: because one pass of these small solves takes well under a second and reads
#: host noise.
TIMING_ROUNDS = 5


def _fastest(rounds):
    """The rows of one sweep, each ``*_seconds`` field the fastest of its rounds."""
    fastest = []
    for rows in zip(*rounds):
        row = dict(rows[0])
        for key in row:
            if key.endswith("_seconds"):
                row[key] = min(r[key] for r in rows)
        fastest.append(row)
    return fastest


def test_thm21_runtime_scaling(benchmark):
    rounds = []
    benchmark.pedantic(lambda: rounds.append(_run()), rounds=TIMING_ROUNDS, iterations=1)
    fleet_rows, horizon_rows, eps_rows = (
        _fastest([sweeps[k] for sweeps in rounds]) for k in range(3)
    )
    dispatch_counters = rounds[-1][3]

    # the approximation explores asymptotically fewer states as m grows
    reductions = [row["state_reduction"] for row in fleet_rows]
    assert reductions == sorted(reductions)
    # horizon scaling is linear in the number of explored states
    states = [row["approx_states"] for row in horizon_rows]
    assert states[-1] == states[0] * (horizon_rows[-1]["T"] // horizon_rows[0]["T"])
    # finer eps never shrinks the grid
    grids = [row["grid_states_per_slot"] for row in eps_rows]
    assert grids == sorted(grids)

    text = "\n\n".join(
        [
            "Experiment THM21 — Theorem 21 (runtime scaling of the (1+eps)-approximation)",
            result_section("fleet-size sweep (T=12, eps=0.5): exact Theta(T prod m_j) vs. approx O(T prod log m_j)", fleet_rows),
            result_section("horizon sweep (m=24, eps=0.5): both scale linearly in T", horizon_rows),
            result_section("eps sweep (m=64, T=12): grid grows as eps shrinks", eps_rows),
        ]
    )
    write_result("THM21_runtime_scaling", text)

    # machine-readable perf-trajectory record for the DP hot path
    wall = float(benchmark.stats.stats.min) if benchmark.stats is not None else None
    write_bench_json(
        OUTPUT_DIR / "BENCH_dp.json",
        {
            "benchmark": "dp",
            "wall_seconds_total": wall,
            "timing_rounds": TIMING_ROUNDS,
            "fleet_sweep": fleet_rows,
            "horizon_sweep": horizon_rows,
            "eps_sweep": eps_rows,
            "dispatch_engine": dispatch_counters,
        },
        headline={"benchmark": "dp", "wall_seconds_total": wall},
    )
