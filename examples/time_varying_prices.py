"""Time-of-day electricity prices: the setting of Section 3 (Algorithms B and C).

When the energy price changes over the day, the operating-cost functions
``f_{t,j}`` become time-dependent.  Algorithm A's fixed ski-rental horizon no
longer applies; Algorithm B adapts the power-down rule to the accumulated idle
cost and is ``(2d + 1 + c(I))``-competitive, and Algorithm C shrinks the
additive constant to any ``eps`` by sub-slot refinement.

This example builds a workload with a day/night price profile, reports

* the constant ``c(I) = sum_j max_t l_{t,j}/beta_j`` and the resulting bounds,
* the measured costs and ratios of Algorithms B and C (for several eps), and
* how many sub-slots Algorithm C used per original slot.

Run with:  python examples/time_varying_prices.py [T]
"""

import sys

import numpy as np

from repro import AlgorithmB, AlgorithmC, run_online, solve_optimal, theoretical_bound
from repro.analysis import format_table, step_plot
from repro.dispatch import DispatchSolver
from repro.workloads import diurnal_trace, fleet_instance, old_new_fleet


def main(T: int = 36) -> None:
    demand = diurnal_trace(T, period=T // 3, base=1.5, peak=9.0, noise=0.05, rng=7)
    prices = 1.0 + 0.6 * np.sin(np.arange(T) / T * 6 * np.pi + 0.4)
    instance = fleet_instance(old_new_fleet(old_count=5, new_count=3), demand, name="priced")
    instance = instance.with_price_profile(prices)

    print(instance.describe())
    print(f"c(I) = {instance.c_constant():.3f}")
    print()
    print(step_plot(prices, title="electricity price multiplier per slot"))
    print()

    dispatcher = DispatchSolver(instance)
    optimal_cost = solve_optimal(instance, dispatcher=dispatcher, return_schedule=False).cost

    rows = []
    b_result = run_online(instance, AlgorithmB(), dispatcher=dispatcher)
    rows.append(
        {
            "algorithm": "B",
            "eps": "-",
            "cost": round(b_result.cost, 2),
            "ratio": round(b_result.cost / optimal_cost, 3),
            "bound": round(theoretical_bound(instance, "B"), 3),
            "mean_sub_slots": 1.0,
        }
    )
    for eps in (1.0, 0.5, 0.25):
        result = run_online(instance, AlgorithmC(epsilon=eps), dispatcher=dispatcher)
        rows.append(
            {
                "algorithm": "C",
                "eps": eps,
                "cost": round(result.cost, 2),
                "ratio": round(result.cost / optimal_cost, 3),
                "bound": round(2 * instance.d + 1 + eps, 3),
                "mean_sub_slots": round(
                    float(np.mean([record.sub_slots for record in result.decisions])), 2
                ),
            }
        )
    print(format_table(rows, title=f"time-dependent costs (OPT = {optimal_cost:.2f})"))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 36)
