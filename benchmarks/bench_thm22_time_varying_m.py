"""THM22 — Theorem 22 / Section 4.3: time-dependent data-center sizes.

Section 4.3 extends both the optimal algorithm and the (1+eps)-approximation to
fleets whose size changes over time (expansion with new servers, maintenance
windows).  This benchmark builds a scenario with a maintenance window and a
fleet expansion, solves it exactly and approximately, verifies feasibility
against the per-slot limits and the approximation bound, and reports the
regenerated schedule summary.
"""

import numpy as np

from repro.bench import thm22_instance, thm22_spec
from repro.exp import OfflineSpec, SweepPlan, run_plan

from bench_utils import once, result_section, write_result


def _run():
    # Both solves route through one shared engine context: the exact schedule
    # is reconstructed from the context's shared value history, the
    # approximation shares its dispatch solver and block caches.  The scenario
    # (maintenance window slots 10-14, expansion from slot 20) is addressed
    # declaratively via repro.bench.thm22_spec — the 'time-varying-m' registry
    # family also gated by perf-regress — and materialised lazily; the local
    # build below only serves the feasibility assertions.
    instance = thm22_instance()
    report = run_plan(
        SweepPlan(
            scenarios=(thm22_spec(),),
            offline=(
                OfflineSpec(solver="optimal"),
                OfflineSpec(solver="approx", epsilon=0.5),
            ),
        )
    )
    exact = report.record(instance.name, "offline-optimal").result
    approx = report.record(instance.name, "approx(eps=0.5)").result
    return instance, exact, approx


def test_thm22_time_varying_fleet(benchmark):
    instance, exact, approx = once(benchmark, _run)

    assert exact.schedule.is_feasible(instance)
    assert approx.schedule.is_feasible(instance)
    assert exact.cost - 1e-6 <= approx.cost <= 1.5 * exact.cost + 1e-6
    # the maintenance window is respected
    assert np.all(exact.schedule.x[10:15, 0] <= 2)
    assert np.all(approx.schedule.x[10:15, 0] <= 2)

    rows = [
        {
            "slot": t,
            "available_old": int(instance.counts_at(t)[0]),
            "available_new": int(instance.counts_at(t)[1]),
            "demand": round(float(instance.demand[t]), 2),
            "opt_old": int(exact.schedule.x[t, 0]),
            "opt_new": int(exact.schedule.x[t, 1]),
            "approx_old": int(approx.schedule.x[t, 0]),
            "approx_new": int(approx.schedule.x[t, 1]),
        }
        for t in range(instance.T)
    ]
    text = "\n\n".join(
        [
            "Experiment THM22 — Theorem 22 / Section 4.3 (time-dependent fleet sizes)",
            f"optimal cost: {exact.cost:.2f}, (1+eps)-approx cost (eps=0.5): {approx.cost:.2f}, "
            f"ratio {approx.cost / exact.cost:.4f} <= 1.5",
            result_section("schedule under a maintenance window (slots 10-14) and an expansion (slot 20+)", rows),
        ]
    )
    write_result("THM22_time_varying_m", text)
