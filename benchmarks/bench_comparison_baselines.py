"""COMP — comparison of the paper's algorithms against related-work baselines.

The paper positions Algorithms A/B/C against (i) the homogeneous LCP line of
work of Lin et al., (ii) fractional convex-chasing algorithms such as Online
Balanced Descent, and (iii) the trivial always-on / purely reactive policies
its introduction argues against.  This benchmark runs them all on a shared
workload suite and regenerates the qualitative picture:

* right-sizing (A/B) clearly beats keeping the whole fleet on,
* the heterogeneous algorithms match LCP on homogeneous inputs,
* naive rounding of the fractional OBD trajectory inflates the switching cost.

The workloads are addressed through the scenario registry (``diurnal-cpu-gpu``
and ``homogeneous`` specs) — the fleet/trace wiring this file used to inline
lives in :mod:`repro.scenarios.families`, and each record carries its spec.
"""

import numpy as np

from repro import total_cost
from repro.exp import SharedInstanceContext, run_instance, spec
from repro.online import optimal_static_schedule, receding_horizon_schedule, round_up, run_obd
from repro.scenarios import ScenarioSpec, build as build_scenario

from bench_utils import once, result_section, write_result


def _compare_on(scenario, include_lcp=False):
    # One shared context serves every online run (A/B and the LCP trackers
    # replay one prefix-DP value history), the offline optimum *and* the
    # static/receding-horizon baselines below, which reuse its dispatcher.
    instance = build_scenario(scenario)
    context = SharedInstanceContext(instance)
    specs = [spec("A"), spec("B"), spec("reactive"), spec("follow-demand"), spec("all-on")]
    if include_lcp:
        specs.insert(2, spec("lcp"))
    records = run_instance(instance, algorithms=specs, context=context, scenario=scenario)
    assert all(r.scenario["scenario"] == scenario.name for r in records)
    opt = context.optimal_cost()
    dispatcher = context.dispatcher
    rows = []
    for record in records:
        rows.append(
            {
                "algorithm": record.algorithm,
                "cost": round(record.cost, 2),
                "ratio_vs_opt": round(record.ratio, 3),
                "switching_share": round(record.breakdown["switching"] / record.cost, 3),
            }
        )

    static = optimal_static_schedule(instance, dispatcher=dispatcher)
    rows.append(
        {
            "algorithm": "optimal-static (offline)",
            "cost": round(total_cost(instance, static, dispatcher), 2),
            "ratio_vs_opt": round(total_cost(instance, static, dispatcher) / opt, 3),
            "switching_share": 0.0,
        }
    )
    horizon = receding_horizon_schedule(instance, lookahead=4, dispatcher=dispatcher)
    rows.append(
        {
            "algorithm": "receding-horizon(4) (semi-online)",
            "cost": round(total_cost(instance, horizon, dispatcher), 2),
            "ratio_vs_opt": round(total_cost(instance, horizon, dispatcher) / opt, 3),
            "switching_share": round(
                horizon.switching_cost(instance) / total_cost(instance, horizon, dispatcher), 3
            ),
        }
    )
    rows.append({"algorithm": "offline optimum", "cost": round(opt, 2), "ratio_vs_opt": 1.0, "switching_share": "-"})
    return instance, opt, rows


def _obd_rows(scenario):
    instance = build_scenario(scenario)
    context = SharedInstanceContext(instance)
    dispatcher = context.dispatcher
    opt = context.optimal_cost()
    fractional = run_obd(instance, dispatcher=dispatcher)
    rounded = round_up(fractional, instance)
    rounded_cost = total_cost(instance, rounded, dispatcher)
    return instance, [
        {
            "algorithm": "OBD (fractional relaxation)",
            "cost": round(fractional.cost, 2),
            "ratio_vs_opt": round(fractional.cost / opt, 3),
            "switching_share": round(fractional.total_switching / fractional.cost, 3),
        },
        {
            "algorithm": "OBD rounded up (integral)",
            "cost": round(rounded_cost, 2),
            "ratio_vs_opt": round(rounded_cost / opt, 3),
            "switching_share": round(rounded.switching_cost(instance) / rounded_cost, 3),
        },
    ]


def _run():
    hetero, _, hetero_rows = _compare_on(ScenarioSpec("diurnal-cpu-gpu", {"T": 36}))
    homog, _, homog_rows = _compare_on(ScenarioSpec("homogeneous", {"T": 36}), include_lcp=True)
    obd_instance, obd_rows = _obd_rows(ScenarioSpec("diurnal-cpu-gpu", {"T": 20}, seed=4))
    return (hetero, hetero_rows), (homog, homog_rows), (obd_instance, obd_rows)


def test_comparison_against_baselines(benchmark):
    (hetero, hetero_rows), (homog, homog_rows), (obd_instance, obd_rows) = once(benchmark, _run)

    by_name = {row["algorithm"]: row for row in hetero_rows}
    assert by_name["algorithm-A"]["ratio_vs_opt"] < by_name["all-on"]["ratio_vs_opt"]
    assert by_name["algorithm-A"]["ratio_vs_opt"] <= 2 * hetero.d + 1

    homog_by_name = {row["algorithm"]: row for row in homog_rows}
    assert homog_by_name["LCP"]["ratio_vs_opt"] <= 3.0 + 1e-6
    assert homog_by_name["algorithm-A"]["ratio_vs_opt"] <= 3.0 + 1e-6

    text = "\n\n".join(
        [
            "Experiment COMP — comparison with baselines",
            result_section(
                f"heterogeneous CPU+GPU fleet, diurnal workload (T={hetero.T}, d={hetero.d})", hetero_rows
            ),
            result_section(
                f"homogeneous fleet (T={homog.T}, d=1) — LCP line of work applies here", homog_rows
            ),
            result_section(
                f"fractional OBD vs. naive rounding (T={obd_instance.T})", obd_rows
            ),
        ]
    )
    write_result("COMP_baselines", text)
