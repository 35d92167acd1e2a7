"""SWEEP — shared-context sweep engine: exactness gate and end-to-end speedup.

Runs the combined THM8+13+15+22 competitive-ratio workload twice: once with
PR-1 style sequential orchestration (fresh solver and private trackers per
run) and once through the shared-context sweep engine (:mod:`repro.exp`), then

* asserts the engine reproduces every pinned PR-1 cost within 1e-6 and agrees
  with the sequential orchestration to 1e-9, and
* records both wall times in ``benchmarks/output/BENCH_sweep.json`` so the
  performance trajectory of the sweep path is tracked numerically (wall times
  are advisory, costs gate).
"""

from repro.bench import PINNED_SWEEP_COSTS, run_sweep_bench

from bench_utils import OUTPUT_DIR, once, result_section, write_result


def test_sweep_engine_combined_workload(benchmark):
    json_path = str(OUTPUT_DIR / "BENCH_sweep.json")
    payload = once(benchmark, run_sweep_bench, json_path=json_path)

    assert payload["max_cost_deviation"] <= payload["tolerance"]
    assert len(PINNED_SWEEP_COSTS) == sum(
        len(exp["rows"]) + len({row["instance"] for row in exp["rows"]})
        for exp in payload["experiments"].values()
    )

    rows = [
        {
            "experiment": name,
            "instance": row["instance"],
            "algorithm": row["algorithm"],
            "cost": round(row["cost"], 4),
            "ratio": round(row["ratio"], 4),
            "seconds": row["elapsed_seconds"],
        }
        for name, experiment in payload["experiments"].items()
        for row in experiment["rows"]
    ]
    timing = [
        {
            "orchestration": "sequential (fresh solver per run)",
            "wall_seconds": payload["sequential_wall_seconds"],
            "speedup_vs_sequential": 1.0,
        },
        {
            "orchestration": "shared-context engine",
            "wall_seconds": payload["engine_wall_seconds"],
            "speedup_vs_sequential": payload["speedup_vs_sequential"],
        },
    ]
    text = "\n\n".join(
        [
            "Experiment SWEEP — shared-context sweep engine on the combined "
            "THM8+13+15+22 workload",
            result_section("per-run costs and ratios (identical across orchestrations)", rows),
            result_section("wall-time comparison (advisory)", timing),
            f"max cost deviation from pinned PR-1 values: {payload['max_cost_deviation']:.2e} "
            f"(gate: {payload['tolerance']:g})",
        ]
    )
    write_result("SWEEP_engine", text)
