"""SERVE — multi-tenant streaming replay: latency percentiles and cache sharing.

Runs the serve-layer benchmark (:func:`repro.bench.run_serve_bench`): one
fleet geometry, ``n`` concurrent :class:`~repro.serve.ControllerSession`
tenants each replaying a rotated copy of the same quantised demand trace,
for ``n`` in {1, 8, 64} — once over one shared
:class:`~repro.serve.ServeCache` and once with per-tenant isolated caches.

* **gates** (deterministic): sharing must be decision-neutral (every tenant's
  cumulative cost identical between modes) and real (strictly fewer unique
  dispatch solves in shared mode for n > 1),
* measures per-tick wall-latency p50/p95/p99, aggregate ticks/sec and
  tenants/sec, and the cache-hit counters, and
* merges its payload and one trend entry into
  ``benchmarks/output/BENCH_serve.json`` (the fabric, latency and batch
  sections other gates record there survive) and writes a human-readable
  ``SERVE_replay.txt``.

Run directly (``python benchmarks/bench_serve_replay.py``) or through
``make bench`` / ``pytest --benchmark-only`` like the other experiments.
"""

import json

from repro.bench import TREND_MAX_RUNS, run_serve_bench

from bench_utils import OUTPUT_DIR, once, result_section, write_result

JSON_PATH = OUTPUT_DIR / "BENCH_serve.json"


def _report(payload: dict) -> str:
    rows = [
        {
            "tenants": row["tenants"],
            "mode": row["mode"],
            "total_ticks": row["total_ticks"],
            "p50_ms": row["latency"]["p50_ms"],
            "p95_ms": row["latency"]["p95_ms"],
            "p99_ms": row["latency"]["p99_ms"],
            "ticks_per_s": row["ticks_per_second"],
            "tenants_per_s": row["tenants_per_second"],
            "unique_solves": row["unique_solves"],
            "grid_hit_rate": row["grid_hit_rate"],
        }
        for row in payload["rows"]
    ]
    comparisons = [
        {
            "tenants": row["tenants"],
            "speedup_vs_isolated": row["speedup_vs_isolated"],
            "per_tick_us_shared": row["per_tick_us_shared"],
            "per_tick_us_isolated": row["per_tick_us_isolated"],
            "unique_solves_shared": row["unique_solves_shared"],
            "unique_solves_isolated": row["unique_solves_isolated"],
            "max_cost_deviation": f"{row['max_cost_deviation']:.2e}",
        }
        for row in payload["comparisons"]
    ]
    return "\n\n".join(
        [
            "Experiment SERVE — multi-tenant streaming replay "
            f"({payload['instance']}, {payload['ticks_per_tenant']} ticks/tenant, "
            f"{payload['demand_levels']} demand levels).",
            result_section("per-mode measurements", rows),
            result_section("shared vs isolated", comparisons),
            "Gates: per-tenant cost equality between modes (1e-9) and strictly "
            "fewer unique dispatch solves in shared mode for n > 1.  Wall "
            "times and latency percentiles are advisory (machine-dependent).",
        ]
    )


def test_serve_replay_benchmark(benchmark):
    before = json.loads(JSON_PATH.read_text()) if JSON_PATH.exists() else {}
    payload = once(benchmark, run_serve_bench, tenant_counts=(1, 8, 64), json_path=JSON_PATH)

    # the deterministic gates re-asserted at the harness level
    for row in payload["comparisons"]:
        assert row["max_cost_deviation"] <= 1e-9
        if row["tenants"] > 1:
            assert row["unique_solves_shared"] < row["unique_solves_isolated"]
    # the file is shared with the fabric, latency and batch gates: a serve run
    # merges into it and appends to its trend series, never drops either
    after = json.loads(JSON_PATH.read_text())
    assert set(before) <= set(after)
    assert len(after["runs"]) == min(len(before.get("runs", [])) + 1, TREND_MAX_RUNS)

    write_result("SERVE_replay", _report(payload))


if __name__ == "__main__":
    payload = run_serve_bench(tenant_counts=(1, 8, 64), json_path=JSON_PATH)
    path = write_result("SERVE_replay", _report(payload))
    print(_report(payload))
    print(f"\nwrote {path}")
