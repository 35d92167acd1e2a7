"""SCALE — streaming DP core: checkpointed O(sqrt(T))-memory backtracking.

Runs the large-scale scenario suite (:mod:`repro.workloads.scale`) through the
streaming value pass of :func:`repro.offline.dp.solve_dp` and

* **gates** on exactness: on every ``compare`` scenario the streaming schedule
  must be bit-identical to ``keep_tables=True`` and its cost equal to 1e-9,
* measures wall time and peak memory (tracemalloc + process RSS) for the
  streaming forward pass, the end-to-end streaming solve and — where it is
  still payable — the classic all-tables pass, and
* records everything in ``benchmarks/output/BENCH_scale.json`` plus a
  human-readable ``SCALE_streaming.txt``, documenting the projected all-tables
  footprint of the instances the seed code cannot fit (long-horizon
  ``T = 5 * 10^4`` full grids, ``d = 4`` fleets with ``m_j = 10^4`` on
  geometric grids).

Run directly (``python benchmarks/bench_scale_streaming.py``) for the full
suite without the pytest-benchmark harness, or through ``make bench`` /
``pytest --benchmark-only`` like the other experiments (quick suite by
default; set ``BENCH_SCALE_FULL=1`` for the headline sizes).
"""

import os

from repro.bench import run_scale_bench

from bench_utils import OUTPUT_DIR, once, result_section, write_result


def _report(payload: dict) -> str:
    rows = [
        {
            "instance": row["instance"],
            "mode": row["mode"],
            "T": row["T"],
            "d": row["d"],
            "states": row["grid_states"],
            "k": row.get("checkpoint_every"),
            "seconds": row["wall_seconds"],
            "peak_mb": row["tracemalloc_peak_mb"],
            "projected_mb": row["table_history_projected_mb"],
            "rss_mb": row["rss_peak_mb"],
            "cost": None if row.get("cost") is None else round(row["cost"], 2),
        }
        for row in payload["rows"]
    ]
    comparisons = [
        {
            "instance": row["instance"],
            "memory_ratio": row["memory_ratio"],
            "stream_vs_forward": row["stream_wall_vs_forward"],
            "stream_vs_tables": row["stream_wall_vs_tables"],
            "cost_deviation": f"{row['cost_deviation']:.2e}",
            "schedules_identical": row["schedules_identical"],
        }
        for row in payload["comparisons"]
    ]
    sections = [
        "Experiment SCALE — streaming DP core (checkpointed backtracking) on "
        "long-horizon / big-fleet workloads",
        result_section("per-run wall time and peak memory", rows),
        result_section("streaming vs all-tables (gated: equality at 1e-9)", comparisons),
        "keep-tables-projected rows document the all-tables footprint that is "
        "*not* paid: value-table history alone at T*|M|*8 bytes, OOM-or-worse "
        "on typical 4-8 GB runners (the seed code additionally materialised "
        "O(T*|M|*d) dispatch load blocks).",
    ]
    runs = payload.get("runs") or []
    if len(runs) >= 2:
        from repro.bench import trend_deltas

        deltas = trend_deltas(runs)
        delta_text = (
            ", ".join(f"{key} {value:+g}" for key, value in deltas.items())
            if deltas
            else "no shared numeric fields"
        )
        sections.append(
            "trend vs previous recorded run "
            f"({runs[-2]['recorded_at']} -> {runs[-1]['recorded_at']}, "
            f"{len(runs)} run(s) in the BENCH_scale.json series; wall-time "
            f"deltas are advisory, machines differ): {delta_text}"
        )
    return "\n\n".join(sections)


def test_scale_streaming(benchmark):
    full = bool(int(os.environ.get("BENCH_SCALE_FULL", "0")))
    # the quick gate writes its own artifact so a default `make bench` run
    # does not clobber the committed headline (full-suite) BENCH_scale.json
    json_name = "BENCH_scale.json" if full else "BENCH_scale_quick.json"
    payload = once(benchmark, run_scale_bench, full=full, json_path=str(OUTPUT_DIR / json_name))

    assert payload["comparisons"], "suite must contain at least one gated comparison"
    for row in payload["comparisons"]:
        assert row["schedules_identical"]
        assert row["cost_deviation"] <= payload["tolerance"]

    if full:
        write_result("SCALE_streaming", _report(payload))


if __name__ == "__main__":
    payload = run_scale_bench(full=True, json_path=str(OUTPUT_DIR / "BENCH_scale.json"))
    report = _report(payload)
    write_result("SCALE_streaming", report)
    print(report)
    print(f"\nwrote {OUTPUT_DIR / 'BENCH_scale.json'}")
