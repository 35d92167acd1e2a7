"""The shared ``BENCH_*.json`` files, written only by ``repro.bench.write_bench_json``.

Several gates share one file (``BENCH_serve.json`` holds the serve bench at
its top level and the fabric, latency and batch gates' sections), so a gate's
write must keep every other section and stamp only its own, and the file's one
``"runs"`` trend series interleaves their benchmarks: ``repro bench --latest``
must report each of them, not just the newest entry.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from repro.cli import main


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_latest_reports_every_benchmark_of_an_interleaved_series(tmp_path):
    path = tmp_path / "BENCH_serve.json"
    runs = [
        {"recorded_at": "t0", "benchmark": "serve", "tenants": 64, "p99_ms": 1.5},
        {"recorded_at": "t1", "benchmark": "serve-batch-scale", "p99_us": 7.0},
        {"recorded_at": "t2", "benchmark": "serve", "tenants": 64, "p99_ms": 1.25},
        {"recorded_at": "t3", "benchmark": "latency_smoke", "floor_p99_us": 30.0},
    ]
    path.write_text(json.dumps({"runs": runs}))
    code, out, _ = run_cli("bench", "--latest", "--json", str(path))
    assert code == 0
    for benchmark in ("serve", "serve-batch-scale", "latency_smoke"):
        assert f"benchmark={benchmark}," in out
    assert "p99_ms -0.25" in out  # serve's newest entry against its own predecessor


def test_a_section_write_keeps_and_stamps_only_its_own_section(tmp_path):
    path = tmp_path / "BENCH_serve.json"
    before = {
        "rows": [], "recorded_at": "2000-01-01T00:00:00", "fabric": {"kept": True},
        "runs": [{"recorded_at": "2000-01-01T00:00:00", "benchmark": "serve"}],
    }
    path.write_text(json.dumps(before))
    code, _, err = run_cli(
        "serve", "bench", "--batched", "--tenants", "2", "--ticks", "8",
        "--budget-scale", "1e6", "--json", str(path),
    )
    assert code == 0, err
    after = json.loads(path.read_text())
    assert after["recorded_at"] == before["recorded_at"]
    assert after["fabric"] == {"kept": True}
    assert {"recorded_at", "environment"} <= set(after["batch_scale"])
    assert [run["benchmark"] for run in after["runs"]] == ["serve", "serve-batch-scale"]


def test_latest_lists_a_file_without_a_trend_series(tmp_path, monkeypatch):
    output = tmp_path / "benchmarks" / "output"
    output.mkdir(parents=True)
    (output / "BENCH_old.json").write_text(
        json.dumps({"benchmark": "old", "recorded_at": "2026-07-29T12:02:32"})
    )
    runs = [{"recorded_at": "t0", "benchmark": "serve", "p99_ms": 1.5}]
    (output / "BENCH_serve.json").write_text(json.dumps({"runs": runs}))
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli("bench", "--latest")
    assert code == 0
    assert (
        "benchmarks/output/BENCH_old.json: no trend series (recorded_at 2026-07-29T12:02:32)"
        in out.splitlines()
    )
    assert "  serve: 1 run(s)" in out.splitlines()
    # a file without a series alone is still "no series found"
    code, out, err = run_cli("bench", "--latest", "--json", str(output / "BENCH_old.json"))
    assert code == 1
    assert "no trend series" in out and "no BENCH_*.json" in err


def test_latest_names_an_unreadable_file_and_fails(tmp_path, monkeypatch):
    output = tmp_path / "benchmarks" / "output"
    output.mkdir(parents=True)
    (output / "BENCH_bad.json").write_text("{broken")
    runs = [{"recorded_at": "t0", "benchmark": "serve", "p99_ms": 1.5}]
    (output / "BENCH_serve.json").write_text(json.dumps({"runs": runs}))
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli("bench", "--latest")
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("benchmarks/output/BENCH_bad.json: unreadable (Expecting ")
    assert "benchmarks/output/BENCH_serve.json: 1 recorded run(s)" in lines  # the good file still shows
    code, out, _ = run_cli("bench", "--latest", "--json", str(output / "BENCH_missing.json"))
    assert code == 1
    assert out.strip().endswith(": unreadable (No such file or directory)")


def _perfbench_line(correct=True, ticks_per_s=4100.5):
    """A canned last line of ``perfbench/run.py`` (its JSON result)."""
    metrics = {
        "ticks_per_s": (ticks_per_s, "1/s"), "tick_p50_us": (172.0, "us"),
        "tick_p99_us": (260.0, "us"), "solve_s": (0.156, "s"),
        "approx_solve_s": (0.147, "s"), "setup_s": (0.05, "s"), "peak_rss_mb": (88.5, "MB"),
    }
    return json.dumps({
        "correct": correct, "attempted": 5000, "failed": 0 if correct else 200,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def test_perfbench_runs_are_recorded_one_section_and_headline_per_workload(tmp_path):
    from repro.bench import record_perfbench_run

    path = tmp_path / "BENCH_perfbench.json"
    record_perfbench_run(path, "continuous-cold", _perfbench_line(ticks_per_s=4000.0), 1, 25.0)
    record_perfbench_run(path, "offline-plan", _perfbench_line(), 1, 25.0)
    row = record_perfbench_run(path, "continuous-cold", _perfbench_line(), 1, 25.0)
    assert row["correct"] is True and row["ticks_per_s"] == 4100.5
    document = json.loads(path.read_text())
    section = document["continuous-cold"]
    assert section["units"]["tick_p99_us"] == "us" and section["seconds"] == 25.0
    assert {"recorded_at", "environment"} <= set(section)
    runs = document["runs"]
    assert [run["benchmark"] for run in runs] == [
        "perfbench-continuous-cold", "perfbench-offline-plan", "perfbench-continuous-cold",
    ]
    assert runs[-1]["correct"] is True and runs[-1]["failed"] == 0
    assert runs[-1]["peak_rss_mb"] == 88.5 and "environment" in runs[-1]
    code, out, _ = run_cli("bench", "--latest", "--json", str(path))
    assert code == 0
    assert "perfbench-offline-plan: 1 run(s)" in out
    assert "ticks_per_s +100.5" in out  # against the same workload's previous run


def test_a_top_level_write_replaces_the_previous_payload(tmp_path):
    from repro.bench import write_bench_json

    path = tmp_path / "BENCH_x.json"
    write_bench_json(path, {"a": 1, "b": 2}, headline={"benchmark": "x"})
    write_bench_json(path, {"rows": [1]}, section="extra", headline={"benchmark": "y"})
    after = write_bench_json(path, {"a": 3}, headline={"benchmark": "x"})
    assert after == json.loads(path.read_text())
    assert after["a"] == 3 and "b" not in after
    assert after["extra"]["rows"] == [1] and "recorded_at" in after["extra"]
    assert [run["benchmark"] for run in after["runs"]] == ["x", "y", "x"]
