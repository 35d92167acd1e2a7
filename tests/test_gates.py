"""The ``make`` gates' CLI contract, run through ``repro.cli.main``.

Every gate verb runs at its smallest size with ``--json`` into a temporary
file: exit code 0, its table title on stdout and its top-level key or section
in the JSON are what the Makefile and CI rely on.  Two failing cases pin the
failure protocols: a gate whose check fails prints ``FAIL:`` to stderr, writes
nothing and exits 1; a smoke with one broken case still runs the others,
prints its table, then ``FAIL:`` naming that case, and exits 1.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from repro import scenarios
from repro.cli import main


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


#: (test id, argv, table title, top-level key of the --json file)
GATES = [
    ("scenarios-smoke", ("scenarios", "smoke"), "scenarios smoke", "scenarios_smoke"),
    ("serve-smoke", ("serve", "smoke"), "serve smoke", "serve_smoke"),
    ("chaos-smoke", ("serve", "chaos"), "chaos smoke", "chaos_smoke"),
    ("fabric-smoke", ("serve", "fabric", "--smoke"), "fabric smoke", "fabric_smoke"),
    ("fabric-bench",
     ("serve", "fabric", "--bench", "--n-tenants", "1", "--workers", "1"),
     "fabric bench", "fabric"),
    ("serve-latency",
     ("serve", "latency", "--ticks", "16", "--repeats", "2", "--budget-scale", "1e6"),
     "serve latency", "latency"),
    ("serve-batch",
     ("serve", "batch", "--n-tenants", "6", "--ticks", "8", "--budget-scale", "1e6"),
     "serve batch smoke", "batch_smoke"),
    ("serve-bench-batched",
     ("serve", "bench", "--batched", "--tenants", "2,4", "--ticks", "8",
      "--budget-scale", "1e6"),
     "serve bench --batched", "batch_scale"),
    ("bench-smoke", ("bench", "--smoke"), "bench smoke", "smoke"),
    ("bench-sweep", ("bench", "--sweep"), "bench sweep", "experiments"),
    ("bench-counters", ("bench", "--counters"), "bench counters", "measured"),
]


@pytest.mark.parametrize(
    "argv, title, key", [gate[1:] for gate in GATES], ids=[gate[0] for gate in GATES]
)
def test_gate_prints_its_table_and_writes_its_json(tmp_path, argv, title, key):
    path = tmp_path / "BENCH.json"
    code, out, err = run_cli(*argv, "--json", str(path))
    assert code == 0, err
    assert "FAIL" not in err
    assert title in out
    assert key in json.loads(path.read_text())


def test_a_failing_gate_prints_fail_and_writes_nothing(tmp_path):
    path = tmp_path / "BENCH.json"
    code, out, err = run_cli(
        "serve", "latency", "--budget-us", "1e-9", "--ticks", "16", "--repeats", "2",
        "--json", str(path),
    )
    assert code == 1
    assert err.startswith("FAIL: ") and "budget" in err
    assert out == ""
    assert not path.exists()


def test_a_broken_smoke_case_fails_the_gate_after_its_table(monkeypatch):
    build = scenarios.build

    def broken_build(spec, *args, **kwargs):
        if getattr(spec, "name", spec) == "homogeneous":
            raise RuntimeError("injected breakage")
        return build(spec, *args, **kwargs)

    monkeypatch.setattr(scenarios, "build", broken_build)
    stream = io.StringIO()
    with redirect_stdout(stream), redirect_stderr(stream):
        code = main(["scenarios", "smoke"])
    text = stream.getvalue()
    assert code == 1
    table, _, failure = text.partition("FAIL:")
    assert "scenarios smoke" in table
    rows = {line.split("|")[0].strip(): line for line in table.splitlines() if "|" in line}
    for name in scenarios.names():
        assert name in rows  # the other cases still ran
        assert rows[name].rstrip().endswith("False" if name == "homogeneous" else "True")
    assert "| -" in rows["homogeneous"]
    assert [line.strip() for line in failure.strip().splitlines()] == [
        "homogeneous: RuntimeError('injected breakage')"
    ]


def test_perfbench_gate_records_every_workload_and_fails_on_a_failed_check(
    tmp_path, monkeypatch
):
    """``bench --perfbench`` runs every workload at ``--seconds 25``, records
    each last output line (canned here: the real runs take about 35 s) and
    fails naming a run whose checks failed, after recording it."""
    import subprocess

    from repro import bench

    asked = []

    def fake_run(argv, **kwargs):
        workload = argv[argv.index("--workload") + 1]
        asked.append((workload, argv[argv.index("--seconds") + 1]))
        correct = workload != "offline-plan"
        result = {"correct": correct, "attempted": 10, "failed": 0 if correct else 3,
                  "metrics": {"ticks_per_s": {"value": 10.0, "unit": "1/s"}}}
        stdout = ("" if correct else "# FAIL a schedule differs\n") + json.dumps(result) + "\n"
        return subprocess.CompletedProcess(argv, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    path = tmp_path / "BENCH_perfbench.json"
    code, out, err = run_cli("bench", "--perfbench", "--json", str(path))
    assert code == 1
    assert "bench perfbench" in out
    assert "offline-plan: 3 failed; # FAIL a schedule differs" in err
    assert asked == [(w, "25.0") for w in bench.PERFBENCH_WORKLOADS]
    document = json.loads(path.read_text())
    assert set(bench.PERFBENCH_WORKLOADS) <= set(document)
    assert [run["correct"] for run in document["runs"]] == [True, True, False]
