"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet-steady --seed 1 --seconds 25 --trace 0

A run makes ``round(--seconds / PASS_S)`` passes of the workload (at least
one), ``PASS_S`` being the workload's nominal pass time, so the pass count
does not depend on the speed of the code under test.  ``--trace 0`` runs
them untraced and calibrated by :mod:`hostclock`, and reports the
end-to-end figures over all of them, read on the reference host's clock.
``--trace 1`` follows each untraced pass with one traced by :mod:`tracer`
and reports the per-layer metrics (self time per layer, work counters,
tracing overhead) of the traced pass with the median wall time, whose spans
are written to ``perfbench/_traces/<workload>.spans.npz``.

The program is imported from ``src/`` next to this directory; without it the
benchmark exits with status 1 and prints no result.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (name -> value and unit).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

# The engine and the solvers run on one thread.  A BLAS pool would only spin
# beside them on a two-core machine and add noise, so it is pinned to one
# thread before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / "_work"
TRACEDIR = HERE / "_traces"

#: End-to-end metrics (``--trace 0``), in print order.
END_TO_END = (
    ("ticks_per_s", "1/s"),
    ("tick_p50_us", "us"),
    ("tick_p99_us", "us"),
    ("solve_s", "s"),
    ("approx_solve_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics (``--trace 1``): traced layer -> metric name.
LAYER_METRICS = (
    ("serve.engine", "serve.engine.self_s"),
    ("serve.session.prepare", "serve.session.prepare_s"),
    ("serve.session.decide", "serve.session.decide_s"),
    ("serve.session.commit", "serve.session.commit_s"),
    ("online.step.A", "online.step_s.A"),
    ("online.step.B", "online.step_s.B"),
    ("online.step.C", "online.step_s.C"),
    ("online.step.lcp", "online.step_s.lcp"),
    ("online.step.reactive", "online.step_s.reactive"),
    ("online.step.follow-demand", "online.step_s.follow-demand"),
    ("online.tracker", "online.tracker.observe_s"),
    ("offline.transitions", "offline.transitions.self_s"),
    ("offline.dp", "offline.dp.self_s"),
    ("offline.dp.window_costs", "offline.dp.window_costs_s"),
    ("dispatch", "dispatch.self_s"),
    ("serve.cache.grid_tensor", "serve.cache.grid_tensor_s"),
    ("serve.cache.solve_config", "serve.cache.solve_config_s"),
    ("serve.telemetry", "serve.telemetry.write_s"),
    ("serve.checkpoint", "serve.checkpoint.s"),
)

#: Per-layer work counters read from the program's public surfaces.
COUNTER_METRICS = (
    ("serve.batch.batched_ticks", "count"),
    ("serve.batch.fallback_ticks", "count"),
    ("serve.batch.batched_share", "ratio"),
    ("dispatch.block_calls", "count"),
    ("dispatch.unique_solves", "count"),
    ("dispatch.bisection_iterations", "count"),
    ("dispatch.cache_hit_ratio", "ratio"),
    ("serve.cache.tensor_hit_ratio", "ratio"),
    ("serve.cache.table_gathers", "count"),
    ("serve.telemetry.rows", "count"),
    ("serve.telemetry.bytes", "B"),
    ("serve.checkpoint.count", "count"),
    ("serve.checkpoint.bytes", "B"),
)

TRACE_METRICS = (
    ("trace.unattributed_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

#: A run stops starting passes this many ``--seconds`` after it began; the
#: passes it did not make count as failed.  This keeps a run of very slow
#: code within its time limit.
DEADLINE_FACTOR = 4.0


def _compare_passes(passes, messages) -> int:
    """Later passes must repeat the first: same outputs, same work counters."""
    failed = 0
    first = passes[0]
    for index, other in enumerate(passes[1:], start=1):
        for name, (schedule, cost) in first.outputs.items():
            again, again_cost = other.outputs[name]
            if schedule.shape != again.shape or not np.array_equal(schedule, again):
                wrong = len(schedule)
                if schedule.shape == again.shape:
                    wrong = int(np.sum(np.any(schedule != again, axis=1)))
                failed += wrong
                messages.append(f"pass {index}: {name} schedule differs in {wrong} slots")
            elif abs(cost - again_cost) > 1e-9 * max(1.0, abs(cost)):
                failed += len(schedule)
                messages.append(f"pass {index}: {name} cost {again_cost!r} != {cost!r}")
        if other.counters != first.counters:
            failed += 1
            diff = sorted(k for k in first.counters if first.counters[k] != other.counters.get(k))
            messages.append(f"pass {index}: work counters differ from pass 0: {diff}")
    return failed


def _figures(passes, view: str) -> dict:
    """End-to-end figures over every untraced pass, in ``view`` ("raw" or "scaled") time.

    Throughput is the decided ticks over the summed pass walls, the median
    latency is the median of each pass's own, and the solve times are means
    over the passes.  The 99th percentile is taken of the per-decision
    floor: passes repeat the same decisions in the same order, so sample
    ``i`` of every pass times the same decision, and its minimum over the
    passes drops the preemptions and host blips that land on a few ticks of
    one pass and would otherwise make the tail.  Set-up is the median, so one
    slow first import cannot move it.  The pass count is fixed by
    ``--seconds``, never by how fast the code runs.
    """
    scaled = view == "scaled"
    latencies = [p.latencies_ns * p.latency_scale if scaled else p.latencies_ns for p in passes]
    ticks = sum(samples.size for samples in latencies)
    floor = np.min(np.stack(latencies), axis=0)
    return {
        "ticks_per_s": ticks / sum(getattr(p.run, view) for p in passes),
        "tick_p50_us": float(np.median([np.percentile(x, 50) for x in latencies])) * 1e-3,
        "tick_p99_us": float(np.percentile(floor, 99)) * 1e-3,
        "solve_s": float(np.mean([getattr(p.solves["solve_s"], view) for p in passes])),
        "approx_solve_s": float(np.mean([getattr(p.solves["approx_solve_s"], view) for p in passes])),
        "setup_s": float(np.median([getattr(p.setup, view) for p in passes])),
    }


def _end_to_end(passes, peak_rss_mb) -> dict:
    """End-to-end metrics: times scaled to the reference host (see :mod:`hostclock`).

    The raw wall-clock figures are printed beside them on a comment line.
    """
    samples = passes[0].latencies_ns.size
    print(f"# passes={len(passes)}, latency samples per pass={samples} "
          f"(p99 has {samples - int(np.ceil(samples * 0.99))} beyond)")
    raw = _figures(passes, "raw")
    print("# raw wall-clock: " + " ".join(f"{name}={value:.6g}" for name, value in raw.items()))
    metrics = _figures(passes, "scaled")
    metrics["peak_rss_mb"] = peak_rss_mb
    return metrics


def _per_layer(passes, traced, untraced_walls, workload) -> dict:
    """Per-layer metrics of the traced pass with the median wall time."""
    middle = sorted(range(len(traced)), key=lambda i: traced[i].wall_s)[len(traced) // 2]
    chosen = traced[middle]
    metrics = {name: chosen.layer_s.get(layer, 0.0) for layer, name in LAYER_METRICS}
    # traced passes sit at odd positions, after their untraced twin
    result = passes[2 * middle + 1]
    counters = dict(result.counters)
    counters.update(result.volatile)
    counters["serve.checkpoint.count"] = chosen.calls.get("serve.save_checkpoint", 0)
    batched = counters.get("serve.batch.batched_ticks", 0)
    fallback = counters.get("serve.batch.fallback_ticks", 0)
    counters["serve.batch.batched_share"] = batched / (batched + fallback) if batched + fallback else 0.0
    for name, _ in COUNTER_METRICS:
        metrics[name] = float(counters.get(name, 0))
    # timed around the call from outside, dispatch solves included (they
    # count in dispatch.self_s as well)
    metrics["setup.prewarm_s"] = float(np.median([p.prewarm_s for p in passes[::2]]))
    metrics["trace.unattributed_s"] = chosen.unattributed_s
    metrics["trace.wall_s"] = chosen.wall_s
    metrics["trace.overhead_ratio"] = chosen.wall_s / float(np.median(untraced_walls))
    spans = chosen.save(TRACEDIR / f"{workload}.spans.npz")
    print(f"# traced passes={len(traced)} spans={chosen.span_count} written to {spans.relative_to(ROOT)}")
    return metrics


def _run(args) -> int:
    import workloads
    from hostclock import HostClock
    from tracer import LayerTracer

    work = workloads.WORKLOADS[args.workload](args.seed, WORKDIR / args.workload)
    tracer = LayerTracer(workloads.trace_targets(), workloads.SESSION_SPANS) if args.trace else None
    # the end-to-end passes are calibrated; the traced run's untraced passes
    # are not, so that they time exactly what the traced passes time
    clock = None if tracer else HostClock()
    rounds = max(1, round(args.seconds / work.PASS_S))
    per_round = 2 if tracer else 1

    passes, untraced_walls, traced = [], [], []
    expected = work.expected_ticks()
    attempted = failed = 0
    messages = []
    deadline = time.perf_counter() + DEADLINE_FACTOR * args.seconds
    try:
        for done in range(rounds):
            if time.perf_counter() > deadline:
                missed = (rounds - done) * per_round * expected
                attempted += missed
                failed += missed
                messages.append(f"only {done} of {rounds} rounds of passes ran before the deadline")
                break
            attempted += expected
            result = work.run_pass(clock)
            if clock is not None:
                result.solves.update(work.time_solves(clock))
            passes.append(result)
            untraced_walls.append(result.setup.raw + result.run.raw)
            if tracer is None:
                continue
            attempted += expected
            with tracer.root():
                result = work.run_pass()
            passes.append(result)
            traced.append(tracer.snapshot())
            problem = traced[-1].nesting_error()
            if problem:
                failed += 1
                messages.append(problem)
    except Exception as exc:  # a raising tick fails every decision of its pass
        traceback.print_exc()
        failed += expected
        messages.append(f"pass {len(passes)} raised {type(exc).__name__}: {exc}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None and len(traced) * 2 != len(passes):
        passes = passes[: 2 * len(traced)]

    if passes:
        failed += _compare_passes(passes, messages)
        report = work.check(passes[0])
        failed += report.failed
        messages.extend(report.messages)
    if WORKDIR.exists():
        shutil.rmtree(WORKDIR)

    metrics, units = {}, {}
    if passes and not args.trace:
        metrics = _end_to_end(passes, peak_rss_mb)
        units = dict(END_TO_END)
    elif passes:
        metrics = _per_layer(passes, traced, untraced_walls, args.workload)
        units = {name: "s" for _, name in LAYER_METRICS}
        units.update(COUNTER_METRICS)
        units["setup.prewarm_s"] = "s"
        units.update(TRACE_METRICS)

    if passes:
        counters = json.dumps(passes[0].counters, sort_keys=True)
        digest = hashlib.sha256(counters.encode()).hexdigest()[:16]
        print(f"# work counters {digest}: {counters}")
    for message in messages:
        print(f"# FAIL {message}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": bool(passes) and failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fleet-steady", "continuous-cold", "offline-plan"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print("error: the program's sources are missing (src/repro)", file=sys.stderr)
        return 1
    sys.path.insert(0, str(src))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 1
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
