"""Zero-dependency tick-phase span tracer for the serve hot path.

Answers "where does a slow tick spend its time": a sampled tick is broken
into ns-resolution spans — ``feed_wait`` → ``prepare`` → ``decide[table]`` /
``decide[cold]`` → ``commit`` → ``telemetry`` — recorded
as raw ``perf_counter_ns`` intervals and dumped as Chrome ``trace_event``
JSON (load the file in ``chrome://tracing`` / Perfetto).

Sampling: ``trace_every=N`` records every Nth tick; the untraced path costs
one ``is not None`` branch in :meth:`ControllerSession.observe
<repro.serve.session.ControllerSession.observe>`, which is what keeps the
latency smoke's floor-p99 gate honest with tracing off (PERFORMANCE.md
documents the overhead methodology; the smoke also gates the *traced* floor
at ``trace_every=1`` under 2× budget).

The ``decide`` span is attributed to the dispatch tier that actually served
the tick — ``table`` (a memo or fast-map hit) or ``cold`` (a fresh dispatch
solve) — inferred from the solver's ``unique_solves`` delta across the
phase, so the span names agree with the counters the
``repro bench --counters`` gate pins.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional

__all__ = ["TickTracer", "TraceSpan"]


class TraceSpan:
    """One recorded span: raw ns start/duration plus identity fields."""

    __slots__ = ("name", "tenant", "tick", "start_ns", "duration_ns")

    def __init__(self, name: str, tenant: str, tick: int, start_ns: int, duration_ns: int):
        self.name = name
        self.tenant = tenant
        self.tick = tick
        self.start_ns = start_ns
        self.duration_ns = duration_ns

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "tenant": self.tenant,
            "tick": self.tick,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
        }


class TickTracer:
    """Collects :class:`TraceSpan` records under a ``trace_every`` knob.

    One tracer serves any number of sessions (spans carry the tenant name);
    the sampling cursor advances once per tick via :meth:`should_sample`.
    :meth:`peek` reads the cursor without consuming it — callers that need
    to bracket work *before* the session's own phases (the CLI replay loop
    metering ``feed_wait``) peek first, then let the session consume.
    """

    def __init__(self, trace_every: int = 1, max_spans: int = 200_000):
        if int(trace_every) < 1:
            raise ValueError(f"trace_every must be >= 1, got {trace_every}")
        self.trace_every = int(trace_every)
        self.max_spans = int(max_spans)
        self.spans: List[TraceSpan] = []
        self.sampled_ticks = 0
        self.dropped_spans = 0
        self._seen = 0

    def peek(self) -> bool:
        """Whether the *next* :meth:`should_sample` call will sample."""
        return self._seen % self.trace_every == 0

    def should_sample(self) -> bool:
        """Advance the sampling cursor; True on every ``trace_every``-th tick."""
        sampled = self._seen % self.trace_every == 0
        self._seen += 1
        if sampled:
            self.sampled_ticks += 1
        return sampled

    def record(self, name: str, tenant: str, tick: int, start_ns: int, end_ns: int) -> None:
        """Append one span (bounded: past ``max_spans``, spans are dropped)."""
        if len(self.spans) >= self.max_spans:
            self.dropped_spans += 1
            return
        self.spans.append(TraceSpan(name, tenant, tick, start_ns, end_ns - start_ns))

    # -------------------------------------------------------------- exposition
    def summary(self) -> dict:
        """Per-phase totals (span count + total ns), JSON-safe."""
        phases: dict = {}
        for span in self.spans:
            row = phases.get(span.name)
            if row is None:
                row = phases[span.name] = {"spans": 0, "total_ns": 0}
            row["spans"] += 1
            row["total_ns"] += span.duration_ns
        return {
            "trace_every": self.trace_every,
            "sampled_ticks": self.sampled_ticks,
            "spans": len(self.spans),
            "dropped_spans": self.dropped_spans,
            "phases": phases,
        }

    def to_chrome_trace(self) -> dict:
        """The spans as a Chrome ``trace_event`` JSON object.

        Complete ("X") events on one process, one thread id per tenant;
        timestamps are microseconds relative to the first recorded span
        (the ``trace_event`` format's native unit).
        """
        if not self.spans:
            return {"traceEvents": [], "displayTimeUnit": "ns"}
        origin = min(span.start_ns for span in self.spans)
        tids = {}
        events = []
        for span in self.spans:
            tid = tids.get(span.tenant)
            if tid is None:
                tid = tids[span.tenant] = len(tids) + 1
            events.append(
                {
                    "name": span.name,
                    "cat": "tick",
                    "ph": "X",
                    "pid": 1,
                    "tid": tid,
                    "ts": (span.start_ns - origin) / 1e3,
                    "dur": span.duration_ns / 1e3,
                    "args": {"tenant": span.tenant, "tick": span.tick},
                }
            )
        events.extend(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": f"tenant {tenant}"},
            }
            for tenant, tid in tids.items()
        )
        return {"traceEvents": events, "displayTimeUnit": "ns"}

    def dump(self, path) -> Optional[Path]:
        """Write the Chrome ``trace_event`` JSON to ``path`` (None: no-op)."""
        if path is None:
            return None
        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(), handle)
        return path
