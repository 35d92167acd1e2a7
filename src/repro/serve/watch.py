"""``repro serve watch`` — a live terminal dashboard over serve artifacts.

The serve stack already *emits* everything an operator needs — per-tick
telemetry JSONL (:class:`~repro.serve.telemetry.TelemetryWriter`), fabric
heartbeat/result files, rotated checkpoints — but reading raw JSONL mid-run
is miserable.  This module is the read side: it tails those files and renders
per-tenant tick rate, latency percentiles, cost (and regret when the stream
carries prefix optima), SLA/shed counters, breaker states and worker
liveness, refreshing in place.

Two source modes, picked by what ``PATH`` is:

* **telemetry mode** (``PATH`` is a ``.jsonl`` file) — incremental tail of a
  per-tick telemetry stream.  The aggregation is *exact*: ``latency_ms`` is
  written as ``round(ns * 1e-6, 6)``, i.e. at 1 ns resolution, so
  :class:`WatchModel` recovers the integer nanoseconds bit for bit and its
  :meth:`WatchModel.summary` reproduces
  :func:`~repro.serve.telemetry.summarise_sessions` **equality-exactly** —
  which is what ``make watch-smoke`` asserts via ``--expect``.
* **fabric mode** (``PATH`` is a fabric run directory) — scans
  ``worker-*/heartbeat.json`` for liveness (heartbeat age vs a staleness
  threshold), ``worker-*/result.json`` for per-tenant status/breaker rows,
  and ``*.ckpt.json`` checkpoints for durable totals.

Rendering is dependency-free: ANSI in-place refresh for the live TUI,
``--once`` for a single frame (CI-friendly), ``--html`` for a self-contained
static page, ``--json`` for the machine-readable summary.  A telemetry row
without an integer ``"schema"`` counts as a bad line.
"""

from __future__ import annotations

import html as _html
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from .supervisor import read_json
from .telemetry import TELEMETRY_SCHEMA_VERSION, latency_percentiles

__all__ = [
    "FabricWatcher",
    "TelemetryTail",
    "WatchModel",
    "render_frame",
    "render_html",
    "watch_command",
]

#: Heartbeats older than this many seconds mark a fabric worker as stale.
STALE_HEARTBEAT_SECONDS = 5.0


# --------------------------------------------------------------------------- #
# Telemetry mode: incremental JSONL tail + exact aggregation
# --------------------------------------------------------------------------- #


class TelemetryTail:
    """Incremental reader of a telemetry JSONL file.

    Keeps a byte offset and only consumes *complete* lines, so a writer
    flushing mid-row (or buffering with ``flush_every > 1``) never produces a
    spurious parse error — the partial tail is retried on the next poll.

    The offset belongs to one file: the tail keeps the file's identity
    (``st_dev``, ``st_ino``) and the last line it consumed, and starts over
    at byte 0 of a fresh file when rotation by
    :class:`~repro.serve.telemetry.TelemetryWriter` replaced it — when the
    identity changed, the file shrank, or that line no longer ends at the
    offset (a filesystem may give the fresh file a recycled inode).
    """

    def __init__(self, path):
        self.path = Path(path)
        self.offset = 0
        self.bad_lines = 0
        self.skipped_schema = 0
        self._identity = None
        self._last_line = b""

    def poll(self) -> List[dict]:
        """Return the telemetry rows appended since the previous poll."""
        try:
            handle = open(self.path, "rb")
        except OSError:
            return []
        with handle:
            stat = os.fstat(handle.fileno())
            identity = (stat.st_dev, stat.st_ino)
            if identity != self._identity or stat.st_size < self.offset:
                self._identity, self.offset, self._last_line = identity, 0, b""
            handle.seek(self.offset - len(self._last_line))
            if handle.read(len(self._last_line)) != self._last_line:
                # a fresh file on a recycled inode: read it from the start
                self.offset, self._last_line = 0, b""
                handle.seek(0)
            chunk = handle.read(stat.st_size - self.offset)
        # only complete lines; the unterminated tail stays unconsumed
        consumed = chunk.rfind(b"\n") + 1
        if consumed:
            self._last_line = chunk[chunk.rfind(b"\n", 0, consumed - 1) + 1:consumed]
        self.offset += consumed
        rows = []
        for line in chunk[:consumed].split(b"\n"):
            if not line.strip():
                continue
            try:
                row = json.loads(line.decode("utf-8"))
            except ValueError:  # undecodable bytes, bad JSON, an over-long integer
                self.bad_lines += 1
                continue
            # a row without an integer schema (missing, null, a string, a
            # bool) is malformed; a newer schema than this reader is skipped
            if not isinstance(row, dict) or type(row.get("schema")) is not int:
                self.bad_lines += 1
                continue
            if row["schema"] > TELEMETRY_SCHEMA_VERSION:
                self.skipped_schema += 1
                continue
            rows.append(row)
        return rows


class _TenantState:
    """Running aggregates for one tenant, in row-arrival order."""

    __slots__ = (
        "name",
        "ticks",
        "latencies_ns",
        "cumulative_cost",
        "shed_total",
        "sla_violations",
        "forced_downs",
        "last_t",
        "last_demand",
        "regret",
        "prev_ticks",
    )

    def __init__(self, name: str):
        self.name = name
        self.ticks = 0
        self.latencies_ns: List[int] = []
        self.cumulative_cost = 0.0
        self.shed_total = 0.0
        self.sla_violations = 0
        self.forced_downs = 0
        self.last_t = -1
        self.last_demand = float("nan")
        self.regret: Optional[float] = None
        self.prev_ticks = 0


class WatchModel:
    """Exact re-aggregation of a telemetry stream, tenant by tenant.

    Tenants are kept in **first-seen order** — under the engine's round-robin
    multiplex that is registration order, so pooled-latency concatenation and
    cost summation happen in the same order ``summarise_sessions`` uses over
    the live session list, keeping float accumulation bit-identical.
    """

    def __init__(self):
        self.tenants: "Dict[str, _TenantState]" = {}
        self.rows_seen = 0

    def ingest(self, row: dict) -> None:
        name = str(row.get("tenant", "tenant"))
        state = self.tenants.get(name)
        if state is None:
            state = self.tenants[name] = _TenantState(name)
        self.rows_seen += 1
        state.ticks += 1
        state.last_t = int(row.get("t", state.last_t + 1))
        state.last_demand = float(row.get("demand", float("nan")))
        if "latency_ms" in row:
            # inverse of as_row's round(ns * 1e-6, 6): exact at 1 ns resolution
            state.latencies_ns.append(int(round(float(row["latency_ms"]) * 1e6)))
        if "cumulative_cost" in row:
            state.cumulative_cost = float(row["cumulative_cost"])
        # per-tick shed summed in arrival order == the session's accumulator
        state.shed_total += float(row.get("shed_demand", 0.0))
        if row.get("sla_violation"):
            state.sla_violations += 1
        state.forced_downs += int(row.get("forced_down", 0))
        if "regret" in row:
            state.regret = float(row["regret"])

    def ingest_all(self, rows) -> None:
        for row in rows:
            self.ingest(row)

    def summary(self) -> dict:
        """The ``summarise_sessions`` dict, rebuilt exactly from rows."""
        states = list(self.tenants.values())
        pooled = (
            np.concatenate(
                [np.asarray(s.latencies_ns, dtype=np.int64) for s in states]
            )
            if states
            else np.zeros(0, dtype=np.int64)
        )
        return {
            "tenants": len(states),
            "total_ticks": int(pooled.size),
            "total_cost": round(float(sum(s.cumulative_cost for s in states)), 9),
            "sla_violations": int(sum(s.sla_violations for s in states)),
            "shed_demand": round(float(sum(s.shed_total for s in states)), 9),
            "forced_downs": int(sum(s.forced_downs for s in states)),
            "latency": latency_percentiles(latencies_ns=pooled),
        }

    def tenant_rows(self, elapsed: Optional[float] = None) -> List[dict]:
        """Per-tenant display rows (tick rate needs the refresh interval)."""
        rows = []
        for state in self.tenants.values():
            ns = np.asarray(state.latencies_ns, dtype=np.int64)
            lat = latency_percentiles(latencies_ns=ns, histogram=False)
            rate = None
            if elapsed is not None and elapsed > 0:
                rate = (state.ticks - state.prev_ticks) / elapsed
            row = {
                "tenant": state.name,
                "ticks": state.ticks,
                "tick": state.last_t,
                "demand": state.last_demand,
                "cost": round(state.cumulative_cost, 9),
                "sla_violations": state.sla_violations,
                "shed_demand": round(state.shed_total, 9),
                "forced_downs": state.forced_downs,
                "latency": lat,
                "tick_rate": rate,
            }
            if state.regret is not None:
                row["regret"] = round(state.regret, 9)
            rows.append(row)
        return rows

    def mark_interval(self) -> None:
        """Snapshot per-tenant tick counts as the tick-rate baseline."""
        for state in self.tenants.values():
            state.prev_ticks = state.ticks


# --------------------------------------------------------------------------- #
# Fabric mode: heartbeat / result / checkpoint scanning
# --------------------------------------------------------------------------- #


class FabricWatcher:
    """Reads a fabric run directory's file protocol into display rows."""

    def __init__(self, run_dir, stale_seconds: float = STALE_HEARTBEAT_SECONDS):
        self.run_dir = Path(run_dir)
        self.stale_seconds = float(stale_seconds)

    def workers(self) -> List[dict]:
        rows = []
        for directory in sorted(self.run_dir.glob("worker-*")):
            if not directory.is_dir():
                continue
            row = {"worker": directory.name, "status": "missing"}
            beat = read_json(directory / "heartbeat.json")
            if beat is not None:
                age = time.time() - float(beat.get("time", 0.0))
                row.update(
                    incarnation=beat.get("incarnation"),
                    round=beat.get("round"),
                    heartbeat_age_s=round(age, 3),
                    ticks=beat.get("ticks", {}),
                    status="stale" if age > self.stale_seconds else "live",
                )
            result = read_json(directory / "result.json")
            if result is not None:
                row["status"] = "done"
                row["tenants"] = {
                    name: {
                        "status": t.get("status"),
                        "breaker": (t.get("breaker") or {}).get("state"),
                        "ticks": t.get("ticks"),
                    }
                    for name, t in (result.get("tenants") or {}).items()
                }
                counters = (result.get("metrics") or {}).get("counters")
                if counters:
                    row["metric_series"] = len(counters)
            rows.append(row)
        return rows

    def checkpoints(self) -> List[dict]:
        rows = []
        for path in sorted(self.run_dir.rglob("*.ckpt.json")):
            payload = read_json(path)
            if payload is None:
                continue
            rows.append(
                {
                    "tenant": path.name[: -len(".ckpt.json")],
                    "tick": int(payload.get("tick", 0)),
                    "cost": round(
                        float(payload.get("cum_operating", 0.0))
                        + float(payload.get("cum_switching", 0.0)),
                        9,
                    ),
                    "sla_violations": int(payload.get("sla_violations", 0)),
                    "shed_demand": round(float(payload.get("shed_total", 0.0)), 9),
                }
            )
        return rows

    def summary(self) -> dict:
        workers = self.workers()
        checkpoints = self.checkpoints()
        return {
            "schema": 1,
            "mode": "fabric",
            "run_dir": str(self.run_dir),
            "workers": workers,
            "live_workers": sum(1 for w in workers if w["status"] == "live"),
            "checkpoints": checkpoints,
            "totals": {
                "ticks": sum(c["tick"] for c in checkpoints),
                "cost": round(sum(c["cost"] for c in checkpoints), 9),
                "sla_violations": sum(c["sla_violations"] for c in checkpoints),
                "shed_demand": round(
                    sum(c["shed_demand"] for c in checkpoints), 9
                ),
            },
        }


# --------------------------------------------------------------------------- #
# Rendering
# --------------------------------------------------------------------------- #

_CLEAR = "\x1b[2J\x1b[H"
_BOLD = "\x1b[1m"
_DIM = "\x1b[2m"
_RED = "\x1b[31m"
_GREEN = "\x1b[32m"
_YELLOW = "\x1b[33m"
_RESET = "\x1b[0m"


def _fmt(value, width: int, precision: Optional[int] = None) -> str:
    if value is None:
        return "-".rjust(width)
    if precision is not None and isinstance(value, float):
        return f"{value:.{precision}f}".rjust(width)
    return str(value).rjust(width)


def _tenant_table(rows: List[dict], colour: bool) -> List[str]:
    head = (
        f"{'tenant':<14}{'ticks':>8}{'rate/s':>9}{'p50ms':>9}{'p95ms':>9}"
        f"{'p99ms':>9}{'cost':>14}{'regret':>11}{'sla':>6}{'shed':>10}{'down':>6}"
    )
    lines = [head, "-" * len(head)]
    for row in rows:
        lat = row["latency"]
        sla = row["sla_violations"]
        sla_txt = _fmt(sla, 6)
        if colour and sla:
            sla_txt = f"{_RED}{sla_txt}{_RESET}"
        lines.append(
            f"{row['tenant'][:13]:<14}"
            + _fmt(row["ticks"], 8)
            + _fmt(row["tick_rate"], 9, 1)
            + _fmt(lat.get("p50_ms"), 9, 4)
            + _fmt(lat.get("p95_ms"), 9, 4)
            + _fmt(lat.get("p99_ms"), 9, 4)
            + _fmt(row["cost"], 14, 4)
            + _fmt(row.get("regret"), 11, 4)
            + sla_txt
            + _fmt(row["shed_demand"], 10, 3)
            + _fmt(row["forced_downs"], 6)
        )
    return lines


def render_frame(
    model: Optional[WatchModel] = None,
    fabric: Optional[dict] = None,
    *,
    source: str = "",
    elapsed: Optional[float] = None,
    colour: bool = True,
) -> str:
    """One full dashboard frame as text (ANSI-coloured when ``colour``)."""
    bold = (lambda s: f"{_BOLD}{s}{_RESET}") if colour else (lambda s: s)
    lines = [bold(f"repro serve watch — {source}")]
    if model is not None:
        summary = model.summary()
        lat = summary["latency"]
        lines.append(
            f"tenants {summary['tenants']}  ticks {summary['total_ticks']}  "
            f"cost {summary['total_cost']:.4f}  sla {summary['sla_violations']}  "
            f"shed {summary['shed_demand']:.3f}  forced {summary['forced_downs']}"
        )
        if lat.get("ticks"):
            lines.append(
                f"latency p50 {lat['p50_ms']:.4f}ms  p95 {lat['p95_ms']:.4f}ms  "
                f"p99 {lat['p99_ms']:.4f}ms  max {lat['max_ms']:.4f}ms"
            )
        lines.append("")
        lines.extend(_tenant_table(model.tenant_rows(elapsed), colour))
    if fabric is not None:
        lines.append("")
        lines.append(bold("workers"))
        for worker in fabric["workers"]:
            status = worker["status"]
            if colour:
                tint = {"live": _GREEN, "stale": _YELLOW}.get(status, _DIM)
                status = f"{tint}{status}{_RESET}"
            age = worker.get("heartbeat_age_s")
            extras = "" if age is None else f"  beat {age:.1f}s ago"
            extras += f"  round {worker.get('round')}" if "round" in worker else ""
            lines.append(f"  {worker['worker']:<12} {status}{extras}")
            for name, t in (worker.get("tenants") or {}).items():
                lines.append(
                    f"    {name:<12} {t.get('status')}"
                    f"  breaker={t.get('breaker')}  ticks={t.get('ticks')}"
                )
        totals = fabric["totals"]
        lines.append(
            f"checkpoint totals: ticks {totals['ticks']}  cost {totals['cost']:.4f}  "
            f"sla {totals['sla_violations']}  shed {totals['shed_demand']:.3f}"
        )
    return "\n".join(lines) + "\n"


def render_html(
    model: Optional[WatchModel] = None,
    fabric: Optional[dict] = None,
    *,
    source: str = "",
) -> str:
    """A self-contained static HTML snapshot of the dashboard."""
    esc = _html.escape

    def table(headers, rows):
        cells = "".join(f"<th>{esc(str(h))}</th>" for h in headers)
        body = "".join(
            "<tr>" + "".join(f"<td>{esc(str(v))}</td>" for v in row) + "</tr>"
            for row in rows
        )
        return f"<table><thead><tr>{cells}</tr></thead><tbody>{body}</tbody></table>"

    parts = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>repro serve watch — {esc(source)}</title>"
        "<style>body{font-family:monospace;background:#111;color:#ddd;padding:1em}"
        "table{border-collapse:collapse;margin:1em 0}"
        "td,th{border:1px solid #444;padding:2px 8px;text-align:right}"
        "th{background:#222}td:first-child,th:first-child{text-align:left}"
        "h1{font-size:1.1em}</style></head><body>"
        f"<h1>repro serve watch — {esc(source)}</h1>"
    ]
    if model is not None:
        summary = model.summary()
        lat = summary["latency"]
        parts.append(
            "<p>"
            f"tenants {summary['tenants']} · ticks {summary['total_ticks']} · "
            f"cost {summary['total_cost']} · sla {summary['sla_violations']} · "
            f"shed {summary['shed_demand']} · forced {summary['forced_downs']}"
            "</p>"
        )
        rows = [
            (
                r["tenant"],
                r["ticks"],
                r["latency"].get("p50_ms", "-"),
                r["latency"].get("p95_ms", "-"),
                r["latency"].get("p99_ms", "-"),
                r["cost"],
                r.get("regret", "-"),
                r["sla_violations"],
                r["shed_demand"],
                r["forced_downs"],
            )
            for r in model.tenant_rows()
        ]
        parts.append(
            table(
                ["tenant", "ticks", "p50ms", "p95ms", "p99ms", "cost", "regret",
                 "sla", "shed", "down"],
                rows,
            )
        )
        if lat.get("histogram"):
            hist = lat["histogram"]
            rows = [
                (f"≤{b} ns", c)
                for b, c in zip(hist["bucket_le_ns"], hist["counts"])
                if c
            ]
            overflow = hist["counts"][-1]
            if overflow:
                rows.append(("overflow", overflow))
            parts.append("<h1>latency histogram</h1>")
            parts.append(table(["bucket", "count"], rows))
    if fabric is not None:
        parts.append("<h1>workers</h1>")
        parts.append(
            table(
                ["worker", "status", "beat age (s)", "round"],
                [
                    (
                        w["worker"],
                        w["status"],
                        w.get("heartbeat_age_s", "-"),
                        w.get("round", "-"),
                    )
                    for w in fabric["workers"]
                ],
            )
        )
        if fabric["checkpoints"]:
            parts.append("<h1>checkpoints</h1>")
            parts.append(
                table(
                    ["tenant", "tick", "cost", "sla", "shed"],
                    [
                        (c["tenant"], c["tick"], c["cost"],
                         c["sla_violations"], c["shed_demand"])
                        for c in fabric["checkpoints"]
                    ],
                )
            )
    parts.append("</body></html>")
    return "".join(parts)


# --------------------------------------------------------------------------- #
# Command entry point (wired from repro.cli)
# --------------------------------------------------------------------------- #


def _compare_expected(actual: dict, expected: dict) -> List[str]:
    """Key-by-key exact comparison against an expected summary dict."""
    if "summary" in expected and isinstance(expected["summary"], dict):
        expected = expected["summary"]
    mismatches = []
    for key in (
        "tenants",
        "total_ticks",
        "total_cost",
        "sla_violations",
        "shed_demand",
        "forced_downs",
        "latency",
    ):
        if key not in expected:
            continue
        if actual.get(key) != expected[key]:
            mismatches.append(
                f"{key}: watch={actual.get(key)!r} expected={expected[key]!r}"
            )
    return mismatches


def watch_command(
    path,
    *,
    once: bool = False,
    refresh: float = 1.0,
    json_out: Optional[str] = None,
    html_out: Optional[str] = None,
    expect: Optional[str] = None,
    stale_seconds: float = STALE_HEARTBEAT_SECONDS,
    stream=None,
) -> int:
    """Run the dashboard; returns a process exit code.

    ``--json``/``--html`` write to a path (``-`` means stdout) and imply a
    single frame; ``--expect FILE`` compares the rendered summary against a
    recorded ``summarise_sessions`` payload **exactly** and fails on any
    deviation — the teeth of ``make watch-smoke``.
    """
    stream = stream if stream is not None else sys.stdout
    target = Path(path)
    if not target.exists():
        print(f"watch: no such path: {target}", file=sys.stderr)
        return 2

    fabric_mode = target.is_dir()
    watcher = FabricWatcher(target, stale_seconds=stale_seconds) if fabric_mode else None
    tail = None if fabric_mode else TelemetryTail(target)
    model = None if fabric_mode else WatchModel()
    once = once or json_out is not None or html_out is not None or expect is not None

    def refresh_model(elapsed=None):
        fabric = watcher.summary() if watcher is not None else None
        if model is not None:
            model.ingest_all(tail.poll())
        frame = render_frame(
            model,
            fabric,
            source=str(target),
            elapsed=elapsed,
            colour=stream.isatty() if hasattr(stream, "isatty") else False,
        )
        if model is not None:
            model.mark_interval()
        return fabric, frame

    if once:
        fabric, frame = refresh_model()
        summary = fabric if model is None else dict(model.summary(), schema=1)
        if json_out is not None:
            payload = json.dumps(summary, indent=2, sort_keys=True)
            if json_out == "-":
                stream.write(payload + "\n")
            else:
                Path(json_out).write_text(payload + "\n", encoding="utf-8")
        if html_out is not None:
            page = render_html(model, fabric, source=str(target))
            if html_out == "-":
                stream.write(page + "\n")
            else:
                Path(html_out).write_text(page, encoding="utf-8")
        if json_out is None and html_out is None:
            stream.write(frame)
        if expect is not None:
            if model is None:
                print("watch: --expect needs a telemetry file source", file=sys.stderr)
                return 2
            expected = read_json(expect)
            if expected is None:
                print(f"watch: cannot read --expect file {expect}", file=sys.stderr)
                return 2
            mismatches = _compare_expected(model.summary(), expected)
            if mismatches:
                for mismatch in mismatches:
                    print(f"watch: MISMATCH {mismatch}", file=sys.stderr)
                return 1
            stream.write("watch: summary matches expected exactly\n")
        return 0

    # live loop: ANSI clear + redraw until interrupted
    last = time.monotonic()
    try:
        while True:
            now = time.monotonic()
            _, frame = refresh_model(elapsed=now - last)
            last = now
            stream.write(_CLEAR + frame)
            if hasattr(stream, "flush"):
                stream.flush()
            time.sleep(max(0.05, float(refresh)))
    except KeyboardInterrupt:
        stream.write("\n")
    return 0
