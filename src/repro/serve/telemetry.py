"""Serving telemetry: per-tick JSONL streams and latency/regret summaries.

Every tick of a :class:`~repro.serve.session.ControllerSession` yields a
:class:`~repro.serve.session.FleetState`; a :class:`TelemetryWriter` appends
its flat row — tenant, demand, chosen configuration, tick/cumulative cost,
wall latency, optional prefix-optimum regret — as one JSON line, the format
every log shipper understands, encoded straight from the state
(:meth:`~repro.serve.session.FleetState.json_row`) into the bytes
``json.dumps`` gives for its :meth:`~repro.serve.session.FleetState.as_row`
dict.  Rows are stamped with ``"schema": 1``, and readers count a row without
an integer schema as malformed.
:func:`latency_percentiles` and :func:`summarise_sessions` aggregate what
``repro serve replay`` prints, what ``BENCH_serve.json`` records and what
``repro serve watch`` reproduces from the files.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from .metrics import LATENCY_BUCKETS_NS
from .session import FleetState

__all__ = [
    "TELEMETRY_SCHEMA_VERSION",
    "TelemetryWriter",
    "latency_percentiles",
    "summarise_sessions",
]

#: Stamped into every telemetry row as ``"schema"``; bump on incompatible
#: row-shape changes.
TELEMETRY_SCHEMA_VERSION = 1


class TelemetryWriter:
    """Append-only JSONL sink for per-tick telemetry rows.

    Usable as a context manager; ``path=None`` discards rows (a null sink, so
    callers need no conditional plumbing).

    ``flush_every=N`` flushes the OS buffer every N rows — the default N=1
    keeps the historical flush-per-write durability (a serving process killed
    mid-stream keeps every completed tick), larger N amortises the syscall at
    10k-tenant batch scale.  :meth:`flush` forces a flush at any point and
    :meth:`close` always flushes the tail.

    ``rotate_bytes=`` bounds the stream on disk: when the current file
    reaches the threshold (checked at row boundaries) it is rotated to
    ``<path>.1`` — the previous ``.1`` moving to ``.2``, two generations
    kept — and a fresh file is started.

    Reopening a file whose last line is torn (a crash mid-row) first ends
    that line, so the fragment reads as one bad line and the first new row
    stays whole.
    """

    def __init__(
        self,
        path=None,
        *,
        flush_every: int = 1,
        rotate_bytes: Optional[int] = None,
    ):
        if int(flush_every) < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        if rotate_bytes is not None and int(rotate_bytes) < 1:
            raise ValueError(f"rotate_bytes must be >= 1, got {rotate_bytes}")
        self.path = None if path is None else Path(path)
        self.flush_every = int(flush_every)
        self.rotate_bytes = None if rotate_bytes is None else int(rotate_bytes)
        self._handle = None
        self._pending = 0
        self._bytes = 0
        #: tenant -> its encoded ``"schema"``/``"tenant"`` members
        self._stamps: Dict[Optional[str], str] = {}
        self.rows_written = 0
        self.rotations = 0
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
            try:
                self._bytes = os.fstat(self._handle.fileno()).st_size
            except OSError:  # pragma: no cover — exotic filesystems
                self._bytes = 0
            if self._bytes:
                with open(self.path, "rb") as existing:
                    existing.seek(-1, os.SEEK_END)
                    torn = existing.read(1) != b"\n"
                if torn:
                    self._handle.write("\n")
                    self._bytes += 1

    @property
    def active(self) -> bool:
        """Whether rows actually land anywhere (``False`` for the null sink).

        The engine's round checks this before materialising per-tick
        telemetry rows — building 10k rows per round for a sink that discards
        them would be pure overhead.
        """
        return self._handle is not None

    def write(self, row: Union[FleetState, dict], tenant: Optional[str] = None) -> None:
        """Append one telemetry row, stamped with the schema version and ``tenant``.

        ``row`` is a tick's :class:`~repro.serve.session.FleetState`, encoded
        straight to its line by :meth:`~repro.serve.session.FleetState.json_row`
        (the tenant name is JSON-escaped once per tenant), or a free-form dict
        such as a fabric lifecycle event, which keeps a ``"schema"`` it
        carries.  Either way the line is ``json.dumps`` of the row dict — a
        state's :meth:`~repro.serve.session.FleetState.as_row` — with
        ``"schema"`` and then ``"tenant"`` added.
        """
        if self._handle is None:
            return
        if isinstance(row, FleetState):
            stamp = self._stamps.get(tenant)
            if stamp is None:
                members = {"schema": TELEMETRY_SCHEMA_VERSION}
                if tenant is not None:
                    members["tenant"] = tenant
                stamp = self._stamps[tenant] = ", " + json.dumps(members)[1:-1]
            line = row.json_row(stamp) + "\n"
        else:
            if tenant is not None or "schema" not in row:
                row = dict(row)
                row.setdefault("schema", TELEMETRY_SCHEMA_VERSION)
                if tenant is not None:
                    row["tenant"] = tenant
            line = json.dumps(row) + "\n"
        self._handle.write(line)
        self._bytes += len(line)
        self._pending += 1
        self.rows_written += 1
        if self._pending >= self.flush_every:
            self._handle.flush()
            self._pending = 0
        if self.rotate_bytes is not None and self._bytes >= self.rotate_bytes:
            self._rotate()

    def flush(self) -> None:
        """Force any buffered rows to the OS now."""
        if self._handle is not None:
            self._handle.flush()
            self._pending = 0

    def _rotate(self) -> None:
        self._handle.close()
        first = self.path.with_name(self.path.name + ".1")
        second = self.path.with_name(self.path.name + ".2")
        if first.exists():
            os.replace(first, second)
        os.replace(self.path, first)
        self._handle = open(self.path, "w", encoding="utf-8")
        self._bytes = 0
        self._pending = 0
        self.rotations += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "TelemetryWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def latency_percentiles(latencies_ns, *, histogram: bool = True) -> dict:
    """p50/p95/p99/mean/max of integer-nanosecond latency samples, in milliseconds.

    Non-empty summaries also carry a ``histogram`` field over the fixed
    :data:`~repro.serve.metrics.LATENCY_BUCKETS_NS` bounds (``counts[i]``
    pairs with ``bucket_le_ns[i]``; the trailing count is the overflow
    bucket).
    """
    ns = np.asarray(latencies_ns, dtype=np.int64)
    if ns.size == 0:
        return {"ticks": 0}
    ms = ns * 1e-6
    out = {
        "ticks": int(ns.size),
        "p50_ms": round(float(np.percentile(ms, 50)), 6),
        "p95_ms": round(float(np.percentile(ms, 95)), 6),
        "p99_ms": round(float(np.percentile(ms, 99)), 6),
        "mean_ms": round(float(np.mean(ms)), 6),
        "max_ms": round(float(np.max(ms)), 6),
    }
    if histogram:
        bounds = np.asarray(LATENCY_BUCKETS_NS, dtype=np.int64)
        idx = np.searchsorted(bounds, ns, side="left")
        counts = np.bincount(idx, minlength=bounds.size + 1)
        out["histogram"] = {
            "bucket_le_ns": [int(b) for b in bounds],
            "counts": [int(c) for c in counts],
        }
    return out


def summarise_sessions(sessions, wall_seconds: Optional[float] = None) -> dict:
    """Aggregate summary of a set of sessions (the engine-level report body).

    Pools every session's tick latencies — at native ns resolution — into one
    percentile summary and, when the multiplexing wall time is known, reports
    aggregate throughput (``ticks_per_second``) and tenant turnover
    (``tenants_per_second`` — full replays completed per wall second).
    """
    sessions = list(sessions)
    pooled = (
        np.concatenate([s.latencies_ns for s in sessions])
        if sessions
        else np.zeros(0, dtype=np.int64)
    )
    total_ticks = int(pooled.size)
    summary = {
        "tenants": len(sessions),
        "total_ticks": total_ticks,
        "total_cost": round(float(sum(s.cumulative_cost for s in sessions)), 9),
        "sla_violations": int(sum(s.sla_violations for s in sessions)),
        "shed_demand": round(float(sum(s.shed_demand_total for s in sessions)), 9),
        "forced_downs": int(sum(s.forced_downs for s in sessions)),
        "latency": latency_percentiles(latencies_ns=pooled),
    }
    if wall_seconds is not None:
        summary["wall_seconds"] = round(float(wall_seconds), 6)
        if wall_seconds > 0:
            summary["ticks_per_second"] = round(total_ticks / wall_seconds, 3)
            summary["tenants_per_second"] = round(len(sessions) / wall_seconds, 3)
    return summary
