"""Trace feeds: demand sources for streaming replay.

A feed is an iterable of :class:`Tick` objects — demand plus the optional
per-tick fleet information (time-dependent cost rows, maintenance counts) a
:class:`~repro.serve.session.ControllerSession` reveals to its algorithm one
slot at a time.  Sources:

* :class:`InstanceFeed` — replay a materialised
  :class:`~repro.core.instance.ProblemInstance` (the batch-equivalence
  anchor: streaming an instance must reproduce ``run_online`` on it),
* :class:`ScenarioFeed` — replay a registered scenario family by name
  (``ScenarioSpec`` address → lazy materialisation → replay),
* :class:`JsonlFeed` — replay a JSONL demand stream (one number or one
  ``{"demand": x}`` object per line),
* :class:`SyntheticFeed` — generate a named trace preset (``"diurnal"``, ...)
  or any array/callable on the fly.

Every feed supports *time-warped* playback: ``feed.play(speed=60)`` paces the
ticks at ``tick_seconds / speed`` wall seconds each (one simulated minute per
wall second at ``tick_seconds=3600, speed=60``); ``speed=None`` (the default
everywhere correctness matters) replays as fast as the controller can
consume.
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Union

import numpy as np

from ..core.instance import ProblemInstance
from ..workloads.traces import named_trace

__all__ = [
    "Tick",
    "TraceFeed",
    "ArrayFeed",
    "FeedError",
    "InstanceFeed",
    "JsonlFeed",
    "ScenarioFeed",
    "SyntheticFeed",
    "build_feed",
    "payload_checksum",
    "write_jsonl_trace",
]


class FeedError(RuntimeError):
    """A trace feed could not produce a valid tick (malformed line, bad checksum).

    The message always carries the source location (``path:line``) so a
    corrupt multi-gigabyte trace points at the offending line, not at a bare
    ``json.JSONDecodeError`` somewhere inside the replay loop.
    """


def payload_checksum(payload: dict) -> str:
    """Order-independent CRC-32 of a JSON-safe payload (format ``crc32:xxxxxxxx``).

    Computed over the canonical (sorted-keys) JSON encoding, so semantically
    equal payloads agree regardless of key order.  Used by JSONL trace lines
    and session checkpoints alike — cheap enough to run per line, strong
    enough to catch the truncation/bit-rot class of corruption (this is an
    integrity check, not an authenticity one).
    """
    canonical = json.dumps(payload, sort_keys=True).encode("utf-8")
    return f"crc32:{zlib.crc32(canonical) & 0xFFFFFFFF:08x}"


def write_jsonl_trace(path, demands, checksum: bool = False) -> int:
    """Write a demand array as a :class:`JsonlFeed`-readable JSONL file.

    With ``checksum=True`` every line is ``{"demand": x, "checksum": ...}``
    so the feed (or any other consumer) can verify line integrity; returns
    the number of lines written.
    """
    demands = np.asarray(demands, dtype=float).reshape(-1)
    with open(path, "w", encoding="utf-8") as handle:
        for demand in demands:
            payload = {"demand": float(demand)}
            if checksum:
                payload["checksum"] = payload_checksum({"demand": payload["demand"]})
            handle.write(json.dumps(payload) + "\n")
    return int(demands.size)


@dataclass(frozen=True, eq=False)
class Tick:
    """One step of a demand stream (plus optional per-tick fleet information)."""

    t: int
    demand: float
    cost_row: Optional[tuple] = None
    counts: Optional[np.ndarray] = None


class TraceFeed:
    """Base class: an iterable of :class:`Tick` objects with paced playback."""

    #: Fleet the trace was materialised against (``None`` for demand-only feeds).
    server_types: Optional[tuple] = None
    #: Simulated duration of one tick, in seconds (pacing only).
    tick_seconds: float = 1.0

    def ticks(self) -> Iterator[Tick]:
        raise NotImplementedError

    def __iter__(self) -> Iterator[Tick]:
        return self.ticks()

    def play(self, speed: Optional[float] = None) -> Iterator[Tick]:
        """Iterate the feed at a time-warp factor.

        ``speed=None`` (or ``inf``) yields as fast as possible; otherwise each
        tick is released ``tick_seconds / speed`` wall seconds after the
        previous one (sleeping only for whatever time the consumer has not
        already spent).
        """
        if speed is None or speed <= 0 or np.isinf(speed):
            yield from self.ticks()
            return
        interval = self.tick_seconds / float(speed)
        start = time.monotonic()
        for i, tick in enumerate(self.ticks()):
            due = start + i * interval
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            yield tick


class ArrayFeed(TraceFeed):
    """Replay a plain demand array (no per-tick fleet information)."""

    def __init__(self, demands, tick_seconds: float = 1.0, server_types=None):
        self._demands = np.asarray(demands, dtype=float).reshape(-1)
        self.tick_seconds = float(tick_seconds)
        self.server_types = None if server_types is None else tuple(server_types)

    def __len__(self) -> int:
        return len(self._demands)

    def ticks(self) -> Iterator[Tick]:
        for t, demand in enumerate(self._demands):
            yield Tick(t=t, demand=float(demand))


class InstanceFeed(TraceFeed):
    """Replay the demand trace (and per-tick cost rows / counts) of an instance.

    Time-independent instances yield bare demand ticks; time-dependent costs
    and fleet sizes are revealed tick by tick — exactly the information the
    batch driver hands ``step`` for the same slot, which is what makes the
    streamed replay equivalent to ``run_online`` on the instance.
    """

    def __init__(self, instance: ProblemInstance, tick_seconds: float = 1.0):
        self.instance = instance
        self.server_types = instance.server_types
        self.tick_seconds = float(tick_seconds)

    def __len__(self) -> int:
        return self.instance.T

    def ticks(self) -> Iterator[Tick]:
        instance = self.instance
        for t in range(instance.T):
            yield Tick(
                t=t,
                demand=float(instance.demand[t]),
                cost_row=instance.cost_row(t) if instance.has_time_dependent_costs else None,
                counts=instance.counts_at(t) if instance.has_time_dependent_counts else None,
            )


class ScenarioFeed(InstanceFeed):
    """Replay a registered scenario family by declarative address.

    ``ScenarioFeed("diurnal-cpu-gpu", T=48, seed=3)`` materialises the spec
    through the registry and replays the resulting instance; the resolved
    :class:`~repro.scenarios.spec.ScenarioSpec` is kept on ``spec`` so
    telemetry can stamp the address of what was replayed.
    """

    def __init__(self, scenario, tick_seconds: float = 1.0, seed: Optional[int] = None, **params):
        from ..scenarios import ScenarioSpec, build, validate

        spec = ScenarioSpec.parse(scenario)
        if params or seed is not None:
            spec = spec.with_overrides(seed=seed, **params)
        self.spec = validate(spec)
        super().__init__(build(self.spec), tick_seconds=tick_seconds)


class JsonlFeed(TraceFeed):
    """Replay a JSONL demand stream: one number or ``{"demand": x}`` per line.

    Input hardening (a live trace file is the least trustworthy input in the
    serve stack):

    * malformed lines (undecodable bytes, bad JSON, a demand that is not a
      finite non-negative number — booleans included) raise
      :class:`FeedError` naming ``path:line`` — or are counted and skipped
      under ``on_error="skip"`` (degrade-per-policy),
    * ``verify_checksum=True`` requires every line to carry the ``checksum``
      field written by :func:`write_jsonl_trace` and rejects mismatches;
      by default checksums are verified only when present,
    * transient open failures are retried ``retries`` times with exponential
      backoff starting at ``retry_delay`` seconds.
    """

    def __init__(
        self,
        path,
        tick_seconds: float = 1.0,
        on_error: str = "raise",
        retries: int = 0,
        retry_delay: float = 0.05,
        verify_checksum: bool = False,
    ):
        if on_error not in ("raise", "skip"):
            raise ValueError(f"on_error must be 'raise' or 'skip', got {on_error!r}")
        self.path = path
        self.tick_seconds = float(tick_seconds)
        self.on_error = on_error
        self.retries = int(retries)
        self.retry_delay = float(retry_delay)
        self.verify_checksum = bool(verify_checksum)
        #: Malformed lines dropped by the last ``ticks()`` pass (``on_error="skip"``).
        self.skipped = 0

    def _open(self):
        delay = self.retry_delay
        for attempt in range(self.retries + 1):
            try:
                return open(self.path, "rb")
            except OSError:
                if attempt == self.retries:
                    raise
                time.sleep(delay)
                delay *= 2

    def _parse_line(self, line: bytes, line_no: int) -> float:
        where = f"{self.path}:{line_no}"
        try:
            payload = json.loads(line.decode("utf-8"))
        except ValueError as exc:  # undecodable bytes, bad JSON, an over-long integer
            raise FeedError(f"{where}: malformed JSONL line ({exc})") from exc
        if isinstance(payload, dict):
            if "demand" not in payload:
                raise FeedError(f"{where}: object line has no 'demand' key (got {sorted(payload)})")
            claimed = payload.get("checksum")
            if claimed is not None or self.verify_checksum:
                body = {k: v for k, v in payload.items() if k != "checksum"}
                if claimed is None:
                    raise FeedError(f"{where}: checksum required but line carries none")
                actual = payload_checksum(body)
                if claimed != actual:
                    raise FeedError(
                        f"{where}: checksum mismatch (line says {claimed}, content is {actual})"
                    )
            raw = payload["demand"]
        else:
            if self.verify_checksum:
                raise FeedError(f"{where}: checksum required but line is a bare number")
            raw = payload
        if isinstance(raw, bool):
            raise FeedError(f"{where}: demand {raw!r} is not a number")
        try:
            demand = float(raw)
        except OverflowError as exc:
            raise FeedError(f"{where}: demand is an integer beyond float range") from exc
        except (TypeError, ValueError) as exc:
            raise FeedError(f"{where}: demand {raw!r} is not a number") from exc
        if not np.isfinite(demand) or demand < 0:
            raise FeedError(f"{where}: demand must be finite and non-negative, got {demand!r}")
        return demand

    def ticks(self) -> Iterator[Tick]:
        t = 0
        self.skipped = 0
        with self._open() as handle:
            for line_no, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    demand = self._parse_line(line, line_no)
                except FeedError:
                    if self.on_error == "skip":
                        self.skipped += 1
                        continue
                    raise
                yield Tick(t=t, demand=demand)
                t += 1


def build_feed(spec) -> TraceFeed:
    """Materialise a *declarative* feed description into a :class:`TraceFeed`.

    Feeds themselves hold live objects (file handles, instances, cost
    functions); the serve fabric ships tenants across process boundaries and
    rebuilds feeds after a crash, so it addresses them by plain JSON-safe
    dicts instead — the feed analogue of the scenario registry's
    :class:`~repro.scenarios.spec.ScenarioSpec`.  A ready
    :class:`TraceFeed` passes through unchanged.  Spec shapes (``kind`` keys):

    * ``{"kind": "scenario", "scenario": name, "params": {...}, "seed": s}``
      — registry address, the common fabric case (carries a fleet),
    * ``{"kind": "jsonl", "path": ..., "on_error": ..., "retries": ...,
      "verify_checksum": ...}`` — a JSONL demand stream,
    * ``{"kind": "synthetic", "source": name, "slots": n, "seed": s}``
      — a named trace preset,
    * ``{"kind": "array", "demands": [...]}`` — an inline demand array.

    Every kind accepts ``tick_seconds``.  Rebuilding the same spec twice
    yields the same tick stream — the determinism crash recovery replays
    missed ticks from.
    """
    if isinstance(spec, TraceFeed):
        return spec
    if not isinstance(spec, dict):
        raise TypeError(f"feed spec must be a TraceFeed or a dict, got {type(spec).__name__}")
    spec = dict(spec)
    kind = spec.pop("kind", "scenario" if "scenario" in spec else None)
    tick_seconds = float(spec.pop("tick_seconds", 1.0))
    if kind == "scenario":
        params = dict(spec.pop("params", {}))
        return ScenarioFeed(
            spec.pop("scenario"),
            tick_seconds=tick_seconds,
            seed=spec.pop("seed", None),
            **params,
            **spec,
        )
    if kind == "jsonl":
        return JsonlFeed(spec.pop("path"), tick_seconds=tick_seconds, **spec)
    if kind == "synthetic":
        return SyntheticFeed(
            spec.pop("source"),
            slots=int(spec.pop("slots", 48)),
            seed=spec.pop("seed", None),
            tick_seconds=tick_seconds,
        )
    if kind == "array":
        return ArrayFeed(spec.pop("demands"), tick_seconds=tick_seconds)
    raise ValueError(
        f"unknown feed kind {kind!r} (known: scenario, jsonl, synthetic, array)"
    )


class SyntheticFeed(ArrayFeed):
    """Generate a synthetic demand stream from a named preset or a callable.

    ``SyntheticFeed("diurnal", slots=48, seed=0)`` resolves the same preset
    parameterisation as the CLI's ``--trace diurnal``; a callable source is
    invoked as ``source(slots, seed)`` and must return a 1-D array.
    """

    def __init__(
        self,
        source: Union[str, Callable[[int, Optional[int]], Iterable[float]]],
        slots: int = 48,
        seed: Optional[int] = None,
        tick_seconds: float = 1.0,
    ):
        if callable(source):
            demands = np.asarray(source(int(slots), seed), dtype=float)
        else:
            demands = named_trace(source, int(slots), rng=seed)
        super().__init__(demands, tick_seconds=tick_seconds)
        self.source = source
