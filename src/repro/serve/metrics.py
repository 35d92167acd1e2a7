"""Dependency-free metrics registry for the serve stack.

One :class:`MetricsRegistry` per engine / worker process exposes every
observable quantity behind the serve layer's ``counters()`` / ``report()``
surfaces — cache memo hits, dispatch solver work, batched-round counters,
chaos fault injections, per-tenant SLA accounting and tick-latency
histograms — as named, labelled series:

* :class:`Counter` — monotonically increasing totals (``tensor_hits``,
  ``sla_violations``); the deterministic subset, equality-pinned by the
  ``repro bench --counters`` gate.
* :class:`Gauge` — point-in-time values (``virtual_slots``,
  ``tensor_bytes``); ``deterministic=True`` opts a gauge into the
  deterministic snapshot (wall-clock-ish gauges stay out).
* :class:`Histogram` — fixed-bound distributions; :data:`LATENCY_BUCKETS_NS`
  provides the log-spaced 1µs→1s tick-latency buckets shared with
  :func:`~repro.serve.telemetry.latency_percentiles`.

One write path: the objects that count — sessions, caches, the engine, chaos
injectors — own their counters as plain int attributes (a hot-path
increment is one attribute add) and never hold a registry series.  Each
registers a *collector*, a callback that mirrors its counts into the
registry when it is scraped (:meth:`MetricsRegistry.register_collector`,
prometheus-client style); the cache, engine and injector declare each
counter's series kind once and mirror through :meth:`MetricsRegistry.mirror`,
the session also loads its latency window into a histogram
(:meth:`Histogram.load`).  Collectors are held by weak reference, so
short-lived sessions never leak through the registry; an owner about to be
dropped mirrors itself once more (a released tenant's cache, the injector of
an ended chaos stream), so its last counts stay in the registry.

Cardinality under tenant churn is bounded by ``max_series_per_metric``:
when one metric name accumulates more labelled series than the cap (e.g.
``sla_violations`` across thousands of short-lived tenants), the
least-recently-touched series is evicted and its value folded into a
per-metric ``evicted`` aggregate — registry memory stays flat while totals
remain accountable.  Because every series is written at scrape time, the
first scrape past the cap accounts every count exactly: resident series plus
the ``evicted`` fold equal the owners' totals.

Exposition: :meth:`MetricsRegistry.snapshot` (JSON-safe dict, stamped
``"schema": 1``), :meth:`MetricsRegistry.deterministic_snapshot` (counters +
deterministic gauges only — no wall-clock values, so two identical replays
produce equal snapshots).
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "LATENCY_BUCKETS_NS",
    "METRICS_SCHEMA_VERSION",
    "COUNTER",
    "Counter",
    "DETERMINISTIC_GAUGE",
    "GAUGE",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Version stamp carried by every snapshot (and the telemetry rows /
#: checkpoint-adjacent files that embed them).  Readers accept versionless
#: legacy payloads.
METRICS_SCHEMA_VERSION = 1

#: Fixed log-spaced tick-latency histogram bounds in integer nanoseconds:
#: four buckets per decade from 1µs to 1s (every serve tick from the
#: microsecond hot path to a pathological stall lands in a stable bucket, so
#: histograms from different runs are directly comparable).
LATENCY_BUCKETS_NS = tuple(int(round(10 ** (3 + k / 4))) for k in range(25))

#: Default per-metric series cap (see the module docstring on churn).
DEFAULT_MAX_SERIES = 512

#: Series kinds for :meth:`MetricsRegistry.mirror`: a counter, a gauge left
#: out of the deterministic snapshot, and a gauge kept in it.
COUNTER = "counter"
GAUGE = "gauge"
DETERMINISTIC_GAUGE = "deterministic gauge"


def _label_suffix(labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + body + "}"


class Counter:
    """A monotonically increasing total (float-valued when the domain is)."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount=1) -> None:
        self.value += amount

    def add(self, amount) -> None:
        self.value += amount

    def set(self, value) -> None:
        """Overwrite the total (checkpoint restore / collector sync only)."""
        self.value = value

    @property
    def series(self) -> str:
        return self.name + _label_suffix(self.labels)


class Gauge:
    """A point-in-time value; ``deterministic=True`` joins the pinned subset."""

    __slots__ = ("name", "labels", "value", "deterministic")
    kind = "gauge"

    def __init__(
        self,
        name: str,
        labels: Tuple[Tuple[str, str], ...] = (),
        deterministic: bool = False,
    ):
        self.name = name
        self.labels = labels
        self.value = 0
        self.deterministic = bool(deterministic)

    def set(self, value) -> None:
        self.value = value

    def inc(self, amount=1) -> None:
        self.value += amount

    @property
    def series(self) -> str:
        return self.name + _label_suffix(self.labels)


class Histogram:
    """A fixed-bound distribution (cumulative ``le`` semantics at export).

    ``bounds`` must be sorted ascending; an observation lands in the first
    bucket whose bound is >= the value (one trailing overflow bucket catches
    the rest).  :meth:`load` installs a bucketed sample window, replacing
    previous contents — the collector path for per-tick latencies that are
    too hot to observe individually.
    """

    __slots__ = ("name", "labels", "bounds", "counts", "sum", "count")
    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Tuple[Tuple[str, str], ...] = (),
        bounds=LATENCY_BUCKETS_NS,
    ):
        self.name = name
        self.labels = labels
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0
        self.count = 0

    def observe(self, value) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def load(self, counts, sum_, count) -> None:
        """Install precomputed bucket counts (the vectorised-sync path).

        ``counts`` must be ``len(bounds) + 1`` entries aligned with
        :meth:`observe`'s bucketing (``bisect_left`` over ``bounds``, one
        trailing overflow bucket); callers with numpy at hand bucket large
        sample windows with ``searchsorted``/``bincount`` and load the result
        here instead of observing one value at a time.
        """
        counts = list(counts)
        if len(counts) != len(self.bounds) + 1:
            raise ValueError(
                f"expected {len(self.bounds) + 1} bucket counts, got {len(counts)}"
            )
        self.counts = counts
        self.sum = sum_
        self.count = count

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
        }

    @property
    def series(self) -> str:
        return self.name + _label_suffix(self.labels)


class MetricsRegistry:
    """Named, labelled metric series with capped cardinality and collectors.

    ``counter()`` / ``gauge()`` / ``histogram()`` are get-or-create: the
    first call with a given ``(name, labels)`` pair creates the series, later
    calls return the same object (and refresh its recency for the eviction
    order).  Mixing kinds under one name raises.
    """

    def __init__(self, max_series_per_metric: int = DEFAULT_MAX_SERIES):
        if int(max_series_per_metric) < 1:
            raise ValueError(
                f"max_series_per_metric must be >= 1, got {max_series_per_metric}"
            )
        self.max_series_per_metric = int(max_series_per_metric)
        self._families: Dict[str, OrderedDict] = {}
        self._evicted: Dict[str, dict] = {}
        self._collectors: List[weakref.ref] = []
        self._collector_prune_at = 64
        self._label_seq: Dict[str, int] = {}

    # ------------------------------------------------------------- get/create
    def _get(self, cls, name: str, labels: dict, **kwargs):
        family = self._families.get(name)
        if family is None:
            family = OrderedDict()
            self._families[name] = family
        key = tuple(sorted((str(k), str(v)) for k, v in labels.items()))
        metric = family.get(key)
        if metric is not None:
            if type(metric) is not cls:
                raise TypeError(
                    f"metric {name!r} is a {metric.kind}, not a {cls.kind}"
                )
            family.move_to_end(key)
            return metric
        metric = cls(name, key, **kwargs)
        family[key] = metric
        while len(family) > self.max_series_per_metric:
            _, evicted = family.popitem(last=False)
            self._fold_evicted(name, evicted)
        return metric

    def _fold_evicted(self, name: str, metric) -> None:
        agg = self._evicted.get(name)
        if agg is None:
            agg = {"series": 0, "value": 0}
            self._evicted[name] = agg
        agg["series"] += 1
        if isinstance(metric, Histogram):
            agg["value"] += metric.count
        else:
            agg["value"] += metric.value

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, deterministic: bool = False, **labels) -> Gauge:
        gauge = self._get(Gauge, name, labels, deterministic=deterministic)
        if deterministic:
            gauge.deterministic = True
        return gauge

    def histogram(
        self, name: str, bounds=LATENCY_BUCKETS_NS, **labels
    ) -> Histogram:
        return self._get(Histogram, name, labels, bounds=bounds)

    def new_label(self, prefix: str) -> str:
        """The next of ``prefix0``, ``prefix1``, ... in this registry."""
        n = self._label_seq.get(prefix, 0)
        self._label_seq[prefix] = n + 1
        return f"{prefix}{n}"

    # -------------------------------------------------------------- collectors
    def register_collector(self, callback: Callable[[], None]) -> None:
        """Register a scrape-time sync callback (held by weak reference).

        Collectors push values that are too hot (or too awkward) to update
        per tick into the registry right before a snapshot is taken — the
        prometheus-client ``collect()`` idiom.  Bound methods are held via
        :class:`weakref.WeakMethod`, so registering a short-lived session's
        collector does not pin the session in memory.
        """
        try:
            ref = weakref.WeakMethod(callback)
        except TypeError:
            ref = weakref.ref(callback)
        self._collectors.append(ref)
        if len(self._collectors) > self._collector_prune_at:
            self._collectors = [r for r in self._collectors if r() is not None]
            self._collector_prune_at = max(64, 2 * len(self._collectors))

    def collect(self) -> None:
        """Run every live collector (dead ones are pruned in passing)."""
        live = []
        for ref in self._collectors:
            callback = ref()
            if callback is None:
                continue
            live.append(ref)
            callback()
        self._collectors = live

    def mirror(self, kinds: Dict[str, str], values: dict, prefix: str = "", **labels) -> None:
        """Set each series ``prefix + key`` of ``kinds`` to ``values[key]``.

        ``kinds[key]`` is :data:`COUNTER`, :data:`GAUGE` or
        :data:`DETERMINISTIC_GAUGE`; keys of ``values`` it does not name are
        not mirrored.
        """
        for key, kind in kinds.items():
            name = prefix + key
            if kind == COUNTER:
                self.counter(name, **labels).set(values[key])
            else:
                deterministic = kind == DETERMINISTIC_GAUGE
                self.gauge(name, deterministic=deterministic, **labels).set(values[key])

    # ------------------------------------------------------------- exposition
    def series_count(self, name: Optional[str] = None) -> int:
        """Resident series — of one metric name, or of the whole registry."""
        if name is not None:
            return len(self._families.get(name, ()))
        return sum(len(family) for family in self._families.values())

    def snapshot(self) -> dict:
        """JSON-safe dump of every resident series (collectors run first).

        The ``evicted`` aggregates are per-snapshot deltas ("evictions since
        the previous snapshot"), reset after being read: beyond the cap,
        live series evicted once are re-created by their collectors on the
        next scrape, so a *cumulative* fold would inflate without bound.
        They are a cardinality-pressure signal, not an exact running total.
        """
        self.collect()
        counters: Dict[str, object] = {}
        gauges: Dict[str, object] = {}
        histograms: Dict[str, dict] = {}
        for name in sorted(self._families):
            for metric in self._families[name].values():
                if isinstance(metric, Counter):
                    counters[metric.series] = metric.value
                elif isinstance(metric, Gauge):
                    gauges[metric.series] = metric.value
                else:
                    histograms[metric.series] = metric.to_dict()
        snap = {
            "schema": METRICS_SCHEMA_VERSION,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "series": self.series_count(),
        }
        if self._evicted:
            snap["evicted"] = {
                name: dict(agg) for name, agg in sorted(self._evicted.items())
            }
            self._evicted = {}
        return snap

    def deterministic_snapshot(self) -> dict:
        """Counters + deterministic gauges only — equality-pinnable.

        Excludes histograms and non-deterministic gauges (anything derived
        from wall clocks), so two bit-identical replays produce *equal*
        snapshots; the ``repro bench --counters`` gate pins the pinned serve
        workload's snapshot against :data:`~repro.bench.PINNED_SERVE_COUNTERS`
        through this path.
        """
        self.collect()
        values: Dict[str, object] = {}
        for name in sorted(self._families):
            for metric in self._families[name].values():
                if isinstance(metric, Counter):
                    values[metric.series] = metric.value
                elif isinstance(metric, Gauge) and metric.deterministic:
                    values[metric.series] = metric.value
        return {"schema": METRICS_SCHEMA_VERSION, "values": values}
