"""Tests for the observability layer: metrics registry, tracer, watch.

Three properties anchor the layer:

* **one write path** — sessions, caches, the engine and chaos injectors
  count in plain attributes and the registry mirrors them at scrape time, so
  every series equals its owner's ``counters()`` entry (past the series cap,
  resident series plus the ``evicted`` fold do), counts outlive their owner,
  and the deterministic snapshot is equality-stable across bit-identical
  replays;
* **bounded cardinality** — 1k+ short-lived tenants over one shared cache
  must not grow registry memory unboundedly (series caps + weakref
  collectors), mirroring the ledger-budget churn gate in test_batch.py;
* **watch exactness** — ``repro serve watch`` rebuilt from telemetry rows
  must reproduce :func:`~repro.serve.telemetry.summarise_sessions`
  equality-exactly, which is what ``make watch-smoke`` gates in CI.
"""

import gc
import json
import math
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import build
from repro.scenarios.events import EventPlan
from repro.serve import (
    ChaosFeed,
    ControllerSession,
    FabricWatcher,
    FaultInjector,
    FleetState,
    InstanceFeed,
    LATENCY_BUCKETS_NS,
    MetricsRegistry,
    ServeCache,
    ServeEngine,
    TelemetryTail,
    TelemetryWriter,
    TickTracer,
    WatchModel,
    latency_percentiles,
    summarise_sessions,
)
from repro.serve.metrics import Counter, DEFAULT_MAX_SERIES, Gauge, Histogram
from repro.serve.telemetry import TELEMETRY_SCHEMA_VERSION
from repro.serve.watch import watch_command
from repro.workloads.scale import quantise_trace


def _quantised(T=32, levels=8):
    inst = build("diurnal-cpu-gpu", T=T)
    return inst.with_demand(quantise_trace(inst.demand, levels=levels))


# --------------------------------------------------------------------------- #
# Metrics registry semantics
# --------------------------------------------------------------------------- #


class TestMetricsRegistry:
    def test_counter_gauge_histogram_basics(self):
        reg = MetricsRegistry()
        c = reg.counter("ticks", tenant="a")
        c.inc()
        c.add(2)
        assert c.value == 3
        assert reg.counter("ticks", tenant="a") is c  # same series, same object
        g = reg.gauge("virtual_slots", deterministic=True, cache="c0")
        g.set(7)
        h = reg.histogram("tick_latency_ns", tenant="a")
        h.observe(1500)  # second bucket (1000 < 1500 <= 1778)
        h.observe(10**12)  # overflow bucket
        d = h.to_dict()
        assert d["count"] == 2 and d["sum"] == 1500 + 10**12
        assert d["counts"][1] == 1 and d["counts"][-1] == 1
        assert len(d["counts"]) == len(LATENCY_BUCKETS_NS) + 1

    def test_series_naming_and_kind_mismatch(self):
        reg = MetricsRegistry()
        c = reg.counter("x", b="2", a="1")
        assert c.series == 'x{a="1",b="2"}'  # labels sorted, order-insensitive
        assert reg.counter("x", a="1", b="2") is c
        assert reg.counter("y").series == "y"
        with pytest.raises(TypeError):
            reg.gauge("x", b="2", a="1")

    def test_snapshot_and_deterministic_subset(self):
        reg = MetricsRegistry()
        reg.counter("ticks", tenant="a").add(5)
        reg.gauge("cumulative_cost", deterministic=True, tenant="a").set(1.5)
        reg.gauge("cache_hit_rate").set(0.5)  # wall-clock-ish: non-deterministic
        reg.histogram("tick_latency_ns", tenant="a").observe(2000)
        snap = reg.snapshot()
        assert snap["schema"] == 1
        assert snap["counters"] == {'ticks{tenant="a"}': 5}
        assert 'cache_hit_rate' in snap["gauges"]
        assert 'tick_latency_ns{tenant="a"}' in snap["histograms"]
        json.dumps(snap)  # JSON-safe throughout
        det = reg.deterministic_snapshot()
        assert det["values"] == {
            'ticks{tenant="a"}': 5,
            'cumulative_cost{tenant="a"}': 1.5,
        }

    def test_series_cap_evicts_lru_and_folds(self):
        reg = MetricsRegistry(max_series_per_metric=4)
        for k in range(10):
            reg.counter("ticks", tenant=f"t{k}").inc()
        assert reg.series_count("ticks") == 4
        snap = reg.snapshot()
        evicted = snap["evicted"]["ticks"]
        assert evicted["series"] == 6 and evicted["value"] == 6
        # survivors are the most recently used
        assert 'ticks{tenant="t9"}' in snap["counters"]
        assert 'ticks{tenant="t0"}' not in snap["counters"]

    def test_collectors_are_weak(self):
        reg = MetricsRegistry()

        class Source:
            def __init__(self, name):
                self.c = reg.counter("pulls", src=name)

            def collect(self):
                self.c.inc()

        live = Source("live")
        dead = Source("dead")
        reg.register_collector(live.collect)
        reg.register_collector(dead.collect)
        del dead
        gc.collect()
        reg.collect()
        assert reg.counter("pulls", src="live").value == 1
        assert reg.counter("pulls", src="dead").value == 0  # not resurrected


# --------------------------------------------------------------------------- #
# Cardinality under tenant churn (satellite d)
# --------------------------------------------------------------------------- #


class TestCardinalityChurn:
    def test_1100_tenant_churn_keeps_registry_bounded(self):
        """1100 short-lived tenants over one shared cache must not grow
        registry memory unboundedly (mirrors the ledger-budget churn gate):
        dead sessions leave no series behind (weakref collectors), periodic
        scrapes mid-churn stay small, and the collector list is pruned."""
        instance = _quantised(T=32, levels=32)
        cache = ServeCache(instance.server_types)
        registry = cache.metrics
        n_tenants, ticks = 1100, 3
        ticks_series_seen = []
        for k in range(n_tenants):
            demands = np.roll(instance.demand, k % instance.T)[:ticks]
            session = ControllerSession(
                "reactive", instance.server_types, cache=cache,
                history=False, name=f"t{k}"
            )
            for demand in demands:
                session.observe(float(demand))
            if k % 200 == 199:
                # a mid-churn scrape only walks *live* sessions: at most the
                # one in hand, never the hundreds already gone
                registry.snapshot()
                ticks_series_seen.append(registry.series_count("ticks"))
        del session
        gc.collect()
        registry.snapshot()
        # per-tenant families never approached 1100-wide: only sessions live
        # at a scrape ever materialise series (one here, per scrape), so
        # growth is bounded by the scrape count, not the tenant count
        assert max(ticks_series_seen) <= len(ticks_series_seen) + 1
        for family in ("ticks", "sla_violations", "cumulative_cost",
                       "tick_latency_ns"):
            assert registry.series_count(family) <= len(ticks_series_seen) + 2
        assert registry.series_count() <= 128
        # dead sessions' collectors were pruned (weakrefs), so a scrape only
        # walks live objects — the cache itself plus at most the last session
        assert len(registry._collectors) <= 8
        # the cache's registry-backed counters still read correctly
        assert cache.counters()["unique_solves"] > 0

    def test_series_cap_bounds_1100_live_tenants(self):
        """Even when 1100 sessions are all *live* at scrape time, per-tenant
        families stop at the series cap and fold the overflow into the
        ``evicted`` aggregate instead of growing without bound."""
        instance = _quantised(T=8, levels=8)
        cache = ServeCache(instance.server_types)
        registry = cache.metrics
        sessions = []
        for k in range(1100):
            session = ControllerSession(
                "reactive", instance.server_types, cache=cache,
                history=False, name=f"t{k}"
            )
            session.observe(float(instance.demand[0]))
            sessions.append(session)
        snap = registry.snapshot()
        assert registry.series_count("ticks") == DEFAULT_MAX_SERIES
        assert snap["evicted"]["ticks"]["series"] == 1100 - DEFAULT_MAX_SERIES
        assert registry.series_count() <= 12 * DEFAULT_MAX_SERIES

    def test_registry_snapshot_stable_across_identical_replays(self):
        instance = _quantised(T=16)

        def replay():
            engine = ServeEngine(share_caches=True)
            for k in range(4):
                feed = InstanceFeed(
                    instance.with_demand(np.roll(instance.demand, k), name=f"t{k}")
                )
                engine.add_tenant(f"t{k}", "reactive", feed)
            engine.run()
            return engine.metrics.deterministic_snapshot()

        assert replay() == replay()


# --------------------------------------------------------------------------- #
# TelemetryWriter: buffering, rotation, schema (satellites a + b)
# --------------------------------------------------------------------------- #


class TestTelemetryWriter:
    def test_schema_stamped_and_versionless_rows_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TelemetryWriter(path) as writer:
            writer.write({"t": 0, "latency_ms": 0.001}, tenant="a")
        with open(path) as handle:
            row = json.loads(handle.readline())
        assert row["schema"] == 1 and row["tenant"] == "a"
        # a versionless row counts as malformed; a newer schema is skipped
        with open(path, "a") as handle:
            handle.write(json.dumps({"t": 1, "tenant": "a", "latency_ms": 0.002}) + "\n")
            handle.write(json.dumps({"t": 2, "schema": 99}) + "\n")
            handle.write(json.dumps({"t": 3, "schema": 1}) + "\n")
        tail = TelemetryTail(path)
        rows = tail.poll()
        assert [r["t"] for r in rows] == [0, 3]
        assert tail.bad_lines == 1
        assert tail.skipped_schema == 1

    @pytest.mark.parametrize("schema", [None, "1", 1.0, True, [1]])
    def test_tail_counts_non_integer_schema_as_bad_line(self, tmp_path, schema):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps({"t": 0, "schema": schema}) + "\n"
            + json.dumps({"t": 1, "schema": 1}) + "\n"
        )
        tail = TelemetryTail(path)
        assert [r["t"] for r in tail.poll()] == [1]
        assert tail.bad_lines == 1
        assert tail.skipped_schema == 0

    def test_flush_every_buffers_and_close_flushes(self, tmp_path):
        path = tmp_path / "t.jsonl"
        writer = TelemetryWriter(path, flush_every=100)
        for t in range(5):
            writer.write({"t": t}, tenant="a")
        # small rows sit in the user-space buffer until an explicit flush
        assert path.read_text() == ""
        writer.flush()
        assert len(path.read_text().splitlines()) == 5
        for t in range(5, 8):
            writer.write({"t": t}, tenant="a")
        writer.close()  # close flushes the tail
        assert len(path.read_text().splitlines()) == 8

    def test_rotation_keeps_two_generations(self, tmp_path):
        path = tmp_path / "t.jsonl"
        writer = TelemetryWriter(path, rotate_bytes=200)
        for t in range(50):
            writer.write({"t": t}, tenant="a")
        writer.close()
        first = tmp_path / "t.jsonl.1"
        second = tmp_path / "t.jsonl.2"
        assert writer.rotations >= 2
        assert first.exists() and second.exists()
        # every surviving generation holds contiguous, parseable rows
        for p in (second, first, path):
            for line in p.read_text().splitlines():
                json.loads(line)

    def test_validation(self):
        with pytest.raises(ValueError):
            TelemetryWriter(None, flush_every=0)
        with pytest.raises(ValueError):
            TelemetryWriter(None, rotate_bytes=0)

    def test_incremental_tail_handles_partial_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"t": 0, "schema": 1}\n{"t": 1, "schema": 1')
        tail = TelemetryTail(path)
        assert [r["t"] for r in tail.poll()] == [0]
        with open(path, "a") as handle:
            handle.write('}\n')
        assert [r["t"] for r in tail.poll()] == [1]

    @pytest.mark.parametrize("first, more", [(5, 35), (3, 45)])
    def test_tail_reads_a_rotated_file_from_its_start(self, tmp_path, first, more):
        # (5, 35): five rotations leave a fresh file at least as long as the
        # offset; (3, 45): six, after which a filesystem that recycles freed
        # inodes (ext4) gives the fresh file the polled file's inode
        path = tmp_path / "t.jsonl"
        writer = TelemetryWriter(path, rotate_bytes=400)
        tail = TelemetryTail(path)
        for t in range(first):
            writer.write({"t": t, "latency_ms": 0.001}, tenant="a")
        assert [r["t"] for r in tail.poll()] == list(range(first))
        for t in range(first, first + more):
            writer.write({"t": t, "latency_ms": 0.001}, tenant="a")
        writer.close()
        fresh = [json.loads(line)["t"] for line in path.read_text().splitlines()]
        assert len(fresh) >= first and fresh[0] > first
        assert [r["t"] for r in tail.poll()] == fresh
        assert tail.bad_lines == 0

    def test_reopen_ends_a_torn_last_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TelemetryWriter(path) as writer:
            writer.write({"t": 0, "latency_ms": 0.001}, tenant="a")
        with open(path, "a") as handle:
            handle.write('{"t": 1, "latency_')  # a crash mid-row
        with TelemetryWriter(path) as writer:
            writer.write({"t": 2, "latency_ms": 0.002}, tenant="a")
            writer.flush()
            assert writer._bytes == path.stat().st_size
        text = path.read_text()
        TelemetryWriter(path).close()  # a whole last line is left alone
        assert path.read_text() == text
        tail = TelemetryTail(path)
        assert [r["t"] for r in tail.poll()] == [0, 2]
        assert tail.bad_lines == 1


# --------------------------------------------------------------------------- #
# FleetState rows: encoded straight from the state, byte-equal to json.dumps
# --------------------------------------------------------------------------- #

_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, 1e300, math.inf, -math.inf, math.nan]),
    st.floats(),
)
_TENANTS = st.one_of(
    st.none(),
    st.sampled_from(['q"uote', "back\\slash", "n\u00e4me", "\u540d\u524d", '\\"\u00e9\n\t']),
    st.text(max_size=8),
)


@st.composite
def _fleet_states(draw):
    d = draw(st.integers(1, 4))
    configs = st.integers(0, 10**6) if draw(st.booleans()) else st.floats(0, 1e6)
    config = np.array(draw(st.lists(configs, min_size=d, max_size=d)))
    return FleetState(
        t=draw(st.integers(0, 2**40)),
        demand=draw(st.floats(0, 1e6)),
        config=config,
        operating_cost=draw(_FLOATS),
        switching_cost=draw(_FLOATS),
        cumulative_cost=draw(_FLOATS),
        loads=np.array(draw(st.lists(_FLOATS, min_size=d, max_size=d)), dtype=float),
        feasible=draw(st.booleans()),
        latency_ns=draw(st.integers(0, 10**12)),
        prefix_optimum_cost=draw(st.one_of(st.just(math.nan), _FLOATS)),
        served_demand=draw(st.floats(0, 1e6)),
        shed_demand=draw(st.one_of(st.just(0.0), st.floats(1e-9, 1e6))),
        sla_violation=draw(st.booleans()),
        forced_down=draw(st.sampled_from([0, 1, 3])),
    )


class TestRowEncoder:
    @given(state=_fleet_states(), tenant=_TENANTS)
    @settings(max_examples=300, deadline=None)
    def test_line_is_json_dumps_of_the_stamped_row(self, state, tenant):
        # the dict path every row took before: copy, stamp schema, then tenant
        row = dict(state.as_row())
        row.setdefault("schema", TELEMETRY_SCHEMA_VERSION)
        if tenant is not None:
            row["tenant"] = tenant
        expected = json.dumps(row) + "\n"
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "t.jsonl"
            with TelemetryWriter(path) as writer:
                writer.write(state, tenant=tenant)
                writer.write(state, tenant=tenant)  # the tenant's cached stamp
            assert path.read_text(encoding="utf-8") == expected * 2


# --------------------------------------------------------------------------- #
# latency_percentiles ns path (satellite c)
# --------------------------------------------------------------------------- #


class TestLatencyPercentiles:
    def test_empty_is_exactly_ticks_zero(self):
        assert latency_percentiles([]) == {"ticks": 0}

    def test_ns_path_and_histogram(self):
        ns = [1_000_000, 2_000_000, 3_000_000, 4_000_000]
        out = latency_percentiles(latencies_ns=ns)
        assert out["ticks"] == 4
        assert out["p50_ms"] == 2.5
        hist = out["histogram"]
        assert hist["bucket_le_ns"] == list(LATENCY_BUCKETS_NS)
        assert sum(hist["counts"]) == 4
        # 1ms lands exactly on the 1_000_000 bound: side="left" puts it in
        # the bucket whose bound it equals
        assert hist["counts"][LATENCY_BUCKETS_NS.index(1_000_000)] == 1


# --------------------------------------------------------------------------- #
# Tracer
# --------------------------------------------------------------------------- #


class TestTracer:
    def test_sampling_knob(self):
        tracer = TickTracer(trace_every=3)
        sampled = [tracer.should_sample() for _ in range(9)]
        assert sampled == [True, False, False] * 3
        assert tracer.sampled_ticks == 3

    def test_peek_does_not_consume(self):
        tracer = TickTracer(trace_every=2)
        assert tracer.peek() and tracer.peek()
        assert tracer.should_sample()
        assert not tracer.peek()

    def test_traced_session_is_bit_identical(self):
        instance = _quantised(T=24)
        plain = ControllerSession("A", instance.server_types)
        traced = ControllerSession(
            "A", instance.server_types, tracer=TickTracer(trace_every=2)
        )
        for value in instance.demand:
            plain.observe(float(value))
            traced.observe(float(value))
        plain.finish()
        traced.finish()
        assert np.array_equal(plain.schedule.x, traced.schedule.x)
        assert plain.cumulative_cost == traced.cumulative_cost

    def test_phase_breakdown_and_decide_attribution(self):
        instance = _quantised(T=16)
        tracer = TickTracer(trace_every=1)
        session = ControllerSession("A", instance.server_types, tracer=tracer)
        for value in instance.demand:
            session.observe(float(value))
        session.finish()
        phases = tracer.summary()["phases"]
        assert phases["prepare"]["spans"] == 16
        assert phases["commit"]["spans"] == 16
        decide = sum(
            row["spans"] for name, row in phases.items() if name.startswith("decide[")
        )
        assert decide == 16

    def test_chrome_trace_shape(self, tmp_path):
        tracer = TickTracer()
        tracer.record("prepare", "a", 0, 1000, 2500)
        tracer.record("commit", "b", 0, 2500, 3000)
        trace = tracer.to_chrome_trace()
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert len(events) == 2 and len(meta) == 2
        assert events[0]["ts"] == 0.0 and events[0]["dur"] == 1.5  # µs, rebased
        assert {e["tid"] for e in events} == {1, 2}
        out = tmp_path / "trace.json"
        tracer.dump(out)
        json.loads(out.read_text())

    def test_max_spans_bound(self):
        tracer = TickTracer(max_spans=2)
        for k in range(5):
            tracer.record("p", "a", k, 0, 1)
        assert len(tracer.spans) == 2 and tracer.dropped_spans == 3


# --------------------------------------------------------------------------- #
# Watch: exact summary reproduction + command surface
# --------------------------------------------------------------------------- #


class TestWatch:
    def _engine_with_telemetry(self, tmp_path, n=3, T=24):
        instance = _quantised(T=T)
        engine = ServeEngine(share_caches=True)
        for k in range(n):
            feed = InstanceFeed(
                instance.with_demand(np.roll(instance.demand, k), name=f"t{k}")
            )
            engine.add_tenant(f"t{k}", "A", feed)
        path = tmp_path / "telemetry.jsonl"
        with TelemetryWriter(path) as writer:
            engine.run(telemetry=writer)
        return engine, path

    def test_watch_model_matches_summarise_sessions_exactly(self, tmp_path):
        engine, path = self._engine_with_telemetry(tmp_path)
        model = WatchModel()
        model.ingest_all(TelemetryTail(path).poll())
        assert model.summary() == summarise_sessions(engine.sessions)

    def test_watch_model_shed_and_sla_exact_under_chaos(self, tmp_path):
        instance = _quantised(T=32)
        plan = EventPlan.generate(instance.T, instance.d, seed=7, n_events=4)
        feed = ChaosFeed(InstanceFeed(instance), plan)
        session = ControllerSession(
            "A", instance.server_types, degradation="shed", name="chaotic"
        )
        path = tmp_path / "telemetry.jsonl"
        with TelemetryWriter(path) as writer:
            for tick in feed:
                state = session.observe(
                    tick.demand, cost_row=tick.cost_row, counts=tick.counts
                )
                writer.write(state.as_row(), tenant=session.name)
        session.finish()
        model = WatchModel()
        model.ingest_all(TelemetryTail(path).poll())
        assert model.summary() == summarise_sessions([session])

    def test_expect_gate_passes_and_fails(self, tmp_path, capsys):
        engine, path = self._engine_with_telemetry(tmp_path)
        expected = tmp_path / "expected.json"
        expected.write_text(
            json.dumps({"schema": 1, "summary": summarise_sessions(engine.sessions)})
        )
        assert watch_command(path, expect=str(expected)) == 0
        wrong = summarise_sessions(engine.sessions)
        wrong["total_cost"] += 1.0
        expected.write_text(json.dumps({"summary": wrong}))
        assert watch_command(path, expect=str(expected)) == 1
        assert "MISMATCH" in capsys.readouterr().err

    def test_json_and_html_outputs(self, tmp_path):
        _, path = self._engine_with_telemetry(tmp_path, n=2, T=8)
        json_out = tmp_path / "summary.json"
        html_out = tmp_path / "page.html"
        assert watch_command(path, json_out=str(json_out)) == 0
        payload = json.loads(json_out.read_text())
        assert payload["schema"] == 1 and payload["tenants"] == 2
        assert watch_command(path, html_out=str(html_out)) == 0
        page = html_out.read_text()
        assert page.startswith("<!DOCTYPE html>") and "t0" in page

    def test_missing_path_is_an_error(self, tmp_path):
        assert watch_command(tmp_path / "nope.jsonl", once=True) == 2

    def test_fabric_watcher_reads_run_dir(self, tmp_path):
        worker = tmp_path / "worker-0"
        worker.mkdir()
        (worker / "heartbeat.json").write_text(json.dumps(
            {"schema": 1, "worker": 0, "incarnation": 1, "round": 3,
             "time": 0.0, "ticks": {"a": 9}}
        ))
        (worker / "result.json").write_text(json.dumps(
            {"schema": 1, "worker": 0, "incarnation": 1, "rounds": 4,
             "tenants": {"a": {"status": "drained", "ticks": 12,
                               "breaker": {"state": "closed"}}},
             "metrics": {"schema": 1, "counters": {"ticks{tenant=\"a\"}": 12}}}
        ))
        (tmp_path / "a.ckpt.json").write_text(json.dumps(
            {"tick": 12, "cum_operating": 3.0, "cum_switching": 1.5,
             "sla_violations": 0, "shed_total": 0.0}
        ))
        summary = FabricWatcher(tmp_path).summary()
        worker_row = summary["workers"][0]
        assert worker_row["status"] == "done"
        assert worker_row["tenants"]["a"]["breaker"] == "closed"
        assert worker_row["metric_series"] == 1
        assert summary["totals"] == {
            "ticks": 12, "cost": 4.5, "sla_violations": 0, "shed_demand": 0.0
        }


# --------------------------------------------------------------------------- #
# Registry threading through the serve layers
# --------------------------------------------------------------------------- #


class TestRegistryThreading:
    def test_session_counters_surface_in_registry(self):
        instance = _quantised(T=12)
        session = ControllerSession("A", instance.server_types, name="solo")
        for value in instance.demand:
            session.observe(float(value))
        session.finish()
        snap = session.metrics.snapshot()
        assert snap["counters"]['ticks{tenant="solo"}'] == 12
        hist = snap["histograms"]['tick_latency_ns{tenant="solo"}']
        assert hist["count"] == 12
        assert session.latency_summary()["histogram"]["counts"] == hist["counts"]

    def test_cache_counters_dict_equals_registry_series(self):
        """Each owner's counters are the series its collector mirrors: the
        cache's 12 keys, the engine's raw ``batch_counters()`` keys (as
        unlabelled series) and the injector's 4 keys (as ``chaos_*``)."""
        instance = _quantised(T=12)
        cache = ServeCache(instance.server_types, metrics_label="c0")
        session = ControllerSession("A", instance.server_types, cache=cache)
        for value in instance.demand:
            session.observe(float(value))
        counters = cache.counters()
        snap = cache.metrics.snapshot()
        series = {**snap["counters"], **snap["gauges"]}
        for key, value in counters.items():
            assert series[f'{key}{{cache="c0"}}'] == value

        engine = ServeEngine(share_caches=True)
        for k in range(3):
            feed = InstanceFeed(instance.with_demand(np.roll(instance.demand, k)))
            engine.add_tenant(f"t{k}", "reactive", feed)
        engine.add_tenant("solo", "A", InstanceFeed(instance))
        report = engine.run()
        batch = engine.batch_counters()
        assert batch["batched_ticks"] > 0 and batch["fallback_ticks"] > 0
        for key in ("batched_ticks", "fallback_ticks", "rounds", "cohort_rounds"):
            assert report["metrics"]["counters"][key] == batch[key]

        plan = EventPlan.generate(instance.T, instance.d, seed=3, n_events=4)
        registry = MetricsRegistry()
        injector = FaultInjector(
            plan, server_types=instance.server_types, metrics=registry, tenant="x"
        )
        for tick in InstanceFeed(instance):
            injector.inject(tick)
        snap = registry.snapshot()["counters"]
        for key, value in injector.counters().items():
            assert snap[f'chaos_{key}{{tenant="x"}}'] == value

    def test_series_past_the_cap_account_every_count(self):
        """Five caches and five injectors on a registry capped at four series
        a metric: in one snapshot, the resident series plus the ``evicted``
        fold equal the owners' counters, key by key."""
        instance = _quantised(T=16)
        plan = EventPlan.generate(instance.T, instance.d, seed=3, n_events=4)
        registry = MetricsRegistry(max_series_per_metric=4)
        caches = [
            ServeCache(instance.server_types, metrics=registry, metrics_label=f"c{k}")
            for k in range(5)
        ]
        injectors = [
            FaultInjector(
                plan, server_types=instance.server_types,
                metrics=registry, tenant=f"i{k}",
            )
            for k in range(5)
        ]
        ticks = list(InstanceFeed(instance))
        for k, cache in enumerate(caches):
            session = ControllerSession("A", cache=cache, name=f"s{k}")
            for tick in ticks[: 4 + k]:
                session.observe(tick.demand)
        for k, injector in enumerate(injectors):
            for tick in ticks[: 8 + k]:
                injector.inject(tick)
        snap = registry.snapshot()
        assert snap["evicted"]  # the cap was hit

        def total(name):
            resident = sum(
                value
                for series, value in {**snap["counters"], **snap["gauges"]}.items()
                if series.split("{", 1)[0] == name
            )
            return resident + snap.get("evicted", {}).get(name, {}).get("value", 0)

        for key in caches[0].counters():
            expected = sum(cache.counters()[key] for cache in caches)
            assert total(key) == pytest.approx(expected, abs=1e-9), key
        for key in injectors[0].counters():
            expected = sum(injector.counters()[key] for injector in injectors)
            assert total(f"chaos_{key}") == expected, key

    def test_engine_report_carries_registry_snapshot(self):
        instance = _quantised(T=8)
        engine = ServeEngine(share_caches=True)
        engine.add_tenant("a", "reactive", InstanceFeed(instance))
        report = engine.run()
        metrics = report["metrics"]
        assert metrics["schema"] == 1
        assert metrics["counters"]['ticks{tenant="a"}'] == 8

    def test_chaos_injector_counters(self):
        instance = _quantised(T=16)
        plan = EventPlan.generate(instance.T, instance.d, seed=3, n_events=4)
        registry = MetricsRegistry()
        injector = FaultInjector(
            plan, server_types=instance.server_types,
            metrics=registry, tenant="chaotic",
        )
        perturbed = 0
        for tick in InstanceFeed(instance):
            out = injector.inject(tick)
            perturbed += out is not tick
        counters = injector.counters()
        assert counters["injected_ticks"] == perturbed > 0
        snap = registry.snapshot()["counters"]
        assert snap['chaos_injected_ticks{tenant="chaotic"}'] == perturbed
        assert perturbed <= (
            counters["demand_faults"]
            + counters["capacity_faults"]
            + counters["price_faults"]
        )

    def test_finished_chaos_tenant_keeps_its_series(self):
        instance = build("diurnal-cpu-gpu", T=16)
        plan = EventPlan.generate(16, 2, seed=3, n_events=4)
        reference = FaultInjector(plan, server_types=instance.server_types)
        for tick in InstanceFeed(instance):
            reference.inject(tick)
        engine = ServeEngine()
        engine.add_tenant("c", "A", InstanceFeed(instance), chaos=plan)
        report = engine.run()
        counters = report["metrics"]["counters"]
        for key, value in reference.counters().items():
            assert counters[f'chaos_{key}{{tenant="c"}}'] == value
        assert counters['chaos_injected_ticks{tenant="c"}'] == 5

    @pytest.mark.parametrize("scraped", [True, False], ids=["after-a-report", "between-rounds"])
    def test_released_tenant_keeps_its_last_counts(self, scraped):
        """A released tenant's session and private cache are gone by the
        end-of-run report, which still carries the cache's last counts —
        whether or not a report scraped the registry before the release —
        and the session's as the last report before the release left them
        (its counts travel in its checkpoint)."""
        instance = _quantised(T=16)
        engine = ServeEngine(share_caches=False)
        engine.add_tenant("kept", "A", InstanceFeed(instance))
        engine.add_tenant("gone", "A", InstanceFeed(instance))
        if scraped:
            engine.run(max_ticks=5, finalize=False)
        else:
            for _ in range(5):
                engine.play_round()
        released = engine.release("gone")
        ticks = released.session.ticks
        label = released.session.cache.metrics_label
        cache_counters = released.session.cache.counters()
        owners = [weakref.ref(released.session), weakref.ref(released.session.cache)]
        del released
        gc.collect()
        assert all(owner() is None for owner in owners)
        report = engine.run()
        counters = report["metrics"]["counters"]
        assert ticks == 5
        if scraped:
            assert counters['ticks{tenant="gone"}'] == ticks
        for key in ("tensor_misses", "unique_solves", "slot_queries"):
            assert counters[f'{key}{{cache="{label}"}}'] == cache_counters[key]
