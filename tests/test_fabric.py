"""Tests for the fault-tolerant sharded serve fabric (:mod:`repro.serve.fabric`).

The anchor is the *crash-recovery gate*: SIGKILL a worker process at an
arbitrary round — including mid-window of a ChaosFeed capacity drop with
Algorithm B power-up records open, in both strict and shed degradation modes
— and the recovered schedules must be bit-identical to an uninterrupted run,
costs within 1e-9, SLA counters exact (:func:`verify_crash_recovery`).
Around it: the supervisor primitives (restart policy, heartbeat staleness,
circuit breaker), deterministic sharding, atomic checkpoint rotation with
``.prev`` fallback, bounded ``ServeCache`` memory, ``history=False`` compact
checkpoints, and checkpoint-based live migration.
"""

import gc
import itertools
import json
import os
import re
import signal
import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro import scenarios
from repro.exp.sharding import assign_shards, chunked
from repro.scenarios import build
from repro.serve import (
    SERVE_ALGORITHMS,
    BreakerConfig,
    CheckpointCorruptError,
    CircuitBreaker,
    ControllerSession,
    FabricError,
    InstanceFeed,
    RestartPolicy,
    ServeCache,
    ServeEngine,
    ServeFabric,
    TenantSpec,
    assert_same,
    build_feed,
    load_checkpoint,
    previous_checkpoint_path,
    replay,
    save_checkpoint,
    verify_crash_recovery,
)
from repro.serve.fabric import _materialise
from repro.serve.feed import FeedError, ScenarioFeed, TraceFeed, write_jsonl_trace
from repro.serve.supervisor import (
    Supervisor,
    WorkerHandle,
    read_json,
    write_json_atomic,
)
from repro.workloads.scale import quantise_trace

SCENARIO = "diurnal-cpu-gpu"


def _smoke_instance(name=SCENARIO):
    fam = scenarios.family(name)
    return build(scenarios.ScenarioSpec(name, dict(fam.smoke_params)))


def _assert_matches_replay(spec: TenantSpec, row: dict) -> None:
    """A tenant's final fabric checkpoint equals the oracle's in-process replay."""
    feed, server_types = _materialise(spec)
    assert_same(
        replay(spec.session(server_types), feed),
        load_checkpoint(row["checkpoint"]),
        label=spec.name,
        tolerance=1e-9,
    )


# --------------------------------------------------------------------------- #
# Sharding helpers (shared with the sweep engine)
# --------------------------------------------------------------------------- #


class TestSharding:
    def test_affinity_equal_keys_share_a_shard(self):
        keys = ["a", "b", "a", "c", "b", "a"]
        assignment = assign_shards(keys, 3)
        by_key = {}
        for key, shard in zip(keys, assignment):
            by_key.setdefault(key, set()).add(shard)
        assert all(len(shards) == 1 for shards in by_key.values())

    def test_deterministic_and_balanced(self):
        keys = [f"k{i}" for i in range(10)]
        first = assign_shards(keys, 3)
        assert first == assign_shards(keys, 3)
        loads = [first.count(s) for s in range(3)]
        assert max(loads) - min(loads) <= 1

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError, match="n_shards"):
            assign_shards(["a"], 0)

    def test_chunked(self):
        assert list(chunked([1, 2, 3, 4, 5], 2)) == [[1, 2], [3, 4], [5]]


# --------------------------------------------------------------------------- #
# Supervisor primitives
# --------------------------------------------------------------------------- #


class TestRestartPolicy:
    def test_backoff_grows_exponentially_and_caps(self):
        policy = RestartPolicy(backoff_seconds=0.1, backoff_factor=2.0, max_backoff_seconds=0.5)
        assert policy.backoff_for(0) == pytest.approx(0.1)
        assert policy.backoff_for(1) == pytest.approx(0.2)
        assert policy.backoff_for(2) == pytest.approx(0.4)
        assert policy.backoff_for(3) == pytest.approx(0.5)  # capped
        assert policy.backoff_for(10) == pytest.approx(0.5)


class TestCircuitBreaker:
    def test_stays_closed_below_threshold(self):
        breaker = CircuitBreaker(BreakerConfig(failure_threshold=3))
        assert breaker.allow(0)
        breaker.record_failure(0)
        breaker.record_failure(1)
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow(2)

    def test_success_resets_consecutive_failures(self):
        breaker = CircuitBreaker(BreakerConfig(failure_threshold=2))
        breaker.record_failure(0)
        breaker.record_success()
        breaker.record_failure(1)
        assert breaker.state == CircuitBreaker.CLOSED

    def test_opens_quarantines_then_half_open_probe(self):
        breaker = CircuitBreaker(BreakerConfig(failure_threshold=2, cooldown_rounds=4))
        breaker.record_failure(0)
        breaker.record_failure(1)
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow(2)  # quarantined
        assert not breaker.allow(4)
        assert breaker.allow(5)  # round >= 1 + 4: half-open probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.probes == 1
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_failed_probe_reopens_with_longer_cooldown(self):
        config = BreakerConfig(
            failure_threshold=1, cooldown_rounds=2, backoff_factor=2.0,
            max_cooldown_rounds=8, max_opens=10,
        )
        breaker = CircuitBreaker(config)
        breaker.record_failure(0)  # open #1 until round 2, cooldown -> 4
        assert breaker.allow(2)
        breaker.record_failure(2)  # failed probe: open #2 until round 6
        assert breaker.opens == 2
        assert not breaker.allow(5)
        assert breaker.allow(6)
        breaker.record_failure(6)  # open #3 until 6 + 8 (capped cooldown)
        assert not breaker.allow(13)
        assert breaker.allow(14)

    def test_exhausted_after_max_opens(self):
        breaker = CircuitBreaker(BreakerConfig(failure_threshold=1, cooldown_rounds=1, max_opens=2))
        breaker.record_failure(0)
        assert not breaker.exhausted
        breaker.allow(1)
        breaker.record_failure(1)
        assert breaker.exhausted
        counters = breaker.counters()
        assert counters["opens"] == 2 and counters["failures"] == 2

    def test_config_round_trips(self):
        config = BreakerConfig(failure_threshold=7, max_opens=1)
        assert BreakerConfig.from_dict(config.to_dict()) == config
        assert BreakerConfig.from_dict(None) == BreakerConfig()


class TestAtomicJson:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "state.json"
        write_json_atomic(path, {"round": 3})
        assert read_json(path) == {"round": 3}
        assert not list(tmp_path.glob("*.tmp*"))

    def test_read_missing_or_garbled_returns_default(self, tmp_path):
        assert read_json(tmp_path / "absent.json", default={"x": 1}) == {"x": 1}
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert read_json(bad) is None


class TestSupervisorRestartBudget:
    def test_crash_loop_exhausts_budget_and_fails(self, tmp_path):
        """A deterministically crashing worker restarts through its budget,
        then is marked failed permanently — the fabric must not spin."""
        import multiprocessing

        ctx = multiprocessing.get_context("fork")

        def spawn(worker_id, incarnation):
            process = ctx.Process(target=os._exit, args=(3,), daemon=True)
            process.start()
            return process

        handle = WorkerHandle(id=0, directory=tmp_path)
        policy = RestartPolicy(
            max_restarts=2, window_seconds=60.0,
            backoff_seconds=0.01, max_backoff_seconds=0.02,
        )
        supervisor = Supervisor([handle], spawn, policy, poll_interval=0.005)
        supervisor.start()
        supervisor.run(timeout=30.0)
        assert handle.status == "failed"
        assert handle.restarts == 2
        assert handle.exit_reason
        kinds = [e["event"] for e in supervisor.events]
        assert kinds.count("worker_restart") == 2
        assert "worker_failed" in kinds


# --------------------------------------------------------------------------- #
# Atomic checkpoints with rotation (satellite: torn-write safety)
# --------------------------------------------------------------------------- #


class TestCheckpointRotation:
    def _payloads(self):
        instance = _smoke_instance()
        session = ControllerSession("A", instance.server_types)
        ticks = list(InstanceFeed(instance))
        for tick in ticks[:4]:
            session.observe(tick.demand, cost_row=tick.cost_row, counts=tick.counts)
        first = session.checkpoint()
        for tick in ticks[4:8]:
            session.observe(tick.demand, cost_row=tick.cost_row, counts=tick.counts)
        return first, session.checkpoint()

    def test_save_rotates_previous_intact_checkpoint(self, tmp_path):
        first, second = self._payloads()
        path = tmp_path / "t.ckpt.json"
        save_checkpoint(path, first)
        assert not previous_checkpoint_path(path).exists()
        save_checkpoint(path, second)
        assert load_checkpoint(path)["tick"] == second["tick"]
        prev = json.loads(previous_checkpoint_path(path).read_text())
        assert prev["tick"] == first["tick"]
        assert not list(tmp_path.glob("*.tmp*"))  # no torn/temp leftovers

    def test_corrupt_main_falls_back_to_previous(self, tmp_path):
        first, second = self._payloads()
        path = tmp_path / "t.ckpt.json"
        save_checkpoint(path, first)
        save_checkpoint(path, second)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])  # torn write
        recovered = load_checkpoint(path)
        assert recovered["tick"] == first["tick"]

    def test_both_corrupt_fails_loudly(self, tmp_path):
        first, second = self._payloads()
        path = tmp_path / "t.ckpt.json"
        save_checkpoint(path, first)
        save_checkpoint(path, second)
        path.write_text("{torn")
        previous_checkpoint_path(path).write_text("also torn")
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    def test_tampered_payload_fails_checksum_on_restore(self):
        first, _ = self._payloads()
        instance = _smoke_instance()
        fresh = ControllerSession("A", instance.server_types)
        tampered = dict(first)
        tampered["tick"] = int(tampered["tick"]) + 1
        with pytest.raises(CheckpointCorruptError, match="integrity"):
            fresh.restore(tampered)


# --------------------------------------------------------------------------- #
# Bounded ServeCache memory (satellite: LRU ledger / tensor budgets)
# --------------------------------------------------------------------------- #


class TestServeCacheBudgets:
    def _run(self, instance, algorithm, **cache_kwargs):
        cache = ServeCache(instance.server_types, **cache_kwargs)
        session = ControllerSession(algorithm, cache=cache)
        for tick in InstanceFeed(instance):
            session.observe(tick.demand, cost_row=tick.cost_row, counts=tick.counts)
        session.finish()
        return session, cache

    def test_ledger_budget_caps_slots_and_changes_nothing_numerically(self):
        instance = _smoke_instance()
        free_session, free_cache = self._run(instance, "A")
        assert free_cache.ledger_evictions == 0
        budget = max(2, free_cache.virtual_slots // 3)
        capped_session, capped_cache = self._run(instance, "A", ledger_budget=budget)
        assert capped_cache.virtual_slots <= budget
        assert capped_cache.ledger_evictions > 0
        assert np.array_equal(capped_session.schedule.x, free_session.schedule.x)
        assert capped_session.cumulative_cost == free_session.cumulative_cost
        counters = capped_cache.counters()
        assert counters["ledger_evictions"] == capped_cache.ledger_evictions

    def test_budget_validation(self):
        """``ledger_budget`` is ``None`` or an integer >= 1 that is not a
        bool, on the cache, the engine and the fabric alike: nothing is
        truncated or coerced on the way to the caches."""
        instance = _smoke_instance()
        constructors = [
            lambda budget: ServeCache(instance.server_types, ledger_budget=budget),
            lambda budget: ServeEngine(ledger_budget=budget),
            lambda budget: ServeFabric(workers=1, ledger_budget=budget),
        ]
        for construct in constructors:
            for budget in (2.9, True, "3", 0, -1):
                with pytest.raises(ValueError, match=re.escape(f"got {budget!r}")):
                    construct(budget)
            assert construct(np.int64(3)).ledger_budget == 3
            assert construct(None).ledger_budget is None


# --------------------------------------------------------------------------- #
# Compact (history=False) checkpoints (satellite: month-scale controllers)
# --------------------------------------------------------------------------- #


class TestCompactHistory:
    def test_compact_checkpoint_drops_per_tick_rows_and_still_restores(self):
        instance = _smoke_instance()
        ticks = list(InstanceFeed(instance))
        half = len(ticks) // 2

        full = ControllerSession("A", instance.server_types)
        for tick in ticks:
            full.observe(tick.demand, cost_row=tick.cost_row, counts=tick.counts)
        full.finish()

        compact = ControllerSession("A", instance.server_types, history=False)
        for tick in ticks[:half]:
            compact.observe(tick.demand, cost_row=tick.cost_row, counts=tick.counts)
        payload = compact.checkpoint()
        assert "configs" not in payload and "latencies_s" not in payload

        resumed = ControllerSession("A", instance.server_types, history=False)
        resumed.restore(payload)
        for tick in ticks[half:]:
            resumed.observe(tick.demand, cost_row=tick.cost_row, counts=tick.counts)
        resumed.finish()
        assert resumed.ticks == full.ticks
        assert resumed.cumulative_cost == pytest.approx(full.cumulative_cost, abs=1e-9)

    def test_compact_schedule_access_raises(self):
        instance = _smoke_instance()
        session = ControllerSession("A", instance.server_types, history=False)
        session.observe(float(instance.demand[0]))
        with pytest.raises(ValueError, match="history=False"):
            session.schedule

    def test_compact_payload_is_constant_size_in_stream_length(self):
        from repro.workloads import named_trace

        instance = _smoke_instance()
        demands = named_trace("diurnal", 160, np.random.default_rng(0))

        def payload_bytes(history, upto):
            session = ControllerSession("A", instance.server_types, history=history)
            for demand in demands[:upto]:
                session.observe(float(demand))
            return len(json.dumps(session.checkpoint()).encode())

        full = payload_bytes(True, 160)
        compact = payload_bytes(False, 160)
        assert compact < full / 2, (compact, full)
        # compact payloads do not grow with the tick count (O(1) vs O(T))
        growth = payload_bytes(False, 160) - payload_bytes(False, 80)
        assert abs(growth) < 64, growth
        assert payload_bytes(True, 160) - payload_bytes(True, 80) > 500

    @staticmethod
    def _heap_growth(session, ticks, warmup: int) -> int:
        """Traced-heap growth over 4,096 ticks of ``session`` after ``warmup`` ticks."""
        for _ in range(warmup):
            session.observe(next(ticks))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(4096):
                session.observe(next(ticks))
            gc.collect()
            return tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("kind", sorted(SERVE_ALGORITHMS))
    def test_compact_session_memory_stays_flat(self, kind):
        """A prewarmed quantised history=False session retains nothing per
        tick: after a 1,024-tick warm-up, 4,096 more ticks grow the traced
        heap by less than 512 KB (bounded memos may still fill up)."""
        instance = build(SCENARIO, T=96)
        demand = [float(v) for v in quantise_trace(instance.demand, levels=8)]
        cache = ServeCache(instance.server_types)
        cache.prewarm(sorted(set(demand)))
        session = ControllerSession(kind, cache=cache, history=False)
        grown = self._heap_growth(session, itertools.cycle(demand), warmup=1024)
        assert grown < 512 * 1024, grown

    @pytest.mark.parametrize("kind", sorted(SERVE_ALGORITHMS))
    def test_compact_continuous_session_memory_stays_flat_under_a_ledger_budget(self, kind):
        """On continuous demand every tick is a new level, and
        ``ledger_budget`` alone bounds the cache: an evicted ledger slot's
        grid tensors go with it.  After a 256-tick warm-up, 4,096 more ticks
        of a history=False session grow the traced heap by less than 512 KB
        (a d = 1 fleet keeps the traced run short)."""
        instance = build("homogeneous", T=96)
        capacity = float(np.sum(instance.m * instance.zmax))
        demand = np.random.default_rng(7).uniform(0.05, 0.95 * capacity, 256 + 4096)
        cache = ServeCache(instance.server_types, ledger_budget=8)
        session = ControllerSession(kind, cache=cache, history=False)
        grown = self._heap_growth(session, iter(demand.tolist()), warmup=256)
        assert grown < 512 * 1024, grown
        assert cache.virtual_slots <= 8 and len(cache._tensors) <= 8


# --------------------------------------------------------------------------- #
# Engine checkpoint cadence
# --------------------------------------------------------------------------- #


class TestEngineCheckpointCadence:
    def test_engine_writes_periodic_and_final_checkpoints(self, tmp_path):
        instance = _smoke_instance()
        engine = ServeEngine()
        engine.add_tenant("t0", "A", InstanceFeed(instance))
        engine.run(checkpoint_dir=tmp_path, checkpoint_every=4)
        path = tmp_path / "t0.ckpt.json"
        payload = load_checkpoint(path)
        assert payload["tick"] == engine.session("t0").ticks
        # the cadence rotated at least one earlier checkpoint into .prev
        assert previous_checkpoint_path(path).exists()
        restored = ControllerSession("A", instance.server_types).restore(payload)
        assert restored.cumulative_cost == pytest.approx(
            engine.session("t0").cumulative_cost, abs=1e-12
        )

    @pytest.mark.parametrize("T, written", [(8, [4, 8]), (10, [4, 8, 10])])
    def test_the_last_tick_is_written_once(self, tmp_path, monkeypatch, T, written):
        """A stream whose length is a multiple of the cadence ends on a
        cadence write, and the end of the stream writes nothing more; the
        final file is the payload of the finished session."""
        import repro.serve.engine as engine_module

        ticks = []

        def spy(path, payload, keep_previous=True):
            ticks.append(payload["tick"])
            return save_checkpoint(path, payload, keep_previous)

        monkeypatch.setattr(engine_module, "save_checkpoint", spy)
        instance = build(SCENARIO, T=T)
        engine = ServeEngine()
        engine.add_tenant("t0", "B", InstanceFeed(instance))
        engine.run(checkpoint_dir=tmp_path, checkpoint_every=4)
        assert ticks == written
        assert load_checkpoint(tmp_path / "t0.ckpt.json") == engine.session("t0").checkpoint()


# --------------------------------------------------------------------------- #
# TenantSpec and fabric registration
# --------------------------------------------------------------------------- #


class TestTenantSpec:
    def test_round_trip(self):
        spec = TenantSpec(
            name="t",
            algorithm={"kind": "B", "params": {}},
            feed={"kind": "scenario", "scenario": SCENARIO, "seed": 3},
            fleet=None,
            chaos={"events": [{"kind": "price_shock", "t": 2, "duration": 1, "magnitude": 2.0}]},
            degradation="shed",
            history=False,
            track_regret=False,
            shard_key="g",
        )
        assert TenantSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_add_tenant_normalises_and_validates(self):
        fabric = ServeFabric(workers=2)
        spec = fabric.add_tenant(
            "a", algorithm="B", feed={"scenario": SCENARIO, "seed": 0}, fleet=SCENARIO
        )
        assert spec.algorithm == {"kind": "B", "params": {}}
        assert spec.fleet == {"scenario": SCENARIO}
        with pytest.raises(ValueError, match="already registered"):
            fabric.add_tenant("a", feed={"scenario": SCENARIO})
        with pytest.raises(TypeError, match="declarative feed"):
            fabric.add_tenant("live", feed=ScenarioFeed(SCENARIO, seed=0))
        with pytest.raises(ValueError, match="feed spec is required"):
            fabric.add_tenant("nofeed")

    def test_default_shard_keys_split_by_seed_group_opts_into_sharing(self):
        fabric = ServeFabric(workers=2)
        a = fabric.add_tenant("a", feed={"scenario": SCENARIO, "seed": 0})
        b = fabric.add_tenant("b", feed={"scenario": SCENARIO, "seed": 1})
        assert a.shard_key != b.shard_key  # sharing is opt-in, never accidental
        c = fabric.add_tenant("c", feed={"scenario": SCENARIO, "seed": 2}, group="g")
        d = fabric.add_tenant("d", feed={"scenario": SCENARIO, "seed": 3}, group="g")
        assert c.shard_key == d.shard_key == "g"

    def test_materialise_requires_fleet_for_demand_only_feeds(self):
        spec = TenantSpec(
            name="t", algorithm={"kind": "A", "params": {}},
            feed={"kind": "array", "demands": [1.0, 2.0]},
        )
        with pytest.raises(FeedError, match="fleet"):
            _materialise(spec)

    def test_build_feed_kinds(self, tmp_path):
        assert isinstance(build_feed({"scenario": SCENARIO, "seed": 0}), TraceFeed)
        assert list(build_feed({"kind": "array", "demands": [1.0, 2.0]}))
        trace = tmp_path / "demands.jsonl"
        write_jsonl_trace(trace, [1.0, 2.0, 3.0])
        assert len(list(build_feed({"kind": "jsonl", "path": str(trace)}))) == 3
        with pytest.raises(ValueError, match="unknown feed kind"):
            build_feed({"kind": "nope"})


# --------------------------------------------------------------------------- #
# Fabric integration: healthy path, crashes, chaos, migration, bad feeds
# --------------------------------------------------------------------------- #


class TestFabricRuns:
    def test_healthy_run_matches_in_process_replay(self, tmp_path):
        fabric = ServeFabric(workers=2, run_dir=tmp_path, checkpoint_every=4)
        for i in range(2):
            fabric.add_tenant(f"t{i}", algorithm="A", feed={"scenario": SCENARIO, "seed": i})
        report = fabric.run()
        assert report["totals"]["restarts"] == 0
        for name, spec in fabric.tenants.items():
            row = report["tenants"][name]
            assert row["status"] == "completed"
            _assert_matches_replay(spec, row)
        assert {report["tenants"][n]["worker"] for n in fabric.tenants} == {0, 1}

    def test_grouped_tenants_are_colocated(self, tmp_path):
        fabric = ServeFabric(workers=2, run_dir=tmp_path)
        fabric.add_tenant("a", feed={"scenario": SCENARIO, "seed": 0}, group="g")
        fabric.add_tenant("b", feed={"scenario": SCENARIO, "seed": 1}, group="g")
        fabric.add_tenant("c", feed={"scenario": SCENARIO, "seed": 2})
        report = fabric.run()
        assert report["tenants"]["a"]["worker"] == report["tenants"]["b"]["worker"]
        assert all(report["tenants"][n]["status"] == "completed" for n in "abc")

    def test_grouped_tenants_decide_in_cohorts(self, tmp_path):
        """A worker's engine resolves its rounds through the cohorts: four A
        tenants sharing one cache batch, and each ends where its own replay
        does."""
        fabric = ServeFabric(workers=1, run_dir=tmp_path, checkpoint_every=4)
        for i in range(4):
            fabric.add_tenant(
                f"t{i}", algorithm="A", feed={"scenario": SCENARIO, "seed": i}, group="g"
            )
        report = fabric.run()
        assert report["metrics"]["counters"]["batched_ticks"] > 0
        for name, spec in fabric.tenants.items():
            row = report["tenants"][name]
            assert row["status"] == "completed"
            _assert_matches_replay(spec, row)

    def test_crash_recovery_gate(self, tmp_path):
        out = verify_crash_recovery(
            n_tenants=2, workers=2, kill_worker=0, checkpoint_every=4,
            run_dir=tmp_path,
        )
        assert out["verified"]
        assert out["restarts"] >= 1
        assert out["max_cost_delta"] == 0.0
        assert out["recovery_latency_s"], "recovery latency must be measured"

    def test_migration_completes_and_preserves_costs(self, tmp_path):
        fabric = ServeFabric(workers=2, run_dir=tmp_path, checkpoint_every=4)
        fabric.add_tenant("t0", algorithm="A", feed={"scenario": SCENARIO, "seed": 0})
        fabric.add_tenant("t1", algorithm="A", feed={"scenario": SCENARIO, "seed": 1})
        fabric.migrate("t0", 1, after_round=6)
        report = fabric.run()
        migration = report["migrations"][0]
        assert migration["state"] == "done"
        assert report["totals"]["migrations_completed"] == 1
        row = report["tenants"]["t0"]
        assert row["status"] == "completed"
        _assert_matches_replay(fabric.tenants["t0"], row)

    def test_migration_to_a_finishing_worker_is_adopted(self, tmp_path, monkeypatch):
        """A target whose last tenant ends in the round a migration hands it a
        tenant finishes without syncing that control; the fabric revives it.

        The interleaving is forced, not left to the host's load: the target
        (worker 1) holds its final step until its control file changes, and
        the source (worker 0) releases only once the target holds there.
        The workers fork from this process, so they run both patches.
        """
        from repro.serve import fabric as fabric_module

        runtime = fabric_module._WorkerRuntime
        finish, release = runtime._finish, runtime._release
        holding = tmp_path / "target-holds"

        def wait_for(condition):
            deadline = time.monotonic() + 5.0
            while not condition() and time.monotonic() < deadline:
                time.sleep(0.005)

        def held_finish(self):
            if self.worker_id == 1 and self.incarnation == 0:
                holding.touch()
                control = self.dir / fabric_module.CONTROL_FILE
                wait_for(lambda: read_json(control)["epoch"] != self._epoch)
            finish(self)

        def gated_release(self, name):
            wait_for(holding.exists)
            release(self, name)

        monkeypatch.setattr(runtime, "_finish", held_finish)
        monkeypatch.setattr(runtime, "_release", gated_release)
        fabric = ServeFabric(workers=2, run_dir=tmp_path / "run", checkpoint_every=4)
        fabric.add_tenant("t0", algorithm="A", feed={"scenario": SCENARIO, "seed": 0})
        fabric.add_tenant(
            "t1", algorithm="A", feed={"scenario": SCENARIO, "seed": 1, "params": {"T": 3}}
        )
        assert assign_shards([s.shard_key for s in fabric.tenants.values()], 2) == [0, 1]
        fabric.migrate("t0", 1, after_round=1)
        report = fabric.run()
        assert report["migrations"][0]["state"] == "done"
        assert holding.exists()
        row = report["tenants"]["t0"]
        assert row["status"] == "completed"
        assert row["worker"] == 1
        _assert_matches_replay(fabric.tenants["t0"], row)

    def test_broken_feed_is_quarantined_not_fatal(self, tmp_path):
        """A feed that keeps raising trips the breaker, exhausts its opens and
        abandons only that tenant — the co-resident tenant still completes."""
        trace = tmp_path / "bad.jsonl"
        write_jsonl_trace(trace, np.linspace(1.0, 3.0, 12))
        with trace.open("a") as fh:
            fh.write("{torn line\n")  # permanently malformed tail
        def build_fabric(run_dir):
            fabric = ServeFabric(
                workers=1, run_dir=run_dir,
                breaker=BreakerConfig(failure_threshold=2, cooldown_rounds=2,
                                      max_cooldown_rounds=8, max_opens=2),
            )
            fabric.add_tenant("good", feed={"scenario": SCENARIO, "seed": 0})
            fabric.add_tenant(
                "bad", feed={"kind": "jsonl", "path": str(trace)}, fleet=SCENARIO
            )
            return fabric

        with pytest.raises(FabricError):
            build_fabric(tmp_path / "run-raise").run()
        report = build_fabric(tmp_path / "run").run(raise_on_failure=False)
        good, bad = report["tenants"]["good"], report["tenants"]["bad"]
        assert good["status"] == "completed"
        assert bad["status"] == "failed"
        assert bad["breaker"]["opens"] == 2
        assert bad["quarantined_rounds"] > 0
        assert bad["feed_rebuilds"] >= 1
        assert "malformed" in bad["last_error"]
        assert bad["ticks"] == 12  # every intact tick was served and checkpointed

    def test_stale_heartbeat_worker_is_killed_and_recovered(self, tmp_path):
        """A hung (SIGSTOPped) worker misses its heartbeat deadline: the
        supervisor SIGKILLs it and recovery completes the stream."""
        fabric = ServeFabric(
            workers=1, run_dir=tmp_path, checkpoint_every=8,
            heartbeat_timeout=0.5, poll_interval=0.01,
        )
        fabric.add_tenant(
            "t0",
            feed={"kind": "synthetic", "source": "diurnal", "slots": 600, "seed": 0},
            fleet=SCENARIO,
        )
        heartbeat = tmp_path / "worker-0" / "heartbeat.json"

        def hang_worker():
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                row = read_json(heartbeat)
                if row and row.get("pid"):
                    try:
                        os.kill(int(row["pid"]), signal.SIGSTOP)
                    except ProcessLookupError:
                        pass
                    return
                time.sleep(0.005)

        hanger = threading.Thread(target=hang_worker, daemon=True)
        hanger.start()
        report = fabric.run(timeout=60.0)
        hanger.join()
        assert report["workers"]["0"]["restarts"] >= 1
        assert report["tenants"]["t0"]["status"] == "completed"
        assert report["tenants"]["t0"]["ticks"] == 600
        assert any(e["event"] == "worker_crash" for e in report["events"])


# --------------------------------------------------------------------------- #
# The ISSUE satellite: SIGKILL mid-chaos-window with Algorithm B records open
# --------------------------------------------------------------------------- #


class TestCrashRecoveryUnderChaos:
    """SIGKILL + restore while a ChaosFeed capacity drop is mid-window and
    Algorithm B has open power-up records — strict and shed modes."""

    def test_shed_mode_mid_capacity_drop(self, tmp_path):
        chaos = {
            "events": [
                {"kind": "capacity_drop", "t": 18, "duration": 14, "magnitude": 0.5},
                {"kind": "flash_crowd", "t": 20, "duration": 10, "magnitude": 2.5},
            ]
        }
        out = verify_crash_recovery(
            n_tenants=2, workers=2, kill_worker=0, kill_round=24,  # inside [18, 32)
            algorithm="B", degradation="shed", chaos=chaos,
            checkpoint_every=4, run_dir=tmp_path,
        )
        assert out["verified"]
        assert out["restarts"] >= 1
        assert out["max_cost_delta"] == 0.0
        assert out["sla_violations"] > 0  # the drop+crowd actually bit

    def test_strict_mode_mid_capacity_drop(self, tmp_path):
        # a mild drop keeps B's configurations feasible, so strict mode never
        # sheds — yet the kill still lands while the fleet is shrunken and
        # B's power-up records are open
        chaos = {
            "events": [
                {"kind": "capacity_drop", "t": 18, "duration": 14, "magnitude": 0.2},
            ]
        }
        out = verify_crash_recovery(
            n_tenants=2, workers=2, kill_worker=0, kill_round=24,
            algorithm="B", degradation="strict", chaos=chaos,
            checkpoint_every=4, run_dir=tmp_path,
        )
        assert out["verified"]
        assert out["restarts"] >= 1
        assert out["max_cost_delta"] == 0.0
        assert out["sla_violations"] == 0
