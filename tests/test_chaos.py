"""Tests for the chaos layer: event plans, fault injection, graceful degradation.

Three contracts are exercised end to end:

* **event plans** (:mod:`repro.scenarios.events`) are seeded, JSON-round-trip
  exactly, and bake into batch-feasible instances via ``apply_event_plan``;
* **graceful degradation**: shed-mode sessions absorb mid-stream faults
  (overload, unplanned machine loss under open Algorithm-B power-up records)
  without raising, with deterministic SLA accounting flowing into
  ``FleetState.as_row`` and the engine report — while strict mode keeps
  raising, so the batch-equivalence gates lose nothing;
* **determinism**: same seed + same event plan ⇒ bit-identical schedules and
  SLA counters, including across a JSON checkpoint/restore round-trip and
  through hardened inputs (JSONL feeds with line-level errors/checksums,
  checkpoints with integrity checksums).
"""

import json

import numpy as np
import pytest

from repro import scenarios
from repro.online import AlgorithmA, AlgorithmB, run_online
from repro.online.adversary import adaptive_adversary, interleaved_ski_rental_instance
from repro.scenarios import ScenarioSpec
from repro.scenarios.events import EVENT_KINDS, ChaosEvent, EventPlan, apply_event_plan
from repro.scenarios.registry import ScenarioParamError
from repro.serve import (
    ChaosFeed,
    CheckpointCorruptError,
    ControllerSession,
    FaultInjector,
    FeedError,
    InstanceFeed,
    JsonlFeed,
    ServeEngine,
    Tick,
    load_checkpoint,
    payload_checksum,
    verify_chaos_replay,
    verify_replay,
    write_jsonl_trace,
)
from repro.serve.session import CHECKPOINT_VERSION
from repro.workloads.fleets import cpu_gpu_fleet, single_type_fleet


CHAOS_FAMILIES = [n for n in scenarios.names() if n.startswith("chaos-")]


# --------------------------------------------------------------------------- #
# Event plans
# --------------------------------------------------------------------------- #


class TestChaosEvent:
    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            ChaosEvent("meteor", t=1)
        with pytest.raises(ValueError, match="magnitude"):
            ChaosEvent("flash_crowd", t=1, magnitude=0.0)
        with pytest.raises(ValueError, match="fraction"):
            ChaosEvent("capacity_drop", t=1, magnitude=1.5)
        with pytest.raises(ValueError, match="duration"):
            ChaosEvent("price_shock", t=1, duration=0)

    def test_window(self):
        event = ChaosEvent("price_shock", t=3, duration=2)
        assert not event.active_at(2)
        assert event.active_at(3) and event.active_at(4)
        assert not event.active_at(5)

    def test_dict_round_trip(self):
        event = ChaosEvent("capacity_drop", t=2, duration=3, magnitude=0.5, type_index=1)
        assert ChaosEvent.from_dict(event.to_dict()) == event


class TestEventPlan:
    def test_generate_deterministic(self):
        a = EventPlan.generate(24, 2, seed=11)
        b = EventPlan.generate(24, 2, seed=11)
        assert a == b
        assert a.seed == 11
        assert EventPlan.generate(24, 2, seed=12) != a

    def test_generate_windows_inside_horizon(self):
        plan = EventPlan.generate(16, 2, seed=3, n_events=20)
        assert all(1 <= e.t < 16 for e in plan.events)
        assert all(e.duration >= 1 for e in plan.events)

    def test_json_round_trip(self):
        plan = EventPlan.generate(24, 2, seed=5)
        assert EventPlan.from_json(plan.to_json()) == plan
        # parse accepts plans, dicts, event lists, JSON text and None
        assert EventPlan.parse(plan) is plan
        assert EventPlan.parse(plan.to_dict()) == plan
        assert EventPlan.parse(list(plan.events)).events == plan.events
        assert EventPlan.parse(None) == EventPlan()

    def test_counts_at_compounds_and_recovers(self):
        plan = EventPlan(events=(
            ChaosEvent("capacity_drop", t=2, duration=2, magnitude=0.5),
            ChaosEvent("capacity_drop", t=3, duration=1, magnitude=0.5, type_index=0),
        ))
        base = np.array([4, 2])
        assert np.array_equal(plan.counts_at(1, base), base)
        assert np.array_equal(plan.counts_at(2, base), [2, 1])
        # overlapping drops compound sequentially at t=3
        assert np.array_equal(plan.counts_at(3, base), [1, 1])
        assert np.array_equal(plan.counts_at(4, base), base)

    def test_counts_at_always_removes_at_least_one(self):
        plan = EventPlan(events=(ChaosEvent("capacity_drop", t=0, magnitude=0.01),))
        assert np.array_equal(plan.counts_at(0, np.array([3])), [2])
        assert np.array_equal(plan.counts_at(0, np.array([0])), [0])

    def test_factors(self):
        plan = EventPlan(events=(
            ChaosEvent("price_shock", t=1, duration=2, magnitude=2.0),
            ChaosEvent("price_shock", t=2, duration=1, magnitude=3.0),
            ChaosEvent("flash_crowd", t=2, duration=1, magnitude=4.0),
        ))
        assert plan.price_factor_at(0) == 1.0
        assert plan.price_factor_at(1) == 2.0
        assert plan.price_factor_at(2) == 6.0
        assert plan.demand_factor_at(2) == 4.0


class TestApplyEventPlan:
    def test_baked_instance_stays_feasible(self):
        base = scenarios.build("diurnal-cpu-gpu", T=16)
        # price shocks and flash crowds are batch-safe for any algorithm;
        # baked capacity drops need tuned windows (chaos-outage) because an
        # online algorithm's already-powered machines may exceed shrunken
        # counts — unplanned drops are the serve layer's job
        plan = EventPlan.generate(16, 2, seed=9, n_events=6,
                                  kinds=("price_shock", "flash_crowd"))
        inst = apply_event_plan(base, plan, cap_fraction=0.9)
        # strict batch validation must accept the baked instance
        result = run_online(inst, AlgorithmA())
        assert np.isfinite(result.cost)

    def test_flash_crowd_raises_demand(self):
        base = scenarios.build("diurnal-cpu-gpu", T=12)
        plan = EventPlan(events=(ChaosEvent("flash_crowd", t=4, duration=2, magnitude=1.5),))
        inst = apply_event_plan(base, plan)
        assert inst.demand[4] > base.demand[4]
        assert inst.demand[0] == base.demand[0]

    def test_price_shock_scales_costs(self):
        base = scenarios.build("diurnal-cpu-gpu", T=8)
        plan = EventPlan(events=(ChaosEvent("price_shock", t=3, duration=1, magnitude=2.0),))
        inst = apply_event_plan(base, plan)
        z = 0.5
        assert inst.cost_row(3)[0].value(z) == pytest.approx(2.0 * base.cost_row(3)[0].value(z))
        assert inst.cost_row(2)[0].value(z) == pytest.approx(base.cost_row(2)[0].value(z))


# --------------------------------------------------------------------------- #
# Chaos scenario families
# --------------------------------------------------------------------------- #


class TestChaosFamilies:
    def test_family_set_registered(self):
        assert set(CHAOS_FAMILIES) >= {
            "chaos-outage", "chaos-price-shock", "chaos-flash-crowd", "chaos-mixed",
            "chaos-ski-rental", "chaos-interleaved-ski", "chaos-adaptive",
        }
        for name in CHAOS_FAMILIES:
            assert "chaos" in scenarios.family(name).tags

    @pytest.mark.parametrize("name", CHAOS_FAMILIES)
    def test_smoke_and_default_instances_pass_batch_gate(self, name):
        fam = scenarios.family(name)
        for params in (fam.smoke_params, {}):
            inst = scenarios.build(ScenarioSpec(name, dict(params)))
            result = run_online(inst, AlgorithmA())
            assert np.isfinite(result.cost)

    def test_spec_events_override(self):
        events = [{"kind": "flash_crowd", "t": 2, "duration": 2, "magnitude": 1.4}]
        spec = ScenarioSpec("chaos-outage", {"T": 12}, events=events)
        inst = scenarios.build(spec)
        base = scenarios.build(ScenarioSpec("chaos-outage", {"T": 12, "drop_fraction": 0.5}))
        # the explicit plan replaces the built-in outage window
        assert inst.T == base.T
        assert not inst.has_time_dependent_counts

    def test_events_rejected_on_non_event_aware_family(self):
        spec = ScenarioSpec("homogeneous", {"T": 8}, events=[
            {"kind": "flash_crowd", "t": 1, "magnitude": 2.0}
        ])
        with pytest.raises(ScenarioParamError, match="event-aware"):
            scenarios.validate(spec)

    def test_spec_events_round_trip(self):
        spec = ScenarioSpec("chaos-mixed", {"T": 12}, seed=3, events=[
            {"kind": "price_shock", "t": 4, "duration": 2, "magnitude": 2.5}
        ])
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.event_plan().events[0].kind == "price_shock"

    def test_adversary_families_deterministic(self):
        a = scenarios.build(ScenarioSpec("chaos-adaptive", {"T": 5, "candidates": 2}))
        b = scenarios.build(ScenarioSpec("chaos-adaptive", {"T": 5, "candidates": 2}))
        assert np.array_equal(a.demand, b.demand)
        x = scenarios.build(ScenarioSpec("chaos-interleaved-ski", {"n_cycles": 1, "max_gap": 6}))
        y = scenarios.build(ScenarioSpec("chaos-interleaved-ski", {"n_cycles": 1, "max_gap": 6}))
        assert np.array_equal(x.demand, y.demand)


class TestAdversaries:
    def test_interleaved_ski_puts_pressure_on_each_type(self):
        fleet = cpu_gpu_fleet(cpu_count=3, gpu_count=2)
        inst = interleaved_ski_rental_instance(fleet, n_cycles=2, max_gap=5)
        capacities = np.cumsum([st.count * st.capacity for st in fleet])
        # every cumulative-capacity burst level appears in the trace
        for level in capacities:
            assert np.any(np.isclose(inst.demand, level))

    def test_adaptive_adversary_beats_trivial_ratio(self):
        fleet = single_type_fleet(count=3)
        result = adaptive_adversary(fleet, T=8, candidates=3, seed=0)
        assert result.ratio > 1.0
        assert len(result.ratio_history) == 8
        # the empirical ratio never decreases along the greedy prefix
        assert all(b >= a - 1e-9 for a, b in zip(result.ratio_history, result.ratio_history[1:]))

    def test_adaptive_adversary_deterministic(self):
        fleet = single_type_fleet(count=2)
        a = adaptive_adversary(fleet, T=6, candidates=3, seed=4)
        b = adaptive_adversary(fleet, T=6, candidates=3, seed=4)
        assert np.array_equal(a.instance.demand, b.instance.demand)
        assert a.ratio == b.ratio


# --------------------------------------------------------------------------- #
# Fault injection
# --------------------------------------------------------------------------- #


def _base_instance(T=12):
    return scenarios.build("diurnal-cpu-gpu", T=T)


class TestFaultInjector:
    def test_quiet_tick_passes_through(self):
        inst = _base_instance()
        injector = FaultInjector(EventPlan.generate(12, 2, seed=1), inst.server_types)
        tick = Tick(t=0, demand=1.0)
        assert injector.inject(tick) is tick  # tick 0 is never faulted

    def test_flash_crowd_multiplies_demand(self):
        plan = EventPlan(events=(ChaosEvent("flash_crowd", t=1, magnitude=3.0),))
        injector = FaultInjector(plan)
        out = injector.inject(Tick(t=1, demand=2.0))
        assert out.demand == pytest.approx(6.0)

    def test_capacity_drop_needs_fleet(self):
        plan = EventPlan(events=(ChaosEvent("capacity_drop", t=1, magnitude=0.5),))
        with pytest.raises(ValueError, match="server_types"):
            FaultInjector(plan).inject(Tick(t=1, demand=1.0))

    def test_scaled_rows_are_memoised(self):
        inst = _base_instance()
        plan = EventPlan(events=(ChaosEvent("price_shock", t=1, duration=3, magnitude=2.0),))
        injector = FaultInjector(plan, inst.server_types)
        row_a = injector.inject(Tick(t=1, demand=1.0)).cost_row
        row_b = injector.inject(Tick(t=2, demand=2.0)).cost_row
        # identical objects, so the serve cache's ledgers keep deduplicating
        assert row_a is row_b
        assert row_a[0].factor == 2.0

    def test_chaos_feed_wraps_instance_feed(self):
        inst = _base_instance()
        plan = EventPlan(events=(ChaosEvent("flash_crowd", t=2, duration=1, magnitude=2.0),))
        ticks = list(ChaosFeed(InstanceFeed(inst), plan))
        assert len(ticks) == inst.T
        assert ticks[2].demand == pytest.approx(2.0 * inst.demand[2])
        assert ticks[3].demand == pytest.approx(inst.demand[3])


# --------------------------------------------------------------------------- #
# Graceful degradation
# --------------------------------------------------------------------------- #


class TestGracefulDegradation:
    def test_strict_still_raises_on_overload(self):
        inst = _base_instance()
        session = ControllerSession("A", inst.server_types)
        with pytest.raises(ValueError, match="capacity"):
            session.observe(1e6)

    def test_shed_mode_sheds_and_accounts(self):
        inst = _base_instance()
        capacity = float(np.sum([st.count * st.capacity for st in inst.server_types]))
        session = ControllerSession("A", inst.server_types, degradation="shed")
        state = session.observe(capacity + 5.0)
        assert state.sla_violation
        assert state.served_demand == pytest.approx(capacity)
        assert state.shed_demand == pytest.approx(5.0)
        assert session.sla_violations == 1
        assert session.shed_demand_total == pytest.approx(5.0)
        row = state.as_row()
        assert row["sla_violation"] is True
        assert row["shed_demand"] == pytest.approx(5.0)
        # feasible ticks keep the default accounting
        quiet = session.observe(1.0)
        assert not quiet.sla_violation
        assert quiet.as_row()["sla_violation"] is False
        assert "shed_demand" not in quiet.as_row()

    def test_invalid_degradation_rejected(self):
        inst = _base_instance()
        with pytest.raises(ValueError, match="degradation"):
            ControllerSession("A", inst.server_types, degradation="panic")

    def test_unplanned_shrink_with_open_power_up_records(self):
        """Satellite: live m_t shrinkage under Algorithm B's open records.

        B tracks open power-up records per type; an unplanned capacity drop
        must clamp its configuration (forced power-downs) without corrupting
        the records — and the machines come straight back when capacity
        recovers.
        """
        inst = _base_instance()
        full = np.array([st.count for st in inst.server_types], dtype=int)
        shrunk = full.copy()
        shrunk[0] = max(full[0] - 4, 0)

        # strict sessions refuse the shrunken tick outright
        strict = ControllerSession("B", inst.server_types)
        strict.observe(6.0)
        with pytest.raises(ValueError, match="fleet limits"):
            strict.observe(6.0, counts=shrunk)

        # shed sessions clamp, account, and recover
        session = ControllerSession("B", inst.server_types, degradation="shed")
        high = session.observe(6.0)
        assert np.all(high.config <= full)
        algorithm = session.algorithm
        open_records = sum(len(r) for r in algorithm._records)
        assert open_records > 0  # B holds open power-up records mid-stream

        capacity_shrunk = float(np.sum(shrunk * np.array([st.capacity for st in inst.server_types])))
        dropped = session.observe(min(6.0, capacity_shrunk), counts=shrunk)
        assert np.all(dropped.config <= shrunk)
        assert dropped.forced_down > 0
        assert dropped.sla_violation
        assert session.forced_downs == dropped.forced_down
        # the open records survive the forced power-down
        assert sum(len(r) for r in algorithm._records) > 0

        recovered = session.observe(6.0)
        assert np.all(recovered.config <= full)
        # capacity recovered: the algorithm's state powers machines back up
        assert int(recovered.config[0]) > int(dropped.config[0])

    def test_shed_replay_never_raises_and_is_deterministic(self):
        inst = _base_instance(T=16)
        plan = EventPlan.generate(16, 2, seed=21, n_events=5)
        report = verify_chaos_replay(inst, plan)
        assert report["ok"]
        assert report["cost_deviation"] <= 1e-9

    def test_verify_chaos_replay_counts_expected_shed(self):
        inst = _base_instance()
        plan = EventPlan(events=(ChaosEvent("flash_crowd", t=3, duration=4, magnitude=80.0),))
        report = verify_chaos_replay(inst, plan)
        assert report["sla_violations"] >= report["expected_shed_ticks"] > 0
        assert report["shed_demand"] > 0

    def test_engine_chaos_tenants_share_plan(self):
        inst = _base_instance()
        plan = EventPlan(events=(ChaosEvent("flash_crowd", t=2, duration=2, magnitude=60.0),))
        engine = ServeEngine()
        for name in ("t0", "t1"):
            engine.add_tenant(name, "A", InstanceFeed(inst), chaos=plan)
        report = engine.run()
        # correlated bursts: both tenants violate, and it reaches the report
        assert report["sla_violations"] >= 4
        assert report["shed_demand"] > 0
        for summary in report["tenant_summaries"]:
            assert summary["degradation"] == "shed"
            assert summary["sla_violations"] >= 2

    def test_plain_tenants_stay_strict(self):
        inst = _base_instance()
        engine = ServeEngine()
        session = engine.add_tenant("plain", "A", InstanceFeed(inst))
        assert session.degradation == "strict"
        report = engine.run()
        assert report["sla_violations"] == 0


# --------------------------------------------------------------------------- #
# Hardened inputs: JSONL feeds
# --------------------------------------------------------------------------- #


class TestJsonlHardening:
    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"demand": 1.0}\nnot json at all\n', encoding="utf-8")
        with pytest.raises(FeedError, match=r"trace\.jsonl:2"):
            list(JsonlFeed(path))

    def test_missing_demand_key_reports_location(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"load": 1.0}\n', encoding="utf-8")
        with pytest.raises(FeedError, match="no 'demand' key"):
            list(JsonlFeed(path))

    def test_non_numeric_and_negative_demand_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"demand": "much"}\n', encoding="utf-8")
        with pytest.raises(FeedError, match="not a number"):
            list(JsonlFeed(path))
        path.write_text('-1.5\n', encoding="utf-8")
        with pytest.raises(FeedError, match="non-negative"):
            list(JsonlFeed(path))

    def test_skip_policy_counts_and_continues(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('1.0\ngarbage\n{"demand": 2.0}\n{"oops": 3}\n4.0\n', encoding="utf-8")
        feed = JsonlFeed(path, on_error="skip")
        demands = [tick.demand for tick in feed]
        assert demands == [1.0, 2.0, 4.0]
        assert feed.skipped == 2
        # tick indices stay contiguous after skips
        assert [tick.t for tick in JsonlFeed(path, on_error="skip")] == [0, 1, 2]

    def test_invalid_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="on_error"):
            JsonlFeed(tmp_path / "x.jsonl", on_error="ignore")

    def test_checksummed_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        n = write_jsonl_trace(path, [1.0, 2.5, 0.0], checksum=True)
        assert n == 3
        demands = [t.demand for t in JsonlFeed(path, verify_checksum=True)]
        assert demands == [1.0, 2.5, 0.0]

    def test_checksum_mismatch_fails_loudly(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl_trace(path, [1.0, 2.0], checksum=True)
        corrupted = path.read_text(encoding="utf-8").replace('"demand": 2.0', '"demand": 3.0')
        path.write_text(corrupted, encoding="utf-8")
        with pytest.raises(FeedError, match="checksum mismatch"):
            list(JsonlFeed(path))  # checksums are verified whenever present
        # ... and the skip policy can degrade past it
        feed = JsonlFeed(path, on_error="skip")
        assert [t.demand for t in feed] == [1.0]
        assert feed.skipped == 1

    def test_verify_checksum_requires_the_field(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl_trace(path, [1.0], checksum=False)
        with pytest.raises(FeedError, match="checksum required"):
            list(JsonlFeed(path, verify_checksum=True))

    def test_open_retries_transient_errors(self, tmp_path, monkeypatch):
        path = tmp_path / "trace.jsonl"
        write_jsonl_trace(path, [1.0])
        real_open = open
        attempts = {"n": 0}

        def flaky_open(*args, **kwargs):
            attempts["n"] += 1
            if attempts["n"] == 1:
                raise OSError("transient")
            return real_open(*args, **kwargs)

        import repro.serve.feed as feed_mod

        monkeypatch.setattr("builtins.open", flaky_open)
        feed = JsonlFeed(path, retries=2, retry_delay=0.001)
        assert [t.demand for t in feed] == [1.0]
        assert attempts["n"] == 2
        monkeypatch.undo()
        with pytest.raises(OSError):
            list(JsonlFeed(tmp_path / "missing.jsonl", retries=1, retry_delay=0.001))


# --------------------------------------------------------------------------- #
# Hardened inputs: checkpoint integrity
# --------------------------------------------------------------------------- #


class TestCheckpointIntegrity:
    def _session(self, ticks=4):
        inst = _base_instance()
        session = ControllerSession("A", inst.server_types)
        for t in range(ticks):
            session.observe(float(inst.demand[t]))
        return inst, session

    def test_checkpoint_carries_valid_checksum(self):
        _, session = self._session()
        payload = session.checkpoint()
        body = {k: v for k, v in payload.items() if k != "checksum"}
        assert payload["checksum"] == payload_checksum(body)
        assert payload["checksum"].startswith("crc32:")

    def test_tampered_checkpoint_fails_restore(self):
        inst, session = self._session()
        payload = json.loads(json.dumps(session.checkpoint()))
        payload["cum_operating"] += 1.0
        fresh = ControllerSession("A", inst.server_types)
        with pytest.raises(CheckpointCorruptError, match="integrity"):
            fresh.restore(payload)

    def test_version_is_checked_before_checksum(self):
        inst, session = self._session()
        payload = session.checkpoint()
        payload["version"] = 99
        fresh = ControllerSession("A", inst.server_types)
        with pytest.raises(ValueError, match="version"):
            fresh.restore(payload)

    def test_version_1_lcp_payload_fails_on_version(self):
        """LCP checkpoints carry one tracker since version 2; a version-1
        payload (two trackers, intact checksum) fails on its version, not
        on a missing key."""
        inst = _base_instance()
        session = ControllerSession("lcp", inst.server_types)
        for t in range(4):
            session.observe(float(inst.demand[t]))
        payload = json.loads(json.dumps(session.checkpoint()))
        state = payload["algorithm_state"]
        legacy = {k: v for k, v in payload.items() if k != "checksum"}
        legacy["version"] = 1
        legacy["algorithm_state"] = {
            "current": state["current"], "lower": state["tracker"], "upper": state["tracker"],
        }
        legacy["checksum"] = payload_checksum(legacy)
        fresh = ControllerSession("lcp", inst.server_types)
        with pytest.raises(ValueError, match="version"):
            fresh.restore(legacy)

    def test_checksum_less_checkpoints_rejected(self, tmp_path):
        inst, session = self._session()
        payload = json.loads(json.dumps(session.checkpoint()))
        del payload["checksum"]
        truncated = {"version": CHECKPOINT_VERSION, "algorithm": "A"}
        for bad in (payload, truncated):
            fresh = ControllerSession("A", inst.server_types)
            with pytest.raises(CheckpointCorruptError, match="no integrity checksum"):
                fresh.restore(bad)
            path = tmp_path / "ckpt.json"
            path.write_text(json.dumps(bad), encoding="utf-8")
            with pytest.raises(CheckpointCorruptError, match="no integrity checksum"):
                load_checkpoint(path)

    def test_counters_round_trip_through_checkpoint(self):
        inst = _base_instance()
        capacity = float(np.sum([st.count * st.capacity for st in inst.server_types]))
        session = ControllerSession("A", inst.server_types, degradation="shed")
        session.observe(capacity + 3.0)
        restored = session.checkpoint_roundtrip()
        assert restored.degradation == "shed"
        assert restored.sla_violations == 1
        assert restored.shed_demand_total == pytest.approx(3.0)

    def test_load_checkpoint_from_disk(self, tmp_path):
        _, session = self._session()
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(session.checkpoint()), encoding="utf-8")
        payload = load_checkpoint(path)
        assert payload["tick"] == session.ticks

    def test_load_checkpoint_truncated_fails_loudly(self, tmp_path):
        _, session = self._session()
        path = tmp_path / "ckpt.json"
        text = json.dumps(session.checkpoint())
        path.write_text(text[: len(text) // 2], encoding="utf-8")
        with pytest.raises(CheckpointCorruptError, match="not valid JSON"):
            load_checkpoint(path)

    def test_load_checkpoint_retries(self, tmp_path, monkeypatch):
        _, session = self._session(ticks=2)
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(session.checkpoint()), encoding="utf-8")
        real_open = open
        attempts = {"n": 0}

        def flaky_open(*args, **kwargs):
            attempts["n"] += 1
            if attempts["n"] == 1:
                raise OSError("transient")
            return real_open(*args, **kwargs)

        monkeypatch.setattr("builtins.open", flaky_open)
        payload = load_checkpoint(path, retries=2, retry_delay=0.001)
        assert payload["tick"] == 2
        assert attempts["n"] == 2


# --------------------------------------------------------------------------- #
# Determinism gate over the chaos families
# --------------------------------------------------------------------------- #


class TestChaosDeterminism:
    @pytest.mark.parametrize("name", CHAOS_FAMILIES)
    def test_chaos_families_replay_deterministically(self, name):
        fam = scenarios.family(name)
        inst = scenarios.build(ScenarioSpec(name, dict(fam.smoke_params)))
        plan = EventPlan.generate(inst.T, inst.d, seed=7, n_events=3)
        report = verify_chaos_replay(inst, plan)
        assert report["ok"]

    @pytest.mark.parametrize("name", CHAOS_FAMILIES)
    def test_chaos_families_pass_strict_serve_gate(self, name):
        """Without injection, chaos families obey the batch-equivalence gate."""
        fam = scenarios.family(name)
        inst = scenarios.build(ScenarioSpec(name, dict(fam.smoke_params)))
        checkpoint_at = max(1, inst.T // 2) if inst.T >= 2 else None
        report = verify_replay(inst, "A", checkpoint_at=checkpoint_at)
        assert report["ok"]

    def test_algorithm_b_under_chaos(self):
        inst = _base_instance(T=14)
        plan = EventPlan(events=(
            ChaosEvent("capacity_drop", t=4, duration=3, magnitude=0.8),
            ChaosEvent("flash_crowd", t=9, duration=2, magnitude=30.0),
        ))
        report = verify_chaos_replay(inst, plan, algorithm="B")
        assert report["ok"]
        assert report["sla_violations"] > 0
