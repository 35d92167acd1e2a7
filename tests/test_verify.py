"""Tests for the differential oracle (:mod:`repro.serve.verify`).

Every serve gate compares two runs through :func:`assert_same`, so the
oracle itself must be shown to fail: each single-field change to a real
run's outcome is caught and named.  Around it: the round-trip range rule
shared by the gates, the checkpoint-payload mapping the fabric gate relies
on, and property-based replays over random instances, algorithms, round-trip
ticks and chaos plans.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_instance
from repro.scenarios import build
from repro.scenarios.events import ChaosEvent, EventPlan
from repro.serve import (
    ChaosFeed,
    ControllerSession,
    InstanceFeed,
    Outcome,
    assert_same,
    outcome,
    replay,
    verify_batched,
    verify_chaos_replay,
    verify_replay,
)

TOLERANCE = 1e-9

#: Overload plus a capacity drop on a 12-tick stream: the run sheds demand and
#: is forced down, so every SLA counter of its outcome is non-trivial.
OVERLOAD = EventPlan(
    events=(
        ChaosEvent("flash_crowd", t=3, duration=3, magnitude=50.0),
        ChaosEvent("capacity_drop", t=7, duration=3, magnitude=0.9),
    )
)


def _overloaded_session() -> ControllerSession:
    instance = build("diurnal-cpu-gpu", T=12)
    session = ControllerSession("B", instance.server_types, degradation="shed")
    return replay(session, ChaosFeed(InstanceFeed(instance), OVERLOAD))


def _flip(configs: np.ndarray, t: int) -> np.ndarray:
    flipped = configs.copy()
    flipped[t, 0] += 1
    return flipped


#: One change each, and the field the oracle must name for it.
MUTATIONS = {
    "flip a configuration": (
        lambda o: dataclasses.replace(o, configs=_flip(o.configs, 4)),
        "configs differ first at tick 4",
    ),
    "cost beyond tolerance": (
        lambda o: dataclasses.replace(o, cost=o.cost + 2 * TOLERANCE),
        "cost differs",
    ),
    "one more SLA violation": (
        lambda o: dataclasses.replace(o, sla_violations=o.sla_violations + 1),
        "sla_violations differs",
    ),
    "one more forced down": (
        lambda o: dataclasses.replace(o, forced_downs=o.forced_downs + 1),
        "forced_downs differs",
    ),
    "different shed demand": (
        lambda o: dataclasses.replace(o, shed_demand=o.shed_demand * 0.5),
        "shed_demand differs",
    ),
    "one tick dropped": (
        lambda o: dataclasses.replace(o, ticks=o.ticks - 1, configs=o.configs[:-1]),
        "ticks differ",
    ),
}


class TestOracleCanFail:
    def test_real_run_has_non_trivial_counters(self):
        real = outcome(_overloaded_session())
        assert real.ticks == 12
        assert real.sla_violations > 0 and real.forced_downs > 0 and real.shed_demand > 0
        assert assert_same(real, real, label="self", tolerance=TOLERANCE) == 0.0

    @pytest.mark.parametrize("change", sorted(MUTATIONS))
    def test_every_single_change_is_caught_and_named(self, change):
        mutate, message = MUTATIONS[change]
        real = outcome(_overloaded_session())
        changed = mutate(real)
        with pytest.raises(AssertionError, match=message):
            assert_same(real, changed, label="mutated", tolerance=TOLERANCE)
        with pytest.raises(AssertionError, match=message):
            assert_same(changed, real, label="mutated", tolerance=TOLERANCE)

    def test_cost_within_tolerance_passes_and_is_reported(self):
        real = outcome(_overloaded_session())
        nudged = dataclasses.replace(real, cost=real.cost + TOLERANCE / 2)
        deviation = assert_same(real, nudged, label="nudged", tolerance=TOLERANCE)
        assert 0.0 < deviation <= TOLERANCE

    def test_missing_fields_are_skipped(self):
        real = outcome(_overloaded_session())
        bare = Outcome(ticks=real.ticks, configs=None, cost=real.cost)
        assert assert_same(real, bare, label="bare", tolerance=TOLERANCE) == 0.0


class TestCheckpointPayloadOutcome:
    def test_session_and_its_own_checkpoint_compare_equal(self):
        session = _overloaded_session()
        payload = json.loads(json.dumps(session.checkpoint()))
        assert assert_same(session, payload, label="payload", tolerance=0.0) == 0.0
        # the payload keys the fabric gate reads back
        from_payload = outcome(payload)
        assert from_payload.shed_demand == session.shed_demand_total == payload["shed_total"]
        assert from_payload.cost == payload["cum_operating"] + payload["cum_switching"]
        assert from_payload.cost == session.cumulative_cost
        assert np.array_equal(from_payload.configs, session.schedule.x)

    def test_compact_checkpoint_carries_no_configs(self):
        instance = build("diurnal-cpu-gpu", T=12)
        session = replay(
            ControllerSession("A", instance.server_types, history=False),
            InstanceFeed(instance),
        )
        compact = outcome(session.checkpoint())
        assert compact.configs is None and compact.ticks == 12
        full = replay(ControllerSession("A", instance.server_types), InstanceFeed(instance))
        assert_same(full, session.checkpoint(), label="compact", tolerance=TOLERANCE)


class TestRoundtripRange:
    """A round-trip outside ``[1, T)`` never lands mid-stream: every gate raises."""

    @pytest.mark.parametrize("checkpoint_at", [0, 12, 10**6])
    def test_chaos_gate(self, checkpoint_at):
        instance = build("diurnal-cpu-gpu", T=12)
        plan = EventPlan.generate(instance.T, instance.d, seed=7, n_events=3)
        with pytest.raises(ValueError, match="checkpoint_at"):
            verify_chaos_replay(instance, plan, checkpoint_at=checkpoint_at)

    @pytest.mark.parametrize("checkpoint_at", [0, 12, 500])
    def test_batched_gate(self, checkpoint_at):
        instance = build("diurnal-cpu-gpu", T=12)

        def build_tenants(engine):
            for k in range(3):
                engine.add_tenant(f"t{k}", "reactive", InstanceFeed(instance))

        with pytest.raises(ValueError, match="checkpoint_at"):
            verify_batched(build_tenants, checkpoint_at=checkpoint_at)

    def test_batched_gate_measures_the_shortest_stream(self):
        long, short = build("diurnal-cpu-gpu", T=12), build("diurnal-cpu-gpu", T=8)

        def build_tenants(engine):
            engine.add_tenant("long", "reactive", InstanceFeed(long))
            engine.add_tenant("short", "follow-demand", InstanceFeed(short))

        with pytest.raises(ValueError, match=r"\[1, 8\)"):
            verify_batched(build_tenants, checkpoint_at=10)
        report = verify_batched(build_tenants, checkpoint_at=7)
        assert report["checkpoint_at"] == 7
        assert report["ticks_total"] == 20

    def test_batched_gate_catches_a_broken_cohort(self, monkeypatch):
        """The gate's reference replays every tenant on its own, so a fault in
        the engine's cohort path (here every member powers the whole fleet
        on) is caught, not reproduced on both sides."""
        import repro.serve.engine as engine_module

        decisions = engine_module._decisions

        def all_on(kind, geometry, *args):
            decisions(kind, geometry, *args)
            rounded = geometry.counts_t.astype(int)
            return lambda i, session: (rounded, rounded.tolist(), 0)

        monkeypatch.setattr(engine_module, "_decisions", all_on)
        instance = build("diurnal-cpu-gpu", T=12)

        def build_tenants(engine):
            for k in range(3):
                engine.add_tenant(f"t{k}", "reactive", InstanceFeed(instance))

        with pytest.raises(AssertionError, match="configs differ"):
            verify_batched(build_tenants)

    def test_replay_hands_over_at_the_roundtrip_tick(self):
        instance = build("diurnal-cpu-gpu", T=12)
        original = ControllerSession("A", instance.server_types)
        final = replay(original, InstanceFeed(instance), roundtrip_at=5)
        assert final is not original
        assert original.ticks == 5 and final.ticks == 12

    def test_in_range_roundtrips_are_reported(self):
        instance = build("diurnal-cpu-gpu", T=12)
        plan = EventPlan.generate(instance.T, instance.d, seed=7, n_events=3)
        for k in (1, 11):
            assert verify_chaos_replay(instance, plan, checkpoint_at=k)["checkpoint_at"] == k
            assert verify_replay(instance, checkpoint_at=k)["checkpointed"]


# --------------------------------------------------------------------------- #
# Property-based replays over random instances
# --------------------------------------------------------------------------- #


SERVE_ALGORITHMS = ["A", "B", "C", "lcp", "reactive", "follow-demand"]


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    T=st.integers(2, 16),
    d=st.integers(1, 3),
    algorithm=st.sampled_from(SERVE_ALGORITHMS),
    plan_seed=st.none() | st.integers(0, 2**16),
    data=st.data(),
)
def test_random_replays_agree_across_a_roundtrip(seed, T, d, algorithm, plan_seed, data):
    """Without a plan, streamed replay equals batch ``run_online``; with one,
    the chaos replay is deterministic across the round-trip."""
    instance = random_instance(np.random.default_rng(seed), T=T, d=d)
    checkpoint_at = data.draw(st.integers(1, T - 1), label="checkpoint_at")
    if plan_seed is None:
        row = verify_replay(instance, algorithm, checkpoint_at=checkpoint_at)
        assert row["checkpointed"]
    else:
        plan = EventPlan.generate(T, d, seed=plan_seed, n_events=3)
        row = verify_chaos_replay(
            instance, plan, algorithm=algorithm, checkpoint_at=checkpoint_at
        )
    assert row["ticks"] == T and row["checkpoint_at"] == checkpoint_at
