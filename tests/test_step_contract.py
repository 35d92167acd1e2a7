"""The :meth:`OnlineAlgorithm.step` contract every registered algorithm obeys.

The serve layer keeps algorithm objects alive across whole demand streams and
(through the sweep engine) reuses them across instances, so it depends on two
invariants the base-class docstrings promise but nothing previously asserted:

* **determinism under replay** — feeding the same slot sequence to the same
  algorithm object twice (with ``start`` between runs) yields the identical
  schedule, and a freshly constructed algorithm yields that same schedule;
* **statelessness across instances** — running an algorithm on instance
  ``I1``, then ``I2``, then ``I1`` again reproduces the first ``I1`` schedule
  exactly (``start`` must reset every decision-relevant byte).

Parametrised over every registered algorithm kind — A/B/C, LCP, and the
baselines — plus both tracker tie-breaks for the DP prefix tracker.

A, B, C and LCP also describe every step in one :class:`Decision` record,
``last_decision``: ``run_online`` collects it per slot, and a session or an
engine cohort must leave the very record the batch run collected at that
tick.
"""

import numpy as np
import pytest

from repro.online.base import Decision, OnlineAlgorithm, run_online
from repro.online.tracker import DPPrefixTracker
from repro.scenarios import build
from repro.serve import (
    SERVE_ALGORITHMS,
    ControllerSession,
    InstanceFeed,
    ServeEngine,
    build_serve_algorithm,
)
from repro.workloads.scale import quantise_trace

KINDS = sorted(SERVE_ALGORITHMS)
RECORDING_KINDS = ["A", "B", "C", "lcp"]


@pytest.fixture(scope="module")
def instances():
    return {
        "I1": build("diurnal-cpu-gpu", T=10),
        "I2": build("bursty-old-new", T=10),
    }


@pytest.mark.parametrize("kind", KINDS)
class TestStepContract:
    def test_deterministic_under_repeated_replay(self, kind, instances):
        algorithm = build_serve_algorithm(kind)
        first = run_online(instances["I1"], algorithm)
        second = run_online(instances["I1"], algorithm)
        assert np.array_equal(first.schedule.x, second.schedule.x)
        assert first.cost == pytest.approx(second.cost, abs=1e-12)

    def test_fresh_object_reproduces_reused_object(self, kind, instances):
        reused = build_serve_algorithm(kind)
        run_online(instances["I2"], reused)  # dirty the object on another instance
        replay = run_online(instances["I1"], reused)
        fresh = run_online(instances["I1"], build_serve_algorithm(kind))
        assert np.array_equal(replay.schedule.x, fresh.schedule.x)

    def test_stateless_across_instances(self, kind, instances):
        algorithm = build_serve_algorithm(kind)
        before = run_online(instances["I1"], algorithm)
        run_online(instances["I2"], algorithm)
        after = run_online(instances["I1"], algorithm)
        assert np.array_equal(before.schedule.x, after.schedule.x)
        assert before.cost == pytest.approx(after.cost, abs=1e-12)

    def test_one_decision_record_per_slot(self, kind, instances):
        instance = instances["I1"]
        decisions = run_online(instance, build_serve_algorithm(kind)).decisions
        assert len(decisions) == instance.T
        if kind in RECORDING_KINDS:
            assert all(isinstance(record, Decision) for record in decisions)
        else:
            assert all(record is None for record in decisions)

    def test_schedules_respect_fleet_limits(self, kind, instances):
        # run_online validates per step; assert the assembled schedule too
        instance = instances["I1"]
        result = run_online(instance, build_serve_algorithm(kind))
        for t in range(instance.T):
            assert np.all(result.schedule.x[t] >= 0)
            assert np.all(result.schedule.x[t] <= instance.counts_at(t))


class TestTrackerTieBreaks:
    @pytest.mark.parametrize("tie_break", ["smallest", "largest"])
    def test_tracker_deterministic_across_resets(self, tie_break, instances):
        from repro.online.base import SlotContext

        instance = instances["I1"]
        context = SlotContext(instance)
        tracker = DPPrefixTracker()
        runs = []
        for _ in range(2):
            tracker.reset()
            hats = []
            for t in range(instance.T):
                tracker.observe(context.slot(t))
                hats.append(tracker.argmin(tie_break))
            runs.append(np.stack(hats))
        assert np.array_equal(runs[0], runs[1])

    def test_tie_break_interval_well_formed_on_homogeneous(self):
        """smallest <= largest per slot on a homogeneous instance — the LCP
        projection interval both tie-breaks feed is well formed."""
        from repro.online.base import SlotContext

        instance = build("homogeneous", T=10)
        context = SlotContext(instance)
        tracker = DPPrefixTracker()
        for t in range(instance.T):
            lo = tracker.observe(context.slot(t))
            hi = tracker.argmin("largest")
            assert np.all(lo <= hi)


class _CustomAllOn(OnlineAlgorithm):
    """A user algorithm that knows nothing of decision records."""

    name = "custom-all-on"

    def step(self, slot):
        return np.asarray(slot.counts, dtype=int)


def _assert_same_record(record, expected):
    assert type(record) is type(expected)
    if expected is None:
        return
    for name, value, want in zip(Decision._fields, record, expected):
        if isinstance(want, np.ndarray):
            assert np.array_equal(value, want), name
        else:
            assert value == want, name


class TestDecisionRecords:
    def test_custom_algorithm_records_none(self, instances):
        instance = instances["I1"]
        decisions = run_online(instance, _CustomAllOn()).decisions
        assert decisions == (None,) * instance.T

    @pytest.mark.parametrize("kind", RECORDING_KINDS)
    @pytest.mark.parametrize("name", ["I1", "I2"])
    def test_session_record_equals_run_online_record(self, kind, name, instances):
        instance = instances[name]
        expected = run_online(instance, build_serve_algorithm(kind)).decisions
        session = ControllerSession(kind, instance.server_types, history=False)
        for tick in InstanceFeed(instance).play():
            session.observe(tick.demand, cost_row=tick.cost_row, counts=tick.counts)
            _assert_same_record(session.algorithm.last_decision, expected[tick.t])

    def test_batched_cohort_record_equals_run_online_record(self):
        """Cohort members decide from a stacked tracker advance
        (``observe_stacked``) and must leave the records batch
        ``run_online`` collects, tick for tick."""
        base = build("diurnal-cpu-gpu", T=16)
        base = base.with_demand(quantise_trace(base.demand, levels=6))
        engine = ServeEngine()
        expected = {}
        for k, kind in enumerate(["A", "B", "lcp"] * 2):
            instance = base.with_demand(np.roll(base.demand, k), name=f"t{k}")
            expected[f"t{k}"] = run_online(instance, build_serve_algorithm(kind)).decisions
            engine.add_tenant(f"t{k}", kind, InstanceFeed(instance))
        while engine.play_round():
            for name, records in expected.items():
                session = engine.session(name)
                if session.ticks:
                    _assert_same_record(
                        session.algorithm.last_decision, records[session.ticks - 1]
                    )
        # every tick after a tenant's first one is decided in a cohort
        assert engine.batch_counters()["batched_ticks"] >= len(expected) * (base.T - 1)
        assert all(engine.session(name).ticks == base.T for name in expected)
