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
tick.  A class with a lane rule decides ``k`` lanes at once exactly as ``k``
one-lane steps (``TestLaneRules``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost_functions import LinearCost
from repro.online import (
    AlgorithmA,
    AlgorithmB,
    AllOn,
    FollowDemand,
    LazyCapacityProvisioning,
    Reactive,
)
from repro.online.base import Decision, Lanes, OnlineAlgorithm, OnlineContext, SlotInfo, run_online
from repro.online.tracker import DPPrefixTracker, PrefixOptimumAlgorithm
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


# --------------------------------------------------------------------------- #
# Lane rules: k lanes decided at once == k one-lane steps
# --------------------------------------------------------------------------- #

#: every class with a lane rule, built on ``gamma``'s grids
LANE_RULES = {
    "reactive": lambda gamma: Reactive(gamma=gamma),
    "follow-demand": lambda gamma: FollowDemand(gamma=gamma),
    "all-on": lambda gamma: AllOn(),
    "A": lambda gamma: AlgorithmA(gamma=gamma),
    "B": lambda gamma: AlgorithmB(gamma=gamma),
    "lcp": lambda gamma: LazyCapacityProvisioning(gamma=gamma, allow_heterogeneous=True),
}


def _slot(t, tensor, grid, row, counts, beta):
    """A slot whose ``g_t`` is ``tensor`` on ``grid`` (any configuration read)."""
    flat = tensor.reshape(-1)

    def evaluator(configs):
        return flat[grid.flat_index(np.asarray(configs, dtype=int))]

    return SlotInfo(
        t=t, demand=1.0, cost_functions=row, counts=counts, beta=beta,
        zmax=np.ones(len(counts)), _evaluator=evaluator,
        _grid_evaluator=lambda _grid: tensor,
    )


def _tensor(rng, shape):
    """A ``g_t`` tensor with ``+inf`` cells and at least one finite cell."""
    values = rng.uniform(0.0, 10.0, size=shape)
    values[rng.random(shape) < 0.3] = np.inf
    values.reshape(-1)[rng.integers(values.size)] = rng.uniform(0.0, 10.0)
    return values


def _same_decision(a, b):
    if a is None or b is None:
        return a is b
    for x, y in zip(a, b):
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            if not np.array_equal(x, y):
                return False
        elif x != y:
            return False
    return True


class TestLaneRules:
    @settings(max_examples=120, deadline=None)
    @given(
        kind=st.sampled_from(sorted(LANE_RULES)),
        gamma=st.sampled_from([None, 1.5, 2.0]),
        counts=st.lists(st.integers(1, 6), min_size=1, max_size=2),
        k=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_k_lanes_equal_k_one_lane_steps(self, kind, gamma, counts, k, seed, data):
        """``decide_lanes`` on k lanes == k sequential ``step`` calls, bit for
        bit: configurations, ``last_decision`` and ``state_dict()``, on full
        and reduced grids, over tensors with ``+inf`` cells, after each lane
        was advanced through its own prefix of shared random slots."""
        make = LANE_RULES[kind]
        rng = np.random.default_rng(seed)
        counts = np.asarray(counts, dtype=int)
        d = len(counts)
        beta = rng.uniform(0.5, 5.0, size=d)
        row = tuple(LinearCost(idle=float(rng.choice([0.0, 0.3, 1.0, 2.5])), slope=1.0)
                    for _ in range(d))
        context = OnlineContext(
            server_types=tuple(range(d)), beta=beta, zmax=np.ones(d), base_counts=counts
        )
        lanes_side = [make(gamma) for _ in range(k)]
        steps_side = [make(gamma) for _ in range(k)]
        grid = lanes_side[0].evaluation_grid(counts)
        shape = (1,) if grid is None else grid.shape
        shared = [_tensor(rng, shape) for _ in range(3)]
        ticks = []
        for i, (one, twin) in enumerate(zip(lanes_side, steps_side)):
            one.start(context)
            twin.start(context)
            if kind == "reactive":  # a random previous configuration
                current = [int(rng.integers(0, c + 1)) for c in counts]
                one.load_state_dict({"current": current})
                twin.load_state_dict({"current": current})
            # a DP lane joins once its tracker holds V_{t-1}
            prefix = data.draw(st.integers(int(isinstance(one, PrefixOptimumAlgorithm)), 3))
            for t in range(prefix):
                for algorithm in (one, twin):
                    algorithm.step(_slot(t, shared[(t + i) % 3], grid, row, counts, beta))
            ticks.append(prefix)
        tensors = [_tensor(rng, shape) for _ in range(data.draw(st.integers(1, k)))]
        rows = rng.integers(0, len(tensors), size=k).astype(np.intp)
        lanes = Lanes(
            grid, None if grid is None else np.stack(tensors), rows, ticks, row, beta, counts
        )
        chosen = type(lanes_side[0]).decide_lanes(lanes_side, lanes)
        assert chosen.shape == (k, d) and chosen.dtype.kind == "i"
        for i, (one, twin) in enumerate(zip(lanes_side, steps_side)):
            expected = twin.step(_slot(ticks[i], tensors[rows[i]], grid, row, counts, beta))
            assert np.array_equal(chosen[i], expected), i
            assert _same_decision(one.last_decision, twin.last_decision), i
            assert one.state_dict() == twin.state_dict(), i
