"""Tests for the prefix-optimum trackers and the online driver."""

import gc
import weakref

import numpy as np
import pytest

from repro import ProblemInstance, Schedule, ServerType, ConstantCost, run_online, solve_optimal
from repro.dispatch import DispatchSolver
from repro.online import (
    DPPrefixTracker,
    FixedSequenceTracker,
    OnlineAlgorithm,
    OnlineContext,
    SlotInfo,
)
from repro.offline.dp import ValueHistory
from repro.offline.state_grid import StateGrid
from repro.online.base import OnlineRunResult, SlotContext
from repro.online.tracker import observe_stacked, stackable

from conftest import random_instance


def drive_tracker(instance, tracker):
    """Feed an instance slot-by-slot into a tracker and collect the prefix optima."""
    dispatcher = DispatchSolver(instance)
    tracker.reset()
    outputs = []
    costs = []
    for t in range(instance.T):
        def evaluator(batch, _t=t):
            c, _ = dispatcher.solve_grid(_t, batch)
            return c

        slot = SlotInfo(
            t=t,
            demand=float(instance.demand[t]),
            cost_functions=instance.cost_row(t),
            counts=instance.counts_at(t),
            beta=instance.beta,
            zmax=instance.zmax,
            _evaluator=evaluator,
        )
        outputs.append(np.array(tracker.observe(slot)))
        costs.append(tracker.prefix_optimum_cost())
    return np.array(outputs), np.array(costs)


class TestDPPrefixTracker:
    def test_prefix_costs_match_offline_solver(self, small_instance):
        _, costs = drive_tracker(small_instance, DPPrefixTracker())
        for t in range(small_instance.T):
            expected = solve_optimal(small_instance.prefix(t + 1), return_schedule=False).cost
            assert costs[t] == pytest.approx(expected, rel=1e-6)

    def test_last_configuration_is_optimal_end_state(self, small_instance):
        """The reported x_hat must be the final configuration of *some* optimal prefix schedule."""
        outputs, costs = drive_tracker(small_instance, DPPrefixTracker())
        for t in range(small_instance.T):
            prefix = small_instance.prefix(t + 1)
            res = solve_optimal(prefix, keep_tables=True)
            table = res.value_tables[-1]
            grid = res.grids[-1]
            idx = grid.index_of(outputs[t])
            assert table[idx] == pytest.approx(costs[t], rel=1e-6)

    def test_tie_break_smallest_vs_largest(self, load_independent_instance):
        context = SlotContext(load_independent_instance)
        tracker = DPPrefixTracker()
        for t in range(load_independent_instance.T):
            small = tracker.observe(context.slot(t))
            large = tracker.argmin("largest")
            # both end states are optimal for the one V_t; they are
            # lexicographically ordered (they may be incomparable componentwise)
            optimum = tracker.prefix_optimum_cost()
            for config in (small, large):
                assert tracker._dp.value[tracker._dp.grid.index_of(config)] == optimum
            assert tuple(small) <= tuple(large)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DPPrefixTracker(gamma=1.0)

    def test_reduced_grid_tracker_costs_are_upper_bounds(self, small_instance):
        _, exact_costs = drive_tracker(small_instance, DPPrefixTracker())
        _, approx_costs = drive_tracker(small_instance, DPPrefixTracker(gamma=2.0))
        assert np.all(approx_costs >= exact_costs - 1e-6)
        assert np.all(approx_costs <= 3.0 * exact_costs + 1e-6)  # 2*gamma - 1

    def test_reset_forgets_history(self, small_instance):
        tracker = DPPrefixTracker()
        first, _ = drive_tracker(small_instance, tracker)
        second, _ = drive_tracker(small_instance, tracker)  # drive_tracker resets
        np.testing.assert_array_equal(first, second)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_instances_prefix_costs(self, seed):
        rng = np.random.default_rng(7000 + seed)
        inst = random_instance(rng, T=5, d=2, max_servers=3)
        _, costs = drive_tracker(inst, DPPrefixTracker())
        for t in range(inst.T):
            expected = solve_optimal(inst.prefix(t + 1), return_schedule=False).cost
            assert costs[t] == pytest.approx(expected, rel=1e-6)

    def test_time_dependent_costs(self, time_dependent_instance):
        _, costs = drive_tracker(time_dependent_instance, DPPrefixTracker())
        for t in (0, time_dependent_instance.T - 1):
            expected = solve_optimal(time_dependent_instance.prefix(t + 1), return_schedule=False).cost
            assert costs[t] == pytest.approx(expected, rel=1e-6)


class _SubclassedTracker(DPPrefixTracker):
    pass


class TestStackedObserve:
    def _slots(self, instance):
        context = SlotContext(instance)
        return [context.slot(t) for t in range(instance.T)]

    def test_stacked_step_equals_observe_bit_for_bit(self, small_instance):
        """k trackers with distinct histories, advanced in one stacked step,
        hold and report exactly what k ``observe`` calls give."""
        slots = self._slots(small_instance)
        T, k = small_instance.T, 4
        stacked = [DPPrefixTracker() for _ in range(k)]
        twins = [DPPrefixTracker() for _ in range(k)]
        for i in range(k):
            for t in range(i + 1):  # distinct prefixes, so distinct V
                stacked[i].observe(slots[t])
                twins[i].observe(slots[t])
        grid = StateGrid.full(small_instance.m)
        counts = tuple(int(c) for c in small_instance.m)
        for step in range(3):
            now = [slots[(i + step + 2) % T] for i in range(k)]
            assert all(tracker.holds(counts) for tracker in stacked)
            costs = np.stack([slot.grid_operating_cost(grid) for slot in now])
            lower, upper = observe_stacked(
                stacked, costs, small_instance.beta, ("smallest", "largest")
            )
            for i, (tracker, twin, slot) in enumerate(zip(stacked, twins, now)):
                assert np.array_equal(lower[i], twin.observe(slot))
                assert np.array_equal(upper[i], twin.argmin("largest"))
                assert np.array_equal(tracker.argmin("largest"), twin.argmin("largest"))
                assert tracker.prefix_optimum_cost() == twin.prefix_optimum_cost()
                assert tracker.state_dict() == twin.state_dict()
        # a sequential observe continues from a stacked V bit-identically
        for tracker, twin in zip(stacked, twins):
            assert np.array_equal(tracker.observe(slots[0]), twin.observe(slots[0]))
            assert tracker.state_dict() == twin.state_dict()

    def test_stackable_and_holds(self, small_instance):
        slots = self._slots(small_instance)
        counts = tuple(int(c) for c in small_instance.m)
        tracker = DPPrefixTracker()
        assert stackable(tracker)
        assert stackable(DPPrefixTracker(gamma=2.0))  # its own grid family's lanes
        assert not tracker.holds(counts)  # no V before the first slot
        tracker.observe(slots[0])
        assert tracker.holds(counts)
        assert not tracker.holds(tuple(c + 1 for c in counts))
        for other in (
            DPPrefixTracker(history=ValueHistory(small_instance.beta)),
            _SubclassedTracker(),
            FixedSequenceTracker([[0, 0]]),
        ):
            assert not stackable(other)

    def test_argmin_rejects_unknown_tie_break(self, small_instance):
        tracker = DPPrefixTracker()
        tracker.observe(self._slots(small_instance)[0])
        with pytest.raises(ValueError, match="tie_break"):
            tracker.argmin("middle")


class TestFixedSequenceTracker:
    def test_replays_sequence(self, small_instance):
        seq = np.array([[1, 0], [2, 1], [3, 1], [1, 0], [0, 0], [2, 1]])
        outputs, _ = drive_tracker(small_instance, FixedSequenceTracker(seq))
        np.testing.assert_array_equal(outputs, seq)

    def test_runs_out_of_values(self, small_instance):
        tracker = FixedSequenceTracker(np.zeros((2, 2), dtype=int))
        with pytest.raises(IndexError):
            drive_tracker(small_instance, tracker)

    def test_dimension_mismatch(self, small_instance):
        tracker = FixedSequenceTracker(np.zeros((6, 3), dtype=int))
        with pytest.raises(ValueError):
            drive_tracker(small_instance, tracker)

    def test_one_dimensional_shorthand(self, homogeneous_instance):
        tracker = FixedSequenceTracker([0, 1, 2, 3, 2, 1, 0, 1])
        outputs, _ = drive_tracker(homogeneous_instance, tracker)
        assert outputs.shape == (8, 1)

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            FixedSequenceTracker([[-1, 0]])


# --------------------------------------------------------------------------- #
# Online driver
# --------------------------------------------------------------------------- #


class _FixedAlgorithm(OnlineAlgorithm):
    """Test helper returning a pre-defined schedule row by row."""

    name = "fixed"

    def __init__(self, rows):
        self.rows = np.asarray(rows)
        self._cursor = 0

    def start(self, context):
        self._cursor = 0

    def step(self, slot):
        row = self.rows[self._cursor]
        self._cursor += 1
        return row


class TestOnlineDriver:
    def test_runs_and_evaluates(self, small_instance):
        rows = [[1, 0], [2, 0], [1, 1], [1, 0], [0, 0], [3, 0]]
        result = run_online(small_instance, _FixedAlgorithm(rows))
        assert isinstance(result, OnlineRunResult)
        assert result.schedule.same_as(Schedule.from_rows(rows))
        assert result.cost == pytest.approx(result.breakdown.total)
        assert result.summary()["algorithm"] == "fixed"

    def test_rejects_overscaled_configuration(self, small_instance):
        rows = [[4, 0]] + [[0, 0]] * 5
        with pytest.raises(ValueError):
            run_online(small_instance, _FixedAlgorithm(rows))

    def test_rejects_fractional_configuration(self, small_instance):
        rows = [[0.5, 0]] + [[0, 0]] * 5
        with pytest.raises(ValueError):
            run_online(small_instance, _FixedAlgorithm(rows))

    def test_rejects_wrong_shape(self, small_instance):
        rows = [[1, 0, 0]] + [[0, 0, 0]] * 5
        with pytest.raises(ValueError):
            run_online(small_instance, _FixedAlgorithm(rows))

    def test_slot_info_exposes_current_slot_only(self, small_instance):
        seen = []

        class Recorder(OnlineAlgorithm):
            name = "recorder"

            def step(self, slot):
                seen.append((slot.t, slot.demand, len(slot.cost_functions)))
                return np.array(slot.counts)

        run_online(small_instance, Recorder())
        assert [s[0] for s in seen] == list(range(small_instance.T))
        np.testing.assert_allclose([s[1] for s in seen], small_instance.demand)
        assert all(s[2] == small_instance.d for s in seen)

    def test_slot_operating_cost_single_and_batch(self, small_instance):
        captured = {}

        class Prober(OnlineAlgorithm):
            name = "prober"

            def step(self, slot):
                captured.setdefault("single", slot.operating_cost(np.array(slot.counts)))
                captured.setdefault("batch", slot.operating_cost(np.array([slot.counts, slot.counts])))
                return np.array(slot.counts)

        run_online(small_instance, Prober())
        assert isinstance(captured["single"], float)
        assert captured["batch"].shape == (2,)
        assert captured["batch"][0] == pytest.approx(captured["single"])

    def test_dropped_slot_context_is_freed_by_reference_counting(self, small_instance):
        """A context's slots read ``g_t`` through objects that never refer
        back to it, so no reference cycle keeps a dropped context (and its
        tensors) alive until the cyclic collector runs."""
        from repro.online import AlgorithmA

        enabled = gc.isenabled()
        gc.disable()
        try:
            context = SlotContext(small_instance)
            run_online(small_instance, AlgorithmA(), slot_context=context)
            ref = weakref.ref(context)
            del context
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_scaled_slot_info(self, small_instance):
        class ScaleProbe(OnlineAlgorithm):
            name = "scale"
            observed = None

            def step(self, slot):
                scaled = slot.with_scaled_costs(0.5)
                ScaleProbe.observed = (
                    slot.operating_cost(np.array(slot.counts)),
                    scaled.operating_cost(np.array(slot.counts)),
                    scaled.idle_costs(),
                    slot.idle_costs(),
                )
                return np.array(slot.counts)

        run_online(small_instance.prefix(1), ScaleProbe())
        full, half, idle_half, idle_full = ScaleProbe.observed
        assert half == pytest.approx(0.5 * full)
        np.testing.assert_allclose(idle_half, 0.5 * idle_full)
