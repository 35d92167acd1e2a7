"""Tests for online Algorithm A (Section 2, Theorem 8, Corollary 9, Figures 1-2)."""

import math

import numpy as np
import pytest

from repro import (
    ConstantCost,
    ProblemInstance,
    QuadraticCost,
    ServerType,
    run_online,
    solve_optimal,
    theoretical_bound,
)
from repro.online import AlgorithmA, DPPrefixTracker, FixedSequenceTracker
from repro.online.blocks import (
    block_index_sets,
    fixed_runtime_blocks,
    power_up_log,
    prefix_optima,
    special_slots,
    verify_partition,
)
from repro.workloads import diurnal_trace, spike_trace

from conftest import random_instance


def single_type_instance(T=15, beta=5.0, idle=1.0, m=3):
    types = (
        ServerType("only", count=m, switching_cost=beta, capacity=1.0,
                   cost_function=ConstantCost(level=idle)),
    )
    return ProblemInstance(types, np.zeros(T))


class TestBookkeeping:
    """The power-up / power-down rules, tested against a fixed x_hat sequence (Figure 1 style)."""

    def test_runtime_is_ceil_beta_over_idle(self, small_instance):
        algo = AlgorithmA(tracker=FixedSequenceTracker(np.zeros((6, 2), dtype=int)))
        run_online(small_instance, algo)
        np.testing.assert_array_equal(algo.runtimes, [np.ceil(4.0 / 0.5), np.ceil(9.0 / 1.5)])

    def test_zero_idle_cost_means_never_power_down(self):
        types = (ServerType("free-idle", count=2, switching_cost=3.0, capacity=1.0,
                            cost_function=QuadraticCost(idle=0.0, a=0.0, b=1.0)),)
        inst = ProblemInstance(types, np.array([1.0, 0.0, 0.0, 0.0, 1.0]))
        algo = AlgorithmA()
        result = run_online(inst, algo)
        assert math.isinf(algo.runtimes[0])
        # once powered up, the server stays on until the end of the horizon
        assert np.all(result.schedule.x[:, 0] >= 1)

    def test_figure1_style_behaviour(self):
        """A server powered up at slot s is powered down exactly bar_t slots later."""
        inst = single_type_instance(T=15, beta=5.0, idle=1.0)  # bar_t = 5
        xhat = np.array([1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0])
        algo = AlgorithmA(tracker=FixedSequenceTracker(xhat))
        result = run_online(inst, algo)
        expected = np.array([1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0])
        np.testing.assert_array_equal(result.schedule.x[:, 0], expected)

    def test_server_runs_even_if_prefix_optimum_drops(self):
        inst = single_type_instance(T=10, beta=4.0, idle=2.0)  # bar_t = 2
        xhat = np.array([2, 0, 0, 0, 2, 0, 0, 0, 0, 0])
        algo = AlgorithmA(tracker=FixedSequenceTracker(xhat))
        result = run_online(inst, algo)
        expected = np.array([2, 2, 0, 0, 2, 2, 0, 0, 0, 0])
        np.testing.assert_array_equal(result.schedule.x[:, 0], expected)

    def test_tops_up_only_the_difference(self):
        inst = single_type_instance(T=8, beta=6.0, idle=2.0)  # bar_t = 3
        xhat = np.array([1, 2, 3, 0, 0, 0, 0, 0])
        algo = AlgorithmA(tracker=FixedSequenceTracker(xhat))
        result = run_online(inst, algo)
        # power-ups: 1 at t0, 1 at t1, 1 at t2; each runs 3 slots
        np.testing.assert_array_equal(power_up_log(result.decisions)[:, 0], [1, 1, 1, 0, 0, 0, 0, 0])
        np.testing.assert_array_equal(result.schedule.x[:, 0], [1, 2, 3, 2, 1, 0, 0, 0])

    def test_staggered_expiry_with_simultaneous_powerups(self):
        inst = single_type_instance(T=8, beta=3.0, idle=1.0, m=4)  # bar_t = 3
        xhat = np.array([2, 0, 4, 0, 0, 0, 0, 0])
        algo = AlgorithmA(tracker=FixedSequenceTracker(xhat))
        result = run_online(inst, algo)
        # 2 servers run slots 0-2; 2 more start at slot 2 and run slots 2-4
        np.testing.assert_array_equal(result.schedule.x[:, 0], [2, 2, 4, 2, 2, 0, 0, 0])

    def test_invariant_x_at_least_xhat(self, small_instance):
        algo = AlgorithmA()
        result = run_online(small_instance, algo)
        assert np.all(result.schedule.x >= prefix_optima(result.decisions))

    def test_feasibility_lemma1(self, small_instance):
        """Lemma 1: the schedule of Algorithm A is feasible."""
        result = run_online(small_instance, AlgorithmA())
        assert result.schedule.is_feasible(small_instance)

    def test_feasibility_on_random_instances(self):
        for seed in range(5):
            rng = np.random.default_rng(8000 + seed)
            inst = random_instance(rng, T=8, d=2, max_servers=3)
            result = run_online(inst, AlgorithmA())
            assert result.schedule.is_feasible(inst)

    def test_explicit_tracker_and_gamma_are_exclusive(self):
        with pytest.raises(ValueError):
            AlgorithmA(tracker=DPPrefixTracker(), gamma=2.0)

    def test_step_before_start_raises(self, small_instance):
        algo = AlgorithmA()
        with pytest.raises(RuntimeError):
            algo.step(None)  # type: ignore[arg-type]


class TestBlocksAndSpecialSlots:
    """The block decomposition of the competitive analysis (Figure 2)."""

    def test_blocks_have_length_bar_t(self):
        inst = single_type_instance(T=20, beta=6.0, idle=2.0)  # bar_t = 3
        xhat = np.zeros(20, dtype=int)
        xhat[[0, 4, 5, 12]] = [1, 2, 1, 1]
        algo = AlgorithmA(tracker=FixedSequenceTracker(xhat))
        result = run_online(inst, algo)
        blocks = fixed_runtime_blocks(result.decisions, 0, algo.runtimes[0])
        # power-ups: 1 at slot 0, 2 at slot 4 (the single extra request at slot 5
        # is already covered by running servers), 1 at slot 12 -> 4 blocks
        assert len(blocks) == 4
        assert all(b.length == 3 for b in blocks if b.end < 19)

    def test_every_block_contains_exactly_one_special_slot(self):
        inst = single_type_instance(T=30, beta=5.0, idle=1.0)  # bar_t = 5
        rng = np.random.default_rng(0)
        xhat = rng.integers(0, 3, size=30)
        algo = AlgorithmA(tracker=FixedSequenceTracker(xhat))
        result = run_online(inst, algo)
        blocks = fixed_runtime_blocks(result.decisions, 0, algo.runtimes[0])
        if blocks:
            assert verify_partition(blocks)

    def test_special_slots_are_at_least_bar_t_apart(self):
        inst = single_type_instance(T=30, beta=5.0, idle=1.0)  # bar_t = 5
        rng = np.random.default_rng(1)
        xhat = rng.integers(0, 3, size=30)
        algo = AlgorithmA(tracker=FixedSequenceTracker(xhat))
        result = run_online(inst, algo)
        blocks = fixed_runtime_blocks(result.decisions, 0, algo.runtimes[0])
        taus = special_slots(blocks)
        assert all(b - a >= 5 for a, b in zip(taus, taus[1:]))

    def test_block_index_sets_partition_all_blocks(self):
        inst = single_type_instance(T=25, beta=4.0, idle=1.0)  # bar_t = 4
        rng = np.random.default_rng(2)
        xhat = rng.integers(0, 4, size=25)
        algo = AlgorithmA(tracker=FixedSequenceTracker(xhat))
        result = run_online(inst, algo)
        blocks = fixed_runtime_blocks(result.decisions, 0, algo.runtimes[0])
        sets = block_index_sets(blocks)
        flattened = sorted(i for group in sets for i in group)
        assert flattened == list(range(len(blocks)))


class TestCompetitiveness:
    """Theorem 8 / Corollary 9: measured ratios never exceed the proven bounds."""

    def test_bound_on_small_instance(self, small_instance):
        opt = solve_optimal(small_instance, return_schedule=False).cost
        result = run_online(small_instance, AlgorithmA())
        assert result.cost <= (2 * small_instance.d + 1) * opt + 1e-6

    def test_bound_on_load_independent_instance(self, load_independent_instance):
        """Corollary 9: ratio at most 2d for load- and time-independent costs."""
        opt = solve_optimal(load_independent_instance, return_schedule=False).cost
        result = run_online(load_independent_instance, AlgorithmA())
        assert result.cost <= 2 * load_independent_instance.d * opt + 1e-6
        assert theoretical_bound(load_independent_instance, "A") == 2 * load_independent_instance.d

    def test_bound_on_homogeneous_instance(self, homogeneous_instance):
        opt = solve_optimal(homogeneous_instance, return_schedule=False).cost
        result = run_online(homogeneous_instance, AlgorithmA())
        assert result.cost <= 3 * opt + 1e-6  # 2d + 1 with d = 1

    @pytest.mark.parametrize("seed", range(8))
    def test_bound_on_random_instances(self, seed):
        rng = np.random.default_rng(9000 + seed)
        inst = random_instance(rng, T=8, d=2, max_servers=3)
        opt = solve_optimal(inst, return_schedule=False).cost
        result = run_online(inst, AlgorithmA())
        if opt > 1e-9:
            assert result.cost / opt <= 2 * inst.d + 1 + 1e-6

    def test_bound_on_diurnal_workload(self, two_type_fleet):
        demand = diurnal_trace(36, period=12, base=1.0, peak=9.0, noise=0.1, rng=5)
        inst = ProblemInstance(two_type_fleet, demand)
        opt = solve_optimal(inst, return_schedule=False).cost
        result = run_online(inst, AlgorithmA())
        assert result.cost <= (2 * inst.d + 1) * opt + 1e-6

    def test_bound_on_spiky_workload(self, two_type_fleet):
        demand = spike_trace(30, base=0.0, spike_height=4.0, spike_every=6)
        inst = ProblemInstance(two_type_fleet, demand)
        opt = solve_optimal(inst, return_schedule=False).cost
        result = run_online(inst, AlgorithmA())
        assert result.cost <= (2 * inst.d + 1) * opt + 1e-6

    def test_online_cost_at_least_optimal(self, small_instance):
        opt = solve_optimal(small_instance, return_schedule=False).cost
        result = run_online(small_instance, AlgorithmA())
        assert result.cost >= opt - 1e-6

    def test_reduced_grid_tracker_still_feasible(self, small_instance):
        result = run_online(small_instance, AlgorithmA(gamma=2.0))
        assert result.schedule.is_feasible(small_instance)
