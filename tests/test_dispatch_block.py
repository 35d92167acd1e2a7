"""Tests for the batched cross-slot dispatch engine (``DispatchSolver.solve_block``)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    LinearCost,
    PowerCost,
    ProblemInstance,
    QuadraticCost,
    ServerType,
    solve_optimal,
)
from repro.bench import PINNED_OPTIMAL_COSTS, run_smoke_bench, smoke_instances
from repro.dispatch import DispatchSolver, reference_dispatch
from repro.offline.state_grid import StateGrid, grid_for_slot

from conftest import random_instance


def _full_configs(instance):
    return StateGrid.full(instance.m).configs()


def _assert_block_matches_per_slot(instance, configs, rel=1e-8):
    """``solve_block`` over all slots must equal per-slot ``solve_grid`` results."""
    block_solver = DispatchSolver(instance)
    slot_solver = DispatchSolver(instance)
    block_costs, block_loads = block_solver.solve_block(range(instance.T), configs)
    for t in range(instance.T):
        costs_t, loads_t = slot_solver.solve_grid(t, configs)
        np.testing.assert_allclose(block_costs[t], costs_t, rtol=rel, atol=1e-12)
        np.testing.assert_allclose(block_loads[t], loads_t, rtol=rel, atol=1e-9)


def _assert_block_matches_reference(instance, configs, rel=3e-4):
    """``solve_block`` must agree with the independent SLSQP reference solver."""
    solver = DispatchSolver(instance)
    costs, loads = solver.solve_block(range(instance.T), configs)
    for t in range(instance.T):
        for i, config in enumerate(configs):
            slow = reference_dispatch(instance, t, config)
            if math.isinf(slow.cost) or math.isinf(costs[t, i]):
                assert math.isinf(slow.cost) == math.isinf(costs[t, i])
            else:
                assert costs[t, i] == pytest.approx(slow.cost, rel=rel, abs=1e-6)
                assert loads[t, i].sum() == pytest.approx(
                    min(float(instance.demand[t]), loads[t, i].sum() + 1e-9), abs=1e-6
                )


class TestBlockEngine:
    def test_block_matches_per_slot_grid(self, small_instance):
        configs = _full_configs(small_instance)
        _assert_block_matches_per_slot(small_instance, configs)

    def test_block_matches_reference(self, small_instance):
        configs = np.array([[0, 0], [1, 0], [0, 1], [2, 1], [3, 2], [1, 2]])
        _assert_block_matches_reference(small_instance, configs)

    def test_zero_demand_slots(self, small_instance):
        # slot 4 of the fixture has zero demand: cost is the pure idle cost
        configs = np.array([[2, 1], [0, 0], [3, 2]])
        solver = DispatchSolver(small_instance)
        costs, loads = solver.solve_block([4, 4], configs)
        idle = small_instance.idle_costs(4)
        np.testing.assert_allclose(costs[0], configs @ idle)
        np.testing.assert_allclose(loads, 0.0)

    def test_single_type_fleet(self, homogeneous_instance):
        configs = np.arange(int(homogeneous_instance.m[0]) + 1)[:, None]
        _assert_block_matches_per_slot(homogeneous_instance, configs)
        _assert_block_matches_reference(homogeneous_instance, configs)

    def test_infinite_capacity(self):
        types = (
            ServerType("inf-cap", count=3, switching_cost=2.0, capacity=math.inf,
                       cost_function=QuadraticCost(idle=0.3, a=0.1, b=0.7)),
            ServerType("bounded", count=2, switching_cost=4.0, capacity=2.0,
                       cost_function=LinearCost(idle=0.5, slope=0.9)),
        )
        inst = ProblemInstance(types, np.array([0.0, 1.5, 6.0, 3.0]))
        configs = np.array([[0, 0], [1, 0], [3, 2], [2, 1], [0, 2]])
        _assert_block_matches_per_slot(inst, configs)
        _assert_block_matches_reference(inst, configs)

    def test_time_dependent_costs(self, time_dependent_instance):
        configs = np.array([[0, 0], [1, 1], [3, 2], [2, 0]])
        _assert_block_matches_per_slot(time_dependent_instance, configs)
        _assert_block_matches_reference(time_dependent_instance, configs)

    def test_time_varying_counts_grids_of_different_shapes(self, small_instance):
        counts = np.tile(small_instance.m, (small_instance.T, 1))
        counts[2:4, 0] = 1
        counts[5, 1] = 1
        inst = small_instance.with_counts(counts)
        # per-slot grids differ in shape; the DP must still match the per-slot path
        grids = [grid_for_slot(inst, t) for t in range(inst.T)]
        shapes = {g.shape for g in grids}
        assert len(shapes) > 1
        for t, grid in enumerate(grids):
            _assert_block_matches_per_slot(inst, grid.configs())

    def test_slot_order_irrelevant(self, small_instance):
        configs = _full_configs(small_instance)
        solver = DispatchSolver(small_instance)
        forward, _ = solver.solve_block(range(small_instance.T), configs)
        backward, _ = DispatchSolver(small_instance).solve_block(
            range(small_instance.T - 1, -1, -1), configs
        )
        np.testing.assert_allclose(forward, backward[::-1], rtol=1e-12, atol=1e-12)

    def test_repeated_slots_share_one_solve(self, small_instance):
        configs = _full_configs(small_instance)
        solver = DispatchSolver(small_instance)
        costs, _ = solver.solve_block([1, 1, 1, 1], configs)
        assert solver.stats.slot_queries == 4
        assert solver.stats.unique_solves == 1
        np.testing.assert_array_equal(costs[0], costs[3])

    def test_equal_demand_slots_deduplicate(self, two_type_fleet):
        demand = np.array([2.0, 2.0, 2.0, 5.0, 5.0, 0.0])
        inst = ProblemInstance(two_type_fleet, demand)
        solver = DispatchSolver(inst)
        solver.solve_block(range(inst.T), _full_configs(inst))
        # three unique positive demand levels (2.0, 5.0) plus the zero slot
        assert solver.stats.unique_solves == 3
        assert solver.stats.cache_hit_rate == pytest.approx(0.5)

    def test_memoisation_across_calls(self, small_instance):
        configs = _full_configs(small_instance)
        solver = DispatchSolver(small_instance)
        first, _ = solver.solve_block(range(small_instance.T), configs)
        solved = solver.stats.unique_solves
        second, _ = solver.solve_block(range(small_instance.T), configs)
        assert solver.stats.unique_solves == solved  # everything served from cache
        np.testing.assert_array_equal(first, second)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_heterogeneous_instances(self, seed):
        rng = np.random.default_rng(1000 + seed)
        inst = random_instance(rng, T=4, d=int(rng.integers(1, 4)), max_servers=3)
        grid = StateGrid.full(inst.m).configs()
        _assert_block_matches_per_slot(inst, grid)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_instances_against_reference(self, seed):
        rng = np.random.default_rng(2000 + seed)
        inst = random_instance(rng, T=3, d=2, max_servers=2)
        configs = StateGrid.full(inst.m).configs()
        _assert_block_matches_reference(inst, configs)


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_block_engine_property(data):
    """Property: the batched engine equals the per-slot path on random inputs."""
    seed = data.draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, T=3, d=2, max_servers=3)
    configs = StateGrid.full(inst.m).configs()
    block_costs, _ = DispatchSolver(inst).solve_block(range(inst.T), configs)
    per_slot = DispatchSolver(inst)
    t = data.draw(st.integers(0, inst.T - 1))
    costs_t, _ = per_slot.solve_grid(t, configs)
    np.testing.assert_allclose(block_costs[t], costs_t, rtol=1e-8, atol=1e-12)


class TestGridMemoisation:
    def test_time_invariant_instance_builds_one_grid(self, small_instance):
        grids = [grid_for_slot(small_instance, t) for t in range(small_instance.T)]
        assert all(g is grids[0] for g in grids)
        # the cached configs enumeration is shared and read-only
        configs = grids[0].configs()
        assert grids[0].configs() is configs
        assert not configs.flags.writeable

    def test_gamma_keys_are_separate(self, small_instance):
        full = grid_for_slot(small_instance, 0)
        reduced = grid_for_slot(small_instance, 0, gamma=1.5)
        assert full is not reduced
        assert grid_for_slot(small_instance, 1, gamma=1.5) is reduced

    def test_time_varying_counts_get_distinct_grids(self, small_instance):
        counts = np.tile(small_instance.m, (small_instance.T, 1))
        counts[0, 0] = 1
        inst = small_instance.with_counts(counts)
        g0 = grid_for_slot(inst, 0)
        g1 = grid_for_slot(inst, 1)
        assert g0.shape != g1.shape
        assert grid_for_slot(inst, 2) is g1


class TestPinnedExactness:
    def test_smoke_harness_passes(self):
        rows = run_smoke_bench(tolerance=1e-6)["smoke"]
        assert len(rows) == len(PINNED_OPTIMAL_COSTS)
        for row in rows:
            assert row["deviation"] <= 1e-6

    def test_pinned_costs_via_solve_dp(self):
        for instance in smoke_instances():
            cost = solve_optimal(instance, return_schedule=False).cost
            assert cost == pytest.approx(PINNED_OPTIMAL_COSTS[instance.name], abs=1e-6)
