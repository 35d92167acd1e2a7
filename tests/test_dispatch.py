"""Tests for the load-dispatch solver (evaluation of ``g_t(x)``)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CallableCost,
    ConstantCost,
    LinearCost,
    PiecewiseLinearCost,
    PowerCost,
    ProblemInstance,
    QuadraticCost,
    ServerType,
)
from repro.dispatch import DispatchSolver, reference_dispatch
from repro.offline.state_grid import StateGrid

from conftest import random_instance


class TestBasicDispatch:
    def test_zero_demand_costs_idle_only(self, small_instance):
        solver = DispatchSolver(small_instance)
        res = solver.solve(4, [2, 1])  # slot 4 has zero demand
        assert res.cost == pytest.approx(2 * 0.5 + 1 * 1.5)
        np.testing.assert_allclose(res.loads, 0.0)

    def test_infeasible_configuration(self, small_instance):
        solver = DispatchSolver(small_instance)
        res = solver.solve(2, [1, 0])  # demand 5 > capacity 1
        assert math.isinf(res.cost)
        assert not res.feasible

    def test_all_off_with_zero_demand(self, small_instance):
        solver = DispatchSolver(small_instance)
        res = solver.solve(4, [0, 0])
        assert res.cost == 0.0
        assert res.feasible

    def test_all_off_with_positive_demand(self, small_instance):
        solver = DispatchSolver(small_instance)
        res = solver.solve(0, [0, 0])
        assert math.isinf(res.cost)

    def test_loads_sum_to_demand(self, small_instance):
        solver = DispatchSolver(small_instance)
        res = solver.solve(2, [3, 2])
        assert res.loads.sum() == pytest.approx(small_instance.demand[2], abs=1e-6)

    def test_loads_respect_capacity(self, small_instance):
        solver = DispatchSolver(small_instance)
        res = solver.solve(2, [3, 2])
        caps = np.array([3, 2]) * small_instance.zmax
        assert np.all(res.loads <= caps + 1e-6)

    def test_fractions_sum_to_one(self, small_instance):
        solver = DispatchSolver(small_instance)
        res = solver.solve(1, [1, 1])
        assert res.fractions.sum() == pytest.approx(1.0)

    def test_single_type_gets_everything(self, homogeneous_instance):
        solver = DispatchSolver(homogeneous_instance)
        res = solver.solve(3, [5])
        assert res.loads[0] == pytest.approx(homogeneous_instance.demand[3])

    def test_caching_returns_same_object(self, small_instance):
        solver = DispatchSolver(small_instance)
        a = solver.solve(1, [2, 1])
        b = solver.solve(1, [2, 1])
        assert a is b
        solver.clear_cache()
        c = solver.solve(1, [2, 1])
        assert c is not a and c.cost == pytest.approx(a.cost)

    def test_only_memoised_supersets_are_gathered(self, small_instance):
        grid = StateGrid.full(small_instance.m).configs()
        solver = DispatchSolver(small_instance)
        solver.solve_block([1], grid, memoise=False)
        solves = solver.stats.unique_solves
        solver.solve(1, grid[-1])
        assert solver.stats.unique_solves == solves + 1
        # a memoised grid answers the same query by a gather until cleared,
        # but not a set with a row outside the grid
        solver.solve_grid(3, grid)
        solves = solver.stats.unique_solves
        solver.solve(3, grid[-1])
        assert solver.stats.unique_solves == solves
        solver.solve_grid(3, np.array([grid[-1], [0.5, 1.0]]))
        assert solver.stats.unique_solves == solves + 1
        solver.clear_cache()
        solver.solve(3, grid[-1])
        assert solver.stats.unique_solves == solves + 2

    def test_wrong_shape_rejected(self, small_instance):
        solver = DispatchSolver(small_instance)
        with pytest.raises(ValueError):
            solver.solve(0, [1, 1, 1])
        with pytest.raises(ValueError):
            solver.solve_grid(0, np.zeros((2, 3)))

    def test_grid_matches_single_solves(self, small_instance):
        solver = DispatchSolver(small_instance)
        configs = np.array([[1, 0], [0, 1], [2, 1], [3, 2]])
        costs, loads = solver.solve_grid(1, configs)
        for i, config in enumerate(configs):
            single = solver.solve(1, config)
            if math.isinf(single.cost):
                assert math.isinf(costs[i])
            else:
                assert costs[i] == pytest.approx(single.cost, rel=1e-9)


class TestAgainstReferenceSolver:
    """The dual-bisection dispatcher must agree with the SciPy SLSQP reference."""

    def _compare(self, instance, configs, rel=2e-4):
        solver = DispatchSolver(instance)
        for t in range(instance.T):
            for config in configs:
                fast = solver.solve(t, config)
                slow = reference_dispatch(instance, t, config)
                if math.isinf(slow.cost) or math.isinf(fast.cost):
                    assert math.isinf(slow.cost) == math.isinf(fast.cost)
                else:
                    # the fast solver must never be worse than the reference
                    # (both are feasible allocations of the same convex problem)
                    assert fast.cost <= slow.cost * (1 + rel) + 1e-9
                    assert fast.cost >= slow.cost * (1 - rel) - 1e-9

    def test_mixed_quadratic_linear(self, small_instance):
        self._compare(small_instance, [[1, 1], [3, 0], [0, 2], [2, 1], [3, 2], [1, 0]])

    def test_constant_costs(self, load_independent_instance):
        self._compare(load_independent_instance, [[1, 1], [3, 0], [0, 2], [2, 1], [3, 3]])

    def test_power_costs(self):
        types = (
            ServerType("p2", count=2, switching_cost=1.0, capacity=2.0,
                       cost_function=PowerCost(idle=0.5, coef=1.0, exponent=2.0)),
            ServerType("p3", count=2, switching_cost=1.0, capacity=2.0,
                       cost_function=PowerCost(idle=0.2, coef=0.5, exponent=3.0)),
        )
        inst = ProblemInstance(types, np.array([0.5, 2.0, 4.0, 7.9]))
        self._compare(inst, [[1, 1], [2, 1], [2, 2], [0, 2]])

    def test_piecewise_linear_costs(self):
        types = (
            ServerType("pw", count=2, switching_cost=1.0, capacity=3.0,
                       cost_function=PiecewiseLinearCost(idle=0.5, breaks=(0.0, 1.0), slopes=(0.2, 2.0))),
            ServerType("lin", count=2, switching_cost=1.0, capacity=2.0,
                       cost_function=LinearCost(idle=0.3, slope=0.8)),
        )
        inst = ProblemInstance(types, np.array([1.0, 3.0, 6.0]))
        self._compare(inst, [[1, 1], [2, 2], [2, 0], [0, 2]])

    def test_three_types(self):
        types = (
            ServerType("a", count=2, switching_cost=1.0, capacity=1.0,
                       cost_function=QuadraticCost(idle=0.5, a=0.0, b=1.0)),
            ServerType("b", count=2, switching_cost=1.0, capacity=2.0,
                       cost_function=LinearCost(idle=1.0, slope=0.5)),
            ServerType("c", count=1, switching_cost=1.0, capacity=4.0,
                       cost_function=PowerCost(idle=2.0, coef=0.25, exponent=2.0)),
        )
        inst = ProblemInstance(types, np.array([0.0, 1.0, 3.0, 7.0]))
        self._compare(inst, [[1, 1, 1], [2, 2, 1], [0, 2, 1], [2, 0, 1], [1, 2, 0]])

    @pytest.mark.parametrize("seed", range(6))
    def test_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, T=3, d=2, max_servers=3)
        grid = [[i, j] for i in range(4) for j in range(4)]
        solver = DispatchSolver(inst)
        for t in range(inst.T):
            costs, _ = solver.solve_grid(t, np.array(grid))
            for config, cost in zip(grid, costs):
                if config[0] > inst.m[0] or config[1] > inst.m[1]:
                    continue
                slow = reference_dispatch(inst, t, config)
                if math.isinf(slow.cost) or math.isinf(cost):
                    assert math.isinf(slow.cost) == math.isinf(cost)
                else:
                    assert cost == pytest.approx(slow.cost, rel=3e-4, abs=1e-6)


class TestOptimalityStructure:
    def test_equal_marginals_at_optimum(self):
        """For strictly convex costs the marginal per-server costs equalise (KKT)."""
        types = (
            ServerType("a", count=2, switching_cost=1.0, capacity=10.0,
                       cost_function=QuadraticCost(idle=0.0, a=0.0, b=1.0)),
            ServerType("b", count=3, switching_cost=1.0, capacity=10.0,
                       cost_function=QuadraticCost(idle=0.0, a=0.0, b=2.0)),
        )
        inst = ProblemInstance(types, np.array([5.0]))
        res = DispatchSolver(inst).solve(0, [2, 3])
        z_a = res.loads[0] / 2
        z_b = res.loads[1] / 3
        # marginals: 2*b*z  -> 2*1*z_a == 2*2*z_b
        assert 2 * z_a == pytest.approx(4 * z_b, rel=1e-4)

    def test_cheaper_linear_type_fills_first(self):
        types = (
            ServerType("cheap", count=2, switching_cost=1.0, capacity=1.0,
                       cost_function=LinearCost(idle=0.1, slope=0.5)),
            ServerType("dear", count=2, switching_cost=1.0, capacity=1.0,
                       cost_function=LinearCost(idle=0.1, slope=2.0)),
        )
        inst = ProblemInstance(types, np.array([1.5]))
        res = DispatchSolver(inst).solve(0, [2, 2])
        assert res.loads[0] == pytest.approx(1.5, abs=1e-6)
        assert res.loads[1] == pytest.approx(0.0, abs=1e-6)

    def test_jensen_splitting_beats_unequal_split(self, small_instance):
        """Lemma 2: equal per-server splitting is at least as good as any manual split."""
        solver = DispatchSolver(small_instance)
        t = 2  # demand 5
        res = solver.solve(t, [3, 1])
        f_cpu = small_instance.cost_function(t, 0)
        f_gpu = small_instance.cost_function(t, 1)
        # manual uneven split: push 2.0 onto one CPU (over its capacity is not allowed),
        # so compare with a valid but unequal allocation across types instead
        manual = 3 * float(f_cpu.value(1.0)) + 1 * float(f_gpu.value(2.0))
        assert res.cost <= manual + 1e-9

    def test_cost_monotone_in_demand(self, small_instance):
        """g_t(x) is non-decreasing in the demand (with the same configuration)."""
        lo = ProblemInstance(small_instance.server_types, np.array([1.0]))
        hi = ProblemInstance(small_instance.server_types, np.array([4.0]))
        c_lo = DispatchSolver(lo).solve(0, [3, 1]).cost
        c_hi = DispatchSolver(hi).solve(0, [3, 1]).cost
        assert c_hi >= c_lo - 1e-9

    def test_more_servers_never_increase_cost_for_convex_costs(self):
        """Extra active servers cannot raise the dispatch-optimal operating cost
        when idle costs are zero (pure load-dependent costs)."""
        types = (
            ServerType("a", count=4, switching_cost=1.0, capacity=2.0,
                       cost_function=QuadraticCost(idle=0.0, a=0.0, b=1.0)),
            ServerType("b", count=4, switching_cost=1.0, capacity=2.0,
                       cost_function=QuadraticCost(idle=0.0, a=0.1, b=0.5)),
        )
        inst = ProblemInstance(types, np.array([3.0]))
        solver = DispatchSolver(inst)
        smaller = solver.solve(0, [1, 1]).cost
        larger = solver.solve(0, [3, 3]).cost
        assert larger <= smaller + 1e-9


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_dispatch_never_beats_reference_by_much_nor_loses(data):
    """Property: the fast dispatcher's value matches the SLSQP reference on random inputs."""
    seed = data.draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, T=2, d=2, max_servers=2)
    t = data.draw(st.integers(0, inst.T - 1))
    x = [data.draw(st.integers(0, int(inst.m[j]))) for j in range(inst.d)]
    fast = DispatchSolver(inst).solve(t, x)
    slow = reference_dispatch(inst, t, x)
    if math.isinf(slow.cost) or math.isinf(fast.cost):
        assert math.isinf(slow.cost) == math.isinf(fast.cost)
    else:
        assert fast.cost == pytest.approx(slow.cost, rel=5e-4, abs=1e-6)


def _assert_matches_reference(fast_cost, slow, rel=5e-4):
    if math.isinf(slow.cost) or math.isinf(fast_cost):
        assert math.isinf(slow.cost) == math.isinf(fast_cost)
    else:
        assert fast_cost == pytest.approx(slow.cost, rel=rel, abs=1e-6)


class TestFractionalConfigurations:
    """Fractional rows (OBD's SLSQP search evaluates them) cap the type
    *volume* ``x_j * zmax_j`` at the demand, not the per-server load."""

    def test_fraction_of_one_server_can_take_the_whole_demand(self):
        types = (
            ServerType("cheap", count=2, switching_cost=1.0, capacity=math.inf,
                       cost_function=QuadraticCost(idle=0.1, a=0.0, b=0.2)),
            ServerType("dear", count=2, switching_cost=1.0, capacity=4.0,
                       cost_function=LinearCost(idle=0.1, slope=3.0)),
        )
        inst = ProblemInstance(types, np.array([2.0]))
        costs, loads = DispatchSolver(inst).solve_grid(0, np.array([[0.5, 1.0]]))
        slow = reference_dispatch(inst, 0, [0.5, 1.0])
        # the marginal of the half server reaches the linear slope only at a
        # per-server load of 7.5, so it takes the whole demand of 2
        np.testing.assert_allclose(loads[0], [2.0, 0.0], atol=1e-12)
        _assert_matches_reference(costs[0], slow)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_fractional_rows_match_reference(self, seed):
        rng = np.random.default_rng(3000 + seed)
        inst = random_instance(rng, T=3, d=3, max_servers=3)
        configs = rng.uniform(0.0, 1.0, size=(12, 3)) * inst.m
        configs[rng.random(configs.shape) < 0.2] = 0.0
        solver = DispatchSolver(inst)
        for t in range(inst.T):
            costs, _ = solver.solve_grid(t, configs)
            for config, cost in zip(configs, costs):
                _assert_matches_reference(cost, reference_dispatch(inst, t, config))


class TestIterativePaths:
    def test_closed_form_families_take_no_iterations(self, small_instance):
        solver = DispatchSolver(small_instance)
        solver.solve_block(range(small_instance.T), StateGrid.full(small_instance.m).configs())
        assert solver.stats.unique_solves > 0
        assert solver.stats.bisection_iterations == 0

    @staticmethod
    def _callable_instance():
        types = (
            ServerType("measured", count=2, switching_cost=1.0, capacity=2.0,
                       cost_function=CallableCost(lambda z: 0.4 + 0.3 * z + 0.6 * z ** 2.5)),
            ServerType("quad", count=2, switching_cost=1.0, capacity=3.0,
                       cost_function=QuadraticCost(idle=0.5, a=0.2, b=0.4)),
        )
        return ProblemInstance(types, np.array([0.0, 0.7, 2.5, 6.0]))

    def test_callable_cost_goes_through_bisection(self):
        inst = self._callable_instance()
        configs = StateGrid.full(inst.m).configs()
        solver = DispatchSolver(inst)
        costs, loads = solver.solve_block(range(inst.T), configs)
        assert solver.stats.bisection_iterations > 0
        for t in range(inst.T):
            for i, config in enumerate(configs):
                _assert_matches_reference(costs[t, i], reference_dispatch(inst, t, config))
                if np.isfinite(costs[t, i]):
                    assert loads[t, i].sum() == pytest.approx(inst.demand[t], abs=1e-9)

    def test_callable_cost_rows_are_never_gathered(self):
        """The bisection stops on a block-wide width, so a configuration
        solved inside a grid may differ in its last bits from the same
        configuration solved alone: its query runs a fresh solve."""
        inst = self._callable_instance()
        configs = StateGrid.full(inst.m).configs()
        solver = DispatchSolver(inst)
        for t in range(inst.T):
            solver.solve_grid(t, configs)
            solves = solver.stats.unique_solves
            got = solver.solve(t, configs[-1])
            assert solver.stats.unique_solves == solves + 1
            fresh = DispatchSolver(inst).solve(t, configs[-1])
            assert np.array_equal(got.cost, fresh.cost)
            assert np.array_equal(got.loads, fresh.loads)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_exact_dispatch_property(data):
    """Property of the exact path on random fleets of every built-in family.

    The loads serve the demand within the type caps, the cost matches the
    SLSQP reference, and a cell is the same wherever it is solved — alone,
    in a grid row or in a block of slots — bit for bit.  A solver that has
    solved the grid answers the configuration and any sub-grid of it by a
    gather, with no fresh solve, bit for bit as a fresh solver does.
    """
    seed = data.draw(st.integers(0, 10_000))
    d = data.draw(st.integers(1, 4))
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, T=3, d=d, max_servers=2)
    if data.draw(st.booleans()):
        # every slot gets a price, so gathered costs carry a scale != 1
        inst = inst.with_price_profile(rng.uniform(0.5, 2.0, size=inst.T))
    grid = StateGrid.full(inst.m).configs()
    t = data.draw(st.integers(0, inst.T - 1))
    i = data.draw(st.integers(0, len(grid) - 1))
    x = grid[i]

    single = DispatchSolver(inst).solve(t, x)
    grid_costs, grid_loads = DispatchSolver(inst).solve_grid(t, grid)
    block_costs, block_loads = DispatchSolver(inst).solve_block(range(inst.T), grid)
    assert np.array_equal(grid_costs[i], single.cost)
    assert np.array_equal(block_costs[t, i], single.cost)
    assert np.array_equal(grid_loads[i], single.loads)
    assert np.array_equal(block_loads[t, i], single.loads)

    subset = grid[data.draw(st.lists(st.integers(0, len(grid) - 1), min_size=1, max_size=8))]
    solver = DispatchSolver(inst)
    solver.solve_grid(t, grid)
    solves = solver.stats.unique_solves
    gathered = solver.solve(t, x)
    sub_costs, sub_loads = solver.solve_block([t], subset)
    assert solver.stats.unique_solves == solves
    fresh_costs, fresh_loads = DispatchSolver(inst).solve_block([t], subset)
    assert np.array_equal(gathered.cost, single.cost)
    assert np.array_equal(gathered.loads, single.loads)
    assert np.array_equal(sub_costs, fresh_costs)
    assert np.array_equal(sub_loads, fresh_loads)

    lam = float(inst.demand[t])
    caps = x * inst.zmax
    if single.feasible:
        assert np.all(single.loads >= 0.0)
        assert np.all(single.loads <= caps * (1 + 1e-12) + 1e-12)
        assert single.loads.sum() == pytest.approx(lam, rel=1e-9, abs=1e-12)
    _assert_matches_reference(single.cost, reference_dispatch(inst, t, x))
