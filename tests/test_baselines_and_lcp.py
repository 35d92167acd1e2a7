"""Tests for the comparison baselines (LCP, OBD, greedy heuristics, static, receding horizon)."""

import numpy as np
import pytest

from repro import (
    LazyCapacityProvisioning,
    ProblemInstance,
    Reactive,
    AllOn,
    FollowDemand,
    run_online,
    solve_optimal,
    total_cost,
)
from repro.online import (
    optimal_static_schedule,
    receding_horizon_schedule,
    round_up,
    run_obd,
)
from repro.workloads import diurnal_trace

from conftest import random_instance


class TestSimpleBaselines:
    def test_all_on_uses_full_fleet(self, small_instance):
        result = run_online(small_instance, AllOn())
        assert np.all(result.schedule.x == small_instance.m[None, :])
        assert result.schedule.is_feasible(small_instance)

    def test_all_on_cost_at_least_optimal(self, small_instance):
        opt = solve_optimal(small_instance, return_schedule=False).cost
        assert run_online(small_instance, AllOn()).cost >= opt - 1e-9

    def test_follow_demand_is_feasible_and_myopic(self, small_instance):
        result = run_online(small_instance, FollowDemand())
        assert result.schedule.is_feasible(small_instance)
        # on the zero-demand slot it powers everything down
        assert np.all(result.schedule.x[4] == 0)

    def test_reactive_is_feasible(self, small_instance):
        result = run_online(small_instance, Reactive())
        assert result.schedule.is_feasible(small_instance)

    def test_reactive_no_worse_than_follow_demand_on_bursty_demand(self, two_type_fleet):
        demand = np.array([2.0, 0.0, 2.0, 0.0, 2.0, 0.0, 2.0, 0.0])
        inst = ProblemInstance(two_type_fleet, demand)
        reactive = run_online(inst, Reactive()).cost
        follow = run_online(inst, FollowDemand()).cost
        # follow-demand pays a power-up for every burst; reactive may keep servers on
        assert reactive <= follow + 1e-6

    def test_reduced_grid_variants(self, small_instance):
        for algo in (Reactive(gamma=2.0), FollowDemand(gamma=2.0)):
            result = run_online(small_instance, algo)
            assert result.schedule.is_feasible(small_instance)

    def test_all_baselines_at_least_optimal(self, small_instance):
        opt = solve_optimal(small_instance, return_schedule=False).cost
        for algo in (AllOn(), FollowDemand(), Reactive()):
            assert run_online(small_instance, algo).cost >= opt - 1e-6


class TestOptimalStatic:
    def test_static_schedule_is_constant_and_feasible(self, small_instance):
        sched = optimal_static_schedule(small_instance)
        assert sched.is_feasible(small_instance)
        assert np.all(sched.x == sched.x[0][None, :])

    def test_static_at_least_optimal(self, small_instance):
        opt = solve_optimal(small_instance, return_schedule=False).cost
        assert total_cost(small_instance, optimal_static_schedule(small_instance)) >= opt - 1e-6

    def test_static_beats_all_on(self, small_instance):
        static = total_cost(small_instance, optimal_static_schedule(small_instance))
        all_on = run_online(small_instance, AllOn()).cost
        assert static <= all_on + 1e-6


class TestRecedingHorizon:
    def test_zero_lookahead_matches_reactive(self, small_instance):
        rh = receding_horizon_schedule(small_instance, lookahead=0)
        reactive = run_online(small_instance, Reactive()).schedule
        assert rh.same_as(reactive)

    def test_full_lookahead_matches_optimal(self, small_instance):
        rh = receding_horizon_schedule(small_instance, lookahead=small_instance.T)
        opt = solve_optimal(small_instance)
        assert total_cost(small_instance, rh) == pytest.approx(opt.cost, rel=1e-6)

    def test_feasibility_for_intermediate_lookahead(self, small_instance):
        for w in (1, 2, 3):
            assert receding_horizon_schedule(small_instance, w).is_feasible(small_instance)

    def test_longer_lookahead_does_not_hurt_much(self, two_type_fleet):
        demand = diurnal_trace(20, period=10, base=1.0, peak=6.0, noise=0.0)
        inst = ProblemInstance(two_type_fleet, demand)
        opt = solve_optimal(inst, return_schedule=False).cost
        short = total_cost(inst, receding_horizon_schedule(inst, 1))
        long = total_cost(inst, receding_horizon_schedule(inst, 8))
        assert long <= short + 1e-6 or long <= 1.05 * opt

    def test_negative_lookahead_rejected(self, small_instance):
        with pytest.raises(ValueError):
            receding_horizon_schedule(small_instance, -1)


class TestLCP:
    def test_requires_homogeneous_by_default(self, small_instance):
        with pytest.raises(ValueError):
            run_online(small_instance, LazyCapacityProvisioning())

    def test_heterogeneous_opt_in(self, small_instance):
        result = run_online(small_instance, LazyCapacityProvisioning(allow_heterogeneous=True))
        assert result.schedule.is_feasible(small_instance)

    def test_homogeneous_feasible_and_bounded(self, homogeneous_instance):
        opt = solve_optimal(homogeneous_instance, return_schedule=False).cost
        result = run_online(homogeneous_instance, LazyCapacityProvisioning())
        assert result.schedule.is_feasible(homogeneous_instance)
        assert result.cost >= opt - 1e-6
        # LCP is 3-competitive in the discrete homogeneous setting
        assert result.cost <= 3.0 * opt + 1e-6

    def test_moves_lazily(self, homogeneous_instance):
        result = run_online(homogeneous_instance, LazyCapacityProvisioning())
        bounds = [(record.lower, record.upper) for record in result.decisions]
        for t in range(homogeneous_instance.T):
            lo, hi = bounds[t]
            assert np.all(result.schedule.x[t] >= lo)
            assert np.all(result.schedule.x[t] <= hi)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_homogeneous_instances(self, seed):
        rng = np.random.default_rng(13_000 + seed)
        inst = random_instance(rng, T=8, d=1, max_servers=4)
        opt = solve_optimal(inst, return_schedule=False).cost
        result = run_online(inst, LazyCapacityProvisioning())
        assert result.schedule.is_feasible(inst)
        if opt > 1e-9:
            assert result.cost <= 3.0 * opt + 1e-6


class TestOBD:
    @pytest.fixture
    def tiny_instance(self):
        from repro import QuadraticCost, LinearCost, ServerType

        types = (
            ServerType("a", count=2, switching_cost=3.0, capacity=1.0,
                       cost_function=QuadraticCost(idle=0.5, a=0.2, b=1.0)),
            ServerType("b", count=1, switching_cost=6.0, capacity=3.0,
                       cost_function=LinearCost(idle=1.0, slope=0.5)),
        )
        return ProblemInstance(types, np.array([0.5, 2.0, 3.5, 1.0, 0.0, 2.0]), name="tiny")

    def test_fractional_trajectory_is_feasible(self, tiny_instance):
        res = run_obd(tiny_instance)
        zmax = tiny_instance.zmax
        caps = np.sum(res.xs * zmax[None, :], axis=1)
        assert np.all(caps >= tiny_instance.demand - 1e-6)
        assert np.all(res.xs >= -1e-9)
        assert np.all(res.xs <= tiny_instance.m[None, :] + 1e-9)

    def test_cost_decomposition(self, tiny_instance):
        res = run_obd(tiny_instance)
        assert res.cost == pytest.approx(res.total_operating + res.total_switching)
        assert np.all(np.isfinite(res.operating))

    def test_round_up_is_feasible_integral_schedule(self, tiny_instance):
        res = run_obd(tiny_instance)
        sched = round_up(res, tiny_instance)
        assert sched.is_feasible(tiny_instance)

    def test_rounded_cost_at_least_fractional_operating(self, tiny_instance):
        """Rounding up only adds servers, so feasibility holds; the integral cost is
        at least the discrete optimum."""
        res = run_obd(tiny_instance)
        opt = solve_optimal(tiny_instance, return_schedule=False).cost
        assert total_cost(tiny_instance, round_up(res, tiny_instance)) >= opt - 1e-6
