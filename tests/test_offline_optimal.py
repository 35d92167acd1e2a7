"""Tests for the optimal offline algorithm (Section 4.1).

The vectorised DP is validated against three independent references:
the explicit networkx shortest-path on the paper's graph G(I), a pairwise
O(|M|^2) dynamic program, exhaustive enumeration on tiny instances, and the
MILP formulation for linear operating costs.
"""

import numpy as np
import pytest

from repro import (
    ConstantCost,
    LinearCost,
    ProblemInstance,
    QuadraticCost,
    Schedule,
    ServerType,
    evaluate_schedule,
    solve_milp,
    solve_optimal,
    total_cost,
)
from repro.exp.shared import SharedInstanceContext
from repro.offline import (
    build_graph,
    exhaustive_optimal,
    optimal_cost,
    pairwise_dp_optimal,
    shortest_path_schedule,
    solve_approx,
    solve_dp,
    solve_lp_relaxation,
)

from conftest import random_instance


class TestOptimalBasics:
    def test_schedule_is_feasible(self, small_instance):
        res = solve_optimal(small_instance)
        assert res.schedule.is_feasible(small_instance)

    def test_reported_cost_matches_reevaluation(self, small_instance):
        res = solve_optimal(small_instance)
        assert res.cost == pytest.approx(total_cost(small_instance, res.schedule), rel=1e-6)

    def test_cost_only_mode_matches(self, small_instance):
        full = solve_optimal(small_instance)
        cost_only = solve_optimal(small_instance, return_schedule=False)
        assert cost_only.cost == pytest.approx(full.cost, rel=1e-6)
        # cost-only results carry no schedule at all: a zero-length placeholder
        # used to be returned here and could be mistaken for a solved schedule
        assert cost_only.schedule is None

    def test_zero_demand_gives_empty_schedule(self, two_type_fleet):
        inst = ProblemInstance(two_type_fleet, np.zeros(4))
        res = solve_optimal(inst)
        assert res.cost == pytest.approx(0.0)
        assert np.all(res.schedule.x == 0)

    def test_empty_instance(self, two_type_fleet):
        inst = ProblemInstance(two_type_fleet, np.zeros(0))
        res = solve_optimal(inst)
        assert res.cost == 0.0 and res.schedule.T == 0

    def test_infeasible_instance_raises(self, two_type_fleet):
        inst = ProblemInstance(two_type_fleet, np.array([1.0, 100.0]))
        with pytest.raises(ValueError):
            solve_optimal(inst)

    def test_keep_tables(self, small_instance):
        res = solve_optimal(small_instance, keep_tables=True)
        assert res.value_tables is not None and len(res.value_tables) == small_instance.T
        # the minimum of the final table is the optimal cost (up to dispatch tolerance)
        assert float(np.min(res.value_tables[-1])) == pytest.approx(res.cost, rel=1e-6)

    def test_num_states_explored(self, small_instance):
        res = solve_optimal(small_instance)
        assert res.num_states_explored == small_instance.T * 4 * 3

    def test_optimal_cost_helper(self, small_instance):
        assert optimal_cost(small_instance) == pytest.approx(solve_optimal(small_instance).cost)

    def test_single_slot_instance(self, two_type_fleet):
        inst = ProblemInstance(two_type_fleet, np.array([2.0]))
        res = solve_optimal(inst)
        assert res.schedule.is_feasible(inst)
        # single slot: cost is g_0(x) + startup switching for the chosen x
        assert res.cost == pytest.approx(total_cost(inst, res.schedule), rel=1e-9)


class TestAgainstReferences:
    def test_matches_pairwise_dp(self, small_instance):
        fast = solve_optimal(small_instance)
        _, slow_cost = pairwise_dp_optimal(small_instance)
        assert fast.cost == pytest.approx(slow_cost, rel=1e-6)

    def test_matches_exhaustive_on_prefix(self, small_instance):
        prefix = small_instance.prefix(4)
        fast = solve_optimal(prefix)
        _, exhaustive_cost = exhaustive_optimal(prefix)
        assert fast.cost == pytest.approx(exhaustive_cost, rel=1e-6)

    def test_matches_networkx_shortest_path(self, small_instance):
        fast = solve_optimal(small_instance)
        _, nx_cost = shortest_path_schedule(small_instance)
        assert fast.cost == pytest.approx(nx_cost, rel=1e-6)

    def test_matches_milp_on_linear_instance(self, linear_instance):
        fast = solve_optimal(linear_instance)
        milp = solve_milp(linear_instance)
        assert fast.cost == pytest.approx(milp.cost, rel=1e-6)

    def test_lp_relaxation_is_lower_bound(self, linear_instance):
        fast = solve_optimal(linear_instance)
        lp = solve_lp_relaxation(linear_instance)
        assert lp.cost <= fast.cost + 1e-6

    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances_match_pairwise_dp(self, seed):
        rng = np.random.default_rng(1000 + seed)
        inst = random_instance(rng, T=4, d=2, max_servers=3)
        fast = solve_optimal(inst)
        _, slow_cost = pairwise_dp_optimal(inst)
        assert fast.cost == pytest.approx(slow_cost, rel=1e-5)
        assert fast.schedule.is_feasible(inst)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_homogeneous_matches_exhaustive(self, seed):
        rng = np.random.default_rng(2000 + seed)
        inst = random_instance(rng, T=4, d=1, max_servers=3)
        fast = solve_optimal(inst)
        _, exhaustive_cost = exhaustive_optimal(inst)
        assert fast.cost == pytest.approx(exhaustive_cost, rel=1e-5)

    def test_three_types(self):
        types = (
            ServerType("a", count=2, switching_cost=2.0, capacity=1.0,
                       cost_function=QuadraticCost(idle=0.4, a=0.1, b=0.6)),
            ServerType("b", count=2, switching_cost=5.0, capacity=2.0,
                       cost_function=LinearCost(idle=0.8, slope=0.5)),
            ServerType("c", count=1, switching_cost=8.0, capacity=4.0,
                       cost_function=ConstantCost(level=2.2)),
        )
        inst = ProblemInstance(types, np.array([1.0, 4.0, 2.0, 0.0, 6.0]))
        fast = solve_optimal(inst)
        _, slow_cost = pairwise_dp_optimal(inst)
        assert fast.cost == pytest.approx(slow_cost, rel=1e-6)


class TestOptimalityStructure:
    def test_optimal_never_worse_than_any_handcrafted_schedule(self, small_instance):
        res = solve_optimal(small_instance)
        for rows in (
            [[1, 0], [2, 0], [1, 1], [1, 0], [0, 0], [3, 0]],
            [[0, 1], [0, 1], [1, 1], [0, 1], [0, 1], [0, 1]],
            [[3, 2]] * 6,
        ):
            candidate = Schedule.from_rows(rows)
            if candidate.is_feasible(small_instance):
                assert res.cost <= total_cost(small_instance, candidate) + 1e-6

    def test_switching_cost_never_doubles_demand_peak(self, small_instance):
        """Sanity: the optimal schedule's switching cost is bounded by powering up the peak once."""
        res = solve_optimal(small_instance)
        peak_cost = float(np.sum(small_instance.m * small_instance.beta))
        assert evaluate_schedule(small_instance, res.schedule).total_switching <= peak_cost + 1e-9

    def test_optimal_cost_monotone_in_switching_costs(self, two_type_fleet):
        """Raising every beta_j can only make the optimum more expensive
        (every fixed schedule's cost is monotone in beta)."""
        demand = np.array([2.0, 0.0, 2.0, 0.0, 2.0, 0.0, 2.0])
        cheap = ProblemInstance(two_type_fleet, demand)
        expensive_types = tuple(
            ServerType(st.name, st.count, st.switching_cost * 50.0, st.capacity, st.cost_function)
            for st in two_type_fleet
        )
        expensive = ProblemInstance(expensive_types, demand)
        assert optimal_cost(expensive) >= optimal_cost(cheap) - 1e-9
        # and with expensive switching the optimum does not power-cycle more often
        # than the total number of cycles a demand burst could force
        bursts = int(np.sum((demand[1:] > 0) & (demand[:-1] == 0))) + 1
        ups_expensive = solve_optimal(expensive).schedule.num_power_ups().sum()
        assert ups_expensive <= bursts * int(np.sum(cheap.m))

    def test_monotone_in_demand(self, two_type_fleet):
        """Optimal cost is monotone when demand increases pointwise."""
        low = ProblemInstance(two_type_fleet, np.array([1.0, 2.0, 0.0, 1.0]))
        high = ProblemInstance(two_type_fleet, np.array([2.0, 3.0, 1.0, 2.0]))
        assert optimal_cost(high) >= optimal_cost(low) - 1e-9


class TestTimeVaryingCounts:
    def test_respects_reduced_counts(self, small_instance):
        counts = np.tile(small_instance.m, (small_instance.T, 1))
        counts[2] = [3, 1]  # fewer GPUs available during slot 2 (demand 5)
        inst = small_instance.with_counts(counts)
        res = solve_optimal(inst)
        assert res.schedule.is_feasible(inst)
        assert res.schedule.x[2, 1] <= 1

    def test_cost_never_decreases_with_fewer_servers(self, small_instance):
        counts = np.tile(small_instance.m, (small_instance.T, 1))
        counts[2] = [3, 1]
        inst = small_instance.with_counts(counts)
        assert optimal_cost(inst) >= optimal_cost(small_instance) - 1e-9

    def test_matches_pairwise_dp_with_time_varying_counts(self, small_instance):
        counts = np.tile(small_instance.m, (small_instance.T, 1))
        counts[1] = [2, 1]
        counts[4] = [1, 2]
        inst = small_instance.with_counts(counts)
        fast = solve_optimal(inst)
        _, slow_cost = pairwise_dp_optimal(inst)
        assert fast.cost == pytest.approx(slow_cost, rel=1e-6)

    def test_infeasible_when_counts_too_small(self, small_instance):
        counts = np.tile(small_instance.m, (small_instance.T, 1))
        counts[2] = [1, 0]  # capacity 1 < demand 5
        inst = small_instance.with_counts(counts)
        with pytest.raises(ValueError):
            solve_optimal(inst)


class TestInfeasibleSlot:
    """The error of an instance no schedule can serve names its earliest
    infeasible slot, whichever grid and key the provider solves first."""

    @pytest.fixture
    def two_bad_slots(self, two_type_fleet):
        """Slots 3 and 7 exceed their counts' capacity.  Slot 7's grid (one
        CPU, no GPU) already serves slot 1, so its key is solved before slot
        3's grid comes up; with ``checkpoint_every=2`` slot 3's window also
        holds slot 2's full grid."""
        demand = np.array([1.0, 0.5, 2.0, 5.0, 2.0, 1.0, 3.0, 6.0, 2.0, 1.0])
        counts = np.tile([3, 2], (len(demand), 1))
        counts[[1, 7]] = [1, 0]  # capacity 1: serves 0.5, not 6
        counts[3] = [3, 0]  # capacity 3 < 5
        return ProblemInstance(two_type_fleet, demand, counts=counts)

    @pytest.mark.parametrize(
        "solve",
        [
            lambda inst: solve_dp(inst),
            lambda inst: solve_dp(inst, checkpoint_every=2),
            lambda inst: solve_approx(inst, gamma=2.0),
            lambda inst: SharedInstanceContext(inst).history(),
        ],
        ids=["classic", "checkpointed", "approx", "shared-history"],
    )
    def test_error_names_the_earliest_infeasible_slot(self, two_bad_slots, solve):
        with pytest.raises(ValueError, match=r"^slot 3: "):
            solve(two_bad_slots)


class TestExplicitGraph:
    def test_figure4_graph_shape(self):
        """Figure 4: d=2, T=2, m=(2,1) gives 2*T*prod(m_j+1) = 24 vertices."""
        types = (
            ServerType("one", count=2, switching_cost=1.0, capacity=1.0,
                       cost_function=ConstantCost(1.0)),
            ServerType("two", count=1, switching_cost=2.0, capacity=2.0,
                       cost_function=ConstantCost(1.5)),
        )
        inst = ProblemInstance(types, np.array([2.0, 2.0]))
        graph = build_graph(inst)
        assert graph.number_of_nodes() == 2 * 2 * (2 + 1) * (1 + 1)

    def test_graph_edge_weights(self, small_instance):
        graph = build_graph(small_instance.prefix(2))
        # operating edge weight equals g_t(x)
        from repro.dispatch import DispatchSolver

        solver = DispatchSolver(small_instance.prefix(2))
        weight = graph.get_edge_data((0, "up", (1, 1)), (0, "down", (1, 1)))["weight"]
        assert weight == pytest.approx(solver.solve(0, [1, 1]).cost)
        # power-up edge weight equals beta_1
        weight_up = graph.get_edge_data((0, "up", (0, 0)), (0, "up", (1, 0)))["weight"]
        assert weight_up == pytest.approx(4.0)

    def test_bruteforce_guard(self, small_instance):
        with pytest.raises(ValueError):
            exhaustive_optimal(small_instance, max_schedules=10)
