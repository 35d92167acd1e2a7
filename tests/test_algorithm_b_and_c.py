"""Tests for Algorithms B and C (Section 3, Theorems 13 and 15, Figure 3)."""

import numpy as np
import pytest

from repro import (
    ConstantCost,
    ProblemInstance,
    ServerType,
    run_online,
    solve_optimal,
    theoretical_bound,
)
from repro.core.cost_functions import ScaledCost
from repro.online import (
    AlgorithmA,
    AlgorithmB,
    AlgorithmC,
    FixedSequenceTracker,
    compute_retirement_sets,
    compute_runtimes,
    sub_slot_count,
)
from repro.online.blocks import power_up_log, prefix_optima, retirement_blocks, retirement_sets
from repro.workloads import diurnal_trace

from conftest import random_instance


# --------------------------------------------------------------------------- #
# Figure 3: the exact numbers from the paper
# --------------------------------------------------------------------------- #

FIGURE3_IDLE = np.array([3, 1, 4, 1, 2, 1, 1, 2, 3, 5, 1, 3], dtype=float)
FIGURE3_BETA = 6.0
FIGURE3_XHAT = np.array([1, 2, 1, 3, 0, 0, 1, 2, 0, 0, 0, 0])


def figure3_instance():
    """An instance whose slot-wise idle costs equal the l_{t,j} row of Figure 3.

    The demand is zero everywhere — Algorithm B's bookkeeping only depends on
    the x_hat sequence (injected through a FixedSequenceTracker) and the idle
    costs, exactly like in the figure.
    """
    base = ConstantCost(level=1.0)
    types = (ServerType("fig3", count=3, switching_cost=FIGURE3_BETA, capacity=1.0, cost_function=base),)
    cost_table = tuple((ScaledCost(base, float(l)),) for l in FIGURE3_IDLE)
    return ProblemInstance(types, np.zeros(len(FIGURE3_IDLE)), cost_functions=cost_table)


class TestFigure3:
    def test_runtimes_match_paper(self):
        """bar t_{t,j} = 3 2 4 4 3 3 2 1 2 for t = 1..9 (Figure 3)."""
        runtimes = compute_runtimes(FIGURE3_IDLE, FIGURE3_BETA)
        np.testing.assert_array_equal(runtimes[:9], [3, 2, 4, 4, 3, 3, 2, 1, 2])

    def test_retirement_sets_match_paper(self):
        """W_5={1,2}, W_8={3}, W_9={4,5}, W_10={6,7,8}, W_12={9} (1-based, Figure 3)."""
        sets = compute_retirement_sets(FIGURE3_IDLE, FIGURE3_BETA)
        one_based = {t + 1: [u + 1 for u in us] for t, us in enumerate(sets) if us}
        assert one_based == {5: [1, 2], 8: [3], 9: [4, 5], 10: [6, 7, 8], 12: [9]}

    def test_algorithm_b_schedule_matches_figure(self):
        """Replay the x_hat and idle-cost series of Figure 3 and check x^B slot by slot."""
        inst = figure3_instance()
        algo = AlgorithmB(tracker=FixedSequenceTracker(FIGURE3_XHAT))
        result = run_online(inst, algo)
        # Reconstruct the expected series: servers powered up at slot s stay
        # active through slot s + bar_t_{s}, using the runtimes above.
        runtimes = compute_runtimes(FIGURE3_IDLE, FIGURE3_BETA)
        T = len(FIGURE3_IDLE)
        active = np.zeros(T, dtype=int)
        current = 0
        ups = []
        for t in range(T):
            # retire servers first
            current = 0
            for (s, count) in ups:
                if t <= s + runtimes[s]:
                    current += count
            need = FIGURE3_XHAT[t] - current
            if need > 0:
                ups.append((t, need))
                current += need
            active[t] = current
        np.testing.assert_array_equal(result.schedule.x[:, 0], active)
        # the power-up record of the algorithm matches the reconstruction
        expected_ups = np.zeros(T, dtype=int)
        for s, count in ups:
            expected_ups[s] += count
        np.testing.assert_array_equal(power_up_log(result.decisions)[:, 0], expected_ups)

    def test_retirement_log_matches_paper_sets(self):
        inst = figure3_instance()
        algo = AlgorithmB(tracker=FixedSequenceTracker(FIGURE3_XHAT))
        log = retirement_sets(run_online(inst, algo).decisions, 0)
        # Power-ups happen at 1-based slots 1, 2, 4 and 8 (wherever x_hat exceeds the
        # currently running servers).  The paper's W_t sets list *all* candidate
        # power-up slots; the algorithm only records the ones where servers were
        # actually started, so the recorded retirements are the subset of the
        # paper's W_5, W_9 and W_10 sets corresponding to real power-ups.
        retired = {(t + 1): [s + 1 for s in entry] for t, entry in enumerate(log) if entry}
        assert retired == {5: [1, 2], 9: [4], 10: [8]}
        paper_sets = {5: [1, 2], 8: [3], 9: [4, 5], 10: [6, 7, 8], 12: [9]}
        for slot, ups in retired.items():
            assert set(ups) <= set(paper_sets[slot])


class TestAlgorithmBBehaviour:
    def test_invariant_x_at_least_xhat(self, time_dependent_instance):
        algo = AlgorithmB()
        result = run_online(time_dependent_instance, algo)
        assert np.all(result.schedule.x >= prefix_optima(result.decisions))

    def test_feasibility_lemma10(self, time_dependent_instance):
        result = run_online(time_dependent_instance, AlgorithmB())
        assert result.schedule.is_feasible(time_dependent_instance)

    def test_blocks_cover_power_ups(self, time_dependent_instance):
        decisions = run_online(time_dependent_instance, AlgorithmB()).decisions
        for j in range(time_dependent_instance.d):
            blocks = retirement_blocks(decisions, j)
            ups_from_blocks = len(blocks)
            events = int(np.sum(power_up_log(decisions)[:, j] > 0))
            assert ups_from_blocks == events

    def test_bound_theorem13(self, time_dependent_instance):
        opt = solve_optimal(time_dependent_instance, return_schedule=False).cost
        result = run_online(time_dependent_instance, AlgorithmB())
        bound = theoretical_bound(time_dependent_instance, "B")
        assert result.cost <= bound * opt + 1e-6

    @pytest.mark.parametrize("seed", range(6))
    def test_bound_on_random_time_dependent_instances(self, seed):
        rng = np.random.default_rng(11_000 + seed)
        base = random_instance(rng, T=7, d=2, max_servers=3)
        prices = rng.uniform(0.5, 2.0, size=base.T)
        inst = base.with_price_profile(prices)
        opt = solve_optimal(inst, return_schedule=False).cost
        result = run_online(inst, AlgorithmB())
        assert result.schedule.is_feasible(inst)
        if opt > 1e-9:
            assert result.cost <= theoretical_bound(inst, "B") * opt + 1e-6

    def test_matches_a_style_runtime_on_time_independent_costs(self, load_independent_instance):
        """With constant idle costs, B's adaptive runtime is within one slot of A's fixed one
        (B excludes the power-up slot from the budget, A includes it)."""
        algo_a = AlgorithmA()
        algo_b = AlgorithmB()
        result_a = run_online(load_independent_instance, algo_a)
        result_b = run_online(load_independent_instance, algo_b)
        assert result_a.schedule.is_feasible(load_independent_instance)
        assert result_b.schedule.is_feasible(load_independent_instance)
        # identical power-up decisions (same tracker state), possibly longer runtimes in B
        assert np.all(result_b.schedule.x >= result_a.schedule.x - 1)


def _sub_slot_counts(result):
    """The refinement counts ``n_t`` Algorithm C used for every original slot."""
    return np.array([record.sub_slots for record in result.decisions])


class TestAlgorithmC:
    def test_sub_slot_count_formula(self):
        # n_t = ceil(d/eps * max_j l_{t,j}/beta_j)
        assert sub_slot_count(2, 0.5, np.array([1.0, 2.0]), np.array([4.0, 4.0])) == 2
        assert sub_slot_count(2, 0.1, np.array([1.0, 2.0]), np.array([4.0, 4.0])) == 10
        assert sub_slot_count(1, 1.0, np.array([0.0]), np.array([4.0])) == 1  # at least one

    def test_sub_slot_count_validation(self):
        with pytest.raises(ValueError):
            sub_slot_count(2, 0.0, np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            sub_slot_count(2, 0.5, np.array([1.0]), np.array([0.0]))

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            AlgorithmC(epsilon=0.0)

    @pytest.mark.parametrize(
        "params, match",
        [
            ({"max_sub_slots": 0}, "max_sub_slots"),
            ({"max_sub_slots": -2}, "max_sub_slots"),
            ({"max_sub_slots": 2.5}, "max_sub_slots"),
            ({"max_sub_slots": True}, "max_sub_slots"),
            ({"epsilon": float("nan")}, "epsilon"),
            ({"epsilon": float("inf")}, "epsilon"),
            ({"epsilon": -0.5}, "epsilon"),
        ],
        ids=["cap-0", "cap-neg", "cap-float", "cap-bool", "eps-nan", "eps-inf", "eps-neg"],
    )
    def test_malformed_parameters_fail_in_the_constructor(self, params, match):
        """Every malformed epsilon or cap raises ValueError when C is built,
        directly and through the serve builder, before any step runs."""
        from repro.serve import build_serve_algorithm

        with pytest.raises(ValueError, match=match):
            AlgorithmC(**params)
        with pytest.raises(ValueError, match=match):
            build_serve_algorithm({"kind": "C", "params": params})

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), 0.0])
    def test_sub_slot_count_needs_a_finite_positive_epsilon(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            sub_slot_count(2, epsilon, np.array([1.0]), np.array([1.0]))

    def test_integral_caps_are_kept(self, time_dependent_instance):
        assert AlgorithmC(max_sub_slots=np.int64(3)).max_sub_slots == 3
        assert AlgorithmC(max_sub_slots=None).max_sub_slots is None
        result = run_online(time_dependent_instance, AlgorithmC(epsilon=0.001, max_sub_slots=1))
        assert np.all(_sub_slot_counts(result) == 1)

    def test_feasibility(self, time_dependent_instance):
        result = run_online(time_dependent_instance, AlgorithmC(epsilon=0.5))
        assert result.schedule.is_feasible(time_dependent_instance)

    def test_bound_theorem15(self, time_dependent_instance):
        opt = solve_optimal(time_dependent_instance, return_schedule=False).cost
        eps = 0.5
        result = run_online(time_dependent_instance, AlgorithmC(epsilon=eps))
        bound = 2 * time_dependent_instance.d + 1 + eps
        assert result.cost <= bound * opt + 1e-6

    def test_sub_slot_counts_recorded(self, time_dependent_instance):
        result = run_online(time_dependent_instance, AlgorithmC(epsilon=0.5))
        counts = _sub_slot_counts(result)
        assert counts.shape == (time_dependent_instance.T,)
        assert np.all(counts >= 1)

    def test_smaller_epsilon_means_more_sub_slots(self, time_dependent_instance):
        coarse = run_online(time_dependent_instance, AlgorithmC(epsilon=1.0))
        fine = run_online(time_dependent_instance, AlgorithmC(epsilon=0.1))
        assert np.all(_sub_slot_counts(fine) >= _sub_slot_counts(coarse))

    def test_max_sub_slot_cap(self, time_dependent_instance):
        result = run_online(time_dependent_instance, AlgorithmC(epsilon=0.001, max_sub_slots=5))
        assert np.all(_sub_slot_counts(result) <= 5)

    @pytest.mark.parametrize("seed", range(3))
    def test_bound_on_random_instances(self, seed):
        rng = np.random.default_rng(12_000 + seed)
        base = random_instance(rng, T=6, d=2, max_servers=3)
        prices = rng.uniform(0.5, 2.0, size=base.T)
        inst = base.with_price_profile(prices)
        opt = solve_optimal(inst, return_schedule=False).cost
        eps = 1.0
        result = run_online(inst, AlgorithmC(epsilon=eps))
        assert result.schedule.is_feasible(inst)
        if opt > 1e-9:
            assert result.cost <= (2 * inst.d + 1 + eps) * opt + 1e-6

    def test_diurnal_with_prices(self, two_type_fleet):
        demand = diurnal_trace(24, period=12, base=1.0, peak=8.0, noise=0.05, rng=7)
        prices = 1.0 + 0.4 * np.sin(np.arange(24) / 24 * 2 * np.pi)
        inst = ProblemInstance(two_type_fleet, demand).with_price_profile(prices)
        opt = solve_optimal(inst, return_schedule=False).cost
        for algo, bound in [
            (AlgorithmB(), theoretical_bound(inst, "B")),
            (AlgorithmC(epsilon=0.5), 2 * inst.d + 1 + 0.5),
        ]:
            result = run_online(inst, algo)
            assert result.cost <= bound * opt + 1e-6
