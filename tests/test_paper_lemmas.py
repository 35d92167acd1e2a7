"""Empirical checks of the paper's analysis lemmas.

The competitive proofs of Sections 2 and 3 rest on a handful of per-slot and
per-block inequalities.  These tests verify each of them *as stated* on
concrete instances (small enough that the exact prefix optima can be recomputed
from scratch), which both validates the implementation and documents how the
analysis maps onto code:

* Lemma 1 / Lemma 10 — feasibility of X^A and X^B (also covered in the
  algorithm test modules; repeated here against freshly solved prefixes).
* Lemma 2 — Jensen: splitting a type's volume equally over its servers is optimal.
* Lemma 4 — the load-dependent operating cost of the online schedule is at most
  that of the prefix-optimal schedule, slot by slot and type by type.
* Lemma 5 — the total load-dependent cost of the online schedule is at most
  C(X̂^T), the optimal cost of the full instance.
* Lemma 6 / Lemma 11 — the switching + idle cost of a single block is at most
  2·min(β_j + f_j(0), ¯t_j·f_j(0)) resp. 2β_j + max_t l_{t,j}.
* Lemma 7 / Lemma 12 — summed over all blocks of one type, the switching + idle
  cost is at most 2·C(X̂^T) resp. (2 + max_t l_{t,j}/β_j)·C(X̂^T).
"""

import numpy as np
import pytest

from repro import evaluate_schedule, run_online, solve_optimal
from repro.dispatch import DispatchSolver
from repro.online import AlgorithmA, AlgorithmB
from repro.online.blocks import fixed_runtime_blocks, prefix_optima, retirement_blocks

from conftest import random_instance


def _prefix_optimal_schedules(instance, dispatcher):
    """The optimal schedule X̂^t of every prefix instance I_t (recomputed exactly)."""
    schedules = []
    for t in range(instance.T):
        schedules.append(solve_optimal(instance.prefix(t + 1), dispatcher=None).schedule)
    return schedules


def _load_dependent(instance, schedule, dispatcher=None):
    return evaluate_schedule(instance, schedule, dispatcher).load_dependent


class TestLemma4And5:
    """Per-slot load-dependent cost of X^A vs. the prefix optimum, and the total vs. C(X̂^T).

    Lemma 4 is applied in the paper slot-wise (summed over types) inside the
    proof of Lemma 5; that aggregated form is what we verify here — with every
    schedule dispatched optimally, ``sum_j L_{t,j}(X^A) <= sum_j L_{t,j}(X̂^t)``
    follows because X^A dominates x̂^t component-wise, so X̂^t's dispatch is a
    feasible (idle-padding) dispatch for X^A.
    """

    @pytest.mark.parametrize("seed", range(3))
    def test_lemma4_per_slot_aggregate(self, seed):
        rng = np.random.default_rng(20_000 + seed)
        instance = random_instance(rng, T=6, d=2, max_servers=3)
        dispatcher = DispatchSolver(instance)
        algo = AlgorithmA()
        online = run_online(instance, algo, dispatcher=dispatcher)
        online_load = _load_dependent(instance, online.schedule, dispatcher)
        prefixes = _prefix_optimal_schedules(instance, dispatcher)
        for t in range(instance.T):
            prefix_instance = instance.prefix(t + 1)
            prefix_load = _load_dependent(prefix_instance, prefixes[t])
            assert float(np.sum(online_load[t])) <= float(np.sum(prefix_load[t])) + 1e-6

    @pytest.mark.parametrize("seed", range(3))
    def test_lemma5_total_load_dependent_cost(self, seed):
        rng = np.random.default_rng(21_000 + seed)
        instance = random_instance(rng, T=6, d=2, max_servers=3)
        dispatcher = DispatchSolver(instance)
        online = run_online(instance, AlgorithmA(), dispatcher=dispatcher)
        online_load = _load_dependent(instance, online.schedule, dispatcher)
        optimal_cost = solve_optimal(instance, dispatcher=dispatcher, return_schedule=False).cost
        assert float(np.sum(online_load)) <= optimal_cost + 1e-6

    def test_lemma5_for_algorithm_b(self, time_dependent_instance):
        dispatcher = DispatchSolver(time_dependent_instance)
        online = run_online(time_dependent_instance, AlgorithmB(), dispatcher=dispatcher)
        online_load = _load_dependent(time_dependent_instance, online.schedule, dispatcher)
        optimal_cost = solve_optimal(
            time_dependent_instance, dispatcher=dispatcher, return_schedule=False
        ).cost
        assert float(np.sum(online_load)) <= optimal_cost + 1e-6


class TestLemma6And7:
    """Per-block and per-type charges of Algorithm A's switching + idle cost."""

    def _run(self, instance):
        dispatcher = DispatchSolver(instance)
        algo = AlgorithmA()
        result = run_online(instance, algo, dispatcher=dispatcher)
        optimal_cost = solve_optimal(instance, dispatcher=dispatcher, return_schedule=False).cost
        return algo, result, optimal_cost

    @pytest.mark.parametrize("seed", range(3))
    def test_lemma6_per_block_charge(self, seed):
        rng = np.random.default_rng(22_000 + seed)
        instance = random_instance(rng, T=8, d=2, max_servers=3)
        algo, _, _ = self._run(instance)
        idle = instance.idle_costs(0)
        for j in range(instance.d):
            runtime = algo.runtimes[j]
            if not np.isfinite(runtime):
                continue
            # H_{j,i} = beta_j + bar_t_j * f_j(0)  <=  2 min(beta_j + f_j(0), bar_t_j f_j(0))
            h = instance.beta[j] + runtime * idle[j]
            bound = 2.0 * min(instance.beta[j] + idle[j], runtime * idle[j])
            assert h <= bound + 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_lemma7_per_type_charge(self, seed):
        """sum_i H_{j,i} <= 2 C(X̂^T) for every type j (the heart of Theorem 8)."""
        rng = np.random.default_rng(23_000 + seed)
        instance = random_instance(rng, T=8, d=2, max_servers=3)
        algo, result, optimal_cost = self._run(instance)
        idle = instance.idle_costs(0)
        for j in range(instance.d):
            runtime = algo.runtimes[j]
            blocks = fixed_runtime_blocks(result.decisions, j, runtime, horizon=instance.T)
            if not blocks or not np.isfinite(runtime):
                continue
            total_h = sum(instance.beta[j] + runtime * idle[j] for _ in blocks)
            assert total_h <= 2.0 * optimal_cost + 1e-6

    def test_lemma12_per_type_charge_for_b(self, time_dependent_instance):
        """sum_i H_{j,i} <= (2 + max_t l_{t,j}/beta_j) C(X̂^T) for Algorithm B."""
        instance = time_dependent_instance
        dispatcher = DispatchSolver(instance)
        decisions = run_online(instance, AlgorithmB(), dispatcher=dispatcher).decisions
        optimal_cost = solve_optimal(instance, dispatcher=dispatcher, return_schedule=False).cost
        idle_by_slot = np.array([instance.idle_costs(t) for t in range(instance.T)])
        for j in range(instance.d):
            blocks = retirement_blocks(decisions, j)
            if not blocks:
                continue
            total_h = 0.0
            for block in blocks:
                total_h += instance.beta[j] + float(
                    np.sum(idle_by_slot[block.start : block.end + 1, j])
                )
            c_j = float(np.max(idle_by_slot[:, j])) / instance.beta[j]
            assert total_h <= (2.0 + c_j) * optimal_cost + 1e-6

    def test_lemma11_per_block_charge_for_b(self, time_dependent_instance):
        """H_{j,i} <= 2 beta_j + max_t l_{t,j} for every block of Algorithm B."""
        instance = time_dependent_instance
        dispatcher = DispatchSolver(instance)
        decisions = run_online(instance, AlgorithmB(), dispatcher=dispatcher).decisions
        idle_by_slot = np.array([instance.idle_costs(t) for t in range(instance.T)])
        for j in range(instance.d):
            for block in retirement_blocks(decisions, j):
                h = instance.beta[j] + float(np.sum(idle_by_slot[block.start : block.end + 1, j]))
                bound = 2.0 * instance.beta[j] + float(np.max(idle_by_slot[:, j]))
                assert h <= bound + 1e-9


class TestLemma2Jensen:
    """Equal splitting over a type's active servers is never worse than an arbitrary split."""

    @pytest.mark.parametrize("seed", range(5))
    def test_equal_split_optimal(self, seed):
        rng = np.random.default_rng(24_000 + seed)
        instance = random_instance(rng, T=2, d=1, max_servers=4)
        dispatcher = DispatchSolver(instance)
        t = 0
        lam = float(instance.demand[t])
        x = int(instance.m[0])
        if x == 0 or lam == 0:
            return
        f = instance.cost_function(t, 0)
        equal = x * float(f.value(min(lam / x, instance.zmax[0])))
        # random valid split of the volume across the x servers
        weights = rng.dirichlet(np.ones(x))
        loads = np.minimum(weights * lam, instance.zmax[0])
        if loads.sum() < lam - 1e-9:
            return  # the random split violates capacity; skip
        uneven = float(np.sum([f.value(l) for l in loads]))
        assert equal <= uneven + 1e-6


class TestFeasibilityLemmas:
    """Lemma 1 and Lemma 10 on instances with freshly recomputed prefix optima."""

    @pytest.mark.parametrize("seed", range(3))
    def test_lemma1_feasibility_and_dominance(self, seed):
        rng = np.random.default_rng(25_000 + seed)
        instance = random_instance(rng, T=6, d=2, max_servers=3)
        dispatcher = DispatchSolver(instance)
        algo = AlgorithmA()
        result = run_online(instance, algo, dispatcher=dispatcher)
        assert result.schedule.is_feasible(instance)
        prefixes = _prefix_optimal_schedules(instance, dispatcher)
        for t in range(instance.T):
            # x^A_t dominates the final configuration of *some* optimal prefix schedule;
            # its capacity therefore covers the demand of slot t
            capacity = float(np.sum(result.schedule.x[t] * instance.zmax))
            assert capacity >= instance.demand[t] - 1e-9
            # and the tracker's reported prefix optimum is dominated entry-wise
            assert np.all(result.schedule.x[t] >= prefix_optima(result.decisions)[t])
