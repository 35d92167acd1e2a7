"""Equivalence suite for the shared-context sweep engine.

The engine is pure orchestration: batching algorithms × instances through one
shared context per instance (dispatch solver, grid tensors, prefix-DP value
stream) must not change a single schedule, cost or ratio relative to the
sequential ``run_online`` path.  These tests assert exactly that — to 1e-9 on
costs and exact equality on schedules — for every algorithm family on the
three instance classes (time-invariant, priced, time-varying counts), plus the
shared-tracker path with both tie-breaks, the per-run dispatch-stat deltas,
and the process-sharded path.
"""

import numpy as np
import pytest

from repro import (
    AlgorithmA,
    AlgorithmB,
    AlgorithmC,
    LazyCapacityProvisioning,
    run_online,
    solve_approx,
    solve_optimal,
)
from repro.core.instance import ProblemInstance
from repro.dispatch import DispatchSolver
from repro.exp import (
    AlgorithmSpec,
    OfflineSpec,
    SharedInstanceContext,
    SweepPlan,
    run_instance,
    run_plan,
    spec,
)
from repro.online import DPPrefixTracker, SlotContext
from repro.workloads import cpu_gpu_fleet, diurnal_trace, fleet_instance, single_type_fleet


def _time_invariant(T=14):
    return fleet_instance(
        cpu_gpu_fleet(cpu_count=4, gpu_count=2),
        diurnal_trace(T, period=T // 2, base=1.0, peak=8.0, noise=0.05, rng=3),
        name="eng-ti",
    )


def _priced(T=14):
    base = _time_invariant(T)
    prices = 1.0 + 0.6 * np.sin(np.arange(T) / T * 4 * np.pi + 0.4)
    return base.with_price_profile(prices, name="eng-priced")


def _varying_counts(T=14):
    # expansion-only fleet (online algorithms never power down on shrink, so a
    # shrinking fleet would make B/C infeasible by construction)
    base = _time_invariant(T)
    counts = np.tile([4, 2], (T, 1))
    counts[:4] = [2, 1]
    counts[4:8] = [3, 2]
    demand = np.minimum(base.demand, 4.0)
    return ProblemInstance(base.server_types, demand, counts=counts, name="eng-counts")


def _homogeneous(T=14):
    return fleet_instance(
        single_type_fleet(count=6),
        diurnal_trace(T, period=T // 2, base=0.5, peak=5.0, noise=0.05, rng=7),
        name="eng-homog",
    )


ALL_INSTANCES = [_time_invariant, _priced, _varying_counts]


def _sequential(instance, algorithm):
    """The reference path: fresh solver, private trackers, separate optimum."""
    dispatcher = DispatchSolver(instance)
    opt = solve_optimal(instance, dispatcher=dispatcher, return_schedule=False).cost
    result = run_online(instance, algorithm, dispatcher=dispatcher)
    return result, opt


class TestEngineEquivalence:
    @pytest.mark.parametrize("make_instance", ALL_INSTANCES)
    def test_a_b_c_match_sequential_runs(self, make_instance):
        instance = make_instance()
        report = run_plan(
            SweepPlan(
                instances=(instance,),
                algorithms=(spec("A"), spec("B"), spec("C", epsilon=0.5)),
            )
        )
        references = {
            "algorithm-A": AlgorithmA(),
            "algorithm-B": AlgorithmB(),
            "algorithm-C": AlgorithmC(epsilon=0.5),
        }
        assert len(report.records) == 3
        for record in report.records:
            seq, opt = _sequential(instance, references[record.algorithm])
            assert np.array_equal(record.result.schedule.x, seq.schedule.x)
            assert record.cost == pytest.approx(seq.cost, abs=1e-9)
            assert record.optimal_cost == pytest.approx(opt, abs=1e-9)
            assert record.ratio == pytest.approx(seq.cost / opt, abs=1e-9)
            assert record.result.breakdown.total == pytest.approx(seq.breakdown.total, abs=1e-9)
            assert record.result.breakdown.total_switching == pytest.approx(
                seq.breakdown.total_switching, abs=1e-9
            )

    def test_lcp_shared_stream_uses_both_tie_breaks(self):
        instance = _homogeneous()
        report = run_plan(SweepPlan(instances=(instance,), algorithms=(spec("lcp", bound=None),)))
        seq, opt = _sequential(instance, LazyCapacityProvisioning())
        record = report.records[0]
        assert np.array_equal(record.result.schedule.x, seq.schedule.x)
        assert record.cost == pytest.approx(seq.cost, abs=1e-9)
        assert record.optimal_cost == pytest.approx(opt, abs=1e-9)

    @pytest.mark.parametrize("make_instance", ALL_INSTANCES)
    def test_shared_tracker_matches_private_per_tie_break(self, make_instance):
        instance = make_instance()
        context = SharedInstanceContext(instance)
        shared = context.tracker()
        private = DPPrefixTracker()
        private_slots = SlotContext(instance)
        for t in range(instance.T):
            x_shared = shared.observe(context.slots.slot(t))
            x_private = private.observe(private_slots.slot(t))
            assert np.array_equal(x_shared, x_private), t
            assert np.array_equal(
                shared.argmin("largest"), private.argmin("largest")
            ), t
        assert shared.prefix_optimum_cost() == pytest.approx(
            private.prefix_optimum_cost(), abs=1e-9
        )

    @pytest.mark.parametrize("make_instance", ALL_INSTANCES)
    def test_stream_values_equal_offline_dp_tables(self, make_instance):
        instance = make_instance()
        context = SharedInstanceContext(instance)
        engine_opt = context.optimal_cost()
        history = context.history(None)
        reference = solve_optimal(instance, keep_tables=True)
        assert len(history) == instance.T
        for t in range(instance.T):
            assert np.array_equal(history.values[t], reference.value_tables[t]), t
        assert engine_opt == solve_optimal(instance, return_schedule=False).cost

    def test_offline_specs_match_direct_solvers(self):
        instance = _varying_counts()
        report = run_plan(
            SweepPlan(
                instances=(instance,),
                offline=(OfflineSpec(solver="optimal"), OfflineSpec(solver="approx", epsilon=0.5)),
            )
        )
        exact = report.record(instance.name, "offline-optimal").result
        approx = report.record(instance.name, "approx(eps=0.5)").result
        ref_exact = solve_optimal(instance)
        ref_approx = solve_approx(instance, epsilon=0.5)
        assert np.array_equal(exact.schedule.x, ref_exact.schedule.x)
        assert exact.cost == pytest.approx(ref_exact.cost, abs=1e-9)
        assert np.array_equal(approx.schedule.x, ref_approx.schedule.x)
        assert approx.cost == pytest.approx(ref_approx.cost, abs=1e-9)
        assert exact.schedule.is_feasible(instance)

    def test_slot_context_evaluation_matches_general_path(self):
        from repro import evaluate_schedule

        instance = _priced()
        context = SharedInstanceContext(instance)
        result = context.run(AlgorithmB())
        reference = evaluate_schedule(instance, result.schedule, DispatchSolver(instance))
        assert result.breakdown.total == pytest.approx(reference.total, abs=1e-9)
        assert np.allclose(result.breakdown.operating, reference.operating, atol=1e-9)
        assert np.allclose(result.breakdown.loads, reference.loads, atol=1e-7)
        assert np.allclose(result.breakdown.idle, reference.idle, atol=1e-9)

    def test_custom_factory_specs(self):
        instance = _time_invariant()
        report = run_plan(
            SweepPlan(
                instances=(instance,),
                algorithms=(
                    AlgorithmSpec(kind="custom", bound=None, factory=lambda ctx: AlgorithmA()),
                ),
            )
        )
        seq, _ = _sequential(instance, AlgorithmA())
        assert report.records[0].cost == pytest.approx(seq.cost, abs=1e-9)


class TestDispatchStatsDelta:
    def test_per_run_deltas_on_shared_solver(self):
        instance = _time_invariant()
        dispatcher = DispatchSolver(instance)
        first = run_online(instance, AlgorithmA(), dispatcher=dispatcher)
        second = run_online(instance, AlgorithmA(), dispatcher=dispatcher)
        # the second run is served almost entirely from the shared caches; a
        # cumulative snapshot would report first-run work again
        assert second.dispatch_stats["slot_queries"] < first.dispatch_stats["slot_queries"] * 2
        assert second.dispatch_stats["unique_solves"] == 0
        assert first.dispatch_stats["unique_solves"] > 0
        total = dispatcher.stats.snapshot()
        assert (
            first.dispatch_stats["slot_queries"] + second.dispatch_stats["slot_queries"]
            == total["slot_queries"]
        )

    def test_delta_since_recomputes_hit_rate(self):
        instance = _time_invariant()
        dispatcher = DispatchSolver(instance)
        run_online(instance, AlgorithmA(), dispatcher=dispatcher)
        before = dispatcher.stats.snapshot()
        delta = dispatcher.stats.delta_since(before)
        assert delta["slot_queries"] == 0
        assert delta["cache_hit_rate"] == 0.0


class TestEngineBatching:
    def test_run_instance_shares_one_context(self):
        instance = _time_invariant()
        context = SharedInstanceContext(instance)
        records = run_instance(
            instance, algorithms=(spec("A"), spec("B")), context=context
        )
        # B's record must show near-total cache reuse: the grid tensors and
        # value history were already materialised by the optimum and A
        assert records[1].dispatch_stats["unique_solves"] == 0

    def test_parallel_jobs_match_serial(self):
        instances = (_time_invariant(), _homogeneous())
        plan = SweepPlan(instances=instances, algorithms=(spec("A"),), jobs=2)
        serial = run_plan(plan, jobs=1)
        parallel = run_plan(plan)
        assert len(serial.records) == len(parallel.records)
        for a, b in zip(serial.records, parallel.records):
            assert a.instance == b.instance
            assert a.algorithm == b.algorithm
            assert a.cost == pytest.approx(b.cost, abs=1e-12)
            assert a.optimal_cost == pytest.approx(b.optimal_cost, abs=1e-12)

    def test_report_rows_and_json_shape(self, tmp_path):
        instance = _time_invariant()
        report = run_plan(SweepPlan(instances=(instance,), algorithms=(spec("A"),)))
        rows = report.as_rows()
        assert rows[0]["instance"] == instance.name
        assert rows[0]["kind"] == "online"
        assert "dispatch" in rows[0]
        path = report.write_json(tmp_path / "sweep.json")
        import json

        payload = json.loads(path.read_text())
        assert payload["rows"][0]["algorithm"] == "algorithm-A"
        ratio_results = report.ratio_results()
        assert ratio_results[0].ratio == pytest.approx(report.records[0].ratio, abs=1e-12)


class TestAnalysisBridges:
    def test_ratio_table_still_reuses_one_optimum(self):
        from repro.analysis import ratio_table

        instance = _time_invariant()
        results = ratio_table([instance], [AlgorithmA, AlgorithmB], bounds=[5.0, None])
        assert len(results) == 2
        seq, opt = _sequential(instance, AlgorithmA())
        assert results[0].online_cost == pytest.approx(seq.cost, abs=1e-9)
        assert results[0].optimal_cost == pytest.approx(opt, abs=1e-9)
        assert results[0].bound == 5.0
        assert results[1].bound is None


class TestScaledRowDedup:
    def test_priced_dispatch_equals_scaled_base(self):
        base = _time_invariant()
        T = base.T
        prices = 1.0 + 0.5 * np.sin(np.arange(T) / T * 2 * np.pi)
        priced = base.with_price_profile(prices, name="eng-scaled")
        base_solver = DispatchSolver(base)
        priced_solver = DispatchSolver(priced)
        grid_configs = np.array([[0, 0], [1, 0], [2, 1], [4, 2]])
        for t in range(T):
            base_costs, base_loads = base_solver.solve_grid(t, grid_configs)
            priced_costs, priced_loads = priced_solver.solve_grid(t, grid_configs)
            finite = np.isfinite(base_costs)
            assert np.allclose(priced_costs[finite], prices[t] * base_costs[finite], rtol=1e-12)
            assert np.allclose(priced_loads, base_loads, atol=1e-9)

    def test_priced_slots_share_one_unique_solve_per_demand(self):
        instance = _priced()
        dispatcher = DispatchSolver(instance)
        grid_configs = np.array([[0, 0], [2, 1], [4, 2]])
        costs, _ = dispatcher.solve_block(range(instance.T), grid_configs)
        # all slots share one base cost row; unique solves = unique demands
        unique_demands = len({float(d) for d in instance.demand})
        assert dispatcher.stats.unique_solves == unique_demands
        assert costs.shape == (instance.T, 3)


class TestSweepBenchGate:
    def test_pinned_sweep_costs_reproduced(self):
        from repro.bench import PINNED_SWEEP_COSTS, run_sweep_bench

        payload = run_sweep_bench(include_baseline=False)
        assert payload["max_cost_deviation"] <= 1e-6
        assert len(PINNED_SWEEP_COSTS) == 26
