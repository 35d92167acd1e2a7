"""Tests for the microsecond-tick hot path (quantised tables, warm caches, min-plus kernels).

Two properties anchor everything here, mirroring the serve replay gates:

* **bit-identity** — the table-gather fast path, solvers whose memo is
  already warm and the preallocated transition-plan kernels may only be
  *fast*, never *different*: schedules compare with ``np.array_equal`` and
  costs with 1e-9, across every registered scenario family; and
* **the counters tell the truth** — table gathers and prewarmed levels move
  exactly when the corresponding fast path runs, so the pinned counter
  regression (``repro bench --counters``) can gate on them.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro import scenarios
from repro.bench import (
    PINNED_SERVE_COUNTERS,
    run_counter_regress,
    run_latency_smoke,
    run_serve_bench,
    trend_deltas,
    trend_report,
    write_bench_json,
)
from repro.dispatch.allocation import DispatchSolver
from repro.offline.state_grid import StateGrid, grid_for_slot
from repro.offline.transitions import _min_plus_axis, make_transition_plan, transition
from repro.online import AlgorithmA, AlgorithmB, run_online
from repro.scenarios import build
from repro.serve import ControllerSession, InstanceFeed, ServeCache, ServeEngine
from repro.workloads.scale import quantise_trace


def _smoke_instance(name):
    fam = scenarios.family(name)
    return build(scenarios.ScenarioSpec(name, dict(fam.smoke_params)))


def _random_grid(rng, d, full):
    values = []
    for _ in range(d):
        m = int(rng.integers(2, 7))
        if full:
            values.append(np.arange(m + 1))
        else:
            picks = rng.choice(np.arange(1, m + 1), size=min(m, 3), replace=False)
            values.append(np.unique(np.concatenate(([0], picks))))
    return StateGrid(values)


# --------------------------------------------------------------------------- #
# Transition plan == reference transition, bit for bit
# --------------------------------------------------------------------------- #


class TestTransitionPlanExactness:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("full", [True, False])
    def test_plan_matches_transition_bitwise(self, d, full):
        rng = np.random.default_rng(17 * d + int(full))
        for trial in range(20):
            grid = _random_grid(rng, d, full)
            beta = rng.uniform(0.1, 5.0, size=d)
            plan = make_transition_plan(grid.values, grid.values, beta)
            V = rng.uniform(0.0, 50.0, size=grid.shape)
            if trial % 3 == 0:
                V.reshape(-1)[:: max(1, V.size // 4)] = np.inf
            expected = transition(V, grid.values, grid.values, beta)
            got = plan.apply(V.copy())
            assert np.array_equal(got, expected)

    def test_plan_output_fed_back_chain(self):
        # the DP forward loop feeds plan output straight back in; the internal
        # ping-pong buffer swap must keep every step bit-identical
        rng = np.random.default_rng(5)
        for d in (1, 2, 3):
            grid = _random_grid(rng, d, full=True)
            beta = rng.uniform(0.1, 3.0, size=d)
            plan = make_transition_plan(grid.values, grid.values, beta)
            cur_plan = rng.uniform(0.0, 20.0, size=grid.shape)
            cur_ref = cur_plan.copy()
            for _ in range(5):
                cur_plan = plan.apply(cur_plan)
                cur_ref = transition(cur_ref, grid.values, grid.values, beta)
                assert np.array_equal(cur_plan, cur_ref)

    def test_cross_grid_plan(self):
        # full -> geometric (different source and destination value sets)
        rng = np.random.default_rng(11)
        src = StateGrid.full([6, 4])
        dst = StateGrid.geometric([6, 4], gamma=2.0)
        beta = np.array([1.5, 0.7])
        plan = make_transition_plan(src.values, dst.values, beta)
        V = rng.uniform(0.0, 30.0, size=src.shape)
        assert np.array_equal(
            plan.apply(V.copy()), transition(V, src.values, dst.values, beta)
        )

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("full", [True, False])
    def test_lanes_match_per_lane_apply_bitwise(self, d, full):
        # a stacked (k, *shape) transition is k plan applications, lane by
        # lane, and leaves its input intact
        rng = np.random.default_rng(31 * d + int(full))
        for trial in range(10):
            grid = _random_grid(rng, d, full)
            beta = rng.uniform(0.1, 5.0, size=d)
            plan = make_transition_plan(grid.values, grid.values, beta)
            V = rng.uniform(0.0, 50.0, size=(1 + trial,) + grid.shape)
            V[V > 45.0] = np.inf
            before = V.copy()
            got = transition(V, grid.values, grid.values, beta)
            assert np.array_equal(V, before)
            assert got.shape == V.shape
            for lane, value in zip(got, V):
                assert np.array_equal(lane, plan.apply(value.copy()))

    def test_cross_grid_lanes(self):
        rng = np.random.default_rng(13)
        src = StateGrid.full([6, 4])
        dst = StateGrid.geometric([6, 4], gamma=2.0)
        beta = np.array([1.5, 0.7])
        V = rng.uniform(0.0, 30.0, size=(3, 5) + src.shape)
        got = transition(V, src.values, dst.values, beta)
        assert got.shape == (3, 5) + dst.shape
        for lanes, values in zip(got, V):
            for lane, value in zip(lanes, values):
                assert np.array_equal(lane, transition(value, src.values, dst.values, beta))

    def test_same_grid_kernel_matches_general_kernel(self):
        # a None gather index (the elided identity gather) must equal an
        # explicit identity index of the one kernel, bit for bit
        rng = np.random.default_rng(3)
        for shape in ((7,), (4, 6), (3, 4, 5)):
            V = rng.uniform(0.0, 40.0, size=shape)
            n = shape[-1]
            bsrc = rng.uniform(0.0, 5.0, size=n)
            bdst = rng.uniform(0.0, 5.0, size=n)
            identity = np.arange(n, dtype=np.intp)
            outs = []
            for index in (identity, None):
                shifted = np.empty(shape)
                out = np.empty(shape)
                _min_plus_axis(
                    V, bsrc, bdst, index, index, None, None,
                    shifted, shifted[..., ::-1], None, out,
                )
                outs.append(out)
            assert np.array_equal(outs[1], outs[0])


# --------------------------------------------------------------------------- #
# A warm solver == a cold one, bit for bit
# --------------------------------------------------------------------------- #


WARM_FAMILIES = [
    ("priced-cpu-gpu", AlgorithmB),      # time-dependent prices
    ("time-varying-m", AlgorithmA),      # per-slot fleet counts
    ("chaos-price-shock", AlgorithmB),   # price shock mid-stream
    ("diurnal-cpu-gpu", AlgorithmA),
]


class TestWarmStartEquivalence:
    """A solver whose memo is already warm answers exactly as a cold one.

    Dispatch solves every (demand, configuration) cell from its own data, so
    a cell's cost and loads cannot depend on which block first solved it:
    warming the memo with one whole-horizon block must leave every later
    answer, and every schedule built on them, bit-identical.
    """

    @staticmethod
    def _warmed(instance):
        solver = DispatchSolver(instance)
        for t in range(instance.T):
            solver.solve_block(range(instance.T), grid_for_slot(instance, t).configs())
        return solver

    @pytest.mark.parametrize("family,algorithm_cls", WARM_FAMILIES)
    def test_warm_equals_cold_online_run(self, family, algorithm_cls):
        instance = _smoke_instance(family)
        cold = run_online(instance, algorithm_cls(), dispatcher=DispatchSolver(instance))
        warm = run_online(instance, algorithm_cls(), dispatcher=self._warmed(instance))
        assert np.array_equal(warm.schedule.x, cold.schedule.x)
        assert warm.cost == cold.cost

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_warm_equals_cold_randomized_grid_solves(self, seed):
        rng = np.random.default_rng(seed)
        instance = build("diurnal-cpu-gpu", T=16, seed=seed)
        configs = grid_for_slot(instance, 0).configs()
        cold = DispatchSolver(instance)
        warm = self._warmed(instance)
        solved = warm.stats.unique_solves
        for t in rng.permutation(instance.T):
            c_costs, c_loads = cold.solve_grid(int(t), configs)
            w_costs, w_loads = warm.solve_grid(int(t), configs)
            assert np.array_equal(w_costs, c_costs)
            assert np.array_equal(w_loads, c_loads)
        assert warm.stats.unique_solves == solved  # every answer came from the memo


# --------------------------------------------------------------------------- #
# Table path == solver path, for every registered scenario family
# --------------------------------------------------------------------------- #


class TestTablePathEquality:
    @pytest.mark.parametrize("family", scenarios.names())
    def test_prewarmed_replay_is_bit_identical(self, family):
        """ISSUE-8 acceptance: serving from a prewarmed solution-table cache
        must reproduce the plain cold-path schedule exactly (np.array_equal)
        and its cost to 1e-9, for every registered scenario family."""
        instance = _smoke_instance(family)
        demand = quantise_trace(instance.demand, levels=6)
        instance = instance.with_demand(demand, name=f"{family}-quantised")
        plain = ControllerSession("A", instance.server_types, name="plain")
        warm = ControllerSession(
            "A", cache=ServeCache(instance.server_types), name="warm"
        )
        warm.cache.prewarm(sorted({float(v) for v in demand}))
        for tick in InstanceFeed(instance).play():
            plain.observe(tick.demand, cost_row=tick.cost_row, counts=tick.counts)
            warm.observe(tick.demand, cost_row=tick.cost_row, counts=tick.counts)
        assert np.array_equal(warm.schedule.x, plain.schedule.x)
        assert abs(warm.cumulative_cost - plain.cumulative_cost) <= 1e-9

    def test_table_gathers_count_fast_hits(self):
        instance = build("diurnal-cpu-gpu", T=24)
        demand = quantise_trace(instance.demand, levels=4)
        levels = sorted({float(v) for v in demand})
        cache = ServeCache(instance.server_types)
        cache.prewarm(levels)
        assert cache.prewarmed_levels == len(levels)
        session = ControllerSession("A", cache=cache)
        for value in demand:
            session.observe(float(value))
        assert cache.table_gathers > 0
        counters = cache.counters()
        for key in ("table_gathers", "prewarmed_levels"):
            assert key in counters

    def test_engine_prewarm(self):
        instance = build("diurnal-cpu-gpu", T=12)
        demand = quantise_trace(instance.demand, levels=4)
        instance = instance.with_demand(demand, name="engine-prewarm")
        results = {}
        for prewarm in (False, True):
            engine = ServeEngine(share_caches=True)
            for k in range(3):
                engine.add_tenant(f"t{k}", "A", InstanceFeed(instance))
            if prewarm:
                assert engine.prewarm(sorted({float(v) for v in demand})) == 1
                assert all(c.prewarmed_levels > 0 for c in engine.caches)
            engine.run()
            results[prewarm] = [s.cumulative_cost for s in engine.sessions]
        assert results[False] == pytest.approx(results[True], abs=1e-9)


# --------------------------------------------------------------------------- #
# Nanosecond latency metering
# --------------------------------------------------------------------------- #


class TestLatencyMetering:
    def test_latencies_are_integer_nanoseconds(self):
        instance = build("diurnal-cpu-gpu", T=8)
        session = ControllerSession("A", instance.server_types)
        for t in range(8):
            state = session.observe(float(instance.demand[t]))
            assert isinstance(state.latency_ns, int)
            assert state.latency_ns > 0
            assert state.latency_seconds == state.latency_ns * 1e-9
        lat = session.latencies_ns
        assert lat.dtype == np.int64 and len(lat) == 8
        assert np.array_equal(session.latencies_seconds, lat * 1e-9)

    def test_checkpoint_roundtrips_ns_samples(self):
        instance = build("diurnal-cpu-gpu", T=8)
        session = ControllerSession("A", instance.server_types)
        for t in range(8):
            session.observe(float(instance.demand[t]))
        payload = json.loads(json.dumps(session.checkpoint()))
        assert all(isinstance(v, int) for v in payload["latencies_ns"])
        fresh = ControllerSession("A", instance.server_types)
        fresh.restore(payload)
        assert np.array_equal(fresh.latencies_ns, session.latencies_ns)


# --------------------------------------------------------------------------- #
# Bench gates: counter pins, latency smoke, trend series
# --------------------------------------------------------------------------- #


class TestBenchGates:
    def test_counter_regress_reproduces_pins(self):
        payload = run_counter_regress()
        assert payload["measured"] == PINNED_SERVE_COUNTERS
        assert payload["modes"]["prewarmed"]["table_gathers"] > 0

    def test_latency_smoke_gates_equality_and_budget(self, tmp_path):
        json_path = str(tmp_path / "BENCH_serve.json")
        # tiny stream, huge budget: exercises the machinery (schedule
        # equality, floor percentiles, JSON merge), not this machine's speed
        payload = run_latency_smoke(
            budget_us=50.0, budget_scale=1e6, repeats=2, ticks=32,
            json_path=json_path,
        )
        assert payload["floor_us"]["p99_us"] > 0
        assert len(payload["per_repeat_us"]) == 2
        written = json.loads(Path(json_path).read_text())
        assert written["latency"]["cost"] == payload["cost"]
        assert len(written["runs"]) == 1
        run_latency_smoke(
            budget_us=50.0, budget_scale=1e6, repeats=2, ticks=32,
            json_path=json_path,
        )
        written = json.loads(Path(json_path).read_text())
        assert len(written["runs"]) == 2

    def test_latency_smoke_budget_violation_raises(self):
        with pytest.raises(AssertionError, match="budget"):
            run_latency_smoke(budget_us=1e-9, repeats=2, ticks=16)

    def test_serve_bench_appends_trend_series(self, tmp_path):
        json_path = str(tmp_path / "BENCH_serve.json")
        for _ in range(2):
            run_serve_bench(
                tenant_counts=(1, 2), ticks=8, json_path=json_path,
            )
        written = json.loads(Path(json_path).read_text())
        assert len(written["runs"]) == 2
        for entry in written["runs"]:
            assert entry["environment"]["numpy"] == np.__version__
            assert entry["benchmark"] == "serve"
        report = trend_report(json_path)
        assert report["entries"] == 2
        assert "max_cost_deviation" in report["deltas_vs_previous"]

    def test_trend_preserves_latency_and_fabric_sections(self, tmp_path):
        json_path = str(tmp_path / "BENCH_serve.json")
        run_latency_smoke(
            budget_us=50.0, budget_scale=1e6, repeats=2, ticks=16,
            json_path=json_path,
        )
        write_bench_json(json_path, {"sentinel": True}, section="fabric")
        run_serve_bench(tenant_counts=(1,), ticks=8, json_path=json_path)
        written = json.loads(Path(json_path).read_text())
        assert written["fabric"]["sentinel"] is True
        assert "latency" in written and written["latency"]["benchmark"] == "latency_smoke"

    def test_trend_deltas_numeric_only(self):
        runs = [
            {"recorded_at": "a", "p99": 40.0, "label": "x", "count": 3},
            {"recorded_at": "b", "p99": 35.5, "label": "y", "count": 5},
        ]
        deltas = trend_deltas(runs)
        assert deltas == {"p99": -4.5, "count": 2}
        assert trend_deltas(runs[:1]) == {}

    def test_trend_deltas_compare_within_one_benchmark(self):
        """Interleaved benchmarks each form their own series: the latest
        entry is compared with the previous entry of its own benchmark."""
        runs = [
            {"benchmark": "serve", "tenants": 64, "p99_ms": 1.5},
            {"benchmark": "serve-batch-scale", "tenants": 10000, "p99_us": 7.0},
            {"benchmark": "serve", "tenants": 64, "p99_ms": 1.25},
        ]
        assert trend_deltas(runs) == {"tenants": 0, "p99_ms": -0.25}
        assert trend_deltas(runs[:2]) == {}  # first of its benchmark
