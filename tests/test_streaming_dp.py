"""Streaming DP core: checkpointed backtracking vs the all-tables reference.

The streaming value pass (:func:`repro.offline.dp.solve_dp` without
``keep_tables``) must be a pure memory optimisation: the backward pass
rematerialises each checkpoint window by re-running the forward recurrence, so
the recovered tables — and therefore the argmin chain — are **bit-identical**
to the classic pass.  These tests assert exactly that, across

* full and gamma-reduced grids,
* time-varying fleet sizes ``m_{t,j}`` (different grids per slot),
* checkpoint windows 1, 7, T and > T (degenerate window shapes).

Plus the supporting cast: the :class:`~repro.offline.dp.ValueHistory` every
backward pass reads (a hypothesis property against a plain forward loop), the
window auto-tuner, the windowed operating-cost provider, the
``return_schedule=False -> schedule is None`` contract, and the checkpointed
:class:`~repro.online.tracker.SharedValueStream`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ProblemInstance
from repro.dispatch.allocation import DispatchSolver
from repro.exp.shared import SharedInstanceContext
from repro.offline.dp import (
    STREAMING_TABLE_BYTES_THRESHOLD,
    ValueHistory,
    WindowedOperatingCosts,
    default_checkpoint_every,
    operating_cost_tensors,
    solve_dp,
)
from repro.offline.graph_approx import solve_approx
from repro.offline.graph_optimal import solve_optimal
from repro.offline.state_grid import StateGrid, grid_for_slot
from repro.offline.transitions import startup_cost_tensor, transition
from repro.online.base import SlotContext
from repro.online.tracker import SharedValueStream
from repro.workloads import (
    bursty_trace,
    cpu_gpu_fleet,
    diurnal_trace,
    fleet_instance,
    old_new_fleet,
)

WINDOWS = [1, 7, None, "T", "T+13"]  # None = auto; resolved per instance below


def _resolve_window(window, T):
    if window == "T":
        return T
    if window == "T+13":
        return T + 13
    return window


@pytest.fixture
def horizon_instance():
    """T=41 (prime, so windows never divide evenly), d=2, noisy demands."""
    return fleet_instance(
        cpu_gpu_fleet(cpu_count=4, gpu_count=2),
        diurnal_trace(41, period=12, base=1.0, peak=9.0, noise=0.1, rng=3),
        name="stream-horizon",
    )


@pytest.fixture
def varying_counts_instance():
    """Time-varying m_{t,j}: maintenance window plus a late expansion."""
    T = 36
    base = fleet_instance(
        old_new_fleet(old_count=4, new_count=3),
        bursty_trace(T, base=1.0, burst_height=6.0, burst_probability=0.2, rng=5),
    )
    counts = np.tile([4, 3], (T, 1)).astype(int)
    counts[8:14, 0] = 2
    counts[20:, 1] = 5
    cap = np.array(
        [4.0 * 1.0 + c * 2.0 for c in counts[:, 1]]
    )  # old capacity 1.0, new capacity 2.0
    demand = np.minimum(base.demand, 0.9 * cap)
    return ProblemInstance(base.server_types, demand, counts=counts, name="stream-varying")


class TestCheckpointedEquivalence:
    @pytest.mark.parametrize("window", WINDOWS)
    def test_full_grid_schedules_bit_identical(self, horizon_instance, window):
        reference = solve_dp(horizon_instance, keep_tables=True)
        window = _resolve_window(window, horizon_instance.T)
        streamed = solve_dp(horizon_instance, checkpoint_every=window)
        assert streamed.schedule is not None
        assert np.array_equal(streamed.schedule.x, reference.schedule.x)
        assert streamed.cost == pytest.approx(reference.cost, abs=1e-9)

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("gamma", [1.3, 2.0])
    def test_reduced_grid_schedules_bit_identical(self, horizon_instance, window, gamma):
        reference = solve_dp(horizon_instance, gamma=gamma, keep_tables=True)
        window = _resolve_window(window, horizon_instance.T)
        streamed = solve_dp(horizon_instance, gamma=gamma, checkpoint_every=window)
        assert np.array_equal(streamed.schedule.x, reference.schedule.x)
        assert streamed.cost == pytest.approx(reference.cost, abs=1e-9)

    @pytest.mark.parametrize("window", [1, 5, 7, 36, 49])
    def test_time_varying_counts_bit_identical(self, varying_counts_instance, window):
        reference = solve_dp(varying_counts_instance, keep_tables=True)
        streamed = solve_dp(varying_counts_instance, checkpoint_every=window)
        assert np.array_equal(streamed.schedule.x, reference.schedule.x)
        assert streamed.cost == pytest.approx(reference.cost, abs=1e-9)

    def test_time_varying_counts_reduced_grid(self, varying_counts_instance):
        reference = solve_dp(varying_counts_instance, gamma=1.5, keep_tables=True)
        streamed = solve_dp(varying_counts_instance, gamma=1.5, checkpoint_every=7)
        assert np.array_equal(streamed.schedule.x, reference.schedule.x)
        assert streamed.cost == pytest.approx(reference.cost, abs=1e-9)

    def test_cost_only_streaming_matches(self, horizon_instance):
        reference = solve_dp(horizon_instance, keep_tables=True)
        cost_only = solve_dp(horizon_instance, checkpoint_every=7, return_schedule=False)
        assert cost_only.schedule is None
        # the forward minimum is the re-evaluated schedule cost up to dispatch
        # tolerance (exactly the same relationship as the classic pass)
        assert cost_only.cost == pytest.approx(reference.cost, rel=1e-9)

    def test_streaming_result_records_window(self, horizon_instance):
        assert solve_dp(horizon_instance, checkpoint_every=7).checkpoint_every == 7
        # windows larger than T are clamped
        assert (
            solve_dp(horizon_instance, checkpoint_every=10_000).checkpoint_every
            == horizon_instance.T
        )
        # small instances auto-tune to the full-history pass
        assert solve_dp(horizon_instance).checkpoint_every is None

    def test_solver_entry_points_thread_streaming(self, horizon_instance):
        exact = solve_optimal(horizon_instance, checkpoint_every=9)
        assert np.array_equal(
            exact.schedule.x, solve_optimal(horizon_instance, keep_tables=True).schedule.x
        )
        approx = solve_approx(horizon_instance, epsilon=0.5, checkpoint_every=9)
        reference = solve_approx(horizon_instance, epsilon=0.5, keep_tables=True)
        assert np.array_equal(approx.schedule.x, reference.schedule.x)
        assert approx.cost == pytest.approx(reference.cost, abs=1e-9)


class TestValueHistory:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_windowed_history_equals_a_plain_forward_loop(self, data):
        """Per-step grids that change (so a rematerialised window crosses a
        grid change), operating costs with ``+inf`` entries, every window
        shape: ``value_at`` in a random order returns the plain forward
        loop's tensors bit for bit, ``backtrack`` equals the full-history
        walk and its path costs ``min V_{T-1}``, and ``values`` raises exactly
        when the history is windowed."""
        T = data.draw(st.integers(1, 30))
        d = data.draw(st.integers(1, 2))
        window = data.draw(st.one_of(st.none(), st.integers(1, T + 3)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        beta = rng.uniform(0.5, 5.0, size=d)
        grids, costs, reference = [], [], []
        for t in range(T):
            counts = rng.integers(1, 5, size=d)
            if rng.random() < 0.5:
                grid = StateGrid.full(counts)
            else:
                grid = StateGrid.geometric(counts, 1.5)
            g = rng.uniform(0.0, 10.0, size=grid.shape)
            g[rng.random(grid.shape) < 0.3] = np.inf
            g.flat[rng.integers(g.size)] = rng.uniform(0.0, 10.0)  # one finite entry
            if t == 0:
                arrival = startup_cost_tensor(grid.values, beta)
            else:
                arrival = transition(reference[-1], grids[-1].values, grid.values, beta)
            grids.append(grid)
            costs.append(g)
            reference.append(arrival + g)

        history = ValueHistory(beta, window, costs.__getitem__)
        full = ValueHistory(beta)
        for grid, value in zip(grids, reference):
            history.append(grid, value.copy())
            full.append(grid, value)
        for t in data.draw(st.permutations(range(T))):
            assert np.array_equal(history.value_at(t), reference[t]), t

        path = history.backtrack()
        assert np.array_equal(path, full.backtrack())
        cost, previous = 0.0, np.zeros(d)
        for t, (grid, x) in enumerate(zip(grids, path)):
            index = tuple(int(np.searchsorted(v, x_j)) for v, x_j in zip(grid.values, x))
            assert np.array_equal(grid.config_at(index), x)
            cost += costs[t][index] + float(np.sum(beta * np.maximum(x - previous, 0)))
            previous = x
        assert cost == pytest.approx(float(np.min(reference[-1])), abs=1e-9)

        if window is None:
            assert len(history.values) == T
        else:
            with pytest.raises(RuntimeError):
                history.values


class TestAutoTuner:
    def test_small_keeps_history(self):
        assert default_checkpoint_every(100, 100) is None

    def test_large_takes_sqrt(self):
        assert default_checkpoint_every(50_000, 2_501) == 224  # ceil(sqrt(50000))

    def test_threshold_boundary(self):
        states = 1000
        small_T = STREAMING_TABLE_BYTES_THRESHOLD // (states * 8)
        assert default_checkpoint_every(small_T, states) is None
        assert default_checkpoint_every(small_T + 1, states) is not None


class TestWindowedProvider:
    def test_matches_whole_horizon_tensors(self, horizon_instance):
        dispatcher = DispatchSolver(horizon_instance)
        grids = tuple(
            grid_for_slot(horizon_instance, t) for t in range(horizon_instance.T)
        )
        reference = operating_cost_tensors(horizon_instance, grids, dispatcher)
        provider = WindowedOperatingCosts(
            horizon_instance, grids, DispatchSolver(horizon_instance), window=7, memoise=False
        )
        for t in range(horizon_instance.T):
            np.testing.assert_allclose(
                provider.tensor(t), reference[t], rtol=0, atol=1e-9, equal_nan=True
            )

    def test_signature_memo_bounds_dispatch_work(self, horizon_instance):
        dispatcher = DispatchSolver(horizon_instance)
        grids = tuple(
            grid_for_slot(horizon_instance, t) for t in range(horizon_instance.T)
        )
        provider = WindowedOperatingCosts(
            horizon_instance, grids, dispatcher, window=7, memoise=False
        )
        for t in range(horizon_instance.T):
            provider.tensor(t)
        first_pass = dispatcher.stats.unique_solves
        # a second full traversal (the backward pass) is served from the memo
        for t in range(horizon_instance.T):
            provider.tensor(t)
        assert dispatcher.stats.unique_solves == first_pass
        assert provider.signature_memo_hits >= horizon_instance.T

    def test_memo_budget_zero_degrades_to_recompute(self, horizon_instance):
        dispatcher = DispatchSolver(horizon_instance)
        grids = tuple(
            grid_for_slot(horizon_instance, t) for t in range(horizon_instance.T)
        )
        provider = WindowedOperatingCosts(
            horizon_instance, grids, dispatcher, window=7, memoise=False, memo_bytes=0
        )
        for t in range(horizon_instance.T):
            provider.tensor(t)
        assert provider.signature_memo_hits == 0
        # correctness unaffected
        reference = operating_cost_tensors(
            horizon_instance, grids, DispatchSolver(horizon_instance)
        )
        np.testing.assert_allclose(provider.tensor(40), reference[40], atol=1e-9)

    def test_streaming_does_not_grow_dispatch_cache(self, horizon_instance):
        dispatcher = DispatchSolver(horizon_instance)
        solve_dp(horizon_instance, dispatcher=dispatcher, checkpoint_every=7)
        assert len(dispatcher._block_cache) == 0

    def test_classic_pass_still_memoises(self, horizon_instance):
        dispatcher = DispatchSolver(horizon_instance)
        solve_dp(horizon_instance, dispatcher=dispatcher, keep_tables=True)
        assert len(dispatcher._block_cache) > 0


class TestCostOnlyContract:
    def test_schedule_none_and_empty_instance(self, horizon_instance, two_type_fleet):
        assert solve_dp(horizon_instance, return_schedule=False).schedule is None
        empty = ProblemInstance(two_type_fleet, np.zeros(0))
        assert solve_dp(empty, return_schedule=False).schedule is None
        with_schedule = solve_dp(empty)
        assert with_schedule.schedule is not None and with_schedule.schedule.T == 0


class TestCheckpointedSharedStream:
    def _context(self, instance, checkpoint_every=None):
        return SlotContext(instance)

    @pytest.mark.parametrize("window", [1, 7, 50])
    def test_stream_replay_and_backtrack(self, horizon_instance, window):
        instance = horizon_instance
        slots = self._context(instance)
        reference = solve_dp(instance, keep_tables=True)

        context = SharedInstanceContext(instance, checkpoint_every=window)
        tracker = context.tracker()
        for t in range(instance.T):
            tracker.observe(slots.slot(t))
        stream = context.stream()
        assert len(stream) == instance.T
        # the frontier minimum is the offline optimum of the forward tables
        assert float(np.min(stream.value_at(instance.T - 1))) == pytest.approx(
            float(np.min(reference.value_tables[-1])), abs=1e-9
        )
        # rematerialised interior tensors equal the reference tables exactly
        for t in (0, 3, window - 1 if window > 1 else 1, instance.T // 2, instance.T - 2):
            t = min(max(t, 0), instance.T - 1)
            np.testing.assert_array_equal(
                np.asarray(stream.value_at(t)), np.asarray(reference.value_tables[t])
            )
        # the windowed backward pass reproduces the reference schedule
        configs = stream.backtrack()
        assert np.array_equal(configs, reference.schedule.x)

    def test_second_tracker_replays_identically(self, horizon_instance):
        slots = self._context(horizon_instance)
        context = SharedInstanceContext(horizon_instance, checkpoint_every=6)
        first = context.tracker()
        hats_first = [first.observe(slots.slot(t)) for t in range(horizon_instance.T)]
        second = context.tracker()
        hats_second = []
        for t in range(horizon_instance.T):
            second.observe(slots.slot(t))
            hats_second.append(second.argmin("largest"))
        plain = SharedInstanceContext(horizon_instance)
        ref_first = plain.tracker()
        ref_hats = [ref_first.observe(slots.slot(t)) for t in range(horizon_instance.T)]
        assert np.array_equal(np.array(hats_first), np.array(ref_hats))
        ref_second = plain.tracker()
        ref_hats2 = []
        for t in range(horizon_instance.T):
            ref_second.observe(slots.slot(t))
            ref_hats2.append(ref_second.argmin("largest"))
        assert np.array_equal(np.array(hats_second), np.array(ref_hats2))

    def test_checkpointed_stream_refuses_values_property(self):
        stream = SharedValueStream(checkpoint_every=4)
        with pytest.raises(RuntimeError):
            stream.values

    def test_rejects_bad_checkpoint_every(self):
        with pytest.raises(ValueError):
            SharedValueStream(checkpoint_every=0)


class TestSlotContextBudget:
    def test_budgeted_context_bounds_cache_and_stays_exact(self, horizon_instance):
        from repro.online.algorithm_a import AlgorithmA
        from repro.online.base import run_online

        plain = SlotContext(horizon_instance)
        budgeted = SlotContext(horizon_instance, tensor_budget_bytes=10_000)
        ref = run_online(horizon_instance, AlgorithmA(), slot_context=plain)
        got = run_online(horizon_instance, AlgorithmA(), slot_context=budgeted)
        assert np.array_equal(got.schedule.x, ref.schedule.x)
        assert got.cost == pytest.approx(ref.cost, abs=1e-9)
        assert budgeted._tensor_bytes_used <= 10_000
        assert len(budgeted._tensor_cache) < len(plain._tensor_cache)
        # the budgeted context keeps whole-grid blocks out of the dispatcher's
        # cache (small per-configuration rows from the algorithms' candidate
        # queries are fine — they are O(d) each, not O(|M| * d))
        grid = grid_for_slot(horizon_instance, 0)
        assert all(
            costs.shape[0] < grid.size
            for costs, _ in budgeted.dispatcher._block_cache.values()
        )

    def test_checkpointed_shared_context_sets_budget(self, horizon_instance):
        from repro.exp.shared import SharedInstanceContext

        ctx = SharedInstanceContext(horizon_instance, checkpoint_every=7)
        assert ctx.slots.tensor_budget_bytes == SharedInstanceContext.DEFAULT_TENSOR_BUDGET_BYTES
        assert SharedInstanceContext(horizon_instance).slots.tensor_budget_bytes is None


class TestSweepPlanPlumbing:
    def test_checkpointed_plan_reproduces_plain_records(self, horizon_instance):
        from repro.exp.engine import OfflineSpec, SweepPlan, run_plan, spec

        def plan(checkpoint_every):
            return SweepPlan(
                instances=(horizon_instance,),
                algorithms=(spec("A"), spec("B")),
                offline=(OfflineSpec(solver="approx", epsilon=0.5, checkpoint_every=5),),
                checkpoint_every=checkpoint_every,
            )

        plain = run_plan(plan(None))
        checkpointed = run_plan(plan(6))
        assert len(plain.records) == len(checkpointed.records)
        for a, b in zip(plain.records, checkpointed.records):
            assert a.algorithm == b.algorithm
            assert b.cost == pytest.approx(a.cost, abs=1e-9)
            assert b.optimal_cost == pytest.approx(a.optimal_cost, abs=1e-9)

    def test_value_dtype_fails_loudly(self, horizon_instance):
        from repro.exp.engine import OfflineSpec
        from repro.scenarios.compiler import compile_plan

        with pytest.raises(TypeError):
            solve_dp(horizon_instance, value_dtype="float32")
        with pytest.raises(TypeError):
            OfflineSpec(solver="approx", value_dtype="float32")
        with pytest.raises(ValueError, match="value_dtype"):
            compile_plan({
                "scenarios": ["diurnal-cpu-gpu"],
                "offline": [{"solver": "approx", "value_dtype": "float32"}],
            })
