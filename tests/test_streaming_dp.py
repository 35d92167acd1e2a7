"""Streaming DP core: checkpointed backtracking vs the all-tables reference.

The streaming value pass (:func:`repro.offline.dp.solve_dp` without
``keep_tables``) must be a pure memory optimisation: the backward pass
rematerialises each checkpoint window by re-running the forward recurrence, so
the recovered tables — and therefore the argmin chain — are **bit-identical**
to the classic pass.  These tests assert exactly that, across

* full and gamma-reduced grids,
* time-varying fleet sizes ``m_{t,j}`` (different grids per slot),
* checkpoint windows 1, 7, T and > T (degenerate window shapes).

Plus the supporting cast: the one forward step
(:class:`~repro.offline.dp.ForwardDP`, :func:`~repro.offline.dp.forward_pass`)
and the :class:`~repro.offline.dp.ValueHistory` every backward pass reads (a
hypothesis property against a plain forward loop), the backward walk's own
pricing (equal to ``evaluate_schedule``), the window auto-tuner, the windowed
operating-cost provider (one dispatch query per key), the
``return_schedule=False -> schedule is None`` contract, and the sweep
context's checkpointed shared history.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_instance
from repro import ProblemInstance, ServerType, evaluate_schedule
from repro.core.cost_functions import CallableCost, QuadraticCost
from repro.dispatch.allocation import DispatchSolver
from repro.exp.shared import SharedInstanceContext
from repro.offline.dp import (
    STREAMING_TABLE_BYTES_THRESHOLD,
    ForwardDP,
    ValueHistory,
    WindowedOperatingCosts,
    default_checkpoint_every,
    forward_pass,
    operating_cost_tensors,
    solve_dp,
)
from repro.offline.graph_approx import solve_approx
from repro.offline.graph_optimal import solve_optimal
from repro.offline.state_grid import StateGrid, grid_for_slot
from repro.offline.transitions import startup_cost_tensor, transition
from repro.online.base import SlotContext
from repro.online.baselines import Reactive
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
        """Per-step grids that repeat (the plan path) and change (so a
        rematerialised window crosses a grid change; one pair of grids shares
        a shape), operating costs with ``+inf`` entries, every window shape.
        A :class:`ForwardDP` stepped with random ``keep`` flags returns the
        plain forward loop's tensor at every step, bit for bit, and every
        ``keep=True`` tensor is unchanged after the later steps.
        :func:`forward_pass` into a history returns ``V_{T-1}``; ``value_at``
        in a random order returns the plain loop's tensors bit for bit,
        ``backtrack`` equals the full-history walk and its path costs
        ``min V_{T-1}``, and ``values`` raises exactly when the history is
        windowed."""
        T = data.draw(st.integers(1, 30))
        d = data.draw(st.integers(1, 2))
        window = data.draw(st.one_of(st.none(), st.integers(1, T + 3)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        beta = rng.uniform(0.5, 5.0, size=d)
        full_grid = StateGrid.full(rng.integers(1, 5, size=d))
        pool = [
            full_grid,
            StateGrid([2 * v for v in full_grid.values]),  # same shape, other values
            StateGrid.geometric(rng.integers(1, 9, size=d), 1.5),
        ]
        grids, costs, reference = [], [], []
        index = 0
        for t in range(T):
            if t == 0 or rng.random() < 0.4:
                index = int(rng.integers(len(pool)))
            grid = pool[index]
            g = rng.uniform(0.0, 10.0, size=grid.shape)
            g[rng.random(grid.shape) < 0.3] = np.inf
            g.flat[rng.integers(g.size)] = rng.uniform(0.0, 10.0)  # one finite entry
            if t == 0:
                arrival = startup_cost_tensor(grid.values, beta)
            else:
                arrival = transition(reference[-1], grids[-1].values, grid.values, beta)
            grids.append(grid)
            costs.append(g)
            reference.append(np.add(arrival, g, out=arrival))

        forward, kept = ForwardDP(), {}
        for t, (grid, g) in enumerate(zip(grids, costs)):
            keep = bool(rng.random() < 0.3)
            value = forward.step(grid, g, beta, keep=keep)
            assert np.array_equal(value, reference[t]), t
            if keep:
                kept[t] = value
        for t, value in kept.items():
            assert np.array_equal(value, reference[t]), t

        history = ValueHistory(beta, window, costs.__getitem__)
        horizon = SimpleNamespace(grids=grids, tensor=costs.__getitem__)
        assert np.array_equal(forward_pass(horizon, beta, history), reference[-1])
        full = ValueHistory(beta)
        for grid, value in zip(grids, reference):
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
            assert all(map(np.array_equal, history.values, reference))
        else:
            with pytest.raises(RuntimeError):
                history.values


class TestWalkPricing:
    """The backward walk prices its own path: ``g_t(x_t)`` read from the
    operating-cost tensors it walks, plus the power-up costs.  A dispatch cell
    is bit-identical in any block, so the price is ``evaluate_schedule``'s
    bit for bit on every family with marginal pieces."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_walk_price_equals_evaluate_schedule(self, data):
        """Random piece-row fleets (d = 1..3, price rows of ``ScaledCost``
        factors, time-varying counts), full and gamma grids, every window
        shape: ``solve_dp`` and the sweep context's ``solve_optimal`` return
        ``evaluate_schedule``'s total of their schedule exactly."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        T = data.draw(st.integers(1, 12))
        instance = random_instance(rng, T=T, d=data.draw(st.integers(1, 3)), max_servers=3)
        if data.draw(st.booleans()):
            instance = instance.with_price_profile(rng.uniform(0.5, 2.0, size=T))
        if data.draw(st.booleans()):
            counts = rng.integers(0, instance.m + 1, size=(T, instance.d))
            demand = np.minimum(instance.demand, counts @ instance.zmax)
            instance = ProblemInstance(
                instance.server_types, demand, instance.cost_functions, counts=counts
            )
        gamma = data.draw(st.sampled_from([None, 1.5, 2.0]))
        window = data.draw(st.sampled_from([None, 1, 3, T]))

        result = solve_dp(instance, gamma=gamma, checkpoint_every=window)
        priced = evaluate_schedule(instance, result.schedule, DispatchSolver(instance))
        assert result.cost == priced.total

        optimal = SharedInstanceContext(instance, checkpoint_every=window).solve_optimal(
            return_schedule=True
        )
        priced = evaluate_schedule(instance, optimal.schedule, DispatchSolver(instance))
        assert optimal.cost == priced.total

    def test_walk_solves_each_step_once_past_the_tensor_budget(self, horizon_instance):
        """With the provider's key memo spent (``memo_bytes=0``), every window
        re-solves; the walk prices a rematerialised step from the tensor its
        window stepped on, so the backward pass queries each slot exactly
        once (its own provider starts cold, so no window is left live)."""
        instance, T = horizon_instance, horizon_instance.T
        grids = [grid_for_slot(instance, t) for t in range(T)]
        walk_dispatcher = DispatchSolver(instance)
        assert len({walk_dispatcher._slot_signature(t) for t in range(T)}) == T
        spent = dict(window=7, memoise=False, memo_bytes=0)
        forward = WindowedOperatingCosts(instance, grids, DispatchSolver(instance), **spent)
        walk = WindowedOperatingCosts(instance, grids, walk_dispatcher, **spent)
        history = ValueHistory(instance.beta, 7, walk.tensor)
        forward_pass(forward, instance.beta, history)
        history.priced_schedule()
        assert walk_dispatcher.stats.slot_queries == T

    @pytest.mark.parametrize("window", [None, 1, 3])
    def test_bisection_rows_price_within_tolerance(self, window):
        """A ``CallableCost`` row runs the bisection, whose stopping width
        spans its block, so the walk's price agrees to the tolerance."""
        types = (
            ServerType("measured", count=3, switching_cost=1.5, capacity=2.0,
                       cost_function=CallableCost(lambda z: 0.4 + 0.3 * z + 0.6 * z ** 2.5)),
            ServerType("quad", count=2, switching_cost=1.0, capacity=3.0,
                       cost_function=QuadraticCost(idle=0.5, a=0.2, b=0.4)),
        )
        instance = ProblemInstance(types, np.array([0.0, 0.7, 2.5, 6.0, 6.0, 3.1, 0.4, 9.5]))
        result = solve_dp(instance, checkpoint_every=window)
        priced = evaluate_schedule(instance, result.schedule, DispatchSolver(instance))
        assert result.cost == pytest.approx(priced.total, rel=1e-9)


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

    def test_solve_block_calls_stay_within_the_chunk(self, monkeypatch):
        """A window with more keys than one call's chunk of
        ``500_000 // (|M| * (1 + d))`` slots: no ``solve_block`` call asks for
        more, and the tensors equal the whole-horizon block's bit for bit."""
        instance = fleet_instance(
            cpu_gpu_fleet(cpu_count=250, gpu_count=200),
            diurnal_trace(8, period=8, base=50.0, peak=900.0, noise=0.1, rng=5),
        )
        grids = tuple(grid_for_slot(instance, t) for t in range(instance.T))
        chunk = 500_000 // (grids[0].size * (1 + instance.d))
        dispatcher = DispatchSolver(instance)
        assert chunk < len({dispatcher._slot_signature(t) for t in range(instance.T)})
        calls = []
        solve_block = dispatcher.solve_block

        def spy(ts, configs, memoise=True):
            calls.append(len(ts))
            return solve_block(ts, configs, memoise=memoise)

        monkeypatch.setattr(dispatcher, "solve_block", spy)
        provider = WindowedOperatingCosts(instance, grids, dispatcher)
        reference = operating_cost_tensors(instance, grids, DispatchSolver(instance))
        for t in range(instance.T):
            assert np.array_equal(provider.tensor(t), reference[t]), t
        assert len(calls) > 1 and max(calls) <= chunk

    @pytest.mark.parametrize("window", [None, 7])
    def test_one_slot_per_key_in_both_modes(self, varying_counts_instance, window):
        """Slots sharing ``(signature, grid)`` share one read-only tensor, and
        ``solve_block`` sees one representative per key: the forward and
        backward traversals of both modes, and a whole ``solve_dp``, ask for
        each key once."""
        T = varying_counts_instance.T
        instance = varying_counts_instance.with_price_profile(
            np.tile([1.0, 1.5], (T + 1) // 2)[:T]
        )
        grids = tuple(grid_for_slot(instance, t) for t in range(T))
        dispatcher = DispatchSolver(instance)
        keys = {(dispatcher._slot_signature(t), grids[t].key) for t in range(T)}
        assert len(keys) < T  # the trace repeats demand levels
        reference = operating_cost_tensors(instance, grids, DispatchSolver(instance))
        provider = WindowedOperatingCosts(
            instance, grids, dispatcher, window=window, memoise=window is None
        )
        for t in [*range(T), *reversed(range(T))]:
            tensor = provider.tensor(t)
            assert np.array_equal(tensor, reference[t]) and not tensor.flags.writeable
        assert dispatcher.stats.slot_queries == len(keys)

        dispatcher = DispatchSolver(instance)
        solve_dp(instance, dispatcher=dispatcher, checkpoint_every=window)
        assert dispatcher.stats.slot_queries == len(keys)

    def test_streaming_does_not_grow_dispatch_cache(self, horizon_instance):
        dispatcher = DispatchSolver(horizon_instance)
        solve_dp(horizon_instance, dispatcher=dispatcher, checkpoint_every=7)
        assert len(dispatcher._block_cache) == 0

    def test_classic_pass_still_memoises(self, horizon_instance):
        dispatcher = DispatchSolver(horizon_instance)
        solve_dp(horizon_instance, dispatcher=dispatcher, keep_tables=True)
        assert len(dispatcher._block_cache) > 0


class TestKeyIndex:
    """The DP's per-slot bookkeeping, pinned as call counts: grids come from
    one ``grid_for_slot`` call per distinct counts row, and the provider
    numbers its keys once, asking for no signature but a representative's
    when one cost row serves every slot."""

    @staticmethod
    def _count(monkeypatch, owner, name):
        calls = []
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return calls

    def test_slot_grids_one_grid_per_distinct_counts_row(
        self, horizon_instance, varying_counts_instance, monkeypatch
    ):
        from repro.offline import state_grid

        calls = self._count(monkeypatch, state_grid, "grid_for_slot")
        grids = state_grid.slot_grids(horizon_instance)
        assert len(grids) == horizon_instance.T and len(calls) == 1
        assert all(grid is grids[0] for grid in grids)

        calls.clear()
        instance = varying_counts_instance
        grids = state_grid.slot_grids(instance, 1.5)
        rows = {tuple(row) for row in instance.counts.tolist()}
        assert len(calls) == len(rows) == len({id(grid) for grid in grids}) == 3
        for t, grid in enumerate(grids):
            assert grid is grid_for_slot(instance, t, 1.5), t

    def test_time_invariant_solve_builds_one_grid(self, monkeypatch):
        from repro.offline import state_grid

        instance = fleet_instance(
            cpu_gpu_fleet(cpu_count=4, gpu_count=2),
            diurnal_trace(30, period=12, base=1.0, peak=9.0, noise=0.0, rng=3),
        )
        calls = self._count(monkeypatch, state_grid, "grid_for_slot")
        for checkpoint_every in (None, 4):
            calls.clear()
            solve_dp(instance, checkpoint_every=checkpoint_every)
            assert len(calls) == 1, checkpoint_every

    @pytest.mark.parametrize("window", [None, 4])
    def test_signatures_only_for_representatives(self, monkeypatch, window):
        """With one cost row the key index is one ``np.unique`` over the
        demands: a whole solve asks for the signature of exactly the slots
        it hands ``solve_block`` (one per key and window)."""
        instance = fleet_instance(
            cpu_gpu_fleet(cpu_count=4, gpu_count=2),
            np.tile([1.0, 3.5, 3.5, 6.0, 1.0, 2.0], 5),
        )
        dispatcher = DispatchSolver(instance)
        signed = self._count(monkeypatch, dispatcher, "_slot_signature")
        blocks = self._count(monkeypatch, dispatcher, "solve_block")
        solve_dp(instance, dispatcher=dispatcher, checkpoint_every=window)
        solved = [t for ts, _ in blocks for t in ts]
        assert sorted(t for (t,) in signed) == sorted(solved)
        if window is None:
            assert solved == [0, 1, 3, 5]  # one key per demand level, first slots

    @pytest.mark.parametrize("priced", [False, True])
    def test_windowed_solve_indexes_keys_once(self, horizon_instance, monkeypatch, priced):
        """One key index serves the forward pass and the backtracking's
        rematerialised windows; a per-slot cost table asks each slot's
        signature once for it, besides the representatives ``solve_block``
        reads."""
        instance = horizon_instance
        if priced:
            instance = instance.with_price_profile(np.tile([1.0, 1.5, 1.5], 14)[: instance.T])
        indexes = self._count(monkeypatch, WindowedOperatingCosts, "_index_keys")
        dispatcher = DispatchSolver(instance)
        signed = self._count(monkeypatch, dispatcher, "_slot_signature")
        result = solve_dp(instance, dispatcher=dispatcher, checkpoint_every=5)
        assert result.checkpoint_every == 5 and len(indexes) == 1
        index_asks = instance.T if priced else 0
        assert len(signed) == index_asks + dispatcher.stats.slot_queries


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
        history = context.history()
        assert len(history) == instance.T
        # the newest minimum is the offline optimum of the forward tables
        assert float(np.min(history.value_at(instance.T - 1))) == pytest.approx(
            float(np.min(reference.value_tables[-1])), abs=1e-9
        )
        # rematerialised interior tensors equal the reference tables exactly
        for t in (0, 3, window - 1 if window > 1 else 1, instance.T // 2, instance.T - 2):
            t = min(max(t, 0), instance.T - 1)
            np.testing.assert_array_equal(
                np.asarray(history.value_at(t)), np.asarray(reference.value_tables[t])
            )
        # the windowed backward pass reproduces the reference schedule
        configs = history.backtrack()
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

    def test_rejects_bad_checkpoint_every(self, horizon_instance):
        with pytest.raises(ValueError):
            SharedInstanceContext(horizon_instance, checkpoint_every=0).history()

    @pytest.mark.parametrize("window", [0, -3, None])
    def test_constructors_reject_non_positive_windows(self, horizon_instance, window):
        """A window that is not a positive integer fails in the constructor,
        as ``solve_dp`` fails on it, instead of running clamped to 1."""
        if window is None:
            context = SharedInstanceContext(horizon_instance, checkpoint_every=window)
            assert context.run(Reactive()).schedule.T == horizon_instance.T
            assert len(context.history()) == horizon_instance.T
            assert SlotContext(horizon_instance, window=window).window is None
            return
        with pytest.raises(ValueError, match="checkpoint_every must be a positive integer"):
            SharedInstanceContext(horizon_instance, checkpoint_every=window)
        with pytest.raises(ValueError, match="window must be a positive integer"):
            SlotContext(horizon_instance, window=window)
        grids = [grid_for_slot(horizon_instance, 0)] * horizon_instance.T
        dispatcher = DispatchSolver(horizon_instance)
        with pytest.raises(ValueError, match="window must be a positive integer"):
            WindowedOperatingCosts(horizon_instance, grids, dispatcher, window=window)
        with pytest.raises(ValueError, match="checkpoint_every must be a positive integer"):
            solve_dp(horizon_instance, checkpoint_every=window)


class TestSlotContextBudget:
    def test_budgeted_context_bounds_cache_and_stays_exact(self, horizon_instance):
        """A, C, reactive and follow-demand through a checkpointed sweep
        context on a horizon of per-slot-unique demands: the schedules equal
        the unstreamed context's, the costs agree to 1e-9, the provider holds
        at most one window of tensors and a memo within its byte cap, and no
        ``solve_block`` memo holds a whole-grid row (the greedy baselines'
        grid queries included)."""
        from repro.online.algorithm_a import AlgorithmA
        from repro.online.algorithm_c import AlgorithmC
        from repro.online.baselines import FollowDemand, Reactive

        instance = horizon_instance
        assert len(set(instance.demand.tolist())) == instance.T
        size = grid_for_slot(instance, 0).size
        plain = SharedInstanceContext(instance)
        streamed = SharedInstanceContext(instance, checkpoint_every=7)
        builders = (
            lambda ctx: AlgorithmA(tracker=ctx.tracker()),
            lambda ctx: AlgorithmC(),
            lambda ctx: Reactive(),
            lambda ctx: FollowDemand(),
        )
        for build in builders:
            ref = plain.run(build(plain))
            got = streamed.run(build(streamed))
            assert np.array_equal(got.schedule.x, ref.schedule.x), got.algorithm
            assert got.cost == pytest.approx(ref.cost, abs=1e-9), got.algorithm
            provider = streamed.slots.costs()
            assert len(provider._tensors) <= 7, got.algorithm
            assert provider._sig_memo_used <= provider.memo_bytes, got.algorithm
            dispatcher = streamed.dispatcher
            rows = [costs for memo in dispatcher._block_cache.values() for costs, _ in memo.values()]
            rows += [costs for _, costs, _ in dispatcher._solved.values()]
            assert all(row.shape[0] < size for row in rows), got.algorithm

    def test_checkpointed_shared_context_sets_budget(self, horizon_instance):
        """``checkpoint_every`` is the slots' window: a checkpointed context's
        provider windows at it and leaves the dispatch memo alone, while an
        unstreamed context solves the whole horizon in one memoised pass."""
        ctx = SharedInstanceContext(horizon_instance, checkpoint_every=7)
        assert ctx.slots.window == 7
        assert ctx.slots.costs().window == 7 and not ctx.slots.costs().memoise
        plain = SharedInstanceContext(horizon_instance)
        assert plain.slots.window is None
        assert plain.slots.costs().window == horizon_instance.T
        assert plain.slots.costs().memoise


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
