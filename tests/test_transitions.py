"""Tests for the separable min-plus transitions of the DP."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.offline.transitions import (
    make_transition_plan,
    relax_dimension,
    startup_cost_tensor,
    switching_cost_between,
    switching_cost_tensor,
    transition,
)


def brute_force_transition(V, src_values, dst_values, beta):
    """O(|src| * |dst|) reference implementation of the separable min-plus product."""
    src_grids = np.meshgrid(*src_values, indexing="ij")
    src_configs = np.stack([g.reshape(-1) for g in src_grids], axis=-1)
    dst_grids = np.meshgrid(*dst_values, indexing="ij")
    dst_configs = np.stack([g.reshape(-1) for g in dst_grids], axis=-1)
    V_flat = np.asarray(V, dtype=float).reshape(-1)
    out = np.empty(len(dst_configs))
    beta = np.asarray(beta, dtype=float)
    for i, x in enumerate(dst_configs):
        costs = V_flat + np.sum(np.maximum(x[None, :] - src_configs, 0) * beta[None, :], axis=1)
        out[i] = np.min(costs)
    return out.reshape(tuple(len(v) for v in dst_values))


class TestRelaxDimension:
    def test_single_dimension_small_example(self):
        V = np.array([0.0, 10.0, 1.0, 5.0])
        src = np.array([0, 1, 2, 3])
        out = relax_dimension(V, src, src, beta=2.0, axis=0)
        expected = brute_force_transition(V, [src], [src], [2.0])
        np.testing.assert_allclose(out, expected)

    def test_zero_beta_gives_global_minimum(self):
        V = np.array([3.0, 1.0, 7.0])
        src = np.array([0, 1, 2])
        out = relax_dimension(V, src, src, beta=0.0, axis=0)
        np.testing.assert_allclose(out, [1.0, 1.0, 1.0])

    def test_different_source_and_target_values(self):
        V = np.array([0.0, 4.0, 2.0])
        src = np.array([0, 2, 5])
        dst = np.array([0, 1, 3, 5, 6])
        out = relax_dimension(V, src, dst, beta=1.0, axis=0)
        expected = brute_force_transition(V, [src], [dst], [1.0])
        np.testing.assert_allclose(out, expected)

    def test_handles_infinite_entries(self):
        V = np.array([np.inf, 2.0, np.inf])
        src = np.array([0, 1, 2])
        out = relax_dimension(V, src, src, beta=1.0, axis=0)
        expected = brute_force_transition(V, [src], [src], [1.0])
        np.testing.assert_allclose(out, expected)

    def test_axis_argument(self):
        V = np.arange(6, dtype=float).reshape(2, 3)
        src0 = np.array([0, 1])
        src1 = np.array([0, 1, 2])
        out = relax_dimension(V, src1, src1, beta=0.5, axis=1)
        for row in range(2):
            np.testing.assert_allclose(
                out[row], brute_force_transition(V[row], [src1], [src1], [0.5])
            )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            relax_dimension(np.zeros(3), np.array([0, 1]), np.array([0, 1]), 1.0, axis=0)


class TestFullTransition:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force_2d(self, seed):
        rng = np.random.default_rng(seed)
        src = [np.arange(4), np.arange(3)]
        V = rng.uniform(0, 10, size=(4, 3))
        beta = [2.0, 5.0]
        out = transition(V, src, src, beta)
        np.testing.assert_allclose(out, brute_force_transition(V, src, src, beta))

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_brute_force_3d(self, seed):
        rng = np.random.default_rng(100 + seed)
        src = [np.arange(3), np.arange(2), np.arange(4)]
        V = rng.uniform(0, 5, size=(3, 2, 4))
        beta = [1.0, 3.0, 0.5]
        out = transition(V, src, src, beta)
        np.testing.assert_allclose(out, brute_force_transition(V, src, src, beta))

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_brute_force_on_reduced_grids(self, seed):
        rng = np.random.default_rng(200 + seed)
        src = [np.array([0, 1, 2, 4, 8, 10]), np.array([0, 1, 3])]
        dst = [np.array([0, 1, 2, 4, 8, 10]), np.array([0, 2, 3])]
        V = rng.uniform(0, 20, size=(6, 3))
        beta = [1.5, 4.0]
        out = transition(V, src, dst, beta)
        np.testing.assert_allclose(out, brute_force_transition(V, src, dst, beta))

    def test_dimension_count_validation(self):
        with pytest.raises(ValueError):
            transition(np.zeros((2, 2)), [np.arange(2)], [np.arange(2), np.arange(2)], [1.0, 1.0])

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_property_matches_brute_force(self, data):
        n1 = data.draw(st.integers(1, 5))
        n2 = data.draw(st.integers(1, 4))
        V = np.array(
            data.draw(
                st.lists(
                    st.floats(0.0, 100.0), min_size=n1 * n2, max_size=n1 * n2
                )
            )
        ).reshape(n1, n2)
        src = [np.sort(np.unique(np.concatenate([[0], data.draw(st.lists(st.integers(0, 9), max_size=n1 - 1))]))) if False else np.arange(n1),
               np.arange(n2)]
        beta = [data.draw(st.floats(0.0, 5.0)), data.draw(st.floats(0.0, 5.0))]
        out = transition(V, src, src, beta)
        np.testing.assert_allclose(out, brute_force_transition(V, src, src, beta), rtol=1e-9, atol=1e-9)


@st.composite
def value_list_pairs(draw):
    """One dimension's sorted (src, dst) value lists.

    Equal, nested (either contains the other), or with a destination value
    above or below every source value — the grids of consecutive slots when
    the fleet grows or shrinks between them (Section 4.3).
    """
    src = draw(st.sets(st.integers(3, 12), min_size=1, max_size=5))
    other = draw(st.sets(st.integers(0, 15), max_size=5))
    kind = draw(st.sampled_from(["equal", "nested", "above", "below"]))
    if kind == "equal":
        dst = set(src)
    elif kind == "nested":
        dst = src | other
        if draw(st.booleans()):
            src, dst = dst, src
    elif kind == "above":
        dst = other | {max(src) + draw(st.integers(1, 3))}
    else:
        dst = other | {min(src) - draw(st.integers(1, 3))}
    return np.array(sorted(src)), np.array(sorted(dst))


class TestOneKernel:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_transition_and_plan_over_lanes(self, data):
        """``transition`` over 0-2 leading lane axes matches the brute force
        lane by lane, and the plan matches ``transition`` bit for bit."""
        d = data.draw(st.integers(1, 3))
        src, dst = zip(*(data.draw(value_list_pairs()) for _ in range(d)))
        lanes = tuple(data.draw(st.lists(st.integers(1, 3), max_size=2)))
        beta = data.draw(st.lists(st.floats(0.0, 5.0), min_size=d, max_size=d))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        V = rng.uniform(0.0, 100.0, size=lanes + tuple(len(v) for v in src))
        V[V > 90.0] = np.inf
        out = transition(V, src, dst, beta)
        assert out.shape == lanes + tuple(len(v) for v in dst)
        plan = make_transition_plan(src, dst, beta)
        for index in np.ndindex(*lanes):
            np.testing.assert_allclose(
                out[index], brute_force_transition(V[index], src, dst, beta),
                rtol=1e-9, atol=1e-9,
            )
            assert np.array_equal(plan.apply(V[index].copy()), out[index])

    def test_malformed_plans_rejected(self):
        values = [np.arange(3), np.arange(2)]
        with pytest.raises(ValueError):
            make_transition_plan(values, values[:1], [1.0, 2.0])
        with pytest.raises(ValueError):
            make_transition_plan([], [], [])
        with pytest.raises(ValueError):
            make_transition_plan([np.array([], dtype=int)], [np.arange(2)], [1.0])


class TestSwitchingCostHelpers:
    def test_switching_cost_between(self):
        assert switching_cost_between([1, 2], [3, 1], [2.0, 5.0]) == pytest.approx(4.0)
        assert switching_cost_between([3, 1], [1, 2], [2.0, 5.0]) == pytest.approx(5.0)
        assert switching_cost_between([1, 1], [1, 1], [2.0, 5.0]) == 0.0

    def test_switching_cost_tensor(self):
        values = [np.array([0, 1, 2]), np.array([0, 1])]
        tensor = switching_cost_tensor(values, [2, 1], [3.0, 7.0])
        assert tensor.shape == (3, 2)
        assert tensor[0, 0] == pytest.approx(2 * 3.0 + 1 * 7.0)
        assert tensor[2, 1] == pytest.approx(0.0)
        assert tensor[1, 0] == pytest.approx(3.0 + 7.0)

    def test_startup_cost_tensor(self):
        values = [np.array([0, 2]), np.array([0, 1, 3])]
        tensor = startup_cost_tensor(values, [1.0, 2.0])
        assert tensor.shape == (2, 3)
        assert tensor[0, 0] == 0.0
        assert tensor[1, 2] == pytest.approx(2.0 + 6.0)

    def test_startup_equals_switching_from_zero(self):
        values = [np.array([0, 1, 4]), np.array([0, 2])]
        startup = startup_cost_tensor(values, [1.5, 3.0])
        for i, a in enumerate(values[0]):
            for k, b in enumerate(values[1]):
                assert startup[i, k] == pytest.approx(
                    switching_cost_between([0, 0], [a, b], [1.5, 3.0])
                )
