"""Tests for the convex operating-cost function library."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost_functions import (
    CallableCost,
    ConstantCost,
    CostFunction,
    LinearCost,
    PiecewiseLinearCost,
    PowerCost,
    QuadraticCost,
    ScaledCost,
    ShiftedCost,
    check_valid_cost_function,
)


# --------------------------------------------------------------------------- #
# Individual families
# --------------------------------------------------------------------------- #


class TestConstantCost:
    def test_value_is_constant(self):
        f = ConstantCost(level=2.5)
        assert f.value(0.0) == 2.5
        assert f.value(7.3) == 2.5
        assert f.idle_cost() == 2.5

    def test_vectorised_value(self):
        f = ConstantCost(level=1.5)
        z = np.array([0.0, 1.0, 4.0])
        np.testing.assert_allclose(f.value(z), [1.5, 1.5, 1.5])

    def test_derivative_is_zero(self):
        f = ConstantCost(level=3.0)
        assert f.derivative(0.5) == 0.0
        np.testing.assert_allclose(f.derivative(np.array([0.0, 2.0])), [0.0, 0.0])

    def test_inverse_derivative_is_unbounded(self):
        f = ConstantCost(level=3.0)
        assert f.inverse_derivative(0.0) == math.inf
        assert f.inverse_derivative(10.0) == math.inf

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            ConstantCost(level=-1.0)

    def test_has_constant_marginal(self):
        assert ConstantCost(level=1.0).has_constant_marginal


class TestLinearCost:
    def test_value_and_idle(self):
        f = LinearCost(idle=1.0, slope=2.0)
        assert f.value(0.0) == 1.0
        assert f.value(3.0) == 7.0
        assert f.idle_cost() == 1.0

    def test_derivative(self):
        f = LinearCost(idle=1.0, slope=2.0)
        assert f.derivative(0.0) == 2.0
        assert f.derivative(5.0) == 2.0

    def test_inverse_derivative_threshold(self):
        f = LinearCost(idle=1.0, slope=2.0)
        assert f.inverse_derivative(1.9) == 0.0
        assert f.inverse_derivative(2.0) == math.inf

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            LinearCost(idle=-0.1, slope=1.0)
        with pytest.raises(ValueError):
            LinearCost(idle=0.1, slope=-1.0)

    def test_scaled_helper(self):
        f = LinearCost(idle=1.0, slope=2.0).scaled(0.5)
        assert f.value(2.0) == pytest.approx(0.5 * 5.0)


class TestQuadraticCost:
    def test_value(self):
        f = QuadraticCost(idle=1.0, a=2.0, b=3.0)
        assert f.value(2.0) == pytest.approx(1.0 + 4.0 + 12.0)

    def test_derivative(self):
        f = QuadraticCost(idle=1.0, a=2.0, b=3.0)
        assert f.derivative(2.0) == pytest.approx(2.0 + 12.0)

    def test_inverse_derivative_roundtrip(self):
        f = QuadraticCost(idle=0.5, a=1.0, b=2.0)
        for y in [1.0, 3.0, 9.0]:
            z = f.inverse_derivative(y)
            assert f.derivative(z) == pytest.approx(y)

    def test_inverse_derivative_below_marginal_at_zero(self):
        f = QuadraticCost(idle=0.5, a=1.0, b=2.0)
        assert f.inverse_derivative(0.5) == 0.0

    def test_degenerates_to_linear(self):
        f = QuadraticCost(idle=1.0, a=2.0, b=0.0)
        assert f.has_constant_marginal
        assert f.inverse_derivative(3.0) == math.inf


class TestPowerCost:
    def test_value(self):
        f = PowerCost(idle=1.0, coef=2.0, exponent=3.0)
        assert f.value(2.0) == pytest.approx(1.0 + 16.0)

    def test_derivative(self):
        f = PowerCost(idle=1.0, coef=2.0, exponent=3.0)
        assert f.derivative(2.0) == pytest.approx(2.0 * 3.0 * 4.0)

    def test_inverse_derivative_roundtrip(self):
        f = PowerCost(idle=0.0, coef=1.5, exponent=2.5)
        for y in [0.5, 2.0, 11.0]:
            z = f.inverse_derivative(y)
            assert f.derivative(z) == pytest.approx(y, rel=1e-9)

    def test_exponent_below_one_rejected(self):
        with pytest.raises(ValueError):
            PowerCost(idle=0.0, coef=1.0, exponent=0.5)

    def test_exponent_one_is_linear(self):
        f = PowerCost(idle=1.0, coef=2.0, exponent=1.0)
        assert f.has_constant_marginal
        assert f.derivative(5.0) == pytest.approx(2.0)


class TestPiecewiseLinearCost:
    def test_value_across_segments(self):
        f = PiecewiseLinearCost(idle=1.0, breaks=(0.0, 2.0), slopes=(1.0, 3.0))
        assert f.value(1.0) == pytest.approx(2.0)
        assert f.value(2.0) == pytest.approx(3.0)
        assert f.value(4.0) == pytest.approx(3.0 + 2.0 * 3.0)

    def test_derivative_per_segment(self):
        f = PiecewiseLinearCost(idle=0.0, breaks=(0.0, 1.0, 3.0), slopes=(0.5, 1.0, 2.0))
        assert f.derivative(0.5) == 0.5
        assert f.derivative(2.0) == 1.0
        assert f.derivative(10.0) == 2.0

    def test_inverse_derivative(self):
        f = PiecewiseLinearCost(idle=0.0, breaks=(0.0, 1.0, 3.0), slopes=(0.5, 1.0, 2.0))
        # largest z with slope <= y
        assert f.inverse_derivative(0.4) == 0.0
        assert f.inverse_derivative(0.7) == pytest.approx(1.0)
        assert f.inverse_derivative(1.5) == pytest.approx(3.0)
        assert f.inverse_derivative(2.5) == math.inf

    def test_convexity_enforced(self):
        with pytest.raises(ValueError):
            PiecewiseLinearCost(idle=0.0, breaks=(0.0, 1.0), slopes=(2.0, 1.0))

    def test_breaks_must_start_at_zero(self):
        with pytest.raises(ValueError):
            PiecewiseLinearCost(idle=0.0, breaks=(1.0, 2.0), slopes=(1.0, 2.0))

    def test_breaks_must_increase(self):
        with pytest.raises(ValueError):
            PiecewiseLinearCost(idle=0.0, breaks=(0.0, 0.0), slopes=(1.0, 2.0))


class TestWrappers:
    def test_scaled_cost(self):
        base = QuadraticCost(idle=1.0, a=1.0, b=1.0)
        f = ScaledCost(base, 0.25)
        assert f.value(2.0) == pytest.approx(0.25 * base.value(2.0))
        assert f.derivative(2.0) == pytest.approx(0.25 * base.derivative(2.0))
        assert f.idle_cost() == pytest.approx(0.25)

    def test_scaled_inverse_derivative(self):
        base = QuadraticCost(idle=0.0, a=0.0, b=1.0)
        f = ScaledCost(base, 0.5)
        # f'(z) = z, so inverse of y is y ... scaled: f'(z) = 0.5 * 2z = z ... wait
        # base f'(z) = 2z; scaled derivative = z; inverse of y is y.
        assert f.inverse_derivative(3.0) == pytest.approx(3.0)

    def test_scaled_zero_factor(self):
        f = ScaledCost(LinearCost(idle=1.0, slope=1.0), 0.0)
        assert f.value(5.0) == 0.0
        assert f.inverse_derivative(1.0) == math.inf

    def test_shifted_cost(self):
        base = LinearCost(idle=1.0, slope=2.0)
        f = ShiftedCost(base, 3.0)
        assert f.value(1.0) == pytest.approx(base.value(1.0) + 3.0)
        assert f.derivative(1.0) == base.derivative(1.0)
        assert f.idle_cost() == pytest.approx(4.0)

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            ScaledCost(ConstantCost(1.0), -0.5)

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            ShiftedCost(ConstantCost(1.0), -0.5)


class TestCallableCost:
    def test_value_and_derivative(self):
        f = CallableCost(lambda z: 1.0 + z * z, name="quad")
        assert f.value(2.0) == pytest.approx(5.0)
        assert f.derivative(2.0) == pytest.approx(4.0, rel=1e-3)

    def test_vectorised_value(self):
        f = CallableCost(lambda z: 2.0 * z)
        np.testing.assert_allclose(f.value(np.array([0.0, 1.0, 3.0])), [0.0, 2.0, 6.0])

    def test_generic_inverse_derivative(self):
        f = CallableCost(lambda z: z**2)
        # derivative 2z; inverse of 4 is 2
        assert f.inverse_derivative(4.0) == pytest.approx(2.0, rel=1e-6)

    def test_equality_by_function_identity(self):
        fn = lambda z: z  # noqa: E731
        assert CallableCost(fn) == CallableCost(fn)
        assert CallableCost(fn) != CallableCost(lambda z: z)


class TestValidation:
    def test_valid_function_passes(self):
        check_valid_cost_function(QuadraticCost(idle=1.0, a=0.5, b=1.0), zmax=4.0)

    def test_decreasing_function_fails(self):
        f = CallableCost(lambda z: 5.0 - z)
        with pytest.raises(ValueError):
            check_valid_cost_function(f, zmax=2.0)

    def test_concave_function_fails(self):
        f = CallableCost(lambda z: math.sqrt(z + 0.01))
        with pytest.raises(ValueError):
            check_valid_cost_function(f, zmax=4.0)

    def test_negative_function_fails(self):
        f = CallableCost(lambda z: z - 1.0)
        with pytest.raises(ValueError):
            check_valid_cost_function(f, zmax=2.0)


# --------------------------------------------------------------------------- #
# Property-based tests: shared invariants of every family
# --------------------------------------------------------------------------- #

FAMILY_STRATEGY = st.one_of(
    st.builds(
        ConstantCost,
        level=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    ),
    st.builds(
        LinearCost,
        idle=st.floats(min_value=0.0, max_value=10.0),
        slope=st.floats(min_value=0.0, max_value=10.0),
    ),
    st.builds(
        QuadraticCost,
        idle=st.floats(min_value=0.0, max_value=5.0),
        a=st.floats(min_value=0.0, max_value=5.0),
        b=st.floats(min_value=0.0, max_value=5.0),
    ),
    st.builds(
        PowerCost,
        idle=st.floats(min_value=0.0, max_value=5.0),
        coef=st.floats(min_value=0.0, max_value=5.0),
        exponent=st.floats(min_value=1.0, max_value=3.0),
    ),
)


@given(f=FAMILY_STRATEGY, z=st.floats(min_value=0.0, max_value=20.0))
@settings(max_examples=200, deadline=None)
def test_values_are_non_negative_and_monotone(f: CostFunction, z: float):
    """f is non-negative and non-decreasing on [0, inf)."""
    v0 = float(f.value(z))
    v1 = float(f.value(z + 1.0))
    assert v0 >= -1e-12
    assert v1 >= v0 - 1e-9


@given(f=FAMILY_STRATEGY, z1=st.floats(0.0, 10.0), z2=st.floats(0.0, 10.0))
@settings(max_examples=200, deadline=None)
def test_midpoint_convexity(f: CostFunction, z1: float, z2: float):
    """f((z1+z2)/2) <= (f(z1)+f(z2))/2 (convexity)."""
    mid = float(f.value(0.5 * (z1 + z2)))
    avg = 0.5 * (float(f.value(z1)) + float(f.value(z2)))
    assert mid <= avg + 1e-7 * max(1.0, abs(avg))


@given(f=FAMILY_STRATEGY, y=st.floats(min_value=0.0, max_value=50.0))
@settings(max_examples=150, deadline=None)
def test_inverse_derivative_consistency(f: CostFunction, y: float):
    """z* = inverse_derivative(y) satisfies f'(z) <= y for all z <= z* (generalised inverse)."""
    z_star = float(f.inverse_derivative(y))
    if z_star == 0.0:
        return
    probe = min(z_star, 1e6) * 0.999
    assert float(f.derivative(probe)) <= y + 1e-6 * max(1.0, y)


@given(f=FAMILY_STRATEGY, z=st.floats(min_value=0.0, max_value=10.0), factor=st.floats(0.01, 5.0))
@settings(max_examples=100, deadline=None)
def test_scaling_is_linear_in_factor(f: CostFunction, z: float, factor: float):
    assert float(ScaledCost(f, factor).value(z)) == pytest.approx(factor * float(f.value(z)), rel=1e-9, abs=1e-9)


PIECEWISE_STRATEGY = st.lists(st.floats(0.1, 3.0), max_size=3).flatmap(
    lambda gaps: st.lists(st.floats(0.0, 5.0), min_size=len(gaps) + 1, max_size=len(gaps) + 1).map(
        lambda slopes: PiecewiseLinearCost(
            idle=1.0,
            breaks=tuple(np.concatenate(([0.0], np.cumsum(gaps)))),
            slopes=tuple(sorted(slopes)),
        )
    )
)


@given(
    f=st.one_of(FAMILY_STRATEGY, PIECEWISE_STRATEGY).flatmap(
        lambda f: st.sampled_from([f, ScaledCost(f, 1.7), ShiftedCost(f, 0.4)])
    ),
    z=st.floats(min_value=0.0, max_value=20.0),
)
@settings(max_examples=200, deadline=None)
def test_marginal_pieces_trace_the_derivative(f: CostFunction, z: float):
    """The marginal pieces the dispatcher sweeps reproduce ``f'`` piece by piece."""
    pieces = f.marginal_pieces
    assert pieces[-1].length == math.inf
    offset = 0.0
    for piece in pieces:
        if z < offset + piece.length:
            break
        offset += piece.length
    marginal = piece.start + piece.slope * (z - offset) ** piece.power
    assert marginal == pytest.approx(float(f.derivative(z)), rel=1e-9, abs=1e-12)


def test_callable_cost_has_no_marginal_pieces():
    assert CallableCost(lambda z: z * z).marginal_pieces is None
    assert ScaledCost(CallableCost(lambda z: z), 2.0).marginal_pieces is None
