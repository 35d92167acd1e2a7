"""Convex operating-cost functions for heterogeneous servers.

In the model of Albers & Quedenfeld (SPAA 2021), the energy consumed by a single
server of type ``j`` running at load ``z`` during one time slot is described by an
increasing, convex, non-negative function ``f_j(z)`` (time-independent case,
Section 2 of the paper) or ``f_{t,j}(z)`` (time-dependent case, Section 3).

``f_j(0)`` is the *idle* operating cost of a powered-up server; the load-dependent
part ``f_j(z) - f_j(0)`` models dynamic power (frequency/voltage scaling makes it
superlinear in practice, which is why convexity is the natural assumption).

This module provides a small library of such functions.  Every cost function

* is vectorised: it accepts scalars or :class:`numpy.ndarray` loads and returns
  values of the same shape,
* exposes its derivative and — where it exists in closed form — the inverse of the
  derivative, and
* describes its marginal ``f'`` as consecutive :class:`MarginalPiece` s
  (:attr:`CostFunction.marginal_pieces`).  The KKT conditions of the separable
  load-dispatch problem (:mod:`repro.dispatch`) equalise marginals across
  server types, and with the marginal known piece by piece the dispatcher
  computes the common multiplier exactly instead of bracketing it.

The functions are intentionally simple dataclasses; they are hashable and
comparable which makes memoising dispatch results straightforward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "CostFunction",
    "ConstantCost",
    "LinearCost",
    "QuadraticCost",
    "PowerCost",
    "PiecewiseLinearCost",
    "ScaledCost",
    "ShiftedCost",
    "CallableCost",
    "MarginalPiece",
    "check_valid_cost_function",
]

_ArrayLike = "float | np.ndarray"


class MarginalPiece(NamedTuple):
    """One piece of a marginal cost ``f'``, covering loads ``[z0, z0 + length)``.

    ``z0`` is the summed length of the pieces before it, and the last piece
    of a function is unbounded.  On the piece
    ``f'(z0 + s) = start + slope * s**power``: a zero ``slope`` is a *step*
    (the marginal stays at ``start`` while the piece fills), ``power == 1`` an
    affine *ramp*, and any other power a curved ramp.
    """

    start: float
    slope: float
    length: float
    power: float = 1.0


class CostFunction:
    """Abstract base class for convex, increasing, non-negative cost functions.

    Subclasses must implement :meth:`value` and :meth:`derivative`.  If a closed
    form for the inverse derivative exists, :meth:`inverse_derivative` should be
    overridden as well; otherwise a generic bisection-based fallback is used.

    The function is interpreted on ``z >= 0``.  Values for negative ``z`` are
    never requested by the library.
    """

    #: Marks functions whose derivative is constant (linear / constant cost):
    #: their marginal is a single step.
    has_constant_marginal: bool = False

    # ----------------------------------------------------------------- values
    def value(self, z):
        """Return ``f(z)`` (vectorised)."""
        raise NotImplementedError

    def derivative(self, z):
        """Return ``f'(z)`` (vectorised).

        For piecewise functions the right derivative is returned at kinks.
        """
        raise NotImplementedError

    def inverse_derivative(self, y):
        """Return the largest ``z >= 0`` with ``f'(z) <= y`` (vectorised).

        This is the generalised inverse of the (non-decreasing) marginal cost.
        When ``y`` is below the marginal at 0 the result is ``0``; when the
        marginal never reaches ``y`` the result is ``+inf``.  The default
        implementation uses bisection on ``[0, _INV_UPPER]`` and is adequate for
        exotic user-supplied functions; built-in families override it with
        closed forms.
        """
        y_arr = np.asarray(y, dtype=float)
        out = np.array([self._inverse_derivative_scalar(float(yi)) for yi in y_arr.ravel()])
        return out.reshape(y_arr.shape) if y_arr.ndim else float(out[0])

    _INV_UPPER = 1e12

    def _inverse_derivative_scalar(self, y: float) -> float:
        if self.derivative(0.0) > y:
            return 0.0
        lo, hi = 0.0, 1.0
        # exponential search for an upper bracket
        while self.derivative(hi) <= y:
            hi *= 2.0
            if hi > self._INV_UPPER:
                return math.inf
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if self.derivative(mid) <= y:
                lo = mid
            else:
                hi = mid
        return lo

    @property
    def marginal_pieces(self) -> Optional[tuple]:
        """``f'`` on ``[0, inf)`` as consecutive :class:`MarginalPiece` s, or ``None``.

        The built-in families cache theirs.  ``None`` (the default, for
        functions without a closed-form marginal) sends the load dispatcher
        to its bisection fallback.
        """
        return None

    # ----------------------------------------------------------- conveniences
    def __call__(self, z):
        return self.value(z)

    def idle_cost(self) -> float:
        """Return ``f(0)``, the idle operating cost of a powered-up server."""
        return float(self.value(0.0))

    def scaled(self, factor: float) -> "CostFunction":
        """Return ``factor * f`` (used for the sub-slot refinement of Alg. C)."""
        return ScaledCost(self, factor)


# --------------------------------------------------------------------------- #
# Concrete families
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ConstantCost(CostFunction):
    """Load-independent operating cost ``f(z) = level``.

    This is the special case studied in the companion paper (Albers &
    Quedenfeld, CIAC 2021) for which Algorithm A achieves the optimal
    competitive ratio of ``2d`` (Corollary 9).
    """

    level: float
    has_constant_marginal = True

    def __post_init__(self):
        if self.level < 0:
            raise ValueError(f"constant cost level must be non-negative, got {self.level}")

    def value(self, z):
        z = np.asarray(z, dtype=float)
        return np.broadcast_to(np.float64(self.level), z.shape).copy() if z.ndim else float(self.level)

    def derivative(self, z):
        z = np.asarray(z, dtype=float)
        return np.zeros(z.shape) if z.ndim else 0.0

    def inverse_derivative(self, y):
        y = np.asarray(y, dtype=float)
        res = np.where(y >= 0.0, np.inf, 0.0)
        return res if y.ndim else float(res)

    @cached_property
    def marginal_pieces(self) -> tuple:
        return (MarginalPiece(0.0, 0.0, math.inf),)


@dataclass(frozen=True)
class LinearCost(CostFunction):
    """Affine operating cost ``f(z) = idle + slope * z``.

    ``idle`` is the static power draw of an active server and ``slope`` the
    energy per unit of processed work.  An idle modern server typically draws
    around half its peak power, i.e. ``idle ~ slope * zmax``.
    """

    idle: float
    slope: float
    has_constant_marginal = True

    def __post_init__(self):
        if self.idle < 0 or self.slope < 0:
            raise ValueError("idle and slope must be non-negative")

    def value(self, z):
        z = np.asarray(z, dtype=float)
        out = self.idle + self.slope * z
        return out if z.ndim else float(out)

    def derivative(self, z):
        z = np.asarray(z, dtype=float)
        out = np.full(z.shape, float(self.slope)) if z.ndim else float(self.slope)
        return out

    def inverse_derivative(self, y):
        y = np.asarray(y, dtype=float)
        res = np.where(y >= self.slope, np.inf, 0.0)
        return res if y.ndim else float(res)

    @cached_property
    def marginal_pieces(self) -> tuple:
        return (MarginalPiece(float(self.slope), 0.0, math.inf),)


@dataclass(frozen=True)
class QuadraticCost(CostFunction):
    """Quadratic operating cost ``f(z) = idle + a*z + b*z**2`` with ``a, b >= 0``.

    Quadratic (and more generally superlinear) dynamic power is the standard
    model for CPU frequency/voltage scaling (Wierman, Andrew & Tang 2009).
    """

    idle: float
    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        if self.idle < 0 or self.a < 0 or self.b < 0:
            raise ValueError("all coefficients must be non-negative")

    def value(self, z):
        z = np.asarray(z, dtype=float)
        out = self.idle + self.a * z + self.b * z * z
        return out if z.ndim else float(out)

    def derivative(self, z):
        z = np.asarray(z, dtype=float)
        out = self.a + 2.0 * self.b * z
        return out if z.ndim else float(out)

    def inverse_derivative(self, y):
        y = np.asarray(y, dtype=float)
        if self.b == 0.0:
            res = np.where(y >= self.a, np.inf, 0.0)
        else:
            # a subnormal b overflows the load to +inf, the generalised inverse
            with np.errstate(over="ignore"):
                res = np.maximum(0.0, (y - self.a) / (2.0 * self.b))
        return res if y.ndim else float(res)

    @cached_property
    def marginal_pieces(self) -> tuple:
        return (MarginalPiece(float(self.a), 2.0 * self.b, math.inf),)

    @property
    def has_constant_marginal(self) -> bool:  # type: ignore[override]
        return self.b == 0.0


@dataclass(frozen=True)
class PowerCost(CostFunction):
    """Power-law operating cost ``f(z) = idle + coef * z**exponent`` (exponent >= 1).

    ``exponent`` close to 3 models dynamic voltage/frequency scaling of CPUs;
    ``exponent = 1`` degenerates to :class:`LinearCost`.
    """

    idle: float
    coef: float = 1.0
    exponent: float = 2.0

    def __post_init__(self):
        if self.idle < 0 or self.coef < 0:
            raise ValueError("idle and coef must be non-negative")
        if self.exponent < 1.0:
            raise ValueError("exponent must be >= 1 for convexity")

    def value(self, z):
        z = np.asarray(z, dtype=float)
        out = self.idle + self.coef * np.power(z, self.exponent)
        return out if z.ndim else float(out)

    def derivative(self, z):
        z = np.asarray(z, dtype=float)
        if self.exponent == 1.0:
            out = np.full(z.shape, float(self.coef)) if z.ndim else float(self.coef)
            return out
        with np.errstate(invalid="ignore"):
            out = self.coef * self.exponent * np.power(z, self.exponent - 1.0)
        return out if z.ndim else float(out)

    def inverse_derivative(self, y):
        y = np.asarray(y, dtype=float)
        if self.exponent == 1.0 or self.coef == 0.0:
            res = np.where(y >= self.derivative(0.0), np.inf, 0.0)
            return res if y.ndim else float(res)
        # a subnormal coef overflows the load to +inf, the generalised inverse
        with np.errstate(over="ignore"):
            base = np.maximum(y, 0.0) / (self.coef * self.exponent)
            res = np.power(base, 1.0 / (self.exponent - 1.0))
        return res if y.ndim else float(res)

    @cached_property
    def marginal_pieces(self) -> tuple:
        if self.has_constant_marginal:
            return (MarginalPiece(float(self.derivative(0.0)), 0.0, math.inf),)
        return (MarginalPiece(0.0, self.coef * self.exponent, math.inf, self.exponent - 1.0),)

    @property
    def has_constant_marginal(self) -> bool:  # type: ignore[override]
        return self.exponent == 1.0 or self.coef == 0.0


@dataclass(frozen=True)
class PiecewiseLinearCost(CostFunction):
    """Convex piecewise-linear cost given by breakpoints and slopes.

    ``f(z) = idle + sum_k slopes[k] * max(0, min(z, breaks[k+1]) - breaks[k])``

    ``breaks`` must start at 0 and be strictly increasing, ``slopes`` must be
    non-decreasing (convexity) and non-negative (monotonicity).  The last
    segment extends to infinity.
    """

    idle: float
    breaks: tuple
    slopes: tuple

    def __post_init__(self):
        breaks = tuple(float(b) for b in self.breaks)
        slopes = tuple(float(s) for s in self.slopes)
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "slopes", slopes)
        if self.idle < 0:
            raise ValueError("idle must be non-negative")
        if len(breaks) != len(slopes):
            raise ValueError("need exactly one slope per breakpoint")
        if len(breaks) == 0 or breaks[0] != 0.0:
            raise ValueError("breaks must start at 0")
        if any(b2 <= b1 for b1, b2 in zip(breaks, breaks[1:])):
            raise ValueError("breaks must be strictly increasing")
        if any(s < 0 for s in slopes):
            raise ValueError("slopes must be non-negative (increasing cost)")
        if any(s2 < s1 for s1, s2 in zip(slopes, slopes[1:])):
            raise ValueError("slopes must be non-decreasing (convexity)")

    def value(self, z):
        z = np.asarray(z, dtype=float)
        out = np.full(z.shape, float(self.idle))
        breaks = list(self.breaks) + [np.inf]
        for k, slope in enumerate(self.slopes):
            seg = np.clip(z, breaks[k], breaks[k + 1]) - breaks[k]
            out = out + slope * np.maximum(seg, 0.0)
        return out if z.ndim else float(out)

    def derivative(self, z):
        z = np.asarray(z, dtype=float)
        out = np.zeros(z.shape)
        breaks = np.asarray(self.breaks)
        slopes = np.asarray(self.slopes)
        idx = np.clip(np.searchsorted(breaks, z, side="right") - 1, 0, len(slopes) - 1)
        out = slopes[idx]
        return out if z.ndim else float(out)

    def inverse_derivative(self, y):
        y = np.asarray(y, dtype=float)
        breaks = np.asarray(self.breaks)
        slopes = np.asarray(self.slopes)
        # largest z with f'(z) <= y: the end of the last segment whose slope <= y
        n_ok = np.searchsorted(slopes, y, side="right")
        ext_breaks = np.append(breaks, np.inf)
        res = np.where(n_ok == 0, 0.0, ext_breaks[np.minimum(n_ok, len(breaks))])
        res = np.where(n_ok >= len(slopes), np.inf, res)
        return res if y.ndim else float(res)

    @cached_property
    def marginal_pieces(self) -> tuple:
        ends = self.breaks[1:] + (math.inf,)
        return tuple(
            MarginalPiece(slope, 0.0, end - begin)
            for slope, begin, end in zip(self.slopes, self.breaks, ends)
        )

    @property
    def has_constant_marginal(self) -> bool:  # type: ignore[override]
        return len(set(self.slopes)) <= 1


@dataclass(frozen=True)
class ScaledCost(CostFunction):
    """``factor * f`` for a base cost function ``f`` and ``factor > 0``.

    Used by Algorithm C's sub-slot refinement, where the operating cost of an
    original slot is split into ``n_t`` equal parts (Section 3.2 of the paper),
    and by time-varying electricity-price profiles.
    """

    base: CostFunction
    factor: float

    def __post_init__(self):
        if self.factor < 0:
            raise ValueError("factor must be non-negative")

    def value(self, z):
        return self.factor * np.asarray(self.base.value(z), dtype=float) if np.ndim(z) else self.factor * float(self.base.value(z))

    def derivative(self, z):
        return self.factor * np.asarray(self.base.derivative(z), dtype=float) if np.ndim(z) else self.factor * float(self.base.derivative(z))

    def inverse_derivative(self, y):
        if self.factor == 0.0:
            y_arr = np.asarray(y, dtype=float)
            res = np.full(y_arr.shape, np.inf)
            return res if y_arr.ndim else math.inf
        return self.base.inverse_derivative(np.asarray(y, dtype=float) / self.factor)

    @cached_property
    def marginal_pieces(self) -> Optional[tuple]:
        pieces = self.base.marginal_pieces
        if pieces is None:
            return None
        factor = float(self.factor)
        return tuple(p._replace(start=p.start * factor, slope=p.slope * factor) for p in pieces)

    @property
    def has_constant_marginal(self) -> bool:  # type: ignore[override]
        return self.base.has_constant_marginal


@dataclass(frozen=True)
class ShiftedCost(CostFunction):
    """``f + offset`` for a base cost function ``f`` and ``offset >= 0``.

    Useful to build time-varying idle costs (e.g. an electricity-price adder)
    without changing the load-dependent shape.
    """

    base: CostFunction
    offset: float

    def __post_init__(self):
        if self.offset < 0:
            raise ValueError("offset must be non-negative")

    def value(self, z):
        return np.asarray(self.base.value(z), dtype=float) + self.offset if np.ndim(z) else float(self.base.value(z)) + self.offset

    def derivative(self, z):
        return self.base.derivative(z)

    def inverse_derivative(self, y):
        return self.base.inverse_derivative(y)

    @property
    def marginal_pieces(self) -> Optional[tuple]:
        return self.base.marginal_pieces

    @property
    def has_constant_marginal(self) -> bool:  # type: ignore[override]
        return self.base.has_constant_marginal


class CallableCost(CostFunction):
    """Wrap an arbitrary convex increasing callable as a cost function.

    The derivative is approximated by central finite differences, and the
    inverse derivative by the generic bisection of the base class.  This path
    is slower than the built-in families (it forces the dispatcher onto its
    generic solver) but lets users plug in measured power curves.
    """

    def __init__(self, func: Callable[[float], float], name: str = "callable", eps: float = 1e-6):
        self._func = func
        self._name = name
        self._eps = float(eps)

    def value(self, z):
        z_arr = np.asarray(z, dtype=float)
        if z_arr.ndim == 0:
            return float(self._func(float(z_arr)))
        flat = np.array([float(self._func(float(v))) for v in z_arr.ravel()])
        return flat.reshape(z_arr.shape)

    def derivative(self, z):
        z_arr = np.asarray(z, dtype=float)
        eps = self._eps
        lo = np.maximum(z_arr - eps, 0.0)
        hi = z_arr + eps
        width = hi - lo
        return (np.asarray(self.value(hi)) - np.asarray(self.value(lo))) / np.where(width > 0, width, 1.0)

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"CallableCost({self._name})"

    def __eq__(self, other):
        return isinstance(other, CallableCost) and other._func is self._func

    def __hash__(self):
        return hash((CallableCost, id(self._func)))


# --------------------------------------------------------------------------- #
# Validation
# --------------------------------------------------------------------------- #


def check_valid_cost_function(
    f: CostFunction,
    zmax: float = 1.0,
    samples: int = 33,
    tol: float = 1e-9,
) -> None:
    """Numerically verify that ``f`` is non-negative, increasing and convex on ``[0, zmax]``.

    Raises :class:`ValueError` if a violation larger than ``tol`` is detected.
    This is a sampling-based check and therefore a heuristic for user-supplied
    :class:`CallableCost` objects; the built-in families are convex by
    construction.
    """
    if not np.isfinite(zmax) or zmax <= 0:
        zmax = 1.0
    zs = np.linspace(0.0, float(zmax), samples)
    vals = np.asarray(f.value(zs), dtype=float)
    if np.any(vals < -tol):
        raise ValueError(f"cost function {f!r} takes negative values")
    diffs = np.diff(vals)
    if np.any(diffs < -tol * max(1.0, np.max(np.abs(vals)))):
        raise ValueError(f"cost function {f!r} is not non-decreasing")
    second = np.diff(vals, 2)
    if np.any(second < -1e-6 * max(1.0, np.max(np.abs(vals)))):
        raise ValueError(f"cost function {f!r} is not convex")
