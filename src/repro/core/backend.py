"""Compiled-kernel backend seam for the dispatch/DP hot path.

The two inner loops served here are (a) the dual bisection step that
:class:`~repro.dispatch.allocation.DispatchSolver` keeps for cost functions
without closed-form marginals and (b) the separable min-plus relaxation of
:mod:`repro.offline.transitions`.  Both
are factored here into *preallocated, dtype-stable kernel functions*: every
kernel writes into caller-owned ``float64`` buffers, allocates nothing, and is
a drop-in unit behind one dispatch point — callers never branch on the active
implementation.

Two implementations are registered:

* ``"numpy"`` (default, always available) — in-place ufunc calls whose
  operation sequence is *bit-identical* to the historical inline expressions
  (the correctness gates compare schedules exactly, so the kernels must not
  perturb last bits), and
* ``"numba"`` — the same kernels compiled with ``@njit(cache=True)``, built
  lazily and only when the wheel is importable.  Selecting it without numba
  installed raises a :class:`BackendUnavailableError` naming the available
  backends instead of an ImportError from deep inside a solve.

Selection: :func:`set_backend` / the ``REPRO_BACKEND`` environment variable
(read once, at first :func:`get_backend` call) / the ``--backend`` CLI flag of
``repro bench`` and ``repro serve``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

__all__ = [
    "Backend",
    "BackendUnavailableError",
    "available_backends",
    "get_backend",
    "register_backend",
    "set_backend",
    "use_backend",
]


class BackendUnavailableError(RuntimeError):
    """A backend was requested whose implementation cannot be constructed."""


@dataclass(frozen=True)
class Backend:
    """One kernel implementation behind the hot-path dispatch point.

    All kernels operate on ``float64`` arrays and write into caller-provided
    buffers; none of them allocates.  ``bisect_step`` and
    ``propagate_brackets`` serve the dual bisection of
    :meth:`DispatchSolver._bisect_rows <repro.dispatch.allocation.DispatchSolver._bisect_rows>`;
    ``min_plus_axis`` is one axis of the separable min-plus transition
    (prefix-minimum power-up direction + suffix-minimum power-down direction).
    """

    name: str
    #: ``bisect_step(mu_lo, mu_hi, mid, tot, lam_col, mask)``: write the
    #: midpoint of the bracket into ``mid`` *for the next iteration* is the
    #: caller's job — this kernel applies one refinement: rows with
    #: ``tot < lam_col`` move their lower bracket to ``mid``, the rest move
    #: their upper bracket.  ``mask`` is a caller-owned boolean scratch.
    bisect_step: Callable
    #: ``midpoint(mu_lo, mu_hi, mid)``: ``mid[:] = 0.5 * (mu_lo + mu_hi)``.
    midpoint: Callable
    #: ``propagate_brackets(mu_lo, mu_hi)``: cross-row bracket propagation —
    #: lower brackets accumulate to larger demands, upper brackets to smaller
    #: (valid because the optimal multiplier is non-decreasing in the demand).
    propagate_brackets: Callable
    #: ``min_plus_axis(V, bsrc, bdst, up_idx, down_idx, shifted, shifted_rev,
    #: gather, out)``: one-dimensional min-plus relaxation along the *last*
    #: axis.  ``V`` is the input tensor (last axis = source values),
    #: ``bsrc``/``bdst`` are the precomputed ``beta * values`` vectors,
    #: ``up_idx``/``down_idx`` the plan's gather indices (all valid),
    #: ``shifted``/``gather``/``out`` caller-owned scratch/output buffers of
    #: the appropriate shapes and ``shifted_rev`` a preconstructed
    #: last-axis-reversed view of ``shifted`` (kernels that build their own
    #: reversed access may ignore it).
    min_plus_axis: Callable
    #: ``min_plus_axis_same(V, bsrc, bdst, shifted, shifted_rev, out)``: the
    #: same relaxation specialised to identity gather maps (source and
    #: destination value lists are equal — the steady-state same-grid slot).
    #: Operation values match ``min_plus_axis`` with identity indices exactly;
    #: the two gathers and their scratch buffer are simply elided.
    min_plus_axis_same: Callable


# --------------------------------------------------------------------------- #
# NumPy reference implementation (bit-identical to the historical inline ops)
# --------------------------------------------------------------------------- #


def _np_midpoint(mu_lo: np.ndarray, mu_hi: np.ndarray, mid: np.ndarray) -> None:
    np.add(mu_lo, mu_hi, out=mid)
    mid *= 0.5


def _np_bisect_step(
    mu_lo: np.ndarray,
    mu_hi: np.ndarray,
    mid: np.ndarray,
    tot: np.ndarray,
    lam_col: np.ndarray,
    mask: np.ndarray,
) -> None:
    np.less(tot, lam_col, out=mask)
    np.copyto(mu_lo, mid, where=mask)
    np.logical_not(mask, out=mask)
    np.copyto(mu_hi, mid, where=mask)


def _np_propagate_brackets(mu_lo: np.ndarray, mu_hi: np.ndarray) -> None:
    np.maximum.accumulate(mu_lo, axis=0, out=mu_lo)
    rev = mu_hi[::-1]
    np.minimum.accumulate(rev, axis=0, out=rev)


_subtract = np.subtract
_add = np.add
_minimum = np.minimum
_min_acc = np.minimum.accumulate


def _np_min_plus_axis(
    V: np.ndarray,
    bsrc: np.ndarray,
    bdst: np.ndarray,
    up_idx: np.ndarray,
    down_idx: np.ndarray,
    shifted: np.ndarray,
    shifted_rev: np.ndarray,
    gather: np.ndarray,
    out: np.ndarray,
) -> None:
    # power-up direction: prefix minimum of V - beta*src, gathered at up_idx,
    # plus beta*dst — the exact operation sequence of relax_dimension
    _subtract(V, bsrc, out=shifted)
    _min_acc(shifted, axis=-1, out=shifted)
    shifted.take(up_idx, axis=-1, out=out)
    _add(out, bdst, out=out)
    # power-down direction: suffix minimum of V, gathered at down_idx
    _min_acc(V[..., ::-1], axis=-1, out=shifted_rev)
    shifted.take(down_idx, axis=-1, out=gather)
    _minimum(out, gather, out=out)


def _np_min_plus_axis_same(
    V: np.ndarray,
    bsrc: np.ndarray,
    bdst: np.ndarray,
    shifted: np.ndarray,
    shifted_rev: np.ndarray,
    out: np.ndarray,
) -> None:
    # identity gathers elided: take(x, identity) is x, value for value
    _subtract(V, bsrc, out=shifted)
    _min_acc(shifted, axis=-1, out=shifted)
    _add(shifted, bdst, out=out)
    _min_acc(V[..., ::-1], axis=-1, out=shifted_rev)
    _minimum(out, shifted, out=out)


_NUMPY_BACKEND = Backend(
    name="numpy",
    bisect_step=_np_bisect_step,
    midpoint=_np_midpoint,
    propagate_brackets=_np_propagate_brackets,
    min_plus_axis=_np_min_plus_axis,
    min_plus_axis_same=_np_min_plus_axis_same,
)


# --------------------------------------------------------------------------- #
# Optional numba implementation (built lazily, only when importable)
# --------------------------------------------------------------------------- #


def _build_numba_backend() -> Backend:
    try:
        import numba  # noqa: F401
        from numba import njit
    except ImportError as exc:  # pragma: no cover - depends on environment
        raise BackendUnavailableError(
            "backend 'numba' requires the numba package, which is not "
            f"importable here (available: {sorted(_BACKENDS)})"
        ) from exc

    @njit(cache=True)
    def nb_midpoint(mu_lo, mu_hi, mid):  # pragma: no cover - compiled
        p, n = mu_lo.shape
        for i in range(p):
            for k in range(n):
                mid[i, k] = 0.5 * (mu_lo[i, k] + mu_hi[i, k])

    @njit(cache=True)
    def nb_bisect_step(mu_lo, mu_hi, mid, tot, lam_col, mask):  # pragma: no cover
        p, n = mu_lo.shape
        for i in range(p):
            lam = lam_col[i, 0]
            for k in range(n):
                if tot[i, k] < lam:
                    mu_lo[i, k] = mid[i, k]
                else:
                    mu_hi[i, k] = mid[i, k]

    @njit(cache=True)
    def nb_propagate_brackets(mu_lo, mu_hi):  # pragma: no cover - compiled
        p, n = mu_lo.shape
        for i in range(1, p):
            for k in range(n):
                if mu_lo[i - 1, k] > mu_lo[i, k]:
                    mu_lo[i, k] = mu_lo[i - 1, k]
        for i in range(p - 2, -1, -1):
            for k in range(n):
                if mu_hi[i + 1, k] < mu_hi[i, k]:
                    mu_hi[i, k] = mu_hi[i + 1, k]

    @njit(cache=True)
    def nb_min_plus_axis(V, bsrc, bdst, up_idx, down_idx, shifted, shifted_rev, gather, out):
        # pragma: no cover - compiled
        flat_v = V.reshape(-1, V.shape[-1])
        flat_s = shifted.reshape(-1, shifted.shape[-1])
        flat_g = gather.reshape(-1, gather.shape[-1])
        flat_o = out.reshape(-1, out.shape[-1])
        rows, src_n = flat_v.shape
        dst_n = flat_o.shape[-1]
        for r in range(rows):
            running = np.inf
            for k in range(src_n):
                v = flat_v[r, k] - bsrc[k]
                if v < running:
                    running = v
                flat_s[r, k] = running
            for k in range(dst_n):
                flat_o[r, k] = flat_s[r, up_idx[k]] + bdst[k]
            running = np.inf
            for k in range(src_n - 1, -1, -1):
                v = flat_v[r, k]
                if v < running:
                    running = v
                flat_s[r, k] = running
            for k in range(dst_n):
                g = flat_s[r, down_idx[k]]
                flat_g[r, k] = g
                if g < flat_o[r, k]:
                    flat_o[r, k] = g

    @njit(cache=True)
    def nb_min_plus_axis_same(V, bsrc, bdst, shifted, shifted_rev, out):
        # pragma: no cover - compiled
        flat_v = V.reshape(-1, V.shape[-1])
        flat_s = shifted.reshape(-1, shifted.shape[-1])
        flat_o = out.reshape(-1, out.shape[-1])
        rows, n = flat_v.shape
        for r in range(rows):
            running = np.inf
            for k in range(n):
                v = flat_v[r, k] - bsrc[k]
                if v < running:
                    running = v
                flat_o[r, k] = running + bdst[k]
            running = np.inf
            for k in range(n - 1, -1, -1):
                v = flat_v[r, k]
                if v < running:
                    running = v
                flat_s[r, k] = running
                if running < flat_o[r, k]:
                    flat_o[r, k] = running

    return Backend(
        name="numba",
        bisect_step=nb_bisect_step,
        midpoint=nb_midpoint,
        propagate_brackets=nb_propagate_brackets,
        min_plus_axis=nb_min_plus_axis,
        min_plus_axis_same=nb_min_plus_axis_same,
    )


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #

_BACKENDS: Dict[str, object] = {
    "numpy": _NUMPY_BACKEND,
    # "numba" maps to a builder; it is materialised (and compiled) on first use
    "numba": _build_numba_backend,
}
_active: Optional[Backend] = None


def register_backend(name: str, backend) -> None:
    """Register a :class:`Backend` (or a zero-arg builder returning one)."""
    _BACKENDS[str(name)] = backend


def available_backends() -> tuple:
    """Names of registered backends (registration, not importability)."""
    return tuple(sorted(_BACKENDS))


def _materialise(name: str) -> Backend:
    entry = _BACKENDS.get(name)
    if entry is None:
        raise BackendUnavailableError(
            f"unknown backend {name!r} (available: {sorted(_BACKENDS)})"
        )
    if not isinstance(entry, Backend):
        entry = entry()
        if not isinstance(entry, Backend):
            raise BackendUnavailableError(
                f"backend {name!r} builder returned {type(entry).__name__}, not Backend"
            )
        _BACKENDS[name] = entry
    return entry


def set_backend(name: str) -> Backend:
    """Activate a backend by name; raises :class:`BackendUnavailableError`."""
    global _active
    _active = _materialise(str(name))
    return _active


def get_backend() -> Backend:
    """The active backend (resolving ``REPRO_BACKEND`` on first call)."""
    global _active
    if _active is None:
        _active = _materialise(os.environ.get("REPRO_BACKEND", "numpy"))
    return _active


class use_backend:
    """Context manager: temporarily activate a backend (tests/benchmarks)."""

    def __init__(self, name: str):
        self._name = str(name)
        self._previous: Optional[Backend] = None

    def __enter__(self) -> Backend:
        global _active
        self._previous = _active
        return set_backend(self._name)

    def __exit__(self, *exc) -> None:
        global _active
        _active = self._previous
