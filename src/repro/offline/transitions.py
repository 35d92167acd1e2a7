"""Separable min-plus transitions of the right-sizing dynamic program.

The graph ``G(I)`` of Section 4.1 connects configurations of consecutive time
slots through chains of single-server power-up edges (weight ``beta_j``) and
power-down edges (weight 0).  The induced transition cost between two
configurations is therefore

``S(x', x) = sum_j beta_j * (x_j - x'_j)^+``,

which is *separable* across server types.  A min-plus product with a separable
kernel factorises into ``d`` one-dimensional relaxations, one per type; each of
those is a combination of a prefix minimum (power-up direction: moving from a
smaller source value ``u`` to a target ``v`` costs ``beta*(v-u)``) and a suffix
minimum (power-down direction: cost 0).  This reduces the per-slot transition
work from ``O(|M|^2)`` to ``O(d * |M|)`` and vectorises cleanly in NumPy, which
is the performance-critical trick behind both the exact solver and the
(1+eps)-approximation (where each dimension simply uses a sparser value list).

All functions below operate on *value tensors*: arrays whose axis ``j`` is
indexed by the admissible values of server type ``j`` (see
:class:`repro.offline.state_grid.StateGrid`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "relax_dimension",
    "transition",
    "TransitionPlan",
    "make_transition_plan",
    "switching_cost_between",
    "switching_cost_tensor",
    "startup_cost_tensor",
]


#: Per-(src, dst) value-list plans: the ``searchsorted`` index maps between two
#: grid value lists depend only on the lists, never on the value tensor or
#: ``beta``, yet the DP recomputes them for every slot.  Grids are memoised per
#: instance (``grid_for_slot``), so the common time-invariant case sees one
#: (src, dst) pair for the whole horizon — one plan per pair turns the per-slot
#: index computation into a dictionary lookup.  Keyed by content (bytes), so
#: equal grids share a plan across instances; bounded to keep pathological
#: workloads (thousands of distinct per-slot grids) from pinning memory.
_PLAN_CACHE: dict = {}
#: Identity fast path for read-only value arrays: grid value lists are frozen
#: by :class:`~repro.offline.state_grid.StateGrid` and memoised per instance,
#: so the same array objects recur ``T * d`` times per solve — the id lookup
#: (validated by ``is``, as in ``DispatchSolver._configs_key``) skips the
#: per-call ``tobytes`` serialisation of up to ~10^4 values per dimension.
_PLAN_ID_CACHE: dict = {}
_PLAN_CACHE_MAX = 4096


def _relax_plan(src_values, dst_values) -> tuple:
    """``(src_f, dst_f, up_idx, all_up, valid_up, down_idx, all_down, valid_down)``."""
    src = np.asarray(src_values)
    dst = np.asarray(dst_values)
    id_key = None
    if not src.flags.writeable and not dst.flags.writeable:
        id_key = (id(src), id(dst))
        entry = _PLAN_ID_CACHE.get(id_key)
        if entry is not None and entry[0] is src and entry[1] is dst:
            return entry[2]
    key = (src.dtype.str, src.tobytes(), dst.dtype.str, dst.tobytes())
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        src_f = np.asarray(src, dtype=float)
        dst_f = np.asarray(dst, dtype=float)
        # index of the last source value <= each destination value
        up_idx = np.searchsorted(src_f, dst_f, side="right") - 1
        valid_up = up_idx >= 0
        down_idx = np.searchsorted(src_f, dst_f, side="left")
        valid_down = down_idx < len(src_f)
        plan = (
            src_f,
            dst_f,
            up_idx,
            bool(valid_up.all()),
            valid_up,
            np.minimum(down_idx, max(len(src_f) - 1, 0)),
            bool(valid_down.all()),
            valid_down,
        )
        if len(_PLAN_CACHE) >= _PLAN_CACHE_MAX:
            _PLAN_CACHE.clear()
        _PLAN_CACHE[key] = plan
    if id_key is not None:
        if len(_PLAN_ID_CACHE) >= _PLAN_CACHE_MAX:
            _PLAN_ID_CACHE.clear()
        _PLAN_ID_CACHE[id_key] = (src, dst, plan)
    return plan


def relax_dimension(
    values_tensor: np.ndarray,
    src_values: np.ndarray,
    dst_values: np.ndarray,
    beta: float,
    axis: int,
) -> np.ndarray:
    """One-dimensional min-plus relaxation along ``axis``.

    Computes ``W[..., k, ...] = min_i  V[..., i, ...] + beta * max(dst[k] - src[i], 0)``
    where ``i`` ranges over ``src_values`` and ``k`` over ``dst_values``.

    The decomposition used is
    ``min( beta*dst[k] + min_{src<=dst[k]} (V - beta*src),  min_{src>=dst[k]} V )``,
    i.e. a prefix minimum for the power-up direction and a suffix minimum for
    the (free) power-down direction.  Both are computed with
    ``numpy.minimum.accumulate``; the ``numpy.searchsorted`` mapping between the
    two value lists is hoisted into a content-keyed plan cache (consecutive
    slots almost always share a grid), so arbitrary (sorted) source and target
    value sets are supported — in particular the geometric grids ``M^gamma`` of
    the approximation algorithm and per-slot grids of different sizes.

    Values are float64; any other input dtype is promoted.
    """
    src_f, dst_f, up_idx, all_up, valid_up, down_idx, all_down, valid_down = _relax_plan(
        src_values, dst_values
    )
    V = np.asarray(values_tensor)
    # swapaxes instead of moveaxis: the relaxation is elementwise along the
    # moved axis, so any consistent permutation works, and swapaxes skips
    # moveaxis' per-call axis normalisation (the DP calls this T*d times)
    moved = axis not in (-1, V.ndim - 1)
    if moved:
        V = np.swapaxes(V, axis, -1)
    if V.dtype != np.float64:
        V = V.astype(float)
    if V.shape[-1] != len(src_f):
        raise ValueError(
            f"axis {axis} has length {V.shape[-1]} but {len(src_f)} source values were given"
        )

    # Power-up direction: target >= source.  The shifted tensor is a scratch
    # buffer: the prefix minimum is accumulated into it in place, and the
    # gathered `up` array doubles as the output buffer below.
    shifted = V - beta * src_f  # broadcast along the last axis
    np.minimum.accumulate(shifted, axis=-1, out=shifted)
    if all_up:
        up = shifted[..., up_idx]
        up += beta * dst_f
    else:
        up = np.full(V.shape[:-1] + (len(dst_f),), np.inf)
        if np.any(valid_up):
            up[..., valid_up] = shifted[..., up_idx[valid_up]] + beta * dst_f[valid_up]

    # Power-down direction: target <= source, no cost.  Reuse the scratch
    # buffer for the suffix minimum (V itself must stay intact for callers).
    np.minimum.accumulate(V[..., ::-1], axis=-1, out=shifted[..., ::-1])
    suffix_min = shifted
    if all_down:
        np.minimum(up, suffix_min[..., down_idx], out=up)
    elif np.any(valid_down):
        up[..., valid_down] = np.minimum(
            up[..., valid_down], suffix_min[..., down_idx[valid_down]]
        )

    return np.swapaxes(up, axis, -1) if moved else up


def transition(
    values_tensor: np.ndarray,
    src_values: Sequence[np.ndarray],
    dst_values: Sequence[np.ndarray],
    beta: Sequence[float],
) -> np.ndarray:
    """Full separable min-plus transition between two (possibly different) grids.

    ``result[x] = min_{x'} V[x'] + sum_j beta_j (x_j - x'_j)^+`` for every ``x``
    of the destination grid.  Implemented as ``d`` sequential calls to
    :func:`relax_dimension`; the order of dimensions does not matter because the
    kernel is separable.
    """
    beta = np.asarray(beta, dtype=float)
    d = len(beta)
    if len(src_values) != d or len(dst_values) != d:
        raise ValueError("src_values, dst_values and beta must all have length d")
    out = values_tensor
    for j in range(d):
        out = relax_dimension(out, src_values[j], dst_values[j], float(beta[j]), axis=j)
    return out


def _min_plus_axis(V, bsrc, bdst, up_idx, down_idx, shifted, shifted_rev, gather, out) -> None:
    """One-dimensional min-plus relaxation along the last axis, into ``out``.

    ``bsrc``/``bdst`` are the ``beta * values`` vectors of the source and
    destination grids, ``up_idx``/``down_idx`` the plan's gather indices,
    ``shifted``/``gather`` caller-owned scratch and ``shifted_rev`` a
    last-axis-reversed view of ``shifted``.  Allocates nothing.
    """
    # power-up direction: prefix minimum of V - beta*src, gathered at up_idx,
    # plus beta*dst — the exact operation sequence of relax_dimension
    np.subtract(V, bsrc, out=shifted)
    np.minimum.accumulate(shifted, axis=-1, out=shifted)
    shifted.take(up_idx, axis=-1, out=out)
    np.add(out, bdst, out=out)
    # power-down direction: suffix minimum of V, gathered at down_idx
    np.minimum.accumulate(V[..., ::-1], axis=-1, out=shifted_rev)
    shifted.take(down_idx, axis=-1, out=gather)
    np.minimum(out, gather, out=out)


def _min_plus_axis_same(V, bsrc, bdst, shifted, shifted_rev, out) -> None:
    """:func:`_min_plus_axis` for equal source and destination grids.

    The identity gathers are elided (``take(x, identity)`` is ``x``, value
    for value), so the result equals the general kernel's bit for bit.
    """
    np.subtract(V, bsrc, out=shifted)
    np.minimum.accumulate(shifted, axis=-1, out=shifted)
    np.add(shifted, bdst, out=out)
    np.minimum.accumulate(V[..., ::-1], axis=-1, out=shifted_rev)
    np.minimum(out, shifted, out=out)


class TransitionPlan:
    """Preallocated form of :func:`transition` for one ``(src, dst, beta)`` triple.

    The generic path allocates two scratch tensors per axis per slot and
    recomputes the broadcastable ``beta * values`` vectors every call.  A plan
    hoists all of that: per-axis gather indices, shift vectors and scratch
    buffers are built once, and :meth:`apply` routes each axis through the
    :func:`_min_plus_axis` kernel with zero allocations.  The
    kernel's operation sequence matches :func:`relax_dimension` exactly, so a
    plan-produced value tensor is bit-identical to the generic one — callers
    may mix the two paths freely (the streaming DP's checkpointed backtracking
    relies on this).

    Restrictions (``make_transition_plan`` returns ``None`` when violated, and
    callers fall back to :func:`transition`): every destination value must have
    both a power-up predecessor and a power-down successor in the source grid
    (``all_up and all_down`` in plan terms), and :meth:`apply` only accepts
    ``float64`` tensors of the planned source shape.

    The returned tensor aliases an internal buffer: it stays valid until the
    next :meth:`apply` call, and writing into it is safe.  Feeding the previous
    output back in as the next input is also safe — the input is fully consumed
    by the first axis before any buffer it may alias is written (the final-axis
    output ping-pongs between two buffers for the single-axis case) — but the
    input array's contents are undefined after such a call.
    """

    __slots__ = ("_steps", "_final_alt", "src_shape", "dst_shape")

    def __init__(self, steps: List[Tuple], src_shape: Tuple[int, ...], dst_shape: Tuple[int, ...]):
        self._steps = steps
        self._final_alt = np.empty_like(steps[-1][-1])
        self.src_shape = src_shape
        self.dst_shape = dst_shape

    def apply(self, values_tensor: np.ndarray) -> np.ndarray:
        V = values_tensor
        if V.dtype != np.float64 or V.shape != self.src_shape:
            raise ValueError(
                f"plan expects float64 tensor of shape {self.src_shape}, "
                f"got {V.dtype} {V.shape}"
            )
        steps = self._steps
        cur = V
        last = len(steps) - 1
        for i, step in enumerate(steps):
            (axis, moved, same, bsrc, bdst, up_idx, down_idx,
             shifted, shifted_rev, gather, out) = step
            if i == last and cur is out:
                # the previous output fed back as input: swap in the alternate
                # final buffer (ping-pong); the next call alternates back.
                # Identity is the only aliasing the contract admits — the final
                # step's input is otherwise an internal mid-step buffer.
                out = self._final_alt
                steps[i] = step[:-1] + (out,)
                self._final_alt = step[-1]
            work = cur.swapaxes(axis, -1) if moved else cur
            if same:
                _min_plus_axis_same(work, bsrc, bdst, shifted, shifted_rev, out)
            else:
                _min_plus_axis(
                    work, bsrc, bdst, up_idx, down_idx, shifted, shifted_rev, gather, out
                )
            cur = out.swapaxes(axis, -1) if moved else out
        return cur

    def apply_lanes(self, values_tensor: np.ndarray) -> np.ndarray:
        """:meth:`apply` over a leading lane axis: ``(k, *src_shape)`` in.

        Lane ``i`` of the result equals ``apply(values_tensor[i])`` bit for
        bit: the kernels are elementwise or reduce along the last axis, so
        one call over ``k`` stacked tensors runs each lane's exact operation
        sequence.  Returns a fresh ``(k, *dst_shape)`` tensor (the plan's
        buffers are untouched) and leaves the input intact.
        """
        V = values_tensor
        if V.dtype != np.float64 or V.shape[1:] != self.src_shape:
            raise ValueError(
                f"plan expects float64 lanes of shape {self.src_shape}, "
                f"got {V.dtype} {V.shape}"
            )
        lanes = V.shape[:1]
        cur = V
        for (axis, moved, same, bsrc, bdst, up_idx, down_idx,
             shifted, _rev, _gather, out) in self._steps:
            work = cur.swapaxes(axis + 1, -1) if moved else cur
            shifted = np.empty(lanes + shifted.shape)
            out = np.empty(lanes + out.shape)
            if same:
                _min_plus_axis_same(work, bsrc, bdst, shifted, shifted[..., ::-1], out)
            else:
                _min_plus_axis(
                    work, bsrc, bdst, up_idx, down_idx, shifted, shifted[..., ::-1],
                    np.empty_like(out), out,
                )
            cur = out.swapaxes(axis + 1, -1) if moved else out
        return cur


def make_transition_plan(
    src_values: Sequence[np.ndarray],
    dst_values: Sequence[np.ndarray],
    beta: Sequence[float],
) -> Optional[TransitionPlan]:
    """Build a :class:`TransitionPlan`, or ``None`` when the pair is unsupported."""
    beta_arr = np.asarray(beta, dtype=float)
    d = len(beta_arr)
    if d == 0 or len(src_values) != d or len(dst_values) != d:
        return None
    steps: List[Tuple] = []
    in_shape = [len(np.asarray(v)) for v in src_values]
    src_shape = tuple(in_shape)
    for j in range(d):
        src_f, dst_f, up_idx, all_up, _vu, down_idx, all_down, _vd = _relax_plan(
            src_values[j], dst_values[j]
        )
        if not (all_up and all_down):
            return None
        swapped = list(in_shape)
        swapped[j], swapped[-1] = swapped[-1], swapped[j]
        out_shape = tuple(swapped[:-1]) + (len(dst_f),)
        up_c = np.ascontiguousarray(up_idx, dtype=np.intp)
        down_c = np.ascontiguousarray(down_idx, dtype=np.intp)
        # identity gather maps (src and dst value lists equal) route through
        # the elided same-grid kernel — same values, fewer ops
        identity = np.arange(len(dst_f), dtype=np.intp)
        same = len(dst_f) == len(src_f) and np.array_equal(up_c, identity) and np.array_equal(
            down_c, identity
        )
        shifted = np.empty(tuple(swapped))
        steps.append(
            (
                j,
                j != d - 1,
                same,
                np.asarray(beta_arr[j] * src_f, dtype=np.float64),
                np.asarray(beta_arr[j] * dst_f, dtype=np.float64),
                up_c,
                down_c,
                shifted,
                shifted[..., ::-1],
                np.empty(out_shape),
                np.empty(out_shape),
            )
        )
        in_shape[j] = len(dst_f)
    return TransitionPlan(steps, src_shape, tuple(in_shape))


def switching_cost_between(x_prev: np.ndarray, x_next: np.ndarray, beta: np.ndarray) -> float:
    """Switching cost ``S(x_prev, x_next) = sum_j beta_j (x_next_j - x_prev_j)^+``."""
    diff = np.maximum(np.asarray(x_next, dtype=float) - np.asarray(x_prev, dtype=float), 0.0)
    return float(np.sum(diff * np.asarray(beta, dtype=float)))


def switching_cost_tensor(
    src_values: Sequence[np.ndarray],
    x_next: Sequence[int],
    beta: Sequence[float],
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Tensor of switching costs from every source-grid configuration to ``x_next``.

    Used for backwards path reconstruction: the predecessor of ``x_next`` is the
    argmin of ``V_prev + switching_cost_tensor(...)``.  ``out``, when given with
    the right shape, is overwritten and returned instead of allocating a fresh
    tensor — the backward pass of the DP calls this once per slot and reuses a
    single scratch buffer across slots whose grids agree.
    """
    beta = np.asarray(beta, dtype=float)
    d = len(beta)
    shape = tuple(len(np.asarray(v)) for v in src_values)
    if out is not None and out.shape == shape:
        total = out
        total.fill(0.0)
    else:
        total = np.zeros(shape)
    for j in range(d):
        vals = np.asarray(src_values[j], dtype=float)
        per_dim = beta[j] * np.maximum(float(x_next[j]) - vals, 0.0)
        reshape = [1] * d
        reshape[j] = len(vals)
        total += per_dim.reshape(reshape)
    return total


def startup_cost_tensor(dst_values: Sequence[np.ndarray], beta: Sequence[float]) -> np.ndarray:
    """Tensor of switching costs from the empty configuration to every grid point.

    This seeds the dynamic program at the first time slot (``x_0 = 0`` in the
    paper's convention, so every initially active server pays its power-up cost).
    """
    beta = np.asarray(beta, dtype=float)
    d = len(beta)
    shape = tuple(len(np.asarray(v)) for v in dst_values)
    total = np.zeros(shape)
    for j in range(d):
        vals = np.asarray(dst_values[j], dtype=float)
        reshape = [1] * d
        reshape[j] = len(vals)
        total = total + (beta[j] * vals).reshape(reshape)
    return total
