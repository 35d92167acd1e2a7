"""State grids: the sets of server configurations considered by the offline solvers.

The optimal offline algorithm of Section 4.1 works on the *full* grid
``M = prod_j {0, 1, ..., m_j}``.  The (1+eps)-approximation of Section 4.2
restricts each dimension to the geometrically spaced subset

``M^gamma_j = {0, m_j} ∪ {⌊gamma^k⌋ ∈ M_j} ∪ {⌈gamma^k⌉ ∈ M_j}``
          ``= {0, 1, ⌊gamma⌋, ⌈gamma⌉, ⌊gamma²⌋, ⌈gamma²⌉, ..., m_j}``,

whose size is ``O(log_gamma m_j)`` and in which the ratio of two consecutive
values never exceeds ``gamma``.  Section 4.3 further allows the per-type server
counts ``m_{t,j}`` to change over time, which simply means a different grid per
slot.

A :class:`StateGrid` is the per-dimension list of admissible values together
with helpers to enumerate configurations and to snap arbitrary configurations
onto the grid (needed by the rounding construction of Theorem 16).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ..core.instance import ProblemInstance

__all__ = ["StateGrid", "geometric_levels", "grid_for_slot", "slot_grids"]


def geometric_levels(m: int, gamma: float) -> np.ndarray:
    """The reduced state set ``M^gamma_j`` for a dimension with ``m`` servers.

    Contains 0, ``m`` and both roundings of every power of ``gamma`` below ``m``.
    Consecutive non-zero values are either adjacent integers (the range where the
    grid cannot be refined any further) or within a multiplicative factor of
    ``gamma`` of each other — the spacing property used in the proof of
    Theorem 16.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    if gamma <= 1.0:
        raise ValueError("gamma must be > 1")
    values = {0, int(m)}
    if m >= 1:
        values.add(1)
        power = gamma
        # iterate k = 1, 2, ... while gamma^k is below m
        while power < m:
            values.add(int(np.floor(power)))
            values.add(int(np.ceil(power)))
            power *= gamma
    return np.array(sorted(v for v in values if 0 <= v <= m), dtype=int)


class StateGrid:
    """A product grid of admissible server configurations.

    Parameters
    ----------
    values:
        One sorted, duplicate-free integer array per server type.  Each array
        must contain 0 (the all-off configuration must always be reachable,
        because schedules start and end empty).
    """

    def __init__(self, values: Sequence[np.ndarray]):
        vals = []
        for j, v in enumerate(values):
            arr = np.asarray(v, dtype=int)
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError(f"dimension {j}: values must be a non-empty 1-D array")
            arr = np.unique(arr)
            if arr[0] != 0:
                raise ValueError(f"dimension {j}: the value 0 must be part of the grid")
            if np.any(arr < 0):
                raise ValueError(f"dimension {j}: values must be non-negative")
            # frozen so downstream caches (the min-plus relaxation plans) may
            # key on array identity instead of re-serialising the contents
            arr.setflags(write=False)
            vals.append(arr)
        self._values = tuple(vals)
        self._configs: Optional[np.ndarray] = None
        self._positions: Optional[tuple] = None
        self._key = None
        self._shape = tuple(len(v) for v in self._values)
        self._size = math.prod(self._shape)

    # ------------------------------------------------------------- factories
    @classmethod
    def full(cls, counts: Sequence[int]) -> "StateGrid":
        """The complete grid ``prod_j {0..m_j}`` used by the exact algorithm."""
        return cls([np.arange(int(m) + 1) for m in counts])

    @classmethod
    def geometric(cls, counts: Sequence[int], gamma: float) -> "StateGrid":
        """The reduced grid ``M^gamma`` of the (1+eps)-approximation."""
        return cls([geometric_levels(int(m), gamma) for m in counts])

    @classmethod
    def for_gamma(cls, counts: Sequence[int], gamma: Optional[float]) -> "StateGrid":
        """The full grid when ``gamma`` is ``None``, else the reduced grid ``M^gamma``."""
        return cls.full(counts) if gamma is None else cls.geometric(counts, gamma)

    @classmethod
    def from_epsilon(cls, counts: Sequence[int], epsilon: float) -> "StateGrid":
        """Reduced grid with ``gamma = 1 + eps/2`` so that ``2*gamma - 1 = 1 + eps``."""
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        return cls.geometric(counts, 1.0 + epsilon / 2.0)

    # ------------------------------------------------------------ dimensions
    @property
    def d(self) -> int:
        return len(self._values)

    @property
    def values(self) -> tuple:
        """Per-dimension value arrays."""
        return self._values

    @property
    def shape(self) -> tuple:
        return self._shape

    @property
    def size(self) -> int:
        """Total number of configurations in the grid."""
        return self._size

    def max_values(self) -> np.ndarray:
        """Largest admissible value per dimension."""
        return np.array([v[-1] for v in self._values], dtype=int)

    @property
    def key(self) -> tuple:
        """Hashable fingerprint of the grid (equal grids share a key).

        Used by the batched solvers to group slots whose grids are identical,
        so one :meth:`~repro.dispatch.DispatchSolver.solve_block` call covers
        them all.
        """
        if self._key is None:
            self._key = tuple(v.tobytes() for v in self._values)
        return self._key

    # -------------------------------------------------------------- elements
    def configs(self) -> np.ndarray:
        """All configurations as an ``(size, d)`` integer array in C (row-major) order.

        The ordering matches ``numpy.ndindex`` over :attr:`shape`, i.e. the last
        dimension varies fastest; index ``i`` of the flattened value tensor
        corresponds to row ``i`` of this array.

        The array is built once and cached (it is read-only; callers that need
        a mutable copy must copy explicitly) — the offline DP and the online
        trackers ask for the same enumeration once per slot.
        """
        if self._configs is None:
            mesh = np.meshgrid(*self._values, indexing="ij")
            configs = np.stack([m.reshape(-1) for m in mesh], axis=-1).astype(int)
            configs.setflags(write=False)
            self._configs = configs
        return self._configs

    def config_at(self, index: Sequence[int]) -> np.ndarray:
        """The configuration for a tuple of per-dimension indices."""
        return np.array([self._values[j][index[j]] for j in range(self.d)], dtype=int)

    def index_of(self, config: Sequence[int]) -> tuple:
        """Indices of an exact grid member; raises when ``config`` is off-grid."""
        index = self.flat_index(np.asarray(config, dtype=int)[None])
        if index is None:
            raise ValueError(f"configuration {np.asarray(config).tolist()} is not on the grid")
        return tuple(int(k) for k in np.unravel_index(index[0], self._shape))

    def flat_index(self, configs: np.ndarray) -> Optional[list]:
        """Flat indices of the integral rows of ``configs``, or ``None`` when one is off the grid.

        Row ``i`` is cell ``index[i]`` of a value tensor over the grid (row
        ``index[i]`` of :meth:`configs`).  The grid's one membership test:
        :meth:`index_of` and :meth:`contains` ask it too.
        """
        if self._positions is None:
            self._positions = tuple(
                {value: k for k, value in enumerate(v.tolist())} for v in self._values
            )
        index = []
        for row in configs.tolist():
            flat = 0
            for value, positions, n in zip(row, self._positions, self._shape):
                k = positions.get(value)
                if k is None:
                    return None
                flat = flat * n + k
            index.append(flat)
        return index

    def contains(self, config: Sequence[int]) -> bool:
        """Whether the configuration lies exactly on the grid."""
        return self.flat_index(np.asarray(config, dtype=int)[None]) is not None

    # ---------------------------------------------------------- value lookup
    def ceil_value(self, j: int, value: float) -> int:
        """Smallest grid value of dimension ``j`` that is ``>= value`` (paper: ``N_j`` / ``x_min``)."""
        vals = self._values[j]
        pos = np.searchsorted(vals, value, side="left")
        if pos >= len(vals):
            raise ValueError(f"no grid value >= {value} in dimension {j} (max is {vals[-1]})")
        return int(vals[pos])

    def floor_value(self, j: int, value: float) -> int:
        """Largest grid value of dimension ``j`` that is ``<= value`` (paper: ``x_max``)."""
        vals = self._values[j]
        pos = np.searchsorted(vals, value, side="right") - 1
        if pos < 0:
            raise ValueError(f"no grid value <= {value} in dimension {j}")
        return int(vals[pos])

    def next_value(self, j: int, value: int) -> Optional[int]:
        """The next greater grid value ``N_j(value)`` or ``None`` at the top."""
        vals = self._values[j]
        pos = np.searchsorted(vals, value, side="right")
        if pos >= len(vals):
            return None
        return int(vals[pos])

    def max_ratio(self, j: int) -> float:
        """Largest ratio between consecutive positive values of dimension ``j``."""
        vals = self._values[j]
        positive = vals[vals > 0]
        if len(positive) < 2:
            return 1.0
        return float(np.max(positive[1:] / positive[:-1]))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StateGrid(shape={self.shape}, size={self.size})"


def grid_for_slot(
    instance: ProblemInstance,
    t: int,
    gamma: Optional[float] = None,
) -> StateGrid:
    """Build the state grid for slot ``t`` of an instance.

    Uses the slot's available counts ``m_{t,j}`` (which handles the
    time-dependent data-center sizes of Section 4.3 transparently) and, when
    ``gamma`` is given, the geometric reduction ``M^gamma_{t,j}``.

    Grids are memoised on the instance keyed by ``(counts, gamma)``: a
    time-invariant instance builds exactly one grid (and one cached
    ``configs()`` enumeration) no matter how many slots ask for it, and the
    batched solvers recognise the shared object to group slots into a single
    dispatch block.
    """
    counts = instance.counts_at(t)
    cache = instance.__dict__.get("_grid_cache")
    if cache is None:
        cache = {}
        object.__setattr__(instance, "_grid_cache", cache)
    key = (tuple(int(c) for c in counts), None if gamma is None else float(gamma))
    grid = cache.get(key)
    if grid is None:
        grid = StateGrid.for_gamma(counts, gamma)
        cache[key] = grid
    return grid


def slot_grids(instance: ProblemInstance, gamma: Optional[float] = None) -> tuple:
    """The state grid of every slot ``0 .. T-1`` of an instance.

    One :func:`grid_for_slot` call per distinct counts row: a time-invariant
    instance repeats one grid object ``T`` times, and slots with equal
    counts rows share theirs.
    """
    T = instance.T
    if T == 0:
        return ()
    if instance.counts is None:
        return (grid_for_slot(instance, 0, gamma),) * T
    _, first, inverse = np.unique(
        instance.counts, axis=0, return_index=True, return_inverse=True
    )
    grids = [grid_for_slot(instance, int(t), gamma) for t in first]
    return tuple(grids[k] for k in inverse.reshape(-1).tolist())
