"""Problem instances for the data-center right-sizing problem.

An instance ``I = (T, d, m, beta, F, Lambda)`` (Section 1 of the paper) bundles

* the time horizon ``T`` (slots are indexed ``0 .. T-1`` in this library; the
  paper uses ``1 .. T``),
* ``d`` heterogeneous server types with counts ``m_j``, switching costs
  ``beta_j``, capacities ``zmax_j`` and operating-cost functions,
* the arriving job volumes ``lambda_t``.

Two optional generalisations of the basic model are supported:

* **time-dependent operating costs** ``f_{t,j}`` (Section 3) via an explicit
  ``T x d`` table of cost functions or a per-slot price profile, and
* **time-dependent data-center sizes** ``m_{t,j}`` (Section 4.3) via a
  ``T x d`` table of server counts.

Instances are immutable; "what-if" variants are created through the
``with_*`` / ``prefix`` helpers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .cost_functions import CostFunction, ScaledCost
from .server import ServerType

__all__ = ["ProblemInstance"]


def _as_demand_array(demand) -> np.ndarray:
    arr = np.asarray(demand, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"demand must be a 1-D sequence, got shape {arr.shape}")
    if np.any(~np.isfinite(arr)):
        raise ValueError("demand contains non-finite values")
    if np.any(arr < 0):
        raise ValueError("demand must be non-negative")
    return arr


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """Immutable description of a right-sizing problem instance.

    Parameters
    ----------
    server_types:
        The ``d`` heterogeneous server types.
    demand:
        Job volumes ``lambda_t`` for ``t = 0 .. T-1``.
    cost_functions:
        Optional time-dependent operating-cost functions as a nested sequence
        ``cost_functions[t][j]``.  When omitted, the (time-independent) cost
        function of each :class:`ServerType` is used for every slot.
    counts:
        Optional time-dependent server counts ``m_{t,j}`` as a ``T x d``
        integer array (Section 4.3).  When omitted, ``m_j`` is constant.
    name:
        Cosmetic identifier used in reports.
    """

    server_types: tuple
    demand: np.ndarray
    cost_functions: Optional[tuple] = None
    counts: Optional[np.ndarray] = None
    name: str = "instance"

    # --------------------------------------------------------------- set-up
    def __post_init__(self):
        types = tuple(self.server_types)
        if len(types) == 0:
            raise ValueError("an instance needs at least one server type")
        for st in types:
            if not isinstance(st, ServerType):
                raise TypeError(f"server_types entries must be ServerType, got {type(st)!r}")
        object.__setattr__(self, "server_types", types)
        # the per-type vectors are built once, read-only, so every access
        # (counts_at on a time-invariant fleet, each slot's beta and zmax)
        # hands out the same array
        for attr, values, dtype in (
            ("_m", [st.count for st in types], int),
            ("_beta", [st.switching_cost for st in types], float),
            ("_zmax", [st.capacity for st in types], float),
        ):
            vector = np.array(values, dtype=dtype)
            vector.setflags(write=False)
            object.__setattr__(self, attr, vector)

        demand = _as_demand_array(self.demand)
        demand.setflags(write=False)
        object.__setattr__(self, "demand", demand)

        if self.cost_functions is not None:
            table = tuple(tuple(row) for row in self.cost_functions)
            if len(table) != self.T:
                raise ValueError(
                    f"cost_functions must have one row per slot: got {len(table)} rows, T={self.T}"
                )
            for t, row in enumerate(table):
                if len(row) != self.d:
                    raise ValueError(
                        f"cost_functions[{t}] must have {self.d} entries, got {len(row)}"
                    )
                for f in row:
                    if not isinstance(f, CostFunction):
                        raise TypeError("cost_functions entries must be CostFunction instances")
            object.__setattr__(self, "cost_functions", table)

        if self.counts is not None:
            counts = np.asarray(self.counts, dtype=int)
            if counts.shape != (self.T, self.d):
                raise ValueError(
                    f"counts must have shape (T, d) = {(self.T, self.d)}, got {counts.shape}"
                )
            if np.any(counts < 0):
                raise ValueError("time-dependent counts must be non-negative")
            counts.setflags(write=False)
            object.__setattr__(self, "counts", counts)

    # ------------------------------------------------------------ dimensions
    @property
    def T(self) -> int:
        """Number of time slots."""
        return int(self.demand.shape[0])

    @property
    def d(self) -> int:
        """Number of server types."""
        return len(self.server_types)

    @property
    def m(self) -> np.ndarray:
        """Base server counts ``m_j`` as a read-only integer array of length ``d``."""
        return self._m

    @property
    def beta(self) -> np.ndarray:
        """Switching costs ``beta_j`` as a read-only float array of length ``d``."""
        return self._beta

    @property
    def zmax(self) -> np.ndarray:
        """Per-server capacities ``zmax_j`` as a read-only float array of length ``d``."""
        return self._zmax

    # -------------------------------------------------------------- accessors
    def cost_function(self, t: int, j: int) -> CostFunction:
        """Operating-cost function ``f_{t,j}`` of type ``j`` during slot ``t``."""
        self._check_slot(t)
        if self.cost_functions is not None:
            return self.cost_functions[t][j]
        return self.server_types[j].cost_function

    def cost_row(self, t: int) -> tuple:
        """All ``d`` operating-cost functions of slot ``t``.

        For time-independent instances the same tuple object is returned for
        every slot, so the dispatch engine can use it as a cheap identity key
        when deduplicating slots.
        """
        self._check_slot(t)
        if self.cost_functions is not None:
            return self.cost_functions[t]
        row = self.__dict__.get("_base_cost_row")
        if row is None:
            row = tuple(st.cost_function for st in self.server_types)
            object.__setattr__(self, "_base_cost_row", row)
        return row

    def counts_at(self, t: int) -> np.ndarray:
        """Available server counts ``m_{t,j}`` during slot ``t``."""
        self._check_slot(t)
        if self.counts is not None:
            return np.asarray(self.counts[t], dtype=int)
        return self.m

    def idle_costs(self, t: int) -> np.ndarray:
        """Idle operating costs ``l_{t,j} = f_{t,j}(0)`` of slot ``t``."""
        return np.array([f.idle_cost() for f in self.cost_row(t)], dtype=float)

    def _check_slot(self, t: int) -> None:
        if not (0 <= t < self.T):
            raise IndexError(f"slot index {t} out of range [0, {self.T})")

    # ------------------------------------------------------------- structure
    @property
    def has_time_dependent_costs(self) -> bool:
        """``True`` when operating-cost functions vary over time (Section 3)."""
        return self.cost_functions is not None

    @property
    def has_time_dependent_counts(self) -> bool:
        """``True`` when the fleet size varies over time (Section 4.3)."""
        return self.counts is not None

    @property
    def is_homogeneous(self) -> bool:
        """``True`` for single-type data centers (the setting of Lin et al.)."""
        return self.d == 1

    def is_load_independent(self, samples: int = 5, tol: float = 1e-12) -> bool:
        """Heuristically test whether every ``f_{t,j}`` is constant in the load.

        For load- and time-independent cost functions Algorithm A achieves the
        optimal competitive ratio ``2d`` (Corollary 9).
        """
        for t in range(self.T):
            for f in self.cost_row(t):
                cap = 1.0
                zs = np.linspace(0.0, cap, samples)
                vals = np.asarray(f.value(zs), dtype=float)
                if np.max(vals) - np.min(vals) > tol:
                    return False
            if not self.has_time_dependent_costs:
                break
        return True

    def c_constant(self) -> float:
        """The constant ``c(I) = sum_j max_t f_{t,j}(0) / beta_j`` of Theorem 13."""
        total = 0.0
        for j in range(self.d):
            beta_j = self.server_types[j].switching_cost
            if beta_j <= 0:
                return float("inf")
            max_idle = max(self.cost_function(t, j).idle_cost() for t in range(self.T))
            total += max_idle / beta_j
        return total

    # ------------------------------------------------------------ feasibility
    def total_capacity(self, t: int) -> float:
        """Maximum volume the whole fleet can serve during slot ``t``."""
        counts = self.counts_at(t)
        return float(np.sum(counts * self.zmax))

    def is_feasible(self) -> bool:
        """``True`` iff every slot's demand can be served by the available fleet."""
        return all(self.demand[t] <= self.total_capacity(t) + 1e-9 for t in range(self.T))

    def validate(self) -> None:
        """Raise :class:`ValueError` if the instance admits no feasible schedule."""
        for t in range(self.T):
            cap = self.total_capacity(t)
            if self.demand[t] > cap + 1e-9:
                raise ValueError(
                    f"demand {self.demand[t]:g} at slot {t} exceeds total capacity {cap:g}"
                )

    # ------------------------------------------------------------- factories
    def prefix(self, length: int, name: Optional[str] = None) -> "ProblemInstance":
        """The shortened instance ``I_t`` consisting of the first ``length`` slots.

        This is the instance for which the online algorithms compute the
        optimal schedule ``\\hat X^t`` at every step.
        """
        if not (0 <= length <= self.T):
            raise ValueError(f"prefix length {length} out of range [0, {self.T}]")
        return ProblemInstance(
            server_types=self.server_types,
            demand=self.demand[:length],
            cost_functions=None if self.cost_functions is None else self.cost_functions[:length],
            counts=None if self.counts is None else self.counts[:length],
            name=name or f"{self.name}[:{length}]",
        )

    def with_demand(self, demand, name: Optional[str] = None) -> "ProblemInstance":
        """Copy of this instance with a different demand trace (same length not required)."""
        demand = _as_demand_array(demand)
        cost_functions = self.cost_functions
        counts = self.counts
        if cost_functions is not None and len(cost_functions) != len(demand):
            raise ValueError("cannot change T of an instance with time-dependent costs")
        if counts is not None and counts.shape[0] != len(demand):
            raise ValueError("cannot change T of an instance with time-dependent counts")
        return ProblemInstance(
            server_types=self.server_types,
            demand=demand,
            cost_functions=cost_functions,
            counts=counts,
            name=name or self.name,
        )

    def with_price_profile(self, prices: Sequence[float], name: Optional[str] = None) -> "ProblemInstance":
        """Create a time-dependent-cost variant by scaling every ``f_j`` with a per-slot price.

        ``prices[t]`` multiplies the operating cost of every server type during
        slot ``t`` — a simple model of time-of-day electricity tariffs, which is
        the motivating scenario for Section 3 of the paper.
        """
        prices = np.asarray(prices, dtype=float)
        if prices.shape != (self.T,):
            raise ValueError(f"prices must have shape ({self.T},), got {prices.shape}")
        if np.any(prices < 0):
            raise ValueError("prices must be non-negative")
        if self.cost_functions is not None:
            base_rows = self.cost_functions
        else:
            base_rows = tuple(tuple(st.cost_function for st in self.server_types) for _ in range(self.T))
        table = tuple(
            tuple(ScaledCost(base_rows[t][j], float(prices[t])) for j in range(self.d))
            for t in range(self.T)
        )
        return ProblemInstance(
            server_types=self.server_types,
            demand=self.demand,
            cost_functions=table,
            counts=self.counts,
            name=name or f"{self.name}+prices",
        )

    def with_counts(self, counts, name: Optional[str] = None) -> "ProblemInstance":
        """Copy of this instance with time-dependent server counts ``m_{t,j}``."""
        return ProblemInstance(
            server_types=self.server_types,
            demand=self.demand,
            cost_functions=self.cost_functions,
            counts=np.asarray(counts, dtype=int),
            name=name or f"{self.name}+counts",
        )

    # --------------------------------------------------------------- reports
    def describe(self) -> str:
        """Multi-line human-readable summary used by examples and reports."""
        lines = [
            f"Instance '{self.name}': T={self.T} slots, d={self.d} server types",
            f"  demand: min={self.demand.min():g}, mean={self.demand.mean():g}, "
            f"max={self.demand.max():g}",
        ]
        for st in self.server_types:
            lines.append("  " + st.describe())
        if self.has_time_dependent_costs:
            lines.append("  operating costs: time-dependent")
        if self.has_time_dependent_counts:
            lines.append("  fleet size: time-dependent")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProblemInstance(name={self.name!r}, T={self.T}, d={self.d})"
