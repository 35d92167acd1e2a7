"""Shared fixtures for the test suite.

All fixtures build *small* instances: the reference solvers (exhaustive
enumeration, pairwise DP, SLSQP dispatch) that the fast implementations are
validated against only scale to a handful of servers and slots.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    ConstantCost,
    LinearCost,
    PiecewiseLinearCost,
    PowerCost,
    ProblemInstance,
    QuadraticCost,
    ScaledCost,
    ServerType,
    ShiftedCost,
)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def two_type_fleet():
    """A small heterogeneous fleet: slow CPU-like and fast GPU-like servers."""
    return (
        ServerType(
            name="cpu",
            count=3,
            switching_cost=4.0,
            capacity=1.0,
            cost_function=QuadraticCost(idle=0.5, a=0.2, b=1.0),
        ),
        ServerType(
            name="gpu",
            count=2,
            switching_cost=9.0,
            capacity=4.0,
            cost_function=LinearCost(idle=1.5, slope=0.4),
        ),
    )


@pytest.fixture
def small_instance(two_type_fleet):
    """Six slots, d=2; small enough for brute-force cross-checks."""
    demand = np.array([0.5, 2.0, 5.0, 1.0, 0.0, 3.0])
    return ProblemInstance(two_type_fleet, demand, name="small")


@pytest.fixture
def linear_instance():
    """All-linear operating costs so the MILP formulation applies exactly."""
    types = (
        ServerType("a", count=3, switching_cost=4.0, capacity=1.0, cost_function=LinearCost(idle=0.5, slope=0.7)),
        ServerType("b", count=2, switching_cost=9.0, capacity=4.0, cost_function=LinearCost(idle=1.5, slope=0.4)),
    )
    demand = np.array([0.5, 2.0, 5.0, 1.0, 0.0, 3.0])
    return ProblemInstance(types, demand, name="linear")


@pytest.fixture
def homogeneous_instance():
    """Single-type instance (d = 1) used by the LCP and homogeneous comparisons."""
    types = (
        ServerType("std", count=5, switching_cost=6.0, capacity=1.0, cost_function=QuadraticCost(idle=1.0, a=0.5, b=1.0)),
    )
    demand = np.array([0.0, 1.0, 3.0, 4.5, 2.0, 0.5, 0.0, 2.5])
    return ProblemInstance(types, demand, name="homogeneous")


@pytest.fixture
def load_independent_instance():
    """Load- and time-independent operating costs — the regime of Corollary 9."""
    types = (
        ServerType("cheap-run", count=3, switching_cost=8.0, capacity=1.0, cost_function=ConstantCost(level=1.0)),
        ServerType("cheap-start", count=3, switching_cost=2.0, capacity=1.0, cost_function=ConstantCost(level=2.5)),
    )
    demand = np.array([1.0, 2.0, 0.0, 0.0, 3.0, 1.0, 0.0, 2.0])
    return ProblemInstance(types, demand, name="load-independent")


@pytest.fixture
def time_dependent_instance(two_type_fleet):
    """Time-dependent operating costs via a price profile (Section 3 setting)."""
    demand = np.array([0.5, 2.0, 5.0, 1.0, 0.0, 3.0])
    base = ProblemInstance(two_type_fleet, demand, name="time-dependent")
    prices = 1.0 + 0.5 * np.sin(np.linspace(0.0, 2.0 * np.pi, len(demand)))
    return base.with_price_profile(prices)


def _random_piecewise(r: np.random.Generator) -> PiecewiseLinearCost:
    """Up to three segments with non-decreasing slopes (a convex cost)."""
    k = int(r.integers(1, 4))
    breaks = np.concatenate(([0.0], np.cumsum(r.uniform(0.2, 1.5, size=k - 1))))
    slopes = np.sort(r.uniform(0.0, 2.0, size=k))
    return PiecewiseLinearCost(
        idle=float(r.uniform(0.1, 1.5)), breaks=tuple(breaks), slopes=tuple(slopes)
    )


_BASE_FAMILIES = [
    lambda r: LinearCost(idle=float(r.uniform(0.1, 2.0)), slope=float(r.uniform(0.0, 2.0))),
    lambda r: QuadraticCost(idle=float(r.uniform(0.1, 2.0)), a=float(r.uniform(0.0, 1.0)), b=float(r.uniform(0.1, 1.5))),
    lambda r: ConstantCost(level=float(r.uniform(0.2, 2.0))),
    lambda r: PowerCost(idle=float(r.uniform(0.1, 1.5)), coef=float(r.uniform(0.1, 1.0)), exponent=float(r.uniform(1.0, 3.0))),
    _random_piecewise,
]


def _random_cost(r: np.random.Generator):
    """A built-in cost family, sometimes wrapped in a price factor or an idle offset."""
    families = _BASE_FAMILIES + [
        lambda r: ScaledCost(_random_cost(r), factor=float(r.uniform(0.5, 2.0))),
        lambda r: ShiftedCost(_random_cost(r), offset=float(r.uniform(0.0, 1.0))),
    ]
    return families[int(r.integers(0, len(families)))](r)


def random_instance(rng: np.random.Generator, T: int = 5, d: int = 2, max_servers: int = 3) -> ProblemInstance:
    """A random small instance used by the property-based / fuzz tests."""
    types = []
    for j in range(d):
        types.append(
            ServerType(
                name=f"t{j}",
                count=int(rng.integers(1, max_servers + 1)),
                switching_cost=float(rng.uniform(0.5, 10.0)),
                capacity=float(rng.choice([1.0, 2.0, 4.0])),
                cost_function=_random_cost(rng),
            )
        )
    capacity = sum(st.count * st.capacity for st in types)
    demand = rng.uniform(0.0, capacity, size=T)
    # sprinkle idle slots so power-down decisions matter
    idle_slots = rng.random(T) < 0.3
    demand[idle_slots] = 0.0
    return ProblemInstance(tuple(types), demand, name=f"random-{rng.integers(1_000_000)}")
