"""Large-scale scenario suite: long horizons and big heterogeneous fleets.

The bundled presets (:mod:`repro.workloads.fleets`) deliberately keep fleets
small so every benchmark can compare against the exact optimum.  This module
goes the other way: it generates the instances on which the *memory* of the
solver — not its FLOPs — used to be the binding constraint, the workloads the
streaming DP core (:func:`repro.offline.dp.solve_dp` with checkpointed
backtracking) exists for:

* **long horizons** — months of slots (``T`` up to ``5 * 10^4`` and beyond)
  over mid-sized heterogeneous fleets, where the classic all-tables DP holds
  ``T`` value tensors alive, and
* **big fleets** — up to ``d = 4`` server types with ``m_j`` up to ``10^4``
  machines, tractable only on the geometric grids ``M^gamma`` of Section 4.2,
  where even the *reduced* per-slot tensor is large enough that ``T`` of them
  do not fit.

Demand traces are quantised to a configurable number of discrete levels.
Metered/aggregated traffic genuinely arrives that way, and it keeps the number
of distinct dispatch signatures per checkpoint window bounded, so the batched
dispatch solve stays vectorised instead of degenerating into one row per slot.

All generators are seeded and deterministic under the library-wide seeding
convention: each instance builder takes a *single* scenario seed and spawns
independent sub-streams (:func:`repro.workloads.traces.spawn_streams`) for the
demand trace and the fleet perturbation, so trace and fleet randomness are
derived from — and only from — that one seed.  ``scale_scenarios`` bundles
the named instances used by ``benchmarks/bench_scale_streaming.py`` and
``repro bench --scale``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..core.cost_functions import LinearCost, PowerCost, QuadraticCost
from ..core.instance import ProblemInstance
from ..core.server import ServerType
from .fleets import fleet_instance, perturbed_fleet
from .traces import as_rng, RngLike, spawn_streams

__all__ = [
    "quantise_trace",
    "metered_trace",
    "wide_cpu_gpu_fleet",
    "mega_fleet",
    "long_horizon_instance",
    "big_fleet_instance",
    "scale_scenarios",
]


def quantise_trace(trace: np.ndarray, levels: int, peak: Optional[float] = None) -> np.ndarray:
    """Snap a demand trace to ``levels`` evenly spaced discrete levels.

    Mirrors metered traffic (requests per 5-minute bucket, MW of load, ...)
    and bounds the number of distinct dispatch signatures of the horizon.
    """
    if levels < 1:
        raise ValueError("levels must be at least 1")
    trace = np.asarray(trace, dtype=float)
    top = float(np.max(trace)) if peak is None else float(peak)
    if top <= 0:
        return np.zeros_like(trace)
    step = top / levels
    return np.clip(np.round(trace / step) * step, 0.0, top)


def metered_trace(
    T: int,
    period: int = 288,
    base: float = 2.0,
    peak: float = 10.0,
    weekly_amplitude: float = 0.2,
    noise: float = 0.05,
    levels: int = 32,
    rng: RngLike = None,
) -> np.ndarray:
    """A long-horizon demand trace: diurnal swing x weekly envelope x noise, quantised.

    ``period`` is the number of slots per day (288 = 5-minute slots); the
    weekly envelope modulates the peak by ``weekly_amplitude`` over 7 periods.
    """
    rng = as_rng(rng)
    t = np.arange(int(T))
    day = 0.5 * (base + peak) - 0.5 * (peak - base) * np.cos(2.0 * np.pi * t / max(period, 1))
    week = 1.0 - weekly_amplitude * 0.5 * (1.0 + np.cos(2.0 * np.pi * t / max(7 * period, 1)))
    trace = day * week
    if noise > 0:
        trace = trace * (1.0 + noise * rng.standard_normal(int(T)))
    return quantise_trace(np.maximum(trace, 0.0), levels=levels, peak=peak)


def wide_cpu_gpu_fleet(cpu_count: int = 60, gpu_count: int = 40) -> List[ServerType]:
    """A mid-sized two-type fleet whose *horizon*, not grid, is the scaling axis.

    The full grid has ``(cpu_count + 1) * (gpu_count + 1)`` states — small
    enough for the exact DP per slot, large enough that holding one tensor per
    slot of a long horizon is the dominant memory cost.
    """
    return [
        ServerType(
            name="cpu",
            count=cpu_count,
            switching_cost=4.0,
            capacity=1.0,
            cost_function=QuadraticCost(idle=1.0, a=0.4, b=0.8),
        ),
        ServerType(
            name="gpu",
            count=gpu_count,
            switching_cost=20.0,
            capacity=4.0,
            cost_function=PowerCost(idle=3.0, coef=0.15, exponent=2.0),
        ),
    ]


def mega_fleet(d: int = 4, m_max: int = 10_000) -> List[ServerType]:
    """Up to four server types with per-type counts scaling down from ``m_max``.

    Counts follow a factor-5 ladder (``m_max, m_max/5, m_max/25, ...``) —
    a large base tier of cheap machines, down to a handful of accelerators.
    Only tractable on geometric grids: the full grid would have
    ``prod_j (m_j + 1)`` states (``~10^4 * 2 * 10^3 * 4 * 10^2 * 80 ~ 10^{12}``
    at the defaults).
    """
    if not 1 <= d <= 4:
        raise ValueError("d must be between 1 and 4")
    if m_max < 1:
        raise ValueError("m_max must be positive")
    types: List[ServerType] = []
    for j in range(d):
        count = max(int(m_max // 5**j), 1)
        types.append(
            ServerType(
                name=f"tier-{j}",
                count=count,
                # higher tiers: beefier machines, pricier to cycle and to idle
                switching_cost=2.0 * 3.0**j,
                capacity=1.0 + 2.0 * j,
                cost_function=(
                    LinearCost(idle=0.05 * (j + 1), slope=0.1 * (j + 1))
                    if j % 2 == 0
                    else QuadraticCost(idle=0.05 * (j + 1), a=0.05 * (j + 1), b=0.1)
                ),
            )
        )
    return types


def long_horizon_instance(
    T: int = 50_000,
    cpu_count: int = 60,
    gpu_count: int = 40,
    levels: int = 32,
    heterogeneity: float = 0.0,
    seed: int = 0,
    name: Optional[str] = None,
) -> ProblemInstance:
    """A long-horizon right-sizing instance (full grids stay exact).

    The default — ``T = 5 * 10^4`` five-minute slots (~6 months) over a
    ``61 x 41``-state fleet — needs ~1 GB of value-table history in the classic
    all-tables DP and a few MB in the streaming pass.

    ``seed`` derives both the trace and (when ``heterogeneity > 0``) the fleet
    perturbation through spawned sub-streams, and the trace is sized against
    the *unperturbed* fleet's capacity, so instances with and without fleet
    jitter share the identical demand trace (up to the feasibility clip
    against the perturbed capacity).
    """
    trace_rng, fleet_rng = spawn_streams(seed, 2)
    base_fleet = wide_cpu_gpu_fleet(cpu_count=cpu_count, gpu_count=gpu_count)
    capacity = sum(st.count * st.capacity for st in base_fleet)
    fleet = perturbed_fleet(base_fleet, jitter=heterogeneity, rng=fleet_rng)
    demand = metered_trace(
        T, period=288, base=0.05 * capacity, peak=0.75 * capacity, levels=levels, rng=trace_rng
    )
    return fleet_instance(
        fleet, demand, name=name or f"long-horizon-T{T}-d2-{cpu_count}x{gpu_count}"
    )


def big_fleet_instance(
    T: int = 4_000,
    d: int = 4,
    m_max: int = 10_000,
    levels: int = 24,
    heterogeneity: float = 0.0,
    seed: int = 1,
    name: Optional[str] = None,
) -> ProblemInstance:
    """A big heterogeneous fleet instance (``d`` up to 4, ``m_j`` up to ``10^4``).

    Solve it with ``gamma``-reduced grids (:func:`repro.offline.graph_approx.
    solve_approx`); the full grid is astronomically large, and even the
    geometric grid tensor is big enough that the all-tables history dwarfs RAM
    on longer horizons.  Trace and (optional) fleet randomness both derive
    from ``seed`` via spawned sub-streams; the trace is sized against the
    unperturbed fleet so fleet jitter never changes the demand pattern.
    """
    trace_rng, fleet_rng = spawn_streams(seed, 2)
    base_fleet = mega_fleet(d=d, m_max=m_max)
    capacity = sum(st.count * st.capacity for st in base_fleet)
    fleet = perturbed_fleet(base_fleet, jitter=heterogeneity, rng=fleet_rng)
    demand = metered_trace(
        T, period=96, base=0.02 * capacity, peak=0.6 * capacity, levels=levels, rng=trace_rng
    )
    return fleet_instance(fleet, demand, name=name or f"big-fleet-T{T}-d{d}-m{m_max}")


def scale_scenarios(full: bool = False) -> List[dict]:
    """The named large-scale scenarios of the streaming benchmark.

    Each entry carries the instance plus the solver configuration
    (``gamma`` for geometric grids) and which modes the benchmark runs:
    ``compare`` scenarios execute both the streaming and the all-tables pass
    to measure the memory/time trade; ``streaming_only`` scenarios are the
    ones whose all-tables footprint is documented (projected) rather than
    paid.  ``full=False`` returns a scaled-down suite for quick regression
    runs; ``full=True`` the headline sizes (T up to ``5 * 10^4``).
    """
    if not full:
        return [
            {
                "label": "long-horizon (quick)",
                "instance": long_horizon_instance(T=4_000, cpu_count=30, gpu_count=20, seed=0),
                "gamma": None,
                "compare": True,
            },
            {
                "label": "big-fleet (quick)",
                "instance": big_fleet_instance(T=1_500, d=3, m_max=2_000, seed=1),
                "gamma": 2.0,
                "compare": True,
            },
        ]
    return [
        {
            "label": "long-horizon T=20k",
            "instance": long_horizon_instance(T=20_000, seed=0),
            "gamma": None,
            "compare": True,
        },
        {
            "label": "long-horizon T=50k",
            "instance": long_horizon_instance(T=50_000, seed=0),
            "gamma": None,
            "compare": False,
        },
        {
            "label": "big-fleet d=4 m=10k",
            "instance": big_fleet_instance(T=4_000, d=4, m_max=10_000, seed=1),
            "gamma": 2.0,
            "compare": False,
        },
    ]
