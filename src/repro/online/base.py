"""Online algorithm interface and driver.

In the online version of the right-sizing problem the job volumes ``lambda_t``
and operating-cost functions ``f_{t,j}`` arrive one by one; the configuration
``x_t`` must be fixed before anything about slots ``t' > t`` is revealed.

The driver :func:`run_online` enforces this information model: an algorithm
only ever receives a :class:`SlotInfo` describing the *current* slot (demand,
cost functions, available fleet, and an evaluator for the slot's operating
cost ``g_t``), plus the static fleet description at start-up.  The total
horizon ``T`` is *not* revealed.

Algorithms return one integral configuration per step; the driver validates it
against the fleet limits, assembles the schedule, and evaluates its exact cost,
and it collects each step's :class:`Decision` record (the facts the paper's
analysis reads per slot) into :attr:`OnlineRunResult.decisions`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from ..core.costs import CostBreakdown, evaluate_schedule
from ..core.instance import ProblemInstance
from ..core.schedule import Schedule
from ..dispatch.allocation import DispatchSolver
from ..offline.dp import WindowedOperatingCosts, check_window
from ..offline.state_grid import StateGrid, slot_grids

__all__ = [
    "Decision",
    "Lanes",
    "OnlineContext",
    "SlotContext",
    "SlotInfo",
    "OnlineAlgorithm",
    "OnlineRunResult",
    "run_online",
]


@dataclass(frozen=True, eq=False)
class OnlineContext:
    """Static information available to an online algorithm before the first slot."""

    server_types: tuple
    beta: np.ndarray
    zmax: np.ndarray
    base_counts: np.ndarray

    @property
    def d(self) -> int:
        return len(self.server_types)


@dataclass(frozen=True, eq=False)
class SlotInfo:
    """Everything an online algorithm may see about the current time slot ``t``.

    ``operating_cost`` evaluates ``g_t(x)`` for one or many configurations of
    the *current* slot; it is backed by the instance's dispatch solver but can
    only be queried for this slot, so no future information leaks.
    Configurations may be fractional (used by the fractional baselines).
    """

    t: int
    demand: float
    cost_functions: tuple
    counts: np.ndarray
    beta: np.ndarray
    zmax: np.ndarray
    _evaluator: Callable[[np.ndarray], np.ndarray]
    #: Optional fast path: ``grid -> value tensor of g_t over the whole grid``.
    #: :class:`SlotContext` reads it from its providers (and the serve
    #: sessions from their cache), so every tracker reading the slot gets one
    #: shared tensor instead of re-querying dispatch.
    _grid_evaluator: Optional[Callable] = None
    #: Optional block reader: ``(grid, configs) -> g_t at those rows`` read
    #: from the slot's solved grid block, or ``None`` (see :meth:`block_costs`).
    _block_costs: Optional[Callable] = None

    def idle_costs(self) -> np.ndarray:
        """Idle operating costs ``l_{t,j} = f_{t,j}(0)`` of the current slot."""
        return np.array([f.idle_cost() for f in self.cost_functions], dtype=float)

    def operating_cost(self, configs) -> np.ndarray:
        """Evaluate ``g_t`` for a single configuration or a batch of configurations."""
        arr = np.asarray(configs, dtype=float)
        single = arr.ndim == 1
        batch = arr[None, :] if single else arr
        costs = self._evaluator(batch)
        return float(costs[0]) if single else costs

    def grid_operating_cost(self, grid) -> np.ndarray:
        """Value tensor of ``g_t`` over a whole :class:`~repro.offline.state_grid.StateGrid`.

        The returned tensor is read-only and may be shared between callers.
        """
        if self._grid_evaluator is not None:
            return self._grid_evaluator(grid)
        return self.operating_cost(grid.configs()).reshape(grid.shape)

    @classmethod
    def reading(cls, source, key: int, **fields) -> "SlotInfo":
        """A slot whose ``g_t`` reads are ``source``'s, at its slot ``key``.

        ``source`` answers ``row(key, configs)``, ``grid_tensor(key, grid)``
        and ``block_costs(key, grid, configs)``: a
        :class:`SlotContext`'s providers, or a serve cache at a ledger slot.
        The three reads are bound methods of one small object, which keeps a
        slot light where many are kept (a context's horizon, a session's
        slot per demand level).
        """
        reads = _SlotReads(source, key)
        return cls(
            **fields,
            _evaluator=reads.row,
            _grid_evaluator=reads.grid_tensor,
            _block_costs=reads.block_costs,
        )

    def block_costs(self, grid, configs: np.ndarray) -> Optional[np.ndarray]:
        """``g_t`` at integral configuration rows of ``grid``, read from the slot's solved block.

        The cells of the slot's ``grid`` tensor, bit for bit what
        :meth:`operating_cost` returns for them.  ``None`` when the slot has
        no block reader or the dispatcher's rule
        (:meth:`~repro.dispatch.allocation.DispatchSolver.block_rows`) says
        the solver must answer: then ask :meth:`operating_cost`.
        """
        return None if self._block_costs is None else self._block_costs(grid, configs)

    def with_scaled_costs(self, factor: float) -> "SlotInfo":
        """A copy of this slot whose operating costs are multiplied by ``factor``.

        Used by Algorithm C, which splits a slot into ``n_t`` sub-slots each
        carrying ``1/n_t`` of the operating cost (Section 3.2).  The copy
        reads no block (:meth:`block_costs` is ``None``).
        """
        scaled_functions = tuple(f.scaled(factor) for f in self.cost_functions)
        evaluator = self._evaluator
        grid_evaluator = self._grid_evaluator

        def scaled_evaluator(configs: np.ndarray) -> np.ndarray:
            return factor * evaluator(configs)

        scaled_grid_evaluator = None
        if grid_evaluator is not None:
            def scaled_grid_evaluator(grid) -> np.ndarray:
                return factor * grid_evaluator(grid)

        return SlotInfo(
            t=self.t,
            demand=self.demand,
            cost_functions=scaled_functions,
            counts=self.counts,
            beta=self.beta,
            zmax=self.zmax,
            _evaluator=scaled_evaluator,
            _grid_evaluator=scaled_grid_evaluator,
        )


class _SlotReads:
    """The ``g_t`` reads of one slot: its source's, at the slot's key."""

    __slots__ = ("source", "key")

    def __init__(self, source, key: int):
        self.source = source
        self.key = key

    def row(self, configs: np.ndarray) -> np.ndarray:
        return self.source.row(self.key, configs)

    def grid_tensor(self, grid) -> np.ndarray:
        return self.source.grid_tensor(self.key, grid)

    def block_costs(self, grid, configs: np.ndarray) -> Optional[np.ndarray]:
        return self.source.block_costs(self.key, grid, configs)


class Decision(NamedTuple):
    """The analysis facts of one online step (one slot ``t``).

    ``xhat`` is the prefix optimum ``\\hat x^t_t`` and ``power_ups`` the
    servers ``w_t`` powered up (Algorithms A and B); ``retired`` is B's
    retirement set ``W_t`` as ``(type, power-up slot)`` pairs; ``lower`` and
    ``upper`` are LCP's targets ``(X^L_t, X^U_t)``; ``sub_slots`` is C's
    ``n_t``.  A field the algorithm does not produce keeps its default.  The
    arrays are the step's own (references, not copies), and the algorithms
    build the record positionally, in this field order, on the tick path.
    """

    xhat: Optional[np.ndarray] = None
    power_ups: Optional[np.ndarray] = None
    retired: Sequence = ()
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    sub_slots: Optional[int] = None


@dataclass(eq=False)
class Lanes:
    """What a lane rule reads: ``k`` algorithms' ticks on one grid, decided at once.

    ``tensors`` stacks the distinct ``g_t`` tensors (or flattened rows) on
    ``grid`` along its first axis (both ``None`` for a rule that reads no
    tensor); lane ``i`` reads ``tensors[rows][i]`` at tick ``ticks[i]``
    (``rows``: an index array, or a slice when lane ``i`` reads tensor ``i``).
    Every lane shares the cost row, ``beta`` and the available ``counts``.
    """

    grid: Optional[StateGrid]
    tensors: Optional[np.ndarray]
    rows: object
    ticks: Sequence[int]
    cost_row: tuple
    beta: np.ndarray
    counts: np.ndarray
    _idle: Optional[np.ndarray] = None

    @classmethod
    def of_slot(cls, slot: SlotInfo, grid=None, tensor=None) -> "Lanes":
        """One lane: ``slot``, reading ``tensor`` on ``grid`` (what ``step`` decides)."""
        tensors = None if tensor is None else tensor[None]
        return cls(grid, tensors, slice(None), (slot.t,), slot.cost_functions, slot.beta, slot.counts)

    def idle_costs(self) -> np.ndarray:
        """The cost row's idle costs ``l_{t,j}``, as :meth:`SlotInfo.idle_costs` gives them (computed once)."""
        if self._idle is None:
            self._idle = np.array([f.idle_cost() for f in self.cost_row], dtype=float)
        return self._idle


class OnlineAlgorithm(abc.ABC):
    """Base class of integral online right-sizing algorithms.

    An algorithm holds decision state only: what the next :meth:`step`
    needs.  Algorithms A, B, C and LCP describe each step in a
    :class:`Decision` that overwrites :attr:`last_decision`, so a long-lived
    session holds one record however many ticks it serves.

    **Lane rule.**  A class may declare :meth:`decide_lanes` in its own
    body: its one decision rule, applied to ``k`` algorithms' ticks
    (:class:`Lanes`) at once, which its :meth:`step` applies to one.  A
    serve-engine cohort and ``k`` sequential steps then give bit-identical
    configurations, states and :attr:`last_decision` records.  Without a
    rule of its own (Algorithm C, custom algorithms, a subclass that
    declares none) an algorithm only steps.  Two facts, read without
    building a grid, say who may share a call: :meth:`lane_family` (class
    and grid family) and :meth:`lane_ready` (whether this tick may join).
    """

    #: Human-readable identifier used in reports and benchmark tables.
    name: str = "online"

    #: The :class:`Decision` of the latest step (the per-tick provenance
    #: hook); ``None`` for algorithms that record none, such as the baselines.
    last_decision: Optional[Decision] = None

    #: The grids :meth:`evaluation_grid` draws from: ``None`` (full) or ``gamma``.
    grid_family = None

    #: The fewest lanes one :meth:`decide_lanes` call is worth; fewer step.
    min_lanes: int = 1

    def start(self, context: OnlineContext) -> None:
        """Reset internal state for a new run (called once before the first slot)."""

    @abc.abstractmethod
    def step(self, slot: SlotInfo) -> np.ndarray:
        """Choose the configuration ``x_t`` for the current slot."""

    @classmethod
    def decide_lanes(cls, algorithms: Sequence["OnlineAlgorithm"], lanes: Lanes) -> np.ndarray:
        """The lane rule: a ``(k, d)`` integer array, row ``i`` for ``algorithms[i]``.

        Updates each algorithm's state and :attr:`last_decision` exactly as
        its :meth:`step` would.  The base class declares no rule.
        """
        raise NotImplementedError(f"{cls.__name__} declares no lane rule")

    def lane_family(self) -> Optional[tuple]:
        """Which lanes may share a :meth:`decide_lanes` call: ``(class, grid family)``.

        ``None`` when the class does not declare the rule in its own body: a
        subclass inherits none, since it may decide differently.
        """
        cls = type(self)
        return (cls, self.grid_family) if "decide_lanes" in vars(cls) else None

    def lane_ready(self, counts: tuple) -> bool:
        """Whether this tick, at available ``counts``, may join a lane rule call."""
        return True

    @classmethod
    def lane_grid(cls, counts: np.ndarray, family) -> Optional[StateGrid]:
        """The grid :meth:`evaluation_grid` names at ``counts`` for grid ``family``, from the family alone."""
        return StateGrid.for_gamma(counts, family)

    def finish(self) -> None:
        """Hook called after the last slot (optional bookkeeping).

        It must not change :meth:`state_dict`: a stream's last checkpoint
        may be written before the hook runs.
        """

    def evaluation_grid(self, counts: np.ndarray):
        """The grid whose ``g_t`` tensor :meth:`step` reads at available ``counts``.

        A :class:`~repro.offline.state_grid.StateGrid` or ``None`` (the
        default: the step reads no grid tensor, or does not say).  The serve
        engine solves a round's cold tensors on these grids in one dispatch
        block before the sessions step.  Dispatch is exact per cell, so a
        wrong answer costs a wasted solve, never a different decision.
        """
        return None

    def prefix_optimum_cost(self) -> float:
        """``OPT(I_t)``, the optimal cost of the slots stepped so far, when the
        algorithm's own state holds it exactly; ``nan`` (the default) otherwise."""
        return float("nan")

    # -------------------------------------------------------- checkpointing
    def state_dict(self) -> dict:
        """JSON-safe snapshot of all *decision-relevant* state.

        The serve layer (:mod:`repro.serve`) persists this dict in a
        :meth:`~repro.serve.ControllerSession.checkpoint` and feeds it back
        through :meth:`load_state_dict` after a restart; an algorithm must
        capture enough state here that every future :meth:`step` decision is
        unchanged by the round-trip.  :attr:`last_decision` describes a past
        step and is not part of it.  Stateless algorithms inherit this empty
        default.
        """
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (called after :meth:`start`)."""
        if state:
            raise ValueError(
                f"{self.name}: cannot restore checkpoint state {sorted(state)} "
                "(algorithm does not override load_state_dict)"
            )


@dataclass(frozen=True, eq=False)
class OnlineRunResult:
    """Outcome of running an online algorithm over a full instance.

    ``dispatch_stats`` holds the *per-run delta* of the dispatch engine's work
    counters (block calls, unique solves, cache-hit rate) — the benchmark
    harness uses it to track how much of the per-slot grid work the batched
    engine deduplicates.  Deltas (not cumulative snapshots) are reported
    because the sweep engine shares one solver across every run of an
    instance.

    ``decisions`` holds the algorithm's :attr:`~OnlineAlgorithm.last_decision`
    after every slot, one entry per slot (``None`` entries for algorithms that
    record none).
    """

    algorithm: str
    schedule: Schedule
    breakdown: CostBreakdown
    dispatch_stats: Optional[dict] = None
    decisions: tuple = ()

    @property
    def cost(self) -> float:
        return self.breakdown.total

    def summary(self) -> dict:
        out = {"algorithm": self.algorithm}
        out.update(self.breakdown.summary())
        return out


class _SlotCosts:
    """The ``g_t`` reads of one instance's slots: one provider per grid family.

    A :class:`SlotContext`'s slots hold this object's bound methods, never
    the context, so dropping a context frees it by reference counting.
    """

    def __init__(self, instance: ProblemInstance, dispatcher: DispatchSolver, window: Optional[int]):
        self.instance = instance
        self.dispatcher = dispatcher
        self.window = window
        self.providers: dict = {}

    def provider(self, gamma: Optional[float] = None) -> WindowedOperatingCosts:
        key = None if gamma is None else float(gamma)
        provider = self.providers.get(key)
        if provider is None:
            provider = self.providers[key] = WindowedOperatingCosts(
                self.instance,
                slot_grids(self.instance, gamma),
                self.dispatcher,
                window=self.window,
                memoise=self.window is None,
            )
        return provider

    def row(self, t: int, configs: np.ndarray) -> np.ndarray:
        costs, _ = self.dispatcher.solve_block([t], configs, memoise=self.window is None)
        return costs[0]

    def grid_tensor(self, t: int, grid) -> np.ndarray:
        self.provider()  # the full grids' provider is built on the first read
        for provider in self.providers.values():
            if provider.grids[t].key == grid.key:
                return provider.tensor(t)
        return self.row(t, grid.configs()).reshape(grid.shape)

    def block_costs(self, t: int, grid, configs: np.ndarray) -> Optional[np.ndarray]:
        found = self.dispatcher.block_rows(t, grid, configs)
        return None if found is None else self.grid_tensor(t, grid).reshape(-1)[found[0]]


class SlotContext:
    """The slots of one instance, as :func:`run_online` reveals them.

    Every run steps one: :func:`run_online` builds a private context unless
    it is given one, and the sweep engine shares one between every run of an
    instance.  A context builds each slot's immutable :class:`SlotInfo` once
    and reads ``g_t`` through one
    :class:`~repro.offline.dp.WindowedOperatingCosts` per grid family
    (:meth:`costs`), built on first use over
    :func:`~repro.offline.state_grid.slot_grids` as
    :func:`~repro.offline.dp.solve_dp` builds its own.  A slot's
    :meth:`SlotInfo.grid_operating_cost` returns the provider's tensor when
    the grid is the slot's grid in a built family (the full grids' provider
    is built on the first read); any other read, a configuration batch or a
    grid of no built family, is one ``solve_block`` row of the same solver.

    ``window`` is the providers' window, a positive integer or ``None``
    (anything else raises ``ValueError``).  ``None`` (default) solves a grid's
    every key in one pass and memoises in the dispatch engine; a window (the
    sweep's ``checkpoint_every``) holds one window of tensors plus the
    provider's byte-capped key memo, and no read writes the dispatch
    engine's memo, so a horizon of per-slot-unique demands keeps no
    ``O(T * |M| * d)`` footprint.
    """

    def __init__(
        self,
        instance: ProblemInstance,
        dispatcher: Optional[DispatchSolver] = None,
        window: Optional[int] = None,
    ):
        self.instance = instance
        self.window = check_window(window, "window")
        self.dispatcher = dispatcher or DispatchSolver(instance)
        self.context = OnlineContext(
            server_types=instance.server_types,
            beta=instance.beta,
            zmax=instance.zmax,
            base_counts=instance.m,
        )
        self._costs = _SlotCosts(instance, self.dispatcher, self.window)
        self._slots: list = [None] * instance.T

    def costs(self, gamma: Optional[float] = None) -> WindowedOperatingCosts:
        """The ``g_t`` provider of ``gamma``'s grids, the one the slots read."""
        return self._costs.provider(gamma)

    def slot(self, t: int) -> SlotInfo:
        """The (cached) :class:`SlotInfo` of slot ``t``."""
        slot = self._slots[t]
        if slot is None:
            instance = self.instance
            slot = self._slots[t] = SlotInfo.reading(
                self._costs,
                t,
                t=t,
                demand=float(instance.demand[t]),
                cost_functions=instance.cost_row(t),
                counts=instance.counts_at(t),
                beta=instance.beta,
                zmax=instance.zmax,
            )
        return slot


def run_online(
    instance: ProblemInstance,
    algorithm: OnlineAlgorithm,
    dispatcher: Optional[DispatchSolver] = None,
    slot_context: Optional[SlotContext] = None,
) -> OnlineRunResult:
    """Feed an instance slot-by-slot to an online algorithm and evaluate the result.

    The driver reveals each slot only when its configuration is requested; the
    algorithm therefore operates under the paper's online information model.
    The chosen configurations are validated against the per-slot fleet sizes;
    choosing more servers than exist raises immediately (this would mean the
    algorithm is not producing feasible schedules, cf. Lemmas 1 and 10).

    ``slot_context`` shares slots between runs (the sweep engine's path): the
    run steps the given :class:`SlotContext` and its dispatch solver instead
    of a private one.  ``dispatch_stats`` always reports the *per-run delta*
    of the solver's work counters, so shared solvers do not leak one run's
    work into the next run's report.
    """
    if slot_context is None:
        slot_context = SlotContext(instance, dispatcher)
    elif slot_context.instance is not instance:
        raise ValueError("slot_context was built for a different instance")
    elif dispatcher is not None and dispatcher is not slot_context.dispatcher:
        raise ValueError("give either a dispatcher or a slot_context, not both")
    dispatcher = slot_context.dispatcher
    stats_before = dispatcher.stats.snapshot()
    algorithm.start(slot_context.context)

    T, d = instance.T, instance.d
    configs = np.zeros((T, d), dtype=int)
    decisions = []
    for t in range(T):
        slot = slot_context.slot(t)
        choice = np.asarray(algorithm.step(slot))
        if choice.shape != (d,):
            raise ValueError(
                f"{algorithm.name}: step() must return a configuration of shape ({d},), got {choice.shape}"
            )
        rounded = np.rint(choice).astype(int)
        if not np.allclose(choice, rounded, atol=1e-9):
            raise ValueError(f"{algorithm.name}: returned a non-integral configuration {choice}")
        if np.any(rounded < 0) or np.any(rounded > slot.counts):
            raise ValueError(
                f"{algorithm.name}: configuration {rounded} violates fleet limits {slot.counts} at slot {t}"
            )
        configs[t] = rounded
        decisions.append(algorithm.last_decision)
    algorithm.finish()

    schedule = Schedule(configs)
    breakdown = evaluate_schedule(
        instance, schedule, dispatcher, memoise=slot_context.window is None
    )
    return OnlineRunResult(
        algorithm=algorithm.name,
        schedule=schedule,
        breakdown=breakdown,
        dispatch_stats=dispatcher.stats.delta_since(stats_before),
        decisions=tuple(decisions),
    )
