"""Prefix-optimum trackers: computing ``\\hat x^t_t`` online.

Algorithms A, B and C all follow the same power-up rule: after every slot they
make sure that, per server type, at least as many servers are active as in the
last slot of an *optimal schedule of the prefix instance* ``I_t``
(``x^A_{t,j} >= \\hat x^t_{t,j}``).  The pseudocode in the paper recomputes
``\\hat X^t`` from scratch with the offline algorithm of Section 4.1, which
costs ``O(t)`` DP layers per slot and ``O(T^2)`` overall.

Because power-down is free and every schedule ends in the empty configuration,
``OPT(I_t) = min_x V_t[x]`` where ``V_t`` is the forward DP tensor of
:mod:`repro.offline.dp` — and ``V_t`` can be *maintained incrementally*: one
separable min-plus transition plus one operating-cost accumulation per slot.
:class:`DPPrefixTracker` implements exactly that by stepping the offline DP's
own :class:`~repro.offline.dp.ForwardDP`, so the online algorithms run in the
same asymptotic time as a single offline solve.  A tracker given a complete
:class:`~repro.offline.dp.ValueHistory` replays it instead: the sweep engine
runs the forward pass once per instance and ``gamma``, and Algorithms A, B and
LCP all read it.

Ties among optimal last configurations are broken deterministically:
:meth:`DPPrefixTracker.observe` reports the lexicographically smallest, and
:meth:`DPPrefixTracker.argmin` reads the largest from the same ``V_t``; the
analysis holds for any optimal schedule, so the choice only matters for
reproducibility.  :class:`PrefixOptimumAlgorithm` is A's, B's and LCP's shared base: one
tracker, and one lane rule that advances many private trackers on one grid
by one slot in one stacked transition (:func:`observe_stacked`).

:class:`FixedSequenceTracker` replays an explicitly given ``\\hat x`` series.
It exists so that the behaviour of Algorithms A and B can be verified against
the exact numbers printed in Figures 1 and 3 of the paper, independent of the
offline solver.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence

import numpy as np

from ..offline.dp import ForwardDP, ValueHistory
from ..offline.state_grid import StateGrid
from ..offline.transitions import transition
from .base import Lanes, OnlineAlgorithm, SlotInfo

__all__ = [
    "PrefixOptimumTracker",
    "DPPrefixTracker",
    "FixedSequenceTracker",
    "PrefixOptimumAlgorithm",
    "argmin_config",
    "observe_stacked",
    "stackable",
]


def argmin_config(
    value: np.ndarray,
    grid: StateGrid,
    tie_break: str,
    scratch: Optional[np.ndarray] = None,
) -> tuple:
    """Deterministic argmin configuration of a value tensor.

    ``tie_break`` picks the lexicographically smallest or largest optimal
    configuration.  The 'largest' path needs a reversed copy of the flattened
    tensor (argmin on a negatively-strided view is slow); the copy goes into
    ``scratch`` when its shape fits.  Returns ``(config, scratch)`` so callers
    can thread one buffer through repeated calls.
    """
    flat = value.reshape(-1)
    if tie_break == "smallest":
        idx = int(flat.argmin())
    else:
        # last occurrence of the minimum = lexicographically largest config
        if scratch is None or scratch.shape != flat.shape:
            scratch = np.empty_like(flat)
        np.copyto(scratch, flat[::-1])
        idx = flat.size - 1 - int(scratch.argmin())
    # grid.configs() row i corresponds to flat index i of the value tensor
    # (C order), so the config is a single row gather — no unravel needed.
    return grid.configs()[idx].copy(), scratch


class PrefixOptimumTracker(abc.ABC):
    """Produces the last configuration of an optimal prefix schedule, slot by slot."""

    def reset(self) -> None:
        """Forget all previously observed slots (called by the algorithms' ``start``)."""

    @abc.abstractmethod
    def observe(self, slot: SlotInfo) -> np.ndarray:
        """Consume the next slot and return ``\\hat x^t_t`` (integer array of length ``d``)."""

    def prefix_optimum_cost(self) -> float:
        """Cost ``C(\\hat X^t)`` of the optimal schedule for the observed prefix.

        Optional diagnostic; trackers that cannot provide it return ``nan``.
        """
        return float("nan")

    def grid(self, counts: np.ndarray) -> Optional[StateGrid]:
        """The grid whose ``g_t`` tensor :meth:`observe` reads at ``counts`` (``None``: none)."""
        return None

    # -------------------------------------------------------- checkpointing
    def state_dict(self) -> dict:
        """JSON-safe snapshot of the tracker state (serve-layer checkpoints)."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        if state:
            raise ValueError(
                f"{type(self).__name__} cannot restore checkpoint state {sorted(state)}"
            )


class DPPrefixTracker(PrefixOptimumTracker):
    """Incremental dynamic-programming tracker (exact or grid-reduced).

    Parameters
    ----------
    gamma:
        ``None`` for the exact prefix optimum (full grids, as in the paper's
        pseudocode).  A value ``> 1`` uses the reduced grids ``M^gamma`` of
        Section 4.2 instead — the resulting online algorithm then compares
        itself against a ``(2 gamma - 1)``-approximate prefix optimum, which
        degrades the competitive guarantee by the same factor but makes the
        per-slot work polynomial in ``log m_j`` (an engineering extension,
        see DESIGN.md).
    history:
        Optional complete :class:`~repro.offline.dp.ValueHistory` of the
        slots the tracker will observe, on ``gamma``'s grids.  The tracker
        then replays ``history.grids[t]`` and ``history.value_at(t)`` instead
        of stepping its own :class:`~repro.offline.dp.ForwardDP` — the sweep
        engine's shared path, whose
        :meth:`~repro.exp.shared.SharedInstanceContext.tracker` builds the
        history and its trackers from one ``gamma``.
    """

    def __init__(
        self,
        gamma: Optional[float] = None,
        history: Optional[ValueHistory] = None,
    ):
        if gamma is not None and gamma <= 1.0:
            raise ValueError("gamma must be > 1 when given")
        self.gamma = gamma
        self._history = history
        # the newest grid and V_t, and the same-grid transition plan
        self._dp = ForwardDP()
        self._grid_counts: Optional[tuple] = None
        self._steps = 0
        self._scratch: Optional[np.ndarray] = None
        # counts -> StateGrid; grids do not depend on the observed demands, so
        # the cache survives reset() and is shared by consecutive runs.  The
        # cached grid also carries its configs() enumeration, so the per-slot
        # work reduces to one batched dispatch query plus one transition.
        self._grid_cache: dict = {}
        # Steady-state fast paths (all correctness-neutral memos; see observe):
        # the last counts *object* -> its grid, so repeat ticks skip the tuple
        # key build; and ids of cost tensors already past the finiteness check
        # (value holds the tensor so the id cannot be recycled while mapped).
        self._counts_obj: Optional[np.ndarray] = None
        self._counts_grid: Optional[StateGrid] = None
        self._counts_tuple: Optional[tuple] = None
        self._finite_seen: dict = {}

    # -------------------------------------------------------------- interface
    def reset(self) -> None:
        self._dp = ForwardDP()
        self._grid_counts = None
        self._steps = 0

    def observe(self, slot: SlotInfo) -> np.ndarray:
        dp = self._dp
        if self._history is not None:
            dp.value = self._history.value_at(self._steps)
            dp.grid = self._history.grids[self._steps]
            self._steps += 1
            return self.argmin("smallest")
        counts = slot.counts
        if counts is self._counts_obj:
            grid = self._counts_grid
        else:
            grid = self.grid(counts)
            self._counts_obj = counts
            self._counts_grid = grid
            self._counts_tuple = tuple(int(c) for c in counts)
        g_tensor = slot.grid_operating_cost(grid)
        # Memoised tensors (the serve cache and the slot context's providers
        # both hand back one shared read-only object per slot signature) only
        # need the finiteness scan once; fresh tensors always miss and are
        # checked.
        if id(g_tensor) not in self._finite_seen:
            if not np.any(np.isfinite(g_tensor)):
                raise ValueError(
                    f"slot {slot.t}: no grid configuration can serve demand {slot.demand:g}"
                )
            if len(self._finite_seen) >= 512:
                self._finite_seen.clear()
            self._finite_seen[id(g_tensor)] = g_tensor
        # V_t is the tracker's own, so the same-grid steps run the plan
        dp.step(grid, g_tensor, slot.beta)
        self._grid_counts = self._counts_tuple
        self._steps += 1
        return self.argmin("smallest")

    def argmin(self, tie_break: str) -> np.ndarray:
        """The ``tie_break`` optimal last configuration of the current ``V_t``."""
        if tie_break not in ("smallest", "largest"):
            raise ValueError("tie_break must be 'smallest' or 'largest'")
        dp = self._dp
        config, self._scratch = argmin_config(dp.value, dp.grid, tie_break, self._scratch)
        return config

    def grid(self, counts: np.ndarray) -> StateGrid:
        """The (cached) grid :meth:`observe` reads its ``g_t`` tensor on at ``counts``."""
        key = tuple(int(c) for c in counts)
        grid = self._grid_cache.get(key)
        if grid is None:
            grid = self._grid_cache[key] = StateGrid.for_gamma(counts, self.gamma)
        return grid

    def holds(self, counts: tuple) -> bool:
        """Whether the tracker holds a ``V_t`` on the grid of the ``counts`` tuple."""
        return self._dp.value is not None and self._grid_counts == counts

    def prefix_optimum_cost(self) -> float:
        if self._dp.value is None:
            return 0.0
        return float(np.min(self._dp.value))

    # -------------------------------------------------------- checkpointing
    def state_dict(self) -> dict:
        """JSON-safe snapshot: step count, current value tensor and grid counts.

        Python floats are doubles, so finite values round-trip exactly and a
        restored tracker continues the incremental DP bit-identically; the
        ``+inf`` entries of infeasible configurations are encoded as ``None``
        to stay strictly JSON-compliant.  Trackers replaying a shared
        :class:`~repro.offline.dp.ValueHistory` are sweep-engine internals and
        are deliberately not checkpointable — the serve layer gives every
        session a private tracker.
        """
        if self._history is not None:
            raise RuntimeError(
                "a tracker replaying a shared ValueHistory is not checkpointable; "
                "use a private DPPrefixTracker for serve sessions"
            )
        value = self._dp.value
        if value is not None:
            value = [None if np.isinf(v) else float(v) for v in value.reshape(-1)]
        return {
            "steps": int(self._steps),
            "value": value,
            "counts": None if self._grid_counts is None else list(self._grid_counts),
        }

    def load_state_dict(self, state: dict) -> None:
        if self._history is not None:
            raise RuntimeError("cannot restore state into a shared-history tracker")
        self._steps = int(state["steps"])
        if state["value"] is None:
            self._dp = ForwardDP()
            self._grid_counts = None
        else:
            counts = np.asarray(state["counts"], dtype=int)
            grid = self.grid(counts)
            self._grid_counts = tuple(int(c) for c in counts)
            flat = np.array(
                [np.inf if v is None else v for v in state["value"]], dtype=float
            )
            self._dp = ForwardDP(grid, flat.reshape(grid.shape))


def stackable(tracker: PrefixOptimumTracker) -> bool:
    """Whether :func:`observe_stacked` may advance ``tracker``.

    Only a private :class:`DPPrefixTracker` (the class itself, on full or
    ``gamma``-reduced grids, its own value tensor) qualifies; subclasses and
    shared-history trackers advance through their own
    :meth:`~DPPrefixTracker.observe`.
    """
    return type(tracker) is DPPrefixTracker and tracker._history is None


def observe_stacked(
    trackers: Sequence[DPPrefixTracker],
    costs: np.ndarray,
    beta: np.ndarray,
    tie_breaks: Sequence[str] = ("smallest",),
) -> tuple:
    """Advance :func:`stackable` trackers on one grid by one slot, stacked.

    Every tracker must :meth:`~DPPrefixTracker.holds` a ``V_{t-1}`` on the
    slot's grid; ``costs`` is the ``(k, *grid.shape)`` stack of the slot's
    ``g_t`` tensors, row ``i`` for ``trackers[i]``.  One min-plus transition
    over the lane axis plus ``costs`` gives each tracker its ``V_t``, with
    :meth:`~DPPrefixTracker.observe`'s ufunc sequence per lane, so the
    tensors and configurations are bit-identical to ``k`` ``observe`` calls.

    Returns one ``(k, d)`` array per entry of ``tie_breaks``: row ``i`` is
    ``trackers[i].argmin(tie_break)`` after the step.
    """
    grid = trackers[0]._dp.grid
    values = np.stack([tracker._dp.value for tracker in trackers])
    arrival = transition(values, grid.values, grid.values, beta)
    value = np.add(arrival, costs, out=arrival)
    for tracker, row in zip(trackers, value):
        tracker._dp.value = row
        tracker._steps += 1
    flat = value.reshape(len(trackers), -1)
    configs = grid.configs()
    optima = []
    for tie_break in tie_breaks:
        if tie_break == "smallest":
            idx = flat.argmin(axis=1)
        else:
            # last occurrence of the minimum, as argmin_config reports it
            idx = flat.shape[1] - 1 - flat[:, ::-1].argmin(axis=1)
        optima.append(configs[idx])
    return tuple(optima)


class PrefixOptimumAlgorithm(OnlineAlgorithm):
    """The shared base of A, B and LCP: a prefix-optimum tracker and :meth:`decide`.

    The tracker is an explicit ``tracker`` or a private
    :class:`DPPrefixTracker` on ``gamma``'s grids.  ``step`` is ``observe``
    then ``decide``; the lane rule (:meth:`decide_prefix_lanes`) advances the
    lanes' trackers in one :func:`observe_stacked` call, then runs each
    lane's ``decide``.
    """

    #: a one-lane stacked transition costs ~2x an own ``observe`` (PERFORMANCE.md)
    min_lanes = 2

    def __init__(self, tracker: Optional[PrefixOptimumTracker] = None, gamma: Optional[float] = None):
        if tracker is not None and gamma is not None:
            raise ValueError("give either an explicit tracker or gamma, not both")
        self._tracker = tracker if tracker is not None else DPPrefixTracker(gamma=gamma)

    def evaluation_grid(self, counts: np.ndarray):
        return self._tracker.grid(counts)

    @property
    def grid_family(self) -> Optional[float]:
        return getattr(self._tracker, "gamma", None)

    def lane_family(self) -> Optional[tuple]:
        return super().lane_family() if stackable(self._tracker) else None

    def lane_ready(self, counts: tuple) -> bool:
        return self._tracker.holds(counts)

    @abc.abstractmethod
    def decide(self, t: int, optima: tuple, slot) -> np.ndarray:
        """Slot ``t``'s configuration from the tracker's optima (one per tie-break).

        ``slot`` answers ``idle_costs()`` and ``beta``: the tick's
        :class:`SlotInfo`, or the cohort's :class:`Lanes`.
        """

    @staticmethod
    def decide_prefix_lanes(algorithms, lanes: Lanes, tie_breaks: Sequence[str]) -> np.ndarray:
        """The shared lane rule: one stacked tracker advance, then each lane's :meth:`decide`."""
        optima = observe_stacked(
            [algorithm._tracker for algorithm in algorithms],
            lanes.tensors[lanes.rows],
            lanes.beta,
            tie_breaks,
        )
        return np.stack([
            algorithm.decide(t, lane, lanes)
            for algorithm, t, lane in zip(algorithms, lanes.ticks, zip(*optima))
        ])


class FixedSequenceTracker(PrefixOptimumTracker):
    """Replay an explicitly given sequence of ``\\hat x^t_t`` values.

    Primarily a test fixture: Figures 1 and 3 of the paper specify the
    ``\\hat x`` series directly (not the underlying workload), so the exact
    bookkeeping of Algorithms A and B can be validated against the figures by
    feeding the printed series through this tracker.
    """

    def __init__(self, sequence: Sequence[Sequence[int]]):
        arr = np.asarray(sequence, dtype=int)
        if arr.ndim == 1:
            arr = arr[:, None]
        if np.any(arr < 0):
            raise ValueError("reference sequence must be non-negative")
        self._sequence = arr
        self._cursor = 0

    def reset(self) -> None:
        self._cursor = 0

    def state_dict(self) -> dict:
        return {"cursor": int(self._cursor)}

    def load_state_dict(self, state: dict) -> None:
        self._cursor = int(state["cursor"])

    def observe(self, slot: SlotInfo) -> np.ndarray:
        if self._cursor >= len(self._sequence):
            raise IndexError("FixedSequenceTracker ran out of reference values")
        value = self._sequence[self._cursor]
        self._cursor += 1
        if len(value) != len(slot.counts):
            raise ValueError(
                f"reference value has {len(value)} types but the instance has {len(slot.counts)}"
            )
        return np.array(value, dtype=int)
