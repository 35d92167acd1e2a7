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
:class:`DPPrefixTracker` implements exactly that, so the online algorithms run
in the same asymptotic time as a single offline solve.  Ties among optimal last
configurations are broken deterministically: :meth:`DPPrefixTracker.observe`
reports the lexicographically smallest, and :meth:`DPPrefixTracker.argmin`
reads the largest from the same ``V_t``.  The competitive analysis holds for
any optimal schedule, so the choice only matters for reproducibility.
:func:`observe_stacked` advances many private trackers on one grid by one slot
in one stacked transition (the batched serve engine's DP cohorts).

:class:`FixedSequenceTracker` replays an explicitly given ``\\hat x`` series.
It exists so that the behaviour of Algorithms A and B can be verified against
the exact numbers printed in Figures 1 and 3 of the paper, independent of the
offline solver.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence

import numpy as np

from ..offline.dp import _backtrack_windowed, backtrack_schedule
from ..offline.state_grid import StateGrid
from ..offline.transitions import make_transition_plan, startup_cost_tensor, transition
from .base import SlotInfo

__all__ = [
    "PrefixOptimumTracker",
    "DPPrefixTracker",
    "FixedSequenceTracker",
    "SharedValueStream",
    "SharedTrackerFactory",
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


class SharedValueStream:
    """Memoised prefix-DP value-tensor stream of one canonical slot sequence.

    The incremental DP behind :class:`DPPrefixTracker` depends only on the
    *observed slots*, never on the consuming algorithm's decisions — so when
    several algorithms sweep the same instance, their trackers all recompute
    the identical sequence of value tensors ``V_t``.  A shared stream computes
    each tensor once (on first traversal) and replays it to every later
    tracker; both tie-breaks read the same stream because tie-breaking only
    affects which argmin is reported, not the tensors.

    ``checkpoint_every`` switches the stream's history to the checkpointed
    ``O(sqrt(T) * |M|)`` representation of :func:`repro.offline.dp.solve_dp`:
    only every ``k``-th tensor (plus the frontier) is retained, and replayed
    steps rematerialise their checkpoint window by re-running the forward DP
    inside it — the tensors come out bit-identical because the recurrence is
    deterministic.  Each full replay (a later tracker, or the backward pass of
    the offline optimum) then costs at most one extra forward pass instead of
    ``O(T * |M|)`` resident history.

    The stream trusts its callers to feed the same slot sequence in order
    (``run_online`` over one :class:`~repro.online.base.SlotContext` guarantees
    this); a stream must not be shared between different instances or between
    differently-scaled slot sequences (e.g. Algorithm C's sub-slot stream).
    """

    def __init__(self, gamma: Optional[float] = None, checkpoint_every: Optional[int] = None):
        if gamma is not None and gamma <= 1.0:
            raise ValueError("gamma must be > 1 when given")
        if checkpoint_every is not None and int(checkpoint_every) < 1:
            raise ValueError("checkpoint_every must be a positive integer when given")
        self.gamma = gamma
        self.checkpoint_every = None if checkpoint_every is None else int(checkpoint_every)
        self._steps = 0
        self._grids: list = []
        self._values: list = []  # full history (checkpoint_every is None)
        self._slots: list = []  # SlotInfo refs for window rematerialisation
        self._checkpoints: dict = {}  # step -> tensor (checkpointed mode)
        self._last_value: Optional[np.ndarray] = None
        self._window: dict = {}  # last rematerialised window, step -> tensor
        self._grid_cache: dict = {}

    def __len__(self) -> int:
        return self._steps

    @property
    def grids(self) -> tuple:
        """Per-step grids computed so far."""
        return tuple(self._grids)

    @property
    def values(self) -> tuple:
        """Per-step (read-only) value tensors computed so far.

        ``values[t]`` equals the forward-DP tensor ``V_t`` of
        :func:`repro.offline.dp.solve_dp` on the same grids, which is what lets
        the sweep engine reuse the stream for the offline optimum and its
        backward pass.  Only available with the full history; a checkpointed
        stream exposes :meth:`value_at` and :meth:`backtrack` instead —
        materialising every tensor at once is exactly what it exists to avoid.
        """
        if self.checkpoint_every is not None:
            raise RuntimeError(
                "a checkpointed SharedValueStream keeps O(sqrt(T)) tensors; "
                "use value_at(step) / backtrack(beta) instead of .values"
            )
        return tuple(self._values)

    def value_at(self, step: int) -> np.ndarray:
        """The value tensor ``V_step``, rematerialising its window if needed."""
        if not 0 <= step < self._steps:
            raise IndexError(f"step {step} outside the computed range 0..{self._steps - 1}")
        if self.checkpoint_every is None:
            return self._values[step]
        if step == self._steps - 1:
            return self._last_value
        hit = self._checkpoints.get(step)
        if hit is None:
            hit = self._window.get(step)
        if hit is None:
            k = self.checkpoint_every
            self._rematerialise((step // k) * k)
            hit = self._window[step]
        return hit

    def at(self, step: int, slot: SlotInfo) -> tuple:
        """``(grid, value tensor)`` after observing ``slot`` as step ``step``.

        Previously-computed steps are replayed from the memo (or rematerialised
        from the nearest checkpoint); the next new step extends the stream.
        Requesting a step beyond the frontier means the caller skipped slots
        and is an error.
        """
        if step < self._steps:
            return self._grids[step], self.value_at(step)
        if step != self._steps:
            raise IndexError(
                f"stream is at step {self._steps} but step {step} was requested"
            )
        grid = self._build_grid(slot.counts)
        g_tensor = slot.grid_operating_cost(grid)
        if not np.any(np.isfinite(g_tensor)):
            raise ValueError(
                f"slot {slot.t}: no grid configuration can serve demand {slot.demand:g}"
            )
        if step == 0:
            arrival = startup_cost_tensor(grid.values, slot.beta)
        else:
            prev = self._values[step - 1] if self.checkpoint_every is None else self._last_value
            arrival = transition(prev, self._grids[step - 1].values, grid.values, slot.beta)
        value = np.add(arrival, g_tensor, out=arrival)
        value.setflags(write=False)
        self._grids.append(grid)
        if self.checkpoint_every is None:
            self._values.append(value)
        else:
            self._slots.append(slot)
            if step % self.checkpoint_every == 0:
                self._checkpoints[step] = value
            self._last_value = value
        self._steps += 1
        return grid, value

    def backtrack(self, beta: np.ndarray) -> np.ndarray:
        """Optimal configuration path over all observed steps (backward pass).

        Full-history streams hand their tensors straight to
        :func:`repro.offline.dp.backtrack_schedule`; checkpointed streams walk
        the same argmin chain window by window, rematerialising each window's
        tensors from its checkpoint — the sweep engine's offline-optimum path
        at ``O(sqrt(T) * |M|)`` memory.
        """
        beta = np.asarray(beta, dtype=float)
        if self.checkpoint_every is None:
            return backtrack_schedule(self._grids, self._values, beta)
        grids = tuple(self._grids)
        return _backtrack_windowed(
            grids,
            beta,
            self._steps,
            self.checkpoint_every,
            lambda c, e: self._rematerialise(c),
        )

    def _rematerialise(self, c: int) -> list:
        """Recompute (and cache) the tensors of the window starting at ``c``."""
        k = self.checkpoint_every
        e = min(c + k, self._steps) - 1
        value = self._checkpoints[c]
        window = {c: value}
        for t in range(c + 1, e + 1):
            grid = self._grids[t]
            slot = self._slots[t]
            g_tensor = slot.grid_operating_cost(grid)
            arrival = transition(value, self._grids[t - 1].values, grid.values, slot.beta)
            value = np.add(arrival, g_tensor, out=arrival)
            value.setflags(write=False)
            window[t] = value
        self._window = window
        return [window[t] for t in range(c, e + 1)]

    def _build_grid(self, counts: np.ndarray) -> StateGrid:
        key = tuple(int(c) for c in counts)
        grid = self._grid_cache.get(key)
        if grid is None:
            if self.gamma is None:
                grid = StateGrid.full(counts)
            else:
                grid = StateGrid.geometric(counts, self.gamma)
            self._grid_cache[key] = grid
        return grid


class SharedTrackerFactory:
    """Hands out trackers that share one memoised value stream per ``gamma``.

    One factory serves one instance sweep: Algorithms A, B and LCP then
    maintain a *single* prefix-DP value stream between them instead of three
    independent ones.  (Algorithm C's inner tracker observes scaled
    sub-slots and must keep a private stream — give it a plain
    :class:`DPPrefixTracker`.)  ``checkpoint_every`` puts every stream the
    factory creates into the checkpointed ``O(sqrt(T))``-memory mode.
    """

    def __init__(self, checkpoint_every: Optional[int] = None):
        self.checkpoint_every = checkpoint_every
        self._streams: dict = {}

    def stream(self, gamma: Optional[float] = None) -> SharedValueStream:
        key = None if gamma is None else float(gamma)
        stream = self._streams.get(key)
        if stream is None:
            stream = SharedValueStream(gamma=gamma, checkpoint_every=self.checkpoint_every)
            self._streams[key] = stream
        return stream

    def tracker(self, gamma: Optional[float] = None) -> "DPPrefixTracker":
        return DPPrefixTracker(gamma=gamma, stream=self.stream(gamma))


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
    stream:
        Optional :class:`SharedValueStream`.  When given, the tracker replays
        (and lazily extends) the shared memoised value stream instead of
        maintaining a private one — the cross-run tensor-reuse path of the
        sweep engine.  Use :class:`SharedTrackerFactory` to construct matching
        trackers.
    """

    def __init__(
        self,
        gamma: Optional[float] = None,
        stream: Optional[SharedValueStream] = None,
    ):
        if stream is not None:
            if gamma is None:
                gamma = stream.gamma
            elif stream.gamma is None or float(gamma) != float(stream.gamma):
                raise ValueError("gamma does not match the shared value stream")
        if gamma is not None and gamma <= 1.0:
            raise ValueError("gamma must be > 1 when given")
        self.gamma = gamma
        self._stream = stream
        self._value: Optional[np.ndarray] = None
        self._grid: Optional[StateGrid] = None
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
        # key build; ids of cost tensors already past the finiteness check
        # (value holds the tensor so the id cannot be recycled while mapped);
        # and a preplanned in-place transition for the unchanged-grid case.
        self._counts_obj: Optional[np.ndarray] = None
        self._counts_grid: Optional[StateGrid] = None
        self._counts_tuple: Optional[tuple] = None
        self._finite_seen: dict = {}
        self._plan = None
        self._plan_key: Optional[tuple] = None

    # -------------------------------------------------------------- interface
    def reset(self) -> None:
        self._value = None
        self._grid = None
        self._grid_counts = None
        self._steps = 0

    def observe(self, slot: SlotInfo) -> np.ndarray:
        if self._stream is not None:
            self._grid, self._value = self._stream.at(self._steps, slot)
            self._steps += 1
            return self.argmin("smallest")
        counts = slot.counts
        if counts is self._counts_obj:
            grid = self._counts_grid
        else:
            grid = self._build_grid(counts)
            self._counts_obj = counts
            self._counts_grid = grid
            self._counts_tuple = tuple(int(c) for c in counts)
        g_tensor = slot.grid_operating_cost(grid)
        # Memoised tensors (the serve cache and SlotContext both hand back one
        # shared read-only object per slot signature) only need the finiteness
        # scan once; fresh tensors always miss and are checked.
        if id(g_tensor) not in self._finite_seen:
            if not np.any(np.isfinite(g_tensor)):
                raise ValueError(
                    f"slot {slot.t}: no grid configuration can serve demand {slot.demand:g}"
                )
            if len(self._finite_seen) >= 512:
                self._finite_seen.clear()
            self._finite_seen[id(g_tensor)] = g_tensor
        if self._value is None:
            arrival = startup_cost_tensor(grid.values, slot.beta)
        else:
            arrival = None
            if self._grid is grid:
                arrival = self._planned_transition(grid, slot.beta)
            if arrival is None:
                arrival = transition(self._value, self._grid.values, grid.values, slot.beta)
        # arrival is freshly allocated each step (or a plan-owned buffer that
        # becomes this step's value) — accumulate in place
        self._value = np.add(arrival, g_tensor, out=arrival)
        self._grid = grid
        self._grid_counts = self._counts_tuple
        self._steps += 1
        return self.argmin("smallest")

    def _planned_transition(self, grid: StateGrid, beta: np.ndarray) -> Optional[np.ndarray]:
        """Apply the cached same-grid :class:`TransitionPlan`, or ``None``.

        The plan's preallocated kernels are bit-identical to
        :func:`~repro.offline.transitions.transition`; feeding the plan's own
        previous output back as input is explicitly supported (see the plan's
        aliasing contract), which is exactly the tracker's steady-state loop.
        Any mismatch — an unexpected shape, a grid whose relax steps cannot be
        planned — falls back to the generic path.
        """
        value = self._value
        if value.shape != grid.shape:
            return None
        plan = self._plan_for(grid, beta)
        if plan is None:
            return None
        return plan.apply(value)

    def _plan_for(self, grid: StateGrid, beta: np.ndarray):
        """The cached same-grid :class:`TransitionPlan` (``None`` if unplannable)."""
        key = (id(grid), beta.tobytes())
        if key != self._plan_key:
            self._plan_key = key
            self._plan = make_transition_plan(grid.values, grid.values, beta)
        return self._plan

    def argmin(self, tie_break: str) -> np.ndarray:
        """The ``tie_break`` optimal last configuration of the current ``V_t``."""
        if tie_break not in ("smallest", "largest"):
            raise ValueError("tie_break must be 'smallest' or 'largest'")
        config, self._scratch = argmin_config(self._value, self._grid, tie_break, self._scratch)
        return config

    def grid(self, counts: np.ndarray) -> StateGrid:
        """The (cached) grid :meth:`observe` reads its ``g_t`` tensor on at ``counts``."""
        return self._build_grid(counts)

    def holds(self, counts: tuple) -> bool:
        """Whether the tracker holds a ``V_t`` on the grid of the ``counts`` tuple."""
        return self._value is not None and self._grid_counts == counts

    def prefix_optimum_cost(self) -> float:
        if self._value is None:
            return 0.0
        return float(np.min(self._value))

    # -------------------------------------------------------- checkpointing
    def state_dict(self) -> dict:
        """JSON-safe snapshot: step count, current value tensor and grid counts.

        Python floats are doubles, so finite values round-trip exactly and a
        restored tracker continues the incremental DP bit-identically; the
        ``+inf`` entries of infeasible configurations are encoded as ``None``
        to stay strictly JSON-compliant.  Trackers backed by a
        :class:`SharedValueStream` are sweep-engine internals and are
        deliberately not checkpointable — the serve layer gives every session
        a private tracker.
        """
        if self._stream is not None:
            raise RuntimeError(
                "a tracker backed by a SharedValueStream is not checkpointable; "
                "use a private DPPrefixTracker for serve sessions"
            )
        if self._value is None:
            value = None
        else:
            value = [
                None if np.isinf(v) else float(v) for v in self._value.reshape(-1)
            ]
        return {
            "steps": int(self._steps),
            "value": value,
            "counts": None if self._grid_counts is None else list(self._grid_counts),
        }

    def load_state_dict(self, state: dict) -> None:
        if self._stream is not None:
            raise RuntimeError("cannot restore state into a shared-stream tracker")
        self._steps = int(state["steps"])
        if state["value"] is None:
            self._value = None
            self._grid = None
            self._grid_counts = None
        else:
            counts = np.asarray(state["counts"], dtype=int)
            self._grid = self._build_grid(counts)
            self._grid_counts = tuple(int(c) for c in counts)
            flat = np.array(
                [np.inf if v is None else v for v in state["value"]], dtype=float
            )
            self._value = flat.reshape(self._grid.shape)

    # -------------------------------------------------------------- internals
    def _build_grid(self, counts: np.ndarray) -> StateGrid:
        key = tuple(int(c) for c in counts)
        grid = self._grid_cache.get(key)
        if grid is None:
            if self.gamma is None:
                grid = StateGrid.full(counts)
            else:
                grid = StateGrid.geometric(counts, self.gamma)
            self._grid_cache[key] = grid
        return grid


def stackable(tracker: PrefixOptimumTracker) -> bool:
    """Whether :func:`observe_stacked` may advance ``tracker``.

    Only a private exact :class:`DPPrefixTracker` (the class itself, full
    grids, its own value tensor) qualifies; subclasses, ``gamma``-reduced
    and shared-stream trackers advance through their own
    :meth:`~DPPrefixTracker.observe`.
    """
    return (
        type(tracker) is DPPrefixTracker
        and tracker.gamma is None
        and tracker._stream is None
    )


def observe_stacked(
    trackers: Sequence[DPPrefixTracker],
    costs: np.ndarray,
    beta: np.ndarray,
    tie_breaks: Sequence[str] = ("smallest",),
) -> tuple:
    """Advance :func:`stackable` trackers on one grid by one slot, stacked.

    Every tracker must :meth:`~DPPrefixTracker.holds` a ``V_{t-1}`` on the
    slot's grid; ``costs`` is the ``(k, *grid.shape)`` stack of the slot's
    operating-cost tensors ``g_t``, row ``i`` for ``trackers[i]``.  The
    ``V_{t-1}`` are stacked into one tensor, advanced by one min-plus
    transition over the lane axis and accumulated with ``costs``; row ``i``
    is installed as ``trackers[i]``'s ``V_t``.  Every lane runs
    :meth:`~DPPrefixTracker.observe`'s ufunc sequence, so the installed
    tensors and the returned configurations are bit-identical to ``k``
    sequential ``observe`` calls.

    Returns one ``(k, d)`` array per entry of ``tie_breaks``: row ``i`` is
    ``trackers[i].argmin(tie_break)`` after the step.
    """
    lead = trackers[0]
    grid = lead._grid
    values = np.stack([tracker._value for tracker in trackers])
    arrival = lead._plan_for(grid, beta).apply_lanes(values)
    value = np.add(arrival, costs, out=arrival)
    for tracker, row in zip(trackers, value):
        tracker._value = row
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
