"""Block decomposition used in the competitive analysis (Figure 2).

The analysis of Algorithms A and B charges the switching and idle operating
cost of the online schedule per *block*: a block ``A_{j,i} = [s_{j,i}, e_{j,i}]``
is the interval of slots during which one particular powered-up server of type
``j`` stays active.  For Algorithm A every block has length exactly
``\\bar t_j = ceil(beta_j / f_j(0))``; for Algorithm B the length depends on the
power-up slot (``\\bar t_{t,j}``).

*Special time slots* ``tau_{j,1} < ... < tau_{j,n'_j}`` are constructed in
reverse: ``tau_{j,n'_j}`` is the last power-up slot, and given ``tau_{j,k}``
the previous one is the latest power-up whose block ends strictly before
``tau_{j,k}``.  This guarantees that every block contains exactly one special
slot, which partitions the blocks into the index sets
``B_{j,k} = { i : tau_{j,k} in A_{j,i} }`` used in Lemmas 7 and 12.

These helpers reproduce Figure 2's decomposition and are exercised by the
benchmark ``bench_fig2_blocks.py`` and by the property-based tests (every
block contains exactly one special slot; consecutive special slots of
Algorithm A are at least ``\\bar t_j`` apart).

The readers below turn a run's :class:`~repro.online.base.Decision` records
(:attr:`~repro.online.base.OnlineRunResult.decisions`) into the analysis's
series: ``w_t``, ``\\hat x^t_t``, A's blocks, and B's sets ``W_t`` and blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

__all__ = [
    "Block", "special_slots", "block_index_sets", "blocks_from_power_ups",
    "power_up_log", "prefix_optima", "fixed_runtime_blocks", "retirement_sets", "retirement_blocks",
]


@dataclass(frozen=True)
class Block:
    """One activity interval ``[start, end]`` (inclusive) of a powered-up server."""

    start: int
    end: int

    def __post_init__(self):
        if self.end < self.start:
            raise ValueError(f"block end {self.end} before start {self.start}")

    def __contains__(self, slot: int) -> bool:
        return self.start <= slot <= self.end

    @property
    def length(self) -> int:
        return self.end - self.start + 1


def blocks_from_power_ups(
    power_up_slots: Sequence[int],
    runtimes: Sequence[int],
    horizon: int | None = None,
) -> List[Block]:
    """Build the block list from power-up slots and per-block runtimes.

    ``runtimes[i]`` is the number of slots the ``i``-th powered-up server stays
    active *including* its power-up slot; ``horizon`` (the number of slots ``T``)
    clips blocks that would extend past the end of the workload.
    """
    if len(power_up_slots) != len(runtimes):
        raise ValueError("power_up_slots and runtimes must have the same length")
    blocks = []
    for s, r in zip(power_up_slots, runtimes):
        if r < 1:
            raise ValueError("runtimes must be at least 1 slot")
        end = s + int(r) - 1
        if horizon is not None:
            end = min(end, horizon - 1)
        blocks.append(Block(start=int(s), end=int(end)))
    return sorted(blocks, key=lambda b: (b.start, b.end))


def power_up_log(decisions: Sequence) -> np.ndarray:
    """``(T, d)`` array ``w_{t,j}`` of the servers powered up in every slot (A, B)."""
    return np.stack([record.power_ups for record in decisions])


def prefix_optima(decisions: Sequence) -> np.ndarray:
    """``(T, d)`` array of the prefix optima ``\\hat x^t_t`` observed in every slot (A, B)."""
    return np.stack([record.xhat for record in decisions])


def fixed_runtime_blocks(
    decisions: Sequence, j: int, runtime: float, horizon: Optional[int] = None
) -> List[Block]:
    """Algorithm A's blocks ``A_{j,i}`` of server type ``j``.

    One block per powered-up server, of length exactly ``runtime``
    (``\\bar t_j``, see :attr:`~repro.online.algorithm_a.AlgorithmA.runtimes`;
    an infinite runtime runs to the horizon), clipped to ``horizon``.  Used
    to reproduce Figures 1 and 2 and by the tests of Lemma 6/7's premises.
    """
    if not math.isfinite(runtime):
        runtime = len(decisions) if horizon is None else horizon
    slots = [t for t, record in enumerate(decisions) for _ in range(int(record.power_ups[j]))]
    return blocks_from_power_ups(slots, [int(runtime)] * len(slots), horizon=horizon)


def retirement_sets(decisions: Sequence, j: int) -> List[List[int]]:
    """Algorithm B's sets ``W_t`` of server type ``j``, indexed by slot ``t``.

    ``W_t`` holds the power-up slots whose servers B shut down when it
    processed slot ``t`` (Figure 3), laid out like
    :func:`~repro.online.algorithm_b.compute_retirement_sets`.
    """
    return [[slot for k, slot in record.retired if k == j] for record in decisions]


def retirement_blocks(decisions: Sequence, j: int) -> List[Block]:
    """Algorithm B's blocks ``A_{j,i}`` of server type ``j``.

    One block per power-up event (``k`` servers powered up at once share
    one interval), from its slot to the slot before the one that retired it,
    or to the last slot for servers still running at the end of the run.
    """
    retired_at = {}
    for t, slots in enumerate(retirement_sets(decisions, j)):
        for slot in slots:
            retired_at[slot] = t
    return [
        Block(start=s, end=retired_at.get(s, len(decisions)) - 1)
        for s, record in enumerate(decisions)
        if record.power_ups[j] > 0
    ]


def special_slots(blocks: Sequence[Block]) -> List[int]:
    """The special time slots ``tau_{j,1} < ... < tau_{j,n'_j}`` of a block list.

    Constructed in reverse exactly as in the paper: start from the last
    power-up slot, then repeatedly jump to the latest power-up whose block ends
    strictly before the current special slot.
    """
    if not blocks:
        return []
    ordered = sorted(blocks, key=lambda b: (b.start, b.end))
    taus = [ordered[-1].start]
    while True:
        current = taus[-1]
        candidates = [b.start for b in ordered if b.end < current]
        if not candidates:
            break
        taus.append(max(candidates))
    return sorted(taus)


def block_index_sets(blocks: Sequence[Block]) -> List[List[int]]:
    """The index sets ``B_{j,k}`` = blocks containing the ``k``-th special slot.

    Returns one list of (0-based) block indices per special slot, in the order
    of the sorted block list.  The analysis relies on these sets forming a
    partition of all blocks — :func:`verify_partition` checks this and is used
    by the test suite.
    """
    ordered = sorted(blocks, key=lambda b: (b.start, b.end))
    taus = special_slots(ordered)
    return [[i for i, b in enumerate(ordered) if tau in b] for tau in taus]


def verify_partition(blocks: Sequence[Block]) -> bool:
    """Check that every block contains exactly one special slot (Lemma 7's premise)."""
    ordered = sorted(blocks, key=lambda b: (b.start, b.end))
    taus = special_slots(ordered)
    counts = np.zeros(len(ordered), dtype=int)
    for tau in taus:
        for i, b in enumerate(ordered):
            if tau in b:
                counts[i] += 1
    return bool(np.all(counts == 1))
