"""Quantised solution tables: demand-level x configuration dispatch lookups.

Streams produced by ``quantise_trace``-style binning draw their demands from a
small alphabet (the serve bench uses 12 levels).  Every dispatch quantity a
steady-state tick needs — the operating-cost tensor over a state grid, the
per-configuration cost and loads of the chosen config — is then a pure
function of ``(demand level, configuration set, cost row)``, so it can be
precomputed once per ``(fleet signature, cost row)`` pair and served as a
table gather with zero dispatch solves on the tick path.

A :class:`SolutionTable` is deliberately dumb storage: whoever builds it
(:meth:`ServeCache.prewarm <repro.serve.session.ServeCache.prewarm>` for the
serve layer, :meth:`SlotContext.solution_table
<repro.online.base.SlotContext.solution_table>` for the sweep engine) must
produce the rows **through the exact code path the cold tick would take**, so
a table hit is bit-identical to a table miss by construction — the serve
replay gates compare schedules with ``np.array_equal``, not a tolerance.
Demand levels are matched exactly (binned streams reproduce the same float64
values); an unknown demand simply misses and falls through to the solver.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

__all__ = ["SolutionTable"]


class SolutionTable:
    """Immutable demand-level x configuration dispatch table.

    Parameters
    ----------
    levels:
        The demand alphabet, shape ``(L,)``.  Duplicates are collapsed (last
        entry wins); order does not matter — lookups go through an exact-match
        dict, not interpolation.
    configs:
        The configuration set the rows were solved over, shape ``(n, d)``.
    costs:
        Operating costs ``g(level, config)``, shape ``(L, n)``, ``inf`` for
        infeasible entries.
    loads:
        Optimal per-type volumes, shape ``(L, n, d)``.
    """

    __slots__ = ("levels", "configs", "costs", "loads", "_index")

    def __init__(
        self,
        levels: Sequence[float],
        configs: np.ndarray,
        costs: np.ndarray,
        loads: np.ndarray,
    ):
        levels_arr = np.asarray(levels, dtype=float)
        configs = np.asarray(configs)
        costs = np.asarray(costs, dtype=float)
        loads = np.asarray(loads, dtype=float)
        L = len(levels_arr)
        if costs.shape != (L, len(configs)):
            raise ValueError(
                f"costs must have shape ({L}, {len(configs)}), got {costs.shape}"
            )
        if loads.shape != (L, len(configs), configs.shape[1]):
            raise ValueError(
                f"loads must have shape ({L}, {len(configs)}, {configs.shape[1]}), "
                f"got {loads.shape}"
            )
        self.levels = levels_arr
        self.configs = configs
        self.costs = costs
        self.loads = loads
        for arr in (self.levels, self.costs, self.loads):
            arr.setflags(write=False)
        self._index: Dict[float, int] = {float(v): i for i, v in enumerate(levels_arr)}

    # ------------------------------------------------------------------ reads
    def __len__(self) -> int:
        return len(self.levels)

    def __contains__(self, demand: float) -> bool:
        return float(demand) in self._index

    def row(self, demand: float) -> Optional[int]:
        """Row index of an exactly-matching demand level, or ``None``."""
        return self._index.get(float(demand))

    def costs_for(self, demand: float) -> Optional[np.ndarray]:
        """The ``(n,)`` cost row for ``demand`` (``None`` on a table miss)."""
        i = self._index.get(float(demand))
        return None if i is None else self.costs[i]

    def loads_for(self, demand: float) -> Optional[np.ndarray]:
        """The ``(n, d)`` load block for ``demand`` (``None`` on a table miss)."""
        i = self._index.get(float(demand))
        return None if i is None else self.loads[i]

    def entry(self, demand: float, config_idx: int) -> Optional[tuple]:
        """``(cost, loads)`` of one configuration, or ``None`` on a miss."""
        i = self._index.get(float(demand))
        if i is None:
            return None
        return float(self.costs[i, config_idx]), self.loads[i, config_idx]

    def gather(self, demands: Sequence[float]) -> tuple:
        """Vectorised multi-demand lookup: one gather for a whole cohort.

        Maps a ``(k,)`` demand vector onto table rows in one pass and returns
        ``(rows, miss_mask)`` — ``rows`` is the ``(k,)`` int row-index array
        (entries for missing levels are 0 and must be ignored under the mask),
        ``miss_mask`` the ``(k,)`` boolean mask of demands absent from the
        table.  The caller fans the hits into ``self.costs[rows]`` /
        ``self.loads[rows]`` fancy-indexing (one NumPy gather for the cohort)
        and routes the misses down the per-tenant solver path.  Exact float
        matching, like every other lookup here — binned streams reproduce the
        same float64 level values bit for bit.
        """
        demands = np.asarray(demands, dtype=float)
        index = self._index
        rows = np.zeros(demands.shape, dtype=np.intp)
        miss = np.zeros(demands.shape, dtype=bool)
        flat_rows = rows.ravel()
        flat_miss = miss.ravel()
        for j, value in enumerate(demands.ravel().tolist()):
            i = index.get(value)
            if i is None:
                flat_miss[j] = True
            else:
                flat_rows[j] = i
        return rows, miss
