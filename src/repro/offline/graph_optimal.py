"""Optimal offline algorithm (Section 4.1).

The optimal schedule of an instance is a shortest path in the layered graph
``G(I)``: one vertex pair ``(v_up, v_down)`` per time slot and configuration,
an operating-cost edge ``g_t(x)`` between them, power-up edges of weight
``beta_j`` and power-down edges of weight 0 inside a layer, and zero-cost edges
to the next slot.  The DP engine of :mod:`repro.offline.dp` evaluates exactly
this graph with full per-slot grids, in ``O(T * d * prod_j (m_j + 1))`` time —
the runtime stated in the paper (Figure 4 visualises the graph for
``d = 2, T = 2, m = (2, 1)``).

Besides the plain solver this module exposes an explicit ``networkx``
construction of ``G(I)`` (:func:`build_graph`).  It is exponentially more
expensive than the vectorised DP and exists for two purposes: it reproduces
Figure 4 literally, and it provides an independent shortest-path cross-check
used by the test suite.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..core.instance import ProblemInstance
from ..core.schedule import Schedule
from ..dispatch.allocation import DispatchSolver
from .dp import OfflineResult, operating_cost_tensors, solve_dp
from .state_grid import slot_grids

__all__ = ["solve_optimal", "optimal_cost", "build_graph", "shortest_path_schedule"]


def solve_optimal(
    instance: ProblemInstance,
    dispatcher: Optional[DispatchSolver] = None,
    keep_tables: bool = False,
    return_schedule: bool = True,
    checkpoint_every: Optional[int] = None,
) -> OfflineResult:
    """Compute an optimal schedule for ``instance`` (discrete/integral setting).

    Runtime is proportional to ``T * prod_j (m_{t,j} + 1)``; for large fleets
    use :func:`repro.offline.graph_approx.solve_approx` instead.  Memory is
    ``O(sqrt(T) * prod_j (m_{t,j} + 1))``: long horizons stream the value pass
    with checkpointed backtracking (see :func:`repro.offline.dp.solve_dp` for
    ``checkpoint_every`` tuning; ``keep_tables=True`` forces
    the classic all-tables pass).
    """
    return solve_dp(
        instance,
        gamma=None,
        dispatcher=dispatcher,
        keep_tables=keep_tables,
        return_schedule=return_schedule,
        checkpoint_every=checkpoint_every,
    )


def optimal_cost(instance: ProblemInstance, dispatcher: Optional[DispatchSolver] = None) -> float:
    """Optimal total cost ``C(X^*)`` without reconstructing the schedule."""
    return solve_optimal(instance, dispatcher=dispatcher, return_schedule=False).cost


# --------------------------------------------------------------------------- #
# Explicit graph construction (Figure 4)
# --------------------------------------------------------------------------- #


def build_graph(instance: ProblemInstance, dispatcher: Optional[DispatchSolver] = None):
    """Build the explicit graph ``G(I)`` of Section 4.1 as a ``networkx.DiGraph``.

    Vertices are tuples ``(t, 'up'|'down', x)`` with ``x`` the configuration
    tuple, plus the artificial ``source`` (= ``(0, 'up', 0-vector)``) and
    ``target`` (= ``(T-1, 'down', 0-vector)``) used by the shortest-path query.
    Edge weights follow the paper exactly:

    * ``(t, up, x) -> (t, down, x)`` with weight ``g_t(x)`` (operating cost),
    * ``(t, up, x) -> (t, up, x + e_j)`` with weight ``beta_j`` (power-up),
    * ``(t, down, x + e_j) -> (t, down, x)`` with weight 0 (power-down),
    * ``(t, down, x) -> (t+1, up, x)`` with weight 0 (next slot).

    Only intended for small instances (the vertex count is
    ``2 T prod_j (m_j + 1)``).
    """
    import networkx as nx

    dispatcher = dispatcher or DispatchSolver(instance)
    graph = nx.DiGraph()
    T = instance.T
    grids = slot_grids(instance)
    # one batched dispatch per distinct grid instead of one per slot; the
    # flattened tensor rows are in configs() order (C order, see StateGrid)
    g_tensors = operating_cost_tensors(instance, grids, dispatcher)
    for t in range(T):
        grid = grids[t]
        configs = grid.configs()
        costs = g_tensors[t].reshape(-1)
        counts = instance.counts_at(t)
        for config, cost in zip(configs, costs):
            x = tuple(int(v) for v in config)
            graph.add_edge((t, "up", x), (t, "down", x), weight=float(cost))
            for j in range(instance.d):
                if x[j] < counts[j]:
                    x_up = tuple(v + 1 if k == j else v for k, v in enumerate(x))
                    graph.add_edge((t, "up", x), (t, "up", x_up), weight=float(instance.beta[j]))
                    graph.add_edge((t, "down", x_up), (t, "down", x), weight=0.0)
            if t + 1 < T:
                next_counts = instance.counts_at(t + 1)
                if all(x[j] <= next_counts[j] for j in range(instance.d)):
                    graph.add_edge((t, "down", x), (t + 1, "up", x), weight=0.0)
    return graph


def shortest_path_schedule(
    instance: ProblemInstance,
    dispatcher: Optional[DispatchSolver] = None,
) -> Tuple[Schedule, float]:
    """Solve the instance by an explicit shortest-path query on ``G(I)``.

    This mirrors the paper's description verbatim and serves as an independent
    cross-check of the vectorised DP.  Only use it on small instances.
    """
    import networkx as nx

    graph = build_graph(instance, dispatcher)
    zero = tuple(0 for _ in range(instance.d))
    source = (0, "up", zero)
    target = (instance.T - 1, "down", zero)
    cost, path = nx.single_source_dijkstra(graph, source, target, weight="weight")
    configs = np.zeros((instance.T, instance.d), dtype=int)
    for node in path:
        t, kind, x = node
        if kind == "down":
            configs[t] = np.array(x, dtype=int)
        elif kind == "up":
            # the configuration of a slot is the one used on its operating edge;
            # it is recorded when the 'down' copy of the same slot is visited.
            pass
    # The path's 'down' vertices descend to the zero vector inside a layer; the
    # configuration actually used in slot t is the first 'down' vertex visited
    # in that layer (the endpoint of the operating edge).
    seen = set()
    for node_from, node_to in zip(path, path[1:]):
        t_from, kind_from, x_from = node_from
        t_to, kind_to, x_to = node_to
        if kind_from == "up" and kind_to == "down" and t_from == t_to and x_from == x_to:
            configs[t_from] = np.array(x_from, dtype=int)
            seen.add(t_from)
    if len(seen) != instance.T:
        raise RuntimeError("shortest path did not traverse an operating edge in every slot")
    return Schedule(configs), float(cost)
