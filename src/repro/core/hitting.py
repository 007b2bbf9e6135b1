"""Random-walk hitting times (related-work baseline [10, 21]).

The hitting time ``h(u, v)`` is the expected number of steps a random walk
starting at ``u`` needs to first reach ``v``.  The paper's related-work
section lists hitting-time measures as the other major family of
random-walk relatedness scores; having them in the library lets the
examples contrast degree-sensitive PageRank scores with a path-based
measure on the same graphs.

Computed exactly by solving the linear system

.. math::

    h(u) = 1 + \\sum_{w} P(u, w)\\, h(w), \\qquad h(v) = 0

restricted to the nodes that can actually reach ``v`` (others get ``inf``).

The transition and its solver views come from the graph's cached
:class:`~repro.linalg.operator.LinearOperatorBundle`, so repeated queries
(and both directions of :func:`commute_time`) share one export; the
reachability pass runs as a C-level BFS on the bundle's cached transpose.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse import linalg as sparse_linalg

from repro.core.engine import RankQuery
from repro.graph.base import BaseGraph, Node
from repro.linalg.operator import LinearOperatorBundle

__all__ = ["hitting_times", "commute_time"]


def _walk(graph: BaseGraph, weighted: bool) -> LinearOperatorBundle:
    """The conventional walk's bundle: the registry's pagerank operator."""
    from repro.methods import operator_for

    return operator_for(
        graph, RankQuery(method="pagerank", weighted=weighted).group_key
    )


def _reachers(bundle: LinearOperatorBundle, target: int) -> np.ndarray:
    """Boolean mask of nodes with a directed path *to* ``target``.

    A breadth-first order over the bundle's cached transpose (edges
    reversed) enumerates exactly the nodes that can reach ``target``; the
    traversal is ``scipy.sparse.csgraph``'s C implementation instead of a
    Python stack loop, and the transpose is derived once per graph version
    instead of per call.
    """
    order = csgraph.breadth_first_order(
        bundle.t_csr, target, directed=True, return_predecessors=False
    )
    seen = np.zeros(bundle.n, dtype=bool)
    seen[order] = True
    return seen


def _hitting_times_for(
    graph: BaseGraph, bundle: LinearOperatorBundle, target: Node
) -> dict[Node, float]:
    """Hitting times to ``target`` computed from a shared bundle."""
    transition = bundle.mat
    t_idx = graph.index_of(target)
    n = bundle.n

    reachable = _reachers(bundle, t_idx)
    nodes = graph.nodes()
    times = {node: float("inf") for node in nodes}
    times[target] = 0.0

    keep = np.flatnonzero(reachable & (np.arange(n) != t_idx))
    if keep.size == 0:
        return times

    # Restrict the system to reaching nodes; transitions leaving the
    # reaching set (or into the target) drop out of the matrix but their
    # probability mass correctly contributes nothing to the recurrence.
    sub = transition[keep][:, keep]
    system = sparse.identity(keep.size, format="csc") - sub.tocsc()
    rhs = np.ones(keep.size)
    solution = sparse_linalg.spsolve(system, rhs)
    solution = np.atleast_1d(np.asarray(solution, dtype=np.float64))
    for local, global_idx in enumerate(keep):
        times[nodes[int(global_idx)]] = float(solution[local])
    return times


def hitting_times(
    graph: BaseGraph,
    target: Node,
    *,
    weighted: bool = False,
) -> dict[Node, float]:
    """Expected steps from every node to ``target`` under the uniform walk.

    Nodes that cannot reach ``target`` get ``float('inf')``; the target
    itself gets ``0.0``.

    Examples
    --------
    >>> from repro.graph import Graph
    >>> g = Graph.from_edges([("a", "b"), ("b", "c")])
    >>> times = hitting_times(g, "a")
    >>> times["a"]
    0.0
    >>> times["b"] < times["c"]
    True
    """
    return _hitting_times_for(graph, _walk(graph, weighted), target)


def commute_time(
    graph: BaseGraph,
    u: Node,
    v: Node,
    *,
    weighted: bool = False,
) -> float:
    """Round-trip expected steps ``h(u, v) + h(v, u)``.

    The symmetric relatedness measure used by hitting-time clustering
    methods; ``inf`` when either direction is unreachable.  Both directions
    are served by one shared transition export/bundle — the walk operator
    does not depend on the endpoints, only the restriction does.
    """
    bundle = _walk(graph, weighted)
    forward = _hitting_times_for(graph, bundle, v)[u]
    backward = _hitting_times_for(graph, bundle, u)[v]
    return forward + backward
