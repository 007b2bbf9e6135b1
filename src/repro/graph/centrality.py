"""Classical centrality measures.

The paper's introduction (§1) situates PageRank among other topology-based
significance measures: *betweenness* [27] quantifies whether deleting a
node would disrupt the graph, *centrality/cohesion* [5] quantifies how
close a node's neighbourhood is to a clique, and eigen/random-walk methods
measure reachability.  These are implemented here both as baselines for
the extension experiments (how well does each track application
significance compared to tuned D2PR?) and as general-purpose graph tools.

* :func:`betweenness_centrality` — Brandes' exact algorithm, O(V·E) for
  unweighted graphs.
* :func:`closeness_centrality` — Wasserman-Faust normalised closeness via
  per-node BFS.
* :func:`clustering_coefficient` — local clustering (the cohesion measure:
  1.0 means the neighbourhood is a clique).
* :func:`harmonic_centrality` — the disconnected-robust variant of
  closeness.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.graph.base import BaseGraph, Graph

__all__ = [
    "betweenness_centrality",
    "closeness_centrality",
    "harmonic_centrality",
    "clustering_coefficient",
]


def _csr_lists(graph: BaseGraph) -> tuple[list[int], list[int]]:
    """``(indptr, indices)`` of the unweighted CSR as Python lists.

    The BFS loops below visit ``indices[indptr[v]:indptr[v + 1]]``; list
    slices keep that per-step read cheap in pure Python.
    """
    mat = graph.to_csr(weighted=False)
    return mat.indptr.tolist(), mat.indices.tolist()


def betweenness_centrality(
    graph: Graph, *, normalized: bool = True
) -> np.ndarray:
    """Exact shortest-path betweenness (Brandes 2001), by node index.

    For each node ``v``: the fraction of all-pairs shortest paths passing
    through ``v``.  With ``normalized=True`` values are divided by
    ``(n-1)(n-2)/2`` (undirected convention), putting them in [0, 1].

    Complexity O(V·E); intended for the laptop-scale graphs this library
    targets.
    """
    graph.require_nonempty()
    n = graph.number_of_nodes
    indptr, indices = _csr_lists(graph)
    centrality = np.zeros(n, dtype=float)

    for source in range(n):
        # single-source shortest paths (BFS, unweighted)
        stack: list[int] = []
        predecessors: list[list[int]] = [[] for _ in range(n)]
        sigma = np.zeros(n)  # number of shortest paths
        sigma[source] = 1.0
        dist = np.full(n, -1, dtype=np.int64)
        dist[source] = 0
        queue: deque[int] = deque([source])
        while queue:
            v = queue.popleft()
            stack.append(v)
            for w in indices[indptr[v]:indptr[v + 1]]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    predecessors[w].append(v)
        # accumulation (back-propagation of dependencies)
        delta = np.zeros(n)
        while stack:
            w = stack.pop()
            for v in predecessors[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != source:
                centrality[w] += delta[w]

    centrality /= 2.0  # undirected: each pair counted twice
    if normalized and n > 2:
        centrality /= (n - 1) * (n - 2) / 2.0
    return centrality


def _bfs_distances(
    indptr: list[int], indices: list[int], source: int, n: int
) -> np.ndarray:
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    queue: deque[int] = deque([source])
    while queue:
        v = queue.popleft()
        for w in indices[indptr[v]:indptr[v + 1]]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def closeness_centrality(graph: Graph) -> np.ndarray:
    """Wasserman–Faust closeness, by node index.

    ``C(v) = ((r-1)/(n-1)) · ((r-1) / Σ_u d(v, u))`` where ``r`` is the
    size of ``v``'s connected component — the standard correction that
    keeps disconnected graphs comparable.  Isolated nodes get 0.
    """
    graph.require_nonempty()
    n = graph.number_of_nodes
    indptr, indices = _csr_lists(graph)
    out = np.zeros(n, dtype=float)
    for v in range(n):
        dist = _bfs_distances(indptr, indices, v, n)
        reachable = dist >= 0
        r = int(reachable.sum())
        if r <= 1:
            continue
        total = float(dist[reachable].sum())
        if total > 0:
            out[v] = ((r - 1) / (n - 1)) * ((r - 1) / total)
    return out


def harmonic_centrality(graph: Graph) -> np.ndarray:
    """Harmonic centrality ``Σ_u 1/d(v, u)`` (robust to disconnection)."""
    graph.require_nonempty()
    n = graph.number_of_nodes
    indptr, indices = _csr_lists(graph)
    out = np.zeros(n, dtype=float)
    for v in range(n):
        dist = _bfs_distances(indptr, indices, v, n)
        positive = dist > 0
        if positive.any():
            out[v] = float((1.0 / dist[positive]).sum())
    return out


def clustering_coefficient(graph: Graph) -> np.ndarray:
    """Local clustering coefficient (the paper's cohesion notion).

    ``C(v) = 2·T(v) / (k_v (k_v - 1))`` where ``T(v)`` counts edges among
    ``v``'s neighbours.  Nodes with degree < 2 get 0.  With ``A`` the
    0/1 adjacency, ``2·T(v) = Σ_j (A²)_vj · A_vj`` (each triangle through
    ``v`` is seen from both of its other corners).
    """
    graph.require_nonempty()
    adjacency = graph.to_csr(weighted=False)
    k = np.diff(adjacency.indptr).astype(float)
    twice_triangles = np.asarray(
        (adjacency @ adjacency).multiply(adjacency).sum(axis=1)
    ).ravel()
    out = np.zeros(graph.number_of_nodes, dtype=float)
    enough = k >= 2
    out[enough] = twice_triangles[enough] / (k[enough] * (k[enough] - 1))
    return out
