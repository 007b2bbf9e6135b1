"""HITS (hubs and authorities) — an eigen-analysis significance baseline.

The paper's introduction groups PageRank with other "authority, prestige
and prominence" measures computed through eigen-analysis.  HITS is the
classic representative: authority scores are the dominant eigenvector of
``AᵀA``, hub scores of ``AAᵀ``.  On undirected graphs the two coincide and
equal the dominant eigenvector of the adjacency matrix (eigenvector
centrality), which — like PageRank — is strongly degree-coupled, making it
a useful second baseline in the extension experiments.

The iteration itself lives in the method registry
(:class:`repro.methods.HitsMethod`); this module keeps the public
hub/authority pair API and derives hubs from the served authority vector.
"""

from __future__ import annotations

import numpy as np

from repro.core.results import NodeScores
from repro.errors import ParameterError
from repro.graph.base import BaseGraph

__all__ = ["hits", "HitsResult"]


class HitsResult:
    """Hub and authority score pair."""

    def __init__(self, hubs: NodeScores, authorities: NodeScores) -> None:
        self.hubs = hubs
        self.authorities = authorities

    def __iter__(self):
        yield self.hubs
        yield self.authorities


def hits(
    graph: BaseGraph,
    *,
    tol: float = 1e-10,
    max_iter: int = 1000,
    weighted: bool = False,
    raise_on_failure: bool = False,
) -> HitsResult:
    """Compute HITS hub/authority scores by power iteration.

    Parameters
    ----------
    graph:
        Directed or undirected graph.  For undirected graphs hubs equal
        authorities (eigenvector centrality).
    tol:
        L1 convergence tolerance on the authority vector.
    max_iter:
        Iteration budget.
    weighted:
        Use stored edge weights.
    raise_on_failure:
        Raise :class:`ConvergenceError` when the budget is exhausted.

    Returns
    -------
    HitsResult
        ``result.hubs`` and ``result.authorities`` as :class:`NodeScores`
        (each normalised to sum 1).
    """
    from repro.methods import resolve

    graph.require_nonempty()
    if max_iter <= 0:
        raise ParameterError(f"max_iter must be positive, got {max_iter}")
    method = resolve("hits")
    key = ("hits", bool(weighted))
    result = method.solve(
        graph,
        key,
        tol=tol,
        max_iter=max_iter,
        raise_on_failure=raise_on_failure,
    )
    authorities = result.scores
    # Hubs are one adjacency matvec away from the authority fixed point
    # (hubs ∝ A·auth); the bundle is the same cached view the solver used.
    adjacency = method.operator(graph, key).mat
    n = adjacency.shape[0]
    hubs_vec = adjacency @ authorities
    total = hubs_vec.sum()
    if total == 0.0:  # graph with no edges
        hubs_vec = np.full(n, 1.0 / n)
    else:
        hubs_vec = hubs_vec / total
    return HitsResult(
        hubs=NodeScores(graph, hubs_vec),
        authorities=NodeScores(graph, authorities),
    )
