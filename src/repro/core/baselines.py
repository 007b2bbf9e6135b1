"""Baseline node-significance measures the paper compares against.

* :func:`degree_scores` — raw degree as significance (what PageRank is
  "tightly coupled" to, Table 1).
* :func:`teleport_adjusted_pagerank` — modifies the *teleportation vector*
  instead of the transition matrix, generalising Bánky et al.'s
  "equal opportunity" method cited in the paper's related work ([2]):
  ``t[i] ∝ deg(v_i)^exponent``.  ``exponent = -1`` boosts low-degree nodes
  (their method); ``exponent = +1`` boosts hubs.  The ablation benchmark
  contrasts this against transition-matrix de-coupling.
* :func:`weighted_pagerank` — connection-strength-only PageRank, the
  paper's ``β = 1`` reference point in the weighted experiments.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.engine import RankQuery, solve_group
from repro.core.pagerank import pagerank
from repro.core.results import NodeScores
from repro.errors import ParameterError
from repro.graph.base import BaseGraph, DiGraph, Node

__all__ = [
    "degree_scores",
    "teleport_adjusted_pagerank",
    "weighted_pagerank",
]


def degree_scores(graph: BaseGraph, *, weighted: bool = False) -> NodeScores:
    """Rank nodes purely by their (out-)degree or strength.

    The trivial baseline: the paper's Table 1 shows conventional PageRank
    ranks are nearly identical to these on undirected graphs.
    """
    graph.require_nonempty()
    degrees = graph.out_degree_vector(weighted=weighted)
    total = degrees.sum()
    values = degrees / total if total > 0 else np.full_like(degrees, 1.0 / len(degrees))
    return NodeScores(graph, values, None)


def teleport_adjusted_pagerank(
    graph: BaseGraph,
    exponent: float = -1.0,
    *,
    alpha: float = 0.85,
    solver: str = "power",
    dangling: str = "teleport",
    tol: float = 1e-10,
    max_iter: int = 1000,
) -> NodeScores:
    """PageRank with a degree-skewed teleportation vector.

    The transition matrix stays conventional; only where the surfer
    *restarts* changes: ``t[i] ∝ max(deg(v_i), 1)^exponent``.  This is the
    related-work alternative to D2PR — it can shift mass towards low- or
    high-degree nodes globally but cannot reshape individual transitions.

    Parameters
    ----------
    exponent:
        ``-1.0`` (default) boosts low-degree nodes, reproducing the
        equal-opportunity scheme of Bánky et al.; ``0.0`` degenerates to
        conventional PageRank.
    """
    if not np.isfinite(exponent):
        raise ParameterError(f"exponent must be finite, got {exponent}")
    graph.require_nonempty()
    degrees = graph.out_degree_vector()
    # Degree-0 nodes must keep teleport mass: clamp as in the transition.
    clamped = np.maximum(degrees, 1.0)
    log_w = exponent * np.log(clamped)
    log_w -= log_w.max()  # stabilise before exponentiation
    teleport = np.exp(log_w)
    # Shares the conventional-PageRank matrix and bundle: same transition,
    # same cached transpose/dangling views (only the teleport differs).
    return solve_group(
        graph,
        RankQuery(method="pagerank").group_key,
        teleport=teleport,
        solver=solver,
        alpha=alpha,
        dangling=dangling,
        tol=tol,
        max_iter=max_iter,
    )


def weighted_pagerank(
    graph: BaseGraph,
    *,
    alpha: float = 0.85,
    teleport: Mapping[Node, float] | Sequence[Node] | np.ndarray | None = None,
    **kwargs,
) -> NodeScores:
    """Connection-strength-only PageRank (the paper's ``β = 1`` reference).

    Thin alias over :func:`repro.core.pagerank.pagerank` with
    ``weighted=True``, named to match the experiment configurations.
    """
    return pagerank(graph, alpha=alpha, weighted=True, teleport=teleport, **kwargs)
