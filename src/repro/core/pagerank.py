"""Conventional PageRank (the ``p = 0`` baseline).

Kept as a first-class function both because it is the baseline every
experiment compares against and because downstream users reaching for
ordinary PageRank should not have to know about degree de-coupling.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.engine import RankQuery, solve_group
from repro.core.results import NodeScores
from repro.graph.base import BaseGraph, Node

__all__ = ["pagerank"]


def pagerank(
    graph: BaseGraph,
    *,
    alpha: float = 0.85,
    weighted: bool = False,
    teleport: Mapping[Node, float] | Sequence[Node] | np.ndarray | None = None,
    solver: str = "power",
    dangling: str = "teleport",
    tol: float = 1e-10,
    max_iter: int = 1000,
) -> NodeScores:
    """Compute conventional PageRank scores.

    Solves ``r = α·T_G·r + (1−α)·t`` where ``T_G`` spreads each node's mass
    uniformly over its out-edges (or proportionally to edge weights when
    ``weighted=True``).

    Equivalent to ``d2pr(graph, p=0.0, ...)`` for unweighted graphs and to
    ``d2pr(graph, p=0.0, beta=1.0, weighted=True, ...)`` for weighted ones —
    it solves on the very same cached operator, as do
    ``RankQuery(method="pagerank")`` and ``RankRequest(method="pagerank")``.

    Parameters
    ----------
    graph:
        The data graph.
    alpha:
        Residual probability (``1 − α`` is the teleport probability).
    weighted:
        Spread transition mass proportionally to edge weights.
    teleport:
        ``None`` for uniform, or array / ``{node: weight}`` / seed sequence
        for personalised PageRank.
    solver, dangling, tol, max_iter:
        See :func:`repro.core.d2pr.d2pr`.

    Returns
    -------
    NodeScores
    """
    # The registry's pagerank key: the p = 0 point of the D2PR family,
    # at beta = 1 when weighted, so every layer shares one transition.
    return solve_group(
        graph,
        RankQuery(method="pagerank", weighted=weighted).group_key,
        teleport=teleport,
        solver=solver,
        alpha=alpha,
        dangling=dangling,
        tol=tol,
        max_iter=max_iter,
    )
