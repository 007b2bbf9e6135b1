"""Degree de-coupled PageRank (D2PR) — the paper's primary contribution.

The conventional PageRank transition gives every out-edge of a node the
same probability (or a probability proportional to edge weight).  D2PR
re-weights each transition by the *destination's* degree raised to ``-p``
(Equation 1 of the paper):

.. math::

    T_D(j, i) = \\frac{\\theta(v_j)^{-p}}
                      {\\sum_{v_k \\in N(v_i)} \\theta(v_k)^{-p}}

so a single real parameter ``p`` interpolates the whole spectrum the
paper's desideratum (§3.1) asks for:

========  ==========================================================
``p``     transition behaviour from every node
========  ==========================================================
``≪ -1``  ~100% of the mass goes to the highest-degree neighbour
``= -1``  proportional to neighbour degrees
``=  0``  conventional PageRank (uniform over neighbours)
``= +1``  inversely proportional to neighbour degrees
``≫ +1``  ~100% of the mass goes to the lowest-degree neighbour
========  ==========================================================

For weighted graphs the transition blends connection strength with degree
de-coupling (§3.2.3): ``T = β·T_conn + (1−β)·T_D`` where ``T_D`` uses the
total out-weight ``Θ(v)`` in place of the degree.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.engine import RankQuery, solve_group
from repro.core.results import NodeScores
from repro.graph.base import BaseGraph, Node
from repro.methods.stochastic import d2pr_transition

__all__ = [
    "d2pr",
    "d2pr_transition",
    "d2pr_operator",
    "transition_probabilities",
]


def d2pr_operator(
    graph: BaseGraph,
    p: float = 0.0,
    *,
    beta: float = 0.0,
    weighted: bool = False,
    clamp_min: float | None = None,
):
    """Graph-cached solver-operator bundle for the D2PR transition.

    The :class:`~repro.linalg.operator.LinearOperatorBundle` that
    :func:`repro.methods.operator_for` builds for this ``(p, beta,
    weighted, clamp_min)`` — the same object the engine, the coalescer
    and the service solve on, memoised on the graph's mutation-aware
    cache.  :func:`d2pr_transition` (re-exported from
    :mod:`repro.methods.stochastic`) is its matrix.
    """
    from repro.methods import operator_for

    key = RankQuery(p=p, beta=beta, weighted=weighted).group_key
    return operator_for(graph, key, clamp_min=clamp_min)


def d2pr(
    graph: BaseGraph,
    p: float = 0.0,
    *,
    alpha: float = 0.85,
    beta: float = 0.0,
    weighted: bool = False,
    teleport: Mapping[Node, float] | Sequence[Node] | np.ndarray | None = None,
    solver: str = "power",
    dangling: str = "teleport",
    tol: float = 1e-10,
    max_iter: int = 1000,
    clamp_min: float | None = None,
) -> NodeScores:
    """Compute degree de-coupled PageRank scores.

    This is the paper's ``d = α·T_D·d + (1−α)·t`` with ``T_D`` from
    Equation (1) (undirected), §3.2.2 (directed, out-degree based) or
    §3.2.3 (weighted, β-blend with connection strength).

    Parameters
    ----------
    graph:
        The data graph (:class:`~repro.graph.Graph` or
        :class:`~repro.graph.DiGraph`).
    p:
        Degree de-coupling weight: ``p > 0`` penalises high-degree
        destinations, ``p < 0`` boosts them, ``p = 0`` reproduces
        conventional PageRank.
    alpha:
        Residual probability (default 0.85, the paper's default).
    beta:
        Weighted-graph blend between connection strength (``β = 1``) and
        degree de-coupling (``β = 0``, the paper's default).
    weighted:
        Honour stored edge weights (paper §3.2.3).
    teleport:
        Personalisation: ``None`` (uniform), array, ``{node: weight}``
        mapping, or a sequence of seed nodes.
    solver:
        ``"power"`` (default), ``"gauss_seidel"`` or ``"direct"``.
    dangling:
        Dangling-node strategy: ``"teleport"``, ``"uniform"`` or ``"self"``.
    tol, max_iter:
        Convergence controls for the iterative solvers.
    clamp_min:
        Degree clamp for weighting; ``None`` selects the scale-safe
        default (see :func:`d2pr_transition` and DESIGN.md §5.3).

    Returns
    -------
    NodeScores
        Scores aligned with the graph, plus solver diagnostics.

    Examples
    --------
    >>> from repro.graph import Graph
    >>> g = Graph.from_edges([("a", "b"), ("a", "c"), ("c", "d"), ("c", "e")])
    >>> conventional = d2pr(g, p=0.0)
    >>> penalised = d2pr(g, p=2.0)
    >>> # with p > 0 the hub "c" loses mass relative to p = 0
    >>> penalised["c"] < conventional["c"]
    True
    """
    return solve_group(
        graph,
        RankQuery(p=p, beta=beta, weighted=weighted).group_key,
        teleport=teleport,
        clamp_min=clamp_min,
        solver=solver,
        alpha=alpha,
        dangling=dangling,
        tol=tol,
        max_iter=max_iter,
    )


def transition_probabilities(
    graph: BaseGraph,
    source: Node,
    p: float,
    *,
    beta: float = 0.0,
    weighted: bool = False,
    clamp_min: float | None = None,
) -> dict[Node, float]:
    """Transition probabilities from ``source`` under D2PR.

    Reproduces the per-node view of the paper's Figure 1: for the 6-node
    example graph, ``transition_probabilities(g, "A", p=2.0)`` returns
    ``{"B": 0.18..., "C": 0.08..., "D": 0.73...}``.
    """
    transition = d2pr_transition(
        graph, p, beta=beta, weighted=weighted, clamp_min=clamp_min
    )
    row = transition.getrow(graph.index_of(source)).tocoo()
    nodes = graph.nodes()
    return {nodes[j]: float(v) for j, v in zip(row.col, row.data)}
