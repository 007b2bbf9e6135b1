"""Stochastic (PageRank-shaped) centrality methods.

These methods solve the teleport fixed point ``x = α·Tᵀx + (1−α)·t``
against a *row-stochastic* transition ``T``, which is what makes the
entire solver arsenal apply verbatim: batched power iteration, forward
push, incremental residual correction after deltas and the sharded
block solver all assume exactly that shape, and the successive-L1
residual is a certified error bound at contraction rate α.

* ``pagerank`` / ``d2pr`` — one family: conventional PageRank is the
  ``p = 0`` point of the degree-de-coupled transition (paper Eq. 1),
  and on weighted graphs also the ``β = 1`` point of the §3.2.3 blend,
  so both names share the ``"d2pr"`` family tag, operator caches,
  microbatch windows and cache digests.
* ``fatigued`` — fatigued PageRank (PAPERS.md): high-degree nodes
  "tire" and forward less of their mass.  Per-node fatigue
  ``φ_j = γ·θ_j/θ_max`` (γ = the request's ``fatigue`` parameter,
  θ = the paper's degree/out-weight vector) down-weights *entering*
  node ``j`` by ``1−φ_j``; re-normalising rows keeps the transition
  stochastic, so the method is a diagonal rescale of the cached D2PR
  transition and reuses every solver and certificate unchanged.
  ``γ < 1`` strictly, so no surviving entry hits zero and the dangling
  set is exactly the base transition's.

This module owns the transition builders themselves;
:mod:`repro.core.d2pr` and :mod:`repro.core.pagerank` are thin wrappers
over :func:`~repro.methods.registry.operator_for`.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.errors import ParameterError
from repro.linalg.transition import (
    blended_transition,
    degree_decoupled_transition,
)
from repro.methods.base import CentralityMethod, MethodParams
from repro.methods.registry import register

__all__ = [
    "D2PRMethod",
    "FatiguedMethod",
    "PageRankMethod",
    "adjacency_and_theta",
    "d2pr_transition",
    "fatigued_transition",
]


def adjacency_and_theta(
    graph, *, weighted: bool
) -> tuple[sparse.csr_matrix, np.ndarray]:
    """Return the adjacency matrix and the paper's ``theta`` vector.

    ``theta`` is the per-node quantity whose power ``-p`` weights incoming
    transitions (Equation 1 and §3.2.2–3.2.3 of the paper):

    * undirected unweighted — node degree;
    * directed unweighted   — node out-degree;
    * weighted (either)     — total out-weight ``Θ(v) = Σ_h w(v→h)``.

    The pair is memoised on the graph's mutation-aware cache, so repeated
    solves and parameter sweeps reuse one export per graph version.
    """
    graph.require_nonempty()

    def build() -> tuple[sparse.csr_matrix, np.ndarray]:
        adjacency = graph.to_csr(weighted=weighted)
        if weighted:
            theta = np.asarray(adjacency.sum(axis=1)).ravel()
        else:
            # Degree for undirected graphs, out-degree for DiGraph — both
            # are exactly out_degree_vector on our representation.
            theta = graph.out_degree_vector()
        return adjacency, theta

    return graph.cached(("adj_theta", bool(weighted)), build)


def d2pr_transition(
    graph,
    p: float,
    *,
    beta: float = 0.0,
    weighted: bool = False,
    clamp_min: float | None = None,
):
    """Build the (row-stochastic) D2PR transition matrix for ``graph``.

    Parameters
    ----------
    graph:
        Undirected or directed graph.
    p:
        Degree de-coupling weight.
    beta:
        Connection-strength blend for weighted graphs; must be 0 when
        ``weighted=False`` because the paper only defines the blend for
        weighted graphs (an unweighted ``T_conn`` is just ``p = 0``).
    weighted:
        Use stored edge weights.  ``theta`` becomes the total out-weight.
    clamp_min:
        Minimum ``theta`` used for weighting.  ``None`` (default) picks
        1.0 for unweighted graphs (sinks count as degree-1 nodes, see
        DESIGN.md §5.3) and the smallest *positive* ``Θ`` for weighted
        graphs — clamping weighted thetas at a fixed 1.0 would break the
        scale-invariance of the formulation (multiplying all edge weights
        by a constant must not change the scores).

    Returns
    -------
    scipy.sparse.csr_matrix
        Rows are sources; each non-dangling row sums to 1.
    """
    if not weighted and beta != 0.0:
        raise ParameterError(
            "beta is only meaningful for weighted graphs "
            "(the paper defines the blend in §3.2.3); pass weighted=True"
        )
    graph.require_nonempty()

    def build():
        adjacency, theta = adjacency_and_theta(graph, weighted=weighted)
        resolved = clamp_min
        if resolved is None:
            if weighted:
                positive = theta[theta > 0]
                resolved = float(positive.min()) if positive.size else 1.0
            else:
                resolved = 1.0
        if weighted:
            return blended_transition(
                adjacency, p, beta, theta=theta, clamp_min=resolved
            )
        return degree_decoupled_transition(
            adjacency, p, theta=theta, clamp_min=resolved
        )

    # Memoised per graph version: sweeps and repeated solves with the same
    # (p, beta, weighted, clamp_min) reuse the built matrix.
    return graph.cached(
        ("d2pr_transition", float(p), float(beta), bool(weighted), clamp_min),
        build,
    )


def fatigued_transition(
    graph,
    p: float,
    *,
    fatigue: float,
    beta: float = 0.0,
    weighted: bool = False,
    clamp_min: float | None = None,
):
    """Row-stochastic fatigued transition, memoised on the graph cache.

    Column-scales the cached D2PR transition by ``1 − φ`` (φ = per-node
    fatigue, γ·θ/θ_max) and re-normalises rows.  γ < 1 keeps every
    surviving entry positive, so zero rows — and hence the dangling
    mask — are exactly those of the base transition; the delta-refresh
    machinery does not recognise this key, so a :class:`GraphDelta`
    evicts it and the next solve rebuilds (correct, merely colder).
    """

    def build():
        base = d2pr_transition(
            graph, p, beta=beta, weighted=weighted, clamp_min=clamp_min
        )
        _, theta = adjacency_and_theta(graph, weighted=weighted)
        theta_max = float(theta.max()) if theta.size else 0.0
        if theta_max > 0.0:
            keep = 1.0 - float(fatigue) * (theta / theta_max)
        else:
            keep = np.ones_like(theta, dtype=np.float64)
        mat = base.multiply(keep[np.newaxis, :]).tocsr()
        row_mass = np.asarray(mat.sum(axis=1)).ravel()
        inv = np.zeros_like(row_mass)
        nonzero = row_mass > 0.0
        inv[nonzero] = 1.0 / row_mass[nonzero]
        mat = sparse.diags(inv).dot(mat).tocsr()
        mat.sort_indices()
        return mat

    return graph.cached(
        (
            "fatigued_transition",
            float(p),
            float(fatigue),
            float(beta),
            bool(weighted),
            clamp_min,
        ),
        build,
    )


class _StochasticMethod(CentralityMethod):
    """Shared capability surface of the row-stochastic family."""

    certificate = "l1"
    batchable = True
    supports_push = True
    supports_incremental = True
    supports_sharding = True
    supports_seeds = True

    def matrix_key(self, group_key: tuple, clamp_min=None) -> tuple:
        # The trailing dangling strategy is a per-solve choice: every
        # strategy solves on the same matrix.
        return (*group_key[:-1], clamp_min)


class PageRankMethod(_StochasticMethod):
    """Conventional PageRank — the ``p = 0`` point of the D2PR family.

    Shares the ``"d2pr"`` family (and therefore transitions, cache
    digests and microbatch windows) with :class:`D2PRMethod`.  The
    vocabulary pins the request's ``p`` and ``beta`` at their defaults
    so a request cannot ask for de-coupling under the conventional
    name; weighted requests solve on the connection-strength walk
    (``β = 1``, paper §3.2.3), exactly like
    ``repro.pagerank(graph, weighted=True)``.
    """

    name = "pagerank"
    family = "d2pr"
    vocabulary = frozenset({"alpha", "dangling"})

    def group_key(self, params: MethodParams) -> tuple:
        weighted = bool(params.weighted)
        beta = 1.0 if weighted else 0.0
        return ("d2pr", 0.0, beta, weighted, params.dangling)

    def sort_key(self, group_key: tuple) -> tuple:
        _, p, beta, weighted, dangling = group_key
        return ("d2pr", weighted, dangling, beta, p)

    def transition(self, graph, group_key: tuple, *, clamp_min=None):
        _, p, beta, weighted, _dangling = group_key
        return d2pr_transition(
            graph, p, beta=beta, weighted=weighted, clamp_min=clamp_min
        )


class D2PRMethod(PageRankMethod):
    """Degree de-coupled PageRank (paper Eq. 1) — the full vocabulary."""

    name = "d2pr"
    family = "d2pr"
    vocabulary = frozenset({"p", "alpha", "beta", "dangling"})

    def group_key(self, params: MethodParams) -> tuple:
        return (
            "d2pr",
            float(params.p),
            float(params.beta),
            bool(params.weighted),
            params.dangling,
        )


class FatiguedMethod(PageRankMethod):
    """Fatigued PageRank: degree-proportional damping, re-normalised."""

    name = "fatigued"
    family = "fatigued"
    vocabulary = frozenset({"p", "alpha", "beta", "dangling", "fatigue"})

    def group_key(self, params: MethodParams) -> tuple:
        return (
            "fatigued",
            float(params.p),
            float(params.fatigue),
            float(params.beta),
            bool(params.weighted),
            params.dangling,
        )

    def sort_key(self, group_key: tuple) -> tuple:
        _, p, fatigue, beta, weighted, dangling = group_key
        return ("fatigued", weighted, dangling, beta, fatigue, p)

    def transition(self, graph, group_key: tuple, *, clamp_min=None):
        _, p, fatigue, beta, weighted, _dangling = group_key
        return fatigued_transition(
            graph,
            p,
            fatigue=fatigue,
            beta=beta,
            weighted=weighted,
            clamp_min=clamp_min,
        )


register(PageRankMethod())
register(D2PRMethod())
register(FatiguedMethod())
