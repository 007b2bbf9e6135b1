"""Personalised (seeded) PageRank variants on top of D2PR.

The paper positions D2PR inside the context-aware recommendation literature
(§2.1): personalised PageRank (PPR) contextualises scores by concentrating
the teleportation vector on seed nodes.  Degree de-coupling composes
orthogonally with personalisation — the transition matrix changes, the
teleport vector changes independently — so this module provides:

* :func:`personalized_pagerank` — classic PPR (uniform transition, seeded
  teleport);
* :func:`personalized_d2pr` — seeded D2PR ("D2PPR");
* :func:`robust_personalized_d2pr` — a seed-noise-robust variant in the
  spirit of Huang et al. [14]: each seed is scored by a leave-one-out pass
  and seeds whose removal barely changes the result (likely noise) are
  down-weighted before the final pass.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.d2pr import d2pr
from repro.core.engine import RankQuery, solve_many
from repro.core.results import NodeScores
from repro.errors import ParameterError
from repro.graph.base import BaseGraph, Node

__all__ = [
    "seed_weights",
    "personalized_pagerank",
    "personalized_d2pr",
    "robust_personalized_d2pr",
]


def seed_weights(
    seeds: Mapping[Node, float] | Sequence[Node],
) -> dict[Node, float]:
    """Normalise a seed spec into ``{node: weight}`` and validate it.

    A sequence weights each node by its number of occurrences (``[a, a,
    b]`` is ``{a: 2, b: 1}``); a mapping passes through.  That is the
    rule :func:`repro.core.engine.build_teleport`, the serving planner
    and forward push's seed arrays apply too, so one seed list means one
    teleport whichever path solves it.
    """
    if isinstance(seeds, Mapping):
        weights = {node: float(w) for node, w in seeds.items()}
    else:
        weights = {}
        for node in seeds:
            weights[node] = weights.get(node, 0.0) + 1.0
    if not weights:
        raise ParameterError("at least one seed node is required")
    if any(w < 0 for w in weights.values()):
        raise ParameterError("seed weights must be non-negative")
    if sum(weights.values()) <= 0:
        raise ParameterError("seed weights must have positive total mass")
    return weights


def personalized_pagerank(
    graph: BaseGraph,
    seeds: Mapping[Node, float] | Sequence[Node],
    *,
    alpha: float = 0.85,
    weighted: bool = False,
    **kwargs,
) -> NodeScores:
    """Classic personalised PageRank: teleportation restricted to ``seeds``.

    ``seeds`` may be a sequence of nodes (equal weights) or a
    ``{node: weight}`` mapping.  Remaining keyword arguments are forwarded
    to :func:`repro.core.d2pr.d2pr` (with ``p = 0``).
    """
    weights = seed_weights(seeds)
    return d2pr(
        graph, 0.0, alpha=alpha, weighted=weighted, teleport=weights, **kwargs
    )


def personalized_d2pr(
    graph: BaseGraph,
    seeds: Mapping[Node, float] | Sequence[Node],
    p: float,
    *,
    alpha: float = 0.85,
    beta: float = 0.0,
    weighted: bool = False,
    **kwargs,
) -> NodeScores:
    """Seeded degree de-coupled PageRank (D2PPR).

    Combines the paper's transition-matrix modification with
    teleport-vector personalisation: the random surfer walks a degree
    de-coupled graph but restarts only at the seed nodes.

    For interactive-latency single queries on large graphs pass
    ``solver="push"``: sparse seed sets route to the localized
    forward-push solver (:func:`repro.linalg.forward_push`), which falls
    back to power iteration whenever the query is not localized.
    """
    weights = seed_weights(seeds)
    return d2pr(
        graph,
        p,
        alpha=alpha,
        beta=beta,
        weighted=weighted,
        teleport=weights,
        **kwargs,
    )


def _batched_influences(
    graph: BaseGraph,
    weights: Mapping[Node, float],
    seed_order: Sequence[Node],
    p: float,
    *,
    alpha: float,
    beta: float,
    weighted: bool,
    solver: str = "power",
    dangling: str = "teleport",
    tol: float = 1e-10,
    max_iter: int = 1000,
) -> tuple[NodeScores, dict[Node, float]]:
    """Full pass + all leave-one-out passes as one batched solve."""
    del solver  # always "power" here (checked by the caller)
    queries = [
        RankQuery(
            p=p, alpha=alpha, beta=beta, weighted=weighted,
            teleport=dict(weights), dangling=dangling,
        )
    ]
    for seed in seed_order:
        reduced = {s: w for s, w in weights.items() if s != seed}
        queries.append(
            RankQuery(
                p=p, alpha=alpha, beta=beta, weighted=weighted,
                teleport=reduced, dangling=dangling,
            )
        )
    results = solve_many(graph, queries, tol=tol, max_iter=max_iter)
    full = results[0]
    influences = {
        seed: float(np.abs(full.values - loo.values).sum())
        for seed, loo in zip(seed_order, results[1:])
    }
    return full, influences


def _sequential_influences(
    graph: BaseGraph,
    weights: Mapping[Node, float],
    seed_order: Sequence[Node],
    p: float,
    *,
    alpha: float,
    beta: float,
    weighted: bool,
    **kwargs,
) -> tuple[NodeScores, dict[Node, float]]:
    """Per-seed loop for the non-power solvers (verification paths)."""
    full = personalized_d2pr(
        graph, dict(weights), p, alpha=alpha, beta=beta, weighted=weighted,
        **kwargs,
    )
    influences: dict[Node, float] = {}
    for seed in seed_order:
        reduced = {s: w for s, w in weights.items() if s != seed}
        loo = personalized_d2pr(
            graph, reduced, p, alpha=alpha, beta=beta, weighted=weighted,
            **kwargs,
        )
        influences[seed] = float(np.abs(full.values - loo.values).sum())
    return full, influences


def robust_personalized_d2pr(
    graph: BaseGraph,
    seeds: Mapping[Node, float] | Sequence[Node],
    p: float,
    *,
    alpha: float = 0.85,
    beta: float = 0.0,
    weighted: bool = False,
    noise_discount: float = 0.5,
    **kwargs,
) -> NodeScores:
    """Seed-noise-robust D2PPR (related-work [14], adapted).

    Strategy: compute the full seeded result once, then for every seed a
    leave-one-out result.  A seed whose removal leaves the ranking nearly
    unchanged is *redundant or noisy*; a seed whose removal changes the
    result a lot is *load-bearing*.  Each seed is re-weighted by the L1
    distance its removal causes (raised by ``noise_discount`` smoothing) and
    the final pass runs with the re-weighted teleport vector.

    All leave-one-out systems share one transition matrix and differ only
    in their teleport vector, so the full pass and every leave-one-out pass
    run as **one batched solve** (:func:`repro.core.engine.solve_many`) —
    K+1 columns advanced by a single sparse·dense multiply per sweep.  The
    batched path covers the power solver; other solvers fall back to the
    per-seed loop.

    With a single seed the function reduces to :func:`personalized_d2pr`.

    Parameters
    ----------
    noise_discount:
        Floor (relative to the largest influence) below which a seed's
        weight is scaled down; 0 disables down-weighting entirely.
    """
    if not 0.0 <= noise_discount <= 1.0:
        raise ParameterError(
            f"noise_discount must be in [0, 1], got {noise_discount}"
        )
    weights = seed_weights(seeds)
    if len(weights) == 1:
        return personalized_d2pr(
            graph, weights, p, alpha=alpha, beta=beta, weighted=weighted, **kwargs
        )

    seed_order = list(weights)
    if kwargs.get("solver", "power") == "power":
        full, influences = _batched_influences(
            graph, weights, seed_order, p,
            alpha=alpha, beta=beta, weighted=weighted, **kwargs,
        )
    else:
        full, influences = _sequential_influences(
            graph, weights, seed_order, p,
            alpha=alpha, beta=beta, weighted=weighted, **kwargs,
        )

    max_influence = max(influences.values())
    if max_influence <= 0.0:
        # All seeds equivalent: nothing to re-weight.
        return full
    adjusted: dict[Node, float] = {}
    for seed, base_weight in weights.items():
        relative = influences[seed] / max_influence
        # Seeds below the discount floor are treated as suspected noise and
        # scaled by their relative influence; others keep full weight.
        factor = relative if relative < noise_discount else 1.0
        adjusted[seed] = base_weight * max(factor, 1e-12)
    return personalized_d2pr(
        graph, adjusted, p, alpha=alpha, beta=beta, weighted=weighted, **kwargs
    )
