"""Shared plumbing between the score functions in :mod:`repro.core`.

Handles teleport-vector construction from node-keyed inputs and solver
dispatch, on operators that only :mod:`repro.methods` builds (it also
re-exports the adjacency/theta pair of the D2PR transition from there).

It also hosts the **batched multi-query engine**: :class:`RankQuery`
describes one ``(p, α, β, teleport)`` ranking request and
:func:`solve_many` compiles a list of them against one graph — queries
sharing a transition matrix (same ``p``/``β``/``weighted``) are grouped and
dispatched as a single ``n × K`` block through
:func:`repro.linalg.power_iteration_batch`, and consecutive groups along a
smooth ``p`` grid warm-start from the previous group's solutions.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy import sparse

from repro.errors import ParameterError
from repro.graph.base import BaseGraph, Node
from repro.linalg.batch import power_iteration_batch
from repro.linalg.operator import LinearOperatorBundle
from repro.linalg.push import forward_push
from repro.methods.stochastic import adjacency_and_theta
from repro.telemetry.trace import annotate
from repro.linalg.solvers import (
    DANGLING_STRATEGIES,
    PageRankResult,
    _unit_mass,
    direct_solve,
    gauss_seidel,
    power_iteration,
)

__all__ = [
    "SOLVERS",
    "RankQuery",
    "build_teleport",
    "solve_group",
    "solve_transition",
    "solve_many",
    "update_scores",
    "update_scores_many",
    "adjacency_and_theta",
]

SOLVERS = ("power", "gauss_seidel", "direct", "push")


def build_teleport(
    graph: BaseGraph,
    teleport: Mapping[Node, float] | Sequence[Node] | np.ndarray | None,
) -> np.ndarray | None:
    """Normalise the caller's teleport specification into a dense vector.

    Accepts:

    * ``None`` — uniform teleportation (the solvers' default);
    * a numpy array already aligned with node indices;
    * a mapping ``{node: weight}`` (personalised PageRank seeds);
    * a sequence of nodes — each listed node gets equal weight (the common
      "seed set" form of personalisation).
    """
    if teleport is None:
        return None
    n = graph.number_of_nodes
    if isinstance(teleport, np.ndarray):
        if teleport.shape != (n,):
            raise ParameterError(
                f"teleport array must have shape ({n},), got {teleport.shape}"
            )
        return teleport.astype(np.float64)
    vec = np.zeros(n, dtype=np.float64)
    if isinstance(teleport, Mapping):
        for node, weight in teleport.items():
            weight = float(weight)
            if weight < 0:
                raise ParameterError(
                    f"teleport weight for {node!r} must be >= 0, got {weight}"
                )
            vec[graph.index_of(node)] += weight
    else:
        for node in teleport:
            vec[graph.index_of(node)] += 1.0
    if vec.sum() <= 0.0:
        raise ParameterError("teleport specification has no positive mass")
    return vec


def solve_transition(
    transition: sparse.spmatrix,
    *,
    solver: str = "power",
    alpha: float = 0.85,
    teleport: np.ndarray | None = None,
    dangling: str = "teleport",
    tol: float = 1e-10,
    max_iter: int = 1000,
    operator: LinearOperatorBundle | None = None,
    **extra: Any,
) -> PageRankResult:
    """Dispatch to one of the solvers by name.

    ``operator`` forwards a pre-built (typically graph-cached)
    :class:`~repro.linalg.operator.LinearOperatorBundle` so no solver
    re-derives transpose/dangling views per call; when omitted each solver
    falls back to the bundle memoised on the transition matrix object.

    ``solver="push"`` routes to :func:`~repro.linalg.push.forward_push`,
    the low-latency path for sparse personalised teleports; a ``None``
    (uniform) teleport or a non-localized query falls back to power
    iteration inside the push solver itself.
    """
    if solver == "power":
        return power_iteration(
            transition,
            alpha=alpha,
            teleport=teleport,
            tol=tol,
            max_iter=max_iter,
            dangling=dangling,
            operator=operator,
            **extra,
        )
    if solver == "gauss_seidel":
        return gauss_seidel(
            transition,
            alpha=alpha,
            teleport=teleport,
            tol=tol,
            max_iter=max_iter,
            dangling=dangling,
            operator=operator,
            **extra,
        )
    if solver == "direct":
        return direct_solve(
            transition,
            alpha=alpha,
            teleport=teleport,
            dangling=dangling,
            operator=operator,
        )
    if solver == "push":
        if teleport is None:
            # Uniform teleport has no sparse support to push from; serve
            # it with the cached-operator power path the push solver would
            # fall back to anyway (dropping push-only options it has no
            # use for).
            power_extra = {
                k: v for k, v in extra.items() if k != "frontier_cap"
            }
            return power_iteration(
                transition,
                alpha=alpha,
                teleport=None,
                tol=tol,
                max_iter=max_iter,
                dangling=dangling,
                operator=operator,
                **power_extra,
            )
        return forward_push(
            transition,
            np.asarray(teleport, dtype=np.float64),
            alpha=alpha,
            tol=tol,
            max_iter=max_iter,
            dangling=dangling,
            operator=operator,
            **extra,
        )
    raise ParameterError(
        f"unknown solver {solver!r}; expected one of {SOLVERS}"
    )


def solve_group(
    graph: BaseGraph,
    group_key: tuple,
    *,
    teleport: Mapping[Node, float] | Sequence[Node] | np.ndarray | None = None,
    **options: Any,
):
    """Solve one query on the registry-built operator of ``group_key``.

    The shared body of :func:`~repro.core.d2pr.d2pr` and
    :func:`~repro.core.pagerank.pagerank`: the bundle comes from
    :func:`repro.methods.operator_for`, ``teleport`` goes through
    :func:`build_teleport` and ``options`` (``solver``, ``alpha``,
    ``dangling``, ``tol``, ``max_iter``) through
    :func:`solve_transition`.  Returns
    :class:`~repro.core.results.NodeScores`.
    """
    from repro.core.results import NodeScores
    from repro.methods import operator_for

    bundle = operator_for(graph, group_key)
    result = solve_transition(
        bundle.mat,
        operator=bundle,
        teleport=build_teleport(graph, teleport),
        **options,
    )
    return NodeScores(graph, result.scores, result)


@dataclass(frozen=True, eq=False)
class RankQuery:
    """One ranking request against a graph: method + parameters + teleport.

    Queries are the unit of work of :func:`solve_many`.  Two queries
    that share a transition-group key (the family-tagged tuple their
    :class:`~repro.methods.CentralityMethod` builds from the parameters)
    share a transition matrix and are solved together in one batched
    pass; ``alpha`` and ``teleport`` vary freely within a batch.
    Non-batchable (spectral) methods are solved per query through the
    method descriptor.

    Attributes
    ----------
    p:
        Degree de-coupling weight (0 = conventional PageRank).
    alpha:
        Residual probability.
    beta:
        Connection-strength blend (weighted graphs only).
    weighted:
        Honour stored edge weights.
    teleport:
        ``None`` (uniform), an index-aligned array, a ``{node: weight}``
        mapping, or a sequence of seed nodes.
    dangling:
        Dangling-mass strategy: ``"teleport"``, ``"uniform"`` or ``"self"``.
    method:
        Registered :class:`~repro.methods.CentralityMethod` name; the
        descriptor owns which fields above the method accepts.
    fatigue:
        Fatigue strength γ ∈ [0, 1) (``method="fatigued"``).
    """

    p: float = 0.0
    alpha: float = 0.85
    beta: float = 0.0
    weighted: bool = False
    teleport: Mapping[Node, float] | Sequence[Node] | np.ndarray | None = None
    dangling: str = "teleport"
    method: str = "d2pr"
    fatigue: float = 0.0

    def method_params(self):
        """This query's parameters in the registry's normalised view."""
        from repro.methods import MethodParams

        return MethodParams(
            p=float(self.p),
            alpha=float(self.alpha),
            beta=float(self.beta),
            weighted=bool(self.weighted),
            dangling=self.dangling,
            fatigue=float(self.fatigue),
            has_seeds=self.teleport is not None,
        )

    def validate(self) -> None:
        """Raise :class:`ParameterError` on out-of-domain settings.

        Delegates to the resolved method descriptor, so the engine and
        the serving layer enforce one parameter vocabulary.
        """
        from repro.methods import resolve

        resolve(self.method).validate(self.method_params())

    @property
    def group_key(self) -> tuple:
        """The family-tagged transition identity this query solves on."""
        from repro.methods import resolve

        return resolve(self.method).group_key(self.method_params())


def _teleport_digest(vec: np.ndarray | None) -> bytes | None:
    """Stable identity of a teleport vector for warm-start matching.

    The digest is taken over the vector **normalised to unit mass**, so
    two proportional teleports (``v`` and ``3·v``) — which define the
    same personalised system — always digest equal and can warm-start
    each other.  A vector without positive finite mass has no valid
    normalisation (and no valid solve): the solvers' own check raises
    :class:`~repro.errors.ParameterError` for it here.
    """
    if vec is None:
        return None
    unit = _unit_mass(vec, len(vec), "teleport vector")
    return hashlib.sha1(unit.tobytes()).digest()


def solve_many(
    graph: BaseGraph,
    queries: Sequence[RankQuery],
    *,
    tol: float = 1e-10,
    max_iter: int = 1000,
    warm_start: bool = True,
) -> list:
    """Solve many ranking queries against one graph in batched passes.

    The queries are grouped by transition matrix — every distinct
    family-tagged group key (built by each query's
    :class:`~repro.methods.CentralityMethod`, e.g.
    ``("d2pr", p, beta, weighted, dangling)``) builds (or reuses, via
    the graph's matrix cache) one matrix — and each batchable group is
    dispatched as a single float64 ``n × K`` block through
    :func:`repro.linalg.power_iteration_batch`: one CSR·dense multiply
    per sweep instead of K independent matvec loops, matching per-query
    solves to 1e-12.  Queries of non-batchable (spectral) methods are
    solved per query through their descriptor's ``solve`` — their
    operator is the raw adjacency, not a stochastic transition, so they
    cannot share a pooled block.

    Groups are processed in each method's declared ``sort_key`` order
    (for the stochastic family: ``(weighted, dangling, beta, p)``
    within the family tag).  When ``warm_start`` is on and two
    consecutive groups contain structurally identical columns (same
    alphas, same teleports — the shape of every parameter sweep), the
    later group starts from the earlier group's solutions, which cuts
    iteration counts along smooth ``p`` grids.

    Parameters
    ----------
    graph:
        The data graph shared by every query.
    queries:
        The ranking requests; results are returned in the same order.
    tol, max_iter:
        Convergence controls, shared by the whole call.
    warm_start:
        Seed each group from the previous group's solutions when the
        column structure matches.

    Returns
    -------
    list[NodeScores]
        One result per query, aligned with the input order.  A column
        that exhausts ``max_iter`` comes back with
        ``solver_result.converged`` false; deciding whether such an
        answer may be served is the caller's job (the serving layer
        raises :class:`~repro.errors.ConvergenceError` for it).
    """
    annotate(engine="solve_many", engine_queries=len(queries))

    from repro.core.results import NodeScores
    from repro.methods import family_method, operator_for

    queries = list(queries)
    if not queries:
        return []
    graph.require_nonempty()
    for query in queries:
        query.validate()

    vectors = [build_teleport(graph, q.teleport) for q in queries]

    groups: dict[tuple, list[int]] = {}
    for idx, query in enumerate(queries):
        groups.setdefault(query.group_key, []).append(idx)

    # Teleport digests exist only to match column structure between
    # consecutive groups for warm starting; hashing a dense vector per
    # query costs real time on big graphs, so skip it whenever there is
    # nothing to match (single group, or warm starts disabled).
    if warm_start and len(groups) > 1:
        digests = [_teleport_digest(v) for v in vectors]
    else:
        digests = None

    out: list = [None] * len(queries)
    last_signature: tuple | None = None
    last_scores: np.ndarray | None = None
    for key in sorted(groups, key=lambda k: family_method(k).sort_key(k)):
        indices = groups[key]
        fam = family_method(key)
        if not fam.batchable:
            # Spectral methods: per-query direct solves through the
            # descriptor (the adjacency operator is not stochastic, so
            # a pooled power_iteration_batch block cannot serve them).
            for idx in indices:
                result = fam.solve(
                    graph,
                    key,
                    alpha=float(queries[idx].alpha),
                    teleport=vectors[idx],
                    tol=tol,
                    max_iter=max_iter,
                )
                out[idx] = NodeScores(graph, result.scores, result)
            continue
        bundle = operator_for(graph, key)
        signature = (
            tuple((float(queries[i].alpha), digests[i]) for i in indices)
            if digests is not None
            else None
        )
        initial = (
            last_scores
            if signature is not None and signature == last_signature
            else None
        )
        batch = power_iteration_batch(
            bundle.mat,
            teleports=[vectors[i] for i in indices],
            alphas=np.array([queries[i].alpha for i in indices]),
            tol=tol,
            max_iter=max_iter,
            dangling=key[-1],
            warm_start=initial,
            operator=bundle,
        )
        for j, idx in enumerate(indices):
            column = batch.column(j)
            out[idx] = NodeScores(graph, column.scores, column)
        last_signature = signature
        last_scores = batch.scores
    return out


def update_scores(
    previous,
    delta,
    *,
    p: float = 0.0,
    alpha: float = 0.85,
    beta: float = 0.0,
    weighted: bool = False,
    teleport: Mapping[Node, float] | Sequence[Node] | np.ndarray | None = None,
    dangling: str = "teleport",
    tol: float = 1e-10,
    max_iter: int = 1000,
    frontier_cap: float = 0.2,
    apply_delta: bool = True,
    method: str = "d2pr",
    fatigue: float = 0.0,
):
    """Apply a graph delta and incrementally update a previous solution.

    The streaming serving path: given the :class:`~repro.core.results.
    NodeScores` of an earlier :func:`~repro.core.d2pr.d2pr` /
    :func:`~repro.core.pagerank.pagerank` solve and a
    :class:`~repro.graph.delta.GraphDelta`, this

    1. applies the delta to the scores' graph
       (:meth:`~repro.graph.base.BaseGraph.apply_delta` splices the CSR
       edge store; the adjacency wraps it again in O(1)),
    2. re-solves by **residual correction**
       (:func:`~repro.linalg.incremental.incremental_update`): only the
       residual the delta creates is propagated, instead of re-streaming
       the whole matrix for a cold solve.

    ``(p, alpha, beta, weighted, teleport, dangling)`` must
    describe the query that produced ``previous`` — the delta changes
    the graph, not the question.  The result converges to the cold
    re-solve answer within solver tolerance (certified; see
    ``linalg/incremental.py``) and is typically far cheaper for deltas
    touching a small fraction of edges.

    ``apply_delta=False`` skips step 1 for callers that already applied
    the delta (e.g. several ``update_scores`` calls for different
    queries after one mutation).  Frozen (shared) graphs raise
    :class:`~repro.errors.FrozenGraphError` from step 1, exactly like
    any other mutation.

    Returns
    -------
    NodeScores
        Updated scores on the (mutated) graph; ``solver_result.method``
        reports ``"incremental_push"`` or ``"incremental_fallback"``.
    """
    query = RankQuery(
        p=p,
        alpha=alpha,
        beta=beta,
        weighted=weighted,
        teleport=teleport,
        dangling=dangling,
        method=method,
        fatigue=fatigue,
    )
    return update_scores_many(
        [previous],
        delta,
        [query],
        tol=tol,
        max_iter=max_iter,
        frontier_cap=frontier_cap,
        apply_delta=apply_delta,
    )[0]


def update_scores_many(
    previous: Sequence,
    delta,
    queries: Sequence[RankQuery] | None = None,
    *,
    tol: float = 1e-10,
    max_iter: int = 1000,
    frontier_cap: float = 0.2,
    apply_delta: bool = True,
) -> list:
    """Apply one delta and incrementally update a whole block of solutions.

    The batched counterpart of :func:`update_scores` — the delta-aware
    entry point for :func:`solve_many` consumers (parameter sweeps,
    bulk-served cohorts, the serving layer's cached blocks): given the
    :class:`~repro.core.results.NodeScores` of several earlier solves
    against **one graph** and the :class:`~repro.graph.delta.GraphDelta`
    that graph is about to absorb, every solution is re-certified by
    residual correction instead of a cold re-solve, and the per-delta
    costs are paid **once for the whole block**:

    * each group's pre-delta transition factors (the cached adjacency
      plus two O(n) vectors) are captured before the delta lands —
      queries sharing a transition share them, and no transition is
      built;
    * the delta is applied once (one CSR splice, one cache drop);
    * corrections run per query against the post-delta factors (grouped,
      again, by transition), each costing one full residual plus the
      rows the delta changed, with the same
      certified O(tol) distance to its cold re-solve as
      :func:`~repro.linalg.incremental.incremental_update` guarantees —
      de-localised corrections fall back to warm-started power iteration
      per query, so the block always converges.

    Parameters
    ----------
    previous:
        The earlier solutions, one :class:`~repro.core.results.NodeScores`
        per query, all on the same graph object.
    delta:
        The :class:`~repro.graph.delta.GraphDelta` to absorb.
    queries:
        One :class:`RankQuery` per entry of ``previous`` describing the
        query that produced it (the delta changes the graph, not the
        questions).  ``None`` means every entry was a default global
        ranking (``RankQuery()``).
    tol, max_iter, frontier_cap:
        As in :func:`update_scores`, shared by the whole block.
    apply_delta:
        ``False`` skips both the factor capture and the delta
        application for callers that already applied the delta; the
        corrections then split the old solve's dust by magnitude.

    Returns
    -------
    list[NodeScores]
        Updated scores aligned with ``previous``.
    """
    annotate(engine="update_scores_many", engine_blocks=len(previous))

    from repro.core.results import NodeScores
    from repro.linalg.incremental import incremental_update
    from repro.methods import family_method, resolve

    previous = list(previous)
    if not previous:
        return []
    for scores in previous:
        if not isinstance(scores, NodeScores):
            raise ParameterError(
                "previous must hold the NodeScores of earlier solves, "
                f"got {type(scores).__name__}"
            )
    graph = previous[0].graph
    if any(scores.graph is not graph for scores in previous):
        raise ParameterError(
            "all previous solutions must be computed on the same graph "
            "object (one delta mutates one graph)"
        )
    if queries is None:
        queries = [RankQuery()] * len(previous)
    queries = list(queries)
    if len(queries) != len(previous):
        raise ParameterError(
            f"got {len(previous)} previous solutions but "
            f"{len(queries)} queries; they must align one-to-one"
        )
    for query in queries:
        query.validate()
        if not resolve(query.method).supports_incremental:
            raise ParameterError(
                f"method {query.method!r} does not support incremental "
                "residual correction; re-solve it after the delta instead"
            )

    vectors = [build_teleport(graph, q.teleport) for q in queries]
    groups: dict[tuple, list[int]] = {}
    for idx, query in enumerate(queries):
        groups.setdefault(query.group_key, []).append(idx)

    before: dict[tuple, object] = {}
    touched = None
    if apply_delta:
        # Capture every group's old-system factors before the delta
        # lands: each correction derives its old residual from them and
        # the touched nodes, which costs far less than the global-dust
        # cleanup it saves the push solver (see ``incremental_update``'s
        # ``before``).
        for key in groups:
            before[key] = family_method(key).factors(graph, key)
        touched = delta.endpoints()
        graph.apply_delta(delta)

    out: list = [None] * len(previous)
    for key, indices in groups.items():
        dangling = key[-1]
        factors = family_method(key).factors(graph, key)
        for idx in indices:
            result = incremental_update(
                None,
                previous[idx].values,
                alpha=queries[idx].alpha,
                teleport=vectors[idx],
                dangling=dangling,
                tol=tol,
                max_iter=max_iter,
                frontier_cap=frontier_cap,
                operator=factors,
                before=before.get(key),
                touched=touched,
            )
            out[idx] = NodeScores(graph, result.scores, result)
    return out
