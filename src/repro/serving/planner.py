"""Query normalisation and planning for the ranking service.

The compute layers below this package solve *systems*: a transition
matrix, a teleport vector, a tolerance.  The serving layer owns
*requests* — "rank this graph for these seeds with this method" — and its
first job is deciding **how** each request should be executed.  That is
the planner's contract:

* :class:`RankRequest` is the normalised request vocabulary: a method
  name resolved through the registry (:mod:`repro.methods` — the
  stochastic ``pagerank``/``d2pr``/``fatigued`` family plus the
  spectral ``katz``/``eigenvector``/``hits`` family), its per-method
  parameters (``p``, ``alpha``, ``beta``/``weighted``, ``fatigue``), a
  seed specification, dangling strategy, tolerance and an optional
  ``top_k``.  Which parameters a method accepts — and how they fold
  into group keys and cache digests — is owned by its
  :class:`~repro.methods.CentralityMethod` descriptor, not by this
  module.
* :func:`canonical_query` resolves a request against a graph into its
  transition-group key, dense teleport vector and a **canonical digest**
  — the result-cache key, stable across equivalent spellings of the same
  query (seed lists vs mappings vs arrays, scaled teleports).
* :class:`QueryPlanner` chooses an execution strategy with explicit,
  explainable cost heuristics:

  - ``"cached"``      — the result cache holds a certified answer for
    this digest at the current graph version;
  - ``"incremental"`` — the cache holds a pre-delta answer plus the
    captured baseline residual of a pending
    :class:`~repro.graph.delta.GraphDelta`: correct it by residual
    push (:func:`~repro.linalg.incremental.incremental_update`)
    instead of re-solving;
  - ``"push"``        — the seed support is sparse and its estimated
    frontier reach is a small fraction of the stored entries: serve by
    :func:`~repro.linalg.push.forward_push` (which still falls back to
    power iteration on its own if the frontier de-localises, so a
    mis-planned push is never wrong, only slower);
  - ``"spectral"``    — the method is not batchable (its operator is
    the raw adjacency, not a stochastic transition — eigenvector/
    Katz/HITS): solve directly through
    :meth:`~repro.methods.CentralityMethod.solve`; the answer is still
    cached under the method's eigen/L1 certificate;
  - ``"shard_push"``  — push-eligible *and* the service holds a
    block-partitioned operator (``shard_state``) whose plan maps every
    seed into one shard with no foreign dangling rows: run the push
    against that shard's small diagonal block plus a ghost absorber
    (:meth:`~repro.shard.operator.ShardedOperator.push_context`) — the
    service certifies the answer with the escaped-mass bound and falls
    back to a global push when too much mass leaves the shard;
  - ``"sharded"``     — uniform-teleport (global) rankings when a
    sharded operator is held: run the block-relaxation rounds of
    :func:`~repro.shard.solver.sharded_solve` over its blocks instead of
    streaming the monolithic matrix;
  - ``"batch"``       — everything else (dense teleports, wide seed
    sets, pooled cohorts): pooled
    :func:`~repro.linalg.power_iteration_batch` blocks through the
    microbatch coalescer.

Every :class:`QueryPlan` carries the reason string and the raw cost
estimates behind the choice, so ``plan.explain()`` answers "why did the
service do that?" without a debugger.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ParameterError
from repro.graph.base import BaseGraph, Node
from repro.methods import MethodParams, method_names, resolve
from repro.telemetry.trace import annotate

__all__ = [
    "METHODS",
    "STRATEGIES",
    "RankRequest",
    "CanonicalQuery",
    "QueryPlan",
    "QueryPlanner",
    "canonical_query",
    "dense_teleport",
]

#: Registry-derived: every registered centrality method is servable.
METHODS = method_names()
STRATEGIES = (
    "cached",
    "incremental",
    "spectral",
    "shard_push",
    "push",
    "sharded",
    "batch",
)


@dataclass(frozen=True)
class RankRequest:
    """One ranking request against the served graph.

    The serving-layer counterpart of :class:`~repro.core.engine.RankQuery`:
    where a ``RankQuery`` names a linear system, a ``RankRequest`` names a
    *question* — including the method, the accuracy the caller needs and
    how much of the answer they want back.

    Attributes
    ----------
    method:
        A registered :class:`~repro.methods.CentralityMethod` name:
        ``"pagerank"`` / ``"d2pr"`` / ``"fatigued"`` (stochastic) or
        ``"katz"`` / ``"eigenvector"`` / ``"hits"`` (spectral).  The
        descriptor owns which of the fields below the method accepts;
        out-of-vocabulary fields must stay at their defaults.
    p:
        Degree de-coupling weight (``d2pr``/``fatigued``).
    alpha:
        Residual probability (stochastic family and ``katz``).
    beta:
        Connection-strength blend (weighted graphs only).
    weighted:
        Honour stored edge weights.
    fatigue:
        Fatigue strength γ ∈ [0, 1) (``method="fatigued"``): node ``j``
        forwards only ``1 − γ·θ_j/θ_max`` of incoming transition mass
        before row re-normalisation.
    seeds:
        Personalisation: ``None`` (global ranking), an index-aligned
        array, a ``{node: weight}`` mapping, or a sequence of seed nodes.
    dangling:
        Dangling-mass strategy (``"teleport"``, ``"uniform"``, ``"self"``).
    tol:
        L1 accuracy of the answer.  Cached entries only serve requests
        whose tolerance they meet (an entry solved at 1e-8 never answers
        a 1e-10 request).
    top_k:
        When set, the served result also materialises the top-``k``
        slice; the full certified vector is still cached.
    """

    method: str = "d2pr"
    p: float = 0.0
    alpha: float = 0.85
    beta: float = 0.0
    weighted: bool = False
    fatigue: float = 0.0
    seeds: Mapping[Node, float] | Sequence[Node] | np.ndarray | None = None
    dangling: str = "teleport"
    tol: float = 1e-10
    top_k: int | None = None

    def method_params(self) -> MethodParams:
        """This request's parameters in the registry's normalised view."""
        return MethodParams(
            p=float(self.p),
            alpha=float(self.alpha),
            beta=float(self.beta),
            weighted=bool(self.weighted),
            dangling=self.dangling,
            fatigue=float(self.fatigue),
            has_seeds=self.seeds is not None,
        )

    def validate(self) -> None:
        """Raise :class:`ParameterError` on out-of-domain settings.

        Method-parameter validation (vocabulary, domains, seed support)
        is delegated to the resolved
        :class:`~repro.methods.CentralityMethod`; only serving-level
        vocabulary (``tol``, ``top_k``) is checked here.
        """
        resolve(self.method).validate(self.method_params())
        if not (np.isfinite(self.tol) and self.tol > 0.0):
            raise ParameterError(f"tol must be positive, got {self.tol}")
        if self.top_k is not None and self.top_k < 0:
            raise ParameterError(f"top_k must be >= 0, got {self.top_k}")

    @property
    def resolved_p(self) -> float:
        """The de-coupling weight of the transition this request solves."""
        method = resolve(self.method)
        return float(self.p) if "p" in method.vocabulary else 0.0

    @property
    def group_key(self) -> tuple:
        """The transition identity ``(family, *matrix params)``.

        Built by the resolved method's
        :meth:`~repro.methods.CentralityMethod.group_key` — the single
        construction site: the planner's canonical queries, the
        coalescer's group table and the service's bundle resolution
        (including pre-/post-delta corrections) all read this property,
        so the key can never diverge between them.  The leading family
        tag keeps different families out of each other's microbatch
        pools while ``pagerank`` and ``d2pr`` (one family) keep
        sharing transitions.
        """
        return resolve(self.method).group_key(self.method_params())


@dataclass(frozen=True)
class CanonicalQuery:
    """A request resolved against a concrete graph.

    ``digest`` identifies the *answer* (method, transition parameters,
    alpha, dangling and the unit-normalised teleport) — two requests with
    equal digests have identical score vectors at any common tolerance,
    so the digest is the result-cache key.  ``group_key`` identifies the
    *transition matrix* — requests sharing it can be pooled into one
    batched solve.

    The teleport is held **sparse** — sorted seed indices plus
    unit-normalised weights (``None``/``None`` for uniform) — so
    normalising and digesting a request costs O(seeds), not O(n): a
    cache *hit* never allocates or hashes a dense n-vector.  Paths that
    actually solve (batch columns, incremental corrections) materialise
    the dense vector on demand via :meth:`dense_teleport`.
    """

    request: RankRequest
    n: int
    seed_idx: np.ndarray | None
    seed_weights: np.ndarray | None
    digest: str
    group_key: tuple

    def dense_teleport(self) -> np.ndarray | None:
        """The dense ``(n,)`` teleport vector (``None`` = uniform)."""
        return dense_teleport(self.n, self.seed_idx, self.seed_weights)


def dense_teleport(
    n: int,
    seed_idx: np.ndarray | None,
    seed_weights: np.ndarray | None,
) -> np.ndarray | None:
    """Materialise a sparse canonical teleport as a dense ``(n,)`` vector.

    The one scatter site shared by every consumer of the sparse form
    (batch columns, cache corrections), so the materialisation can never
    diverge between paths.  ``None`` indices mean uniform teleportation
    and return ``None``.
    """
    if seed_idx is None:
        return None
    vec = np.zeros(n)
    vec[seed_idx] = seed_weights
    return vec


def _sparse_seeds(
    graph: BaseGraph,
    seeds: Mapping[Node, float] | Sequence[Node] | np.ndarray | None,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Resolve a seed spec into sorted (indices, unit-normalised weights).

    Mirrors :func:`~repro.core.engine.build_teleport` semantics —
    mappings keep their weights, sequences weight each occurrence
    equally, dense arrays are sparsified — without ever allocating a
    dense vector for the mapping/sequence forms.  Zero-weight seeds are
    dropped (a dense spelling would not contain them either), so every
    spelling of one distribution produces one canonical form.
    """
    if seeds is None:
        return None, None
    n = graph.number_of_nodes
    if isinstance(seeds, np.ndarray):
        if seeds.shape != (n,):
            raise ParameterError(
                f"teleport array must have shape ({n},), got {seeds.shape}"
            )
        vec = seeds.astype(np.float64)
        if not np.isfinite(vec).all() or (vec < 0).any():
            raise ParameterError(
                "teleport vector must be non-negative and finite"
            )
        idx = np.flatnonzero(vec)
        weights = vec[idx]
    elif isinstance(seeds, Mapping):
        pairs = []
        for node, weight in seeds.items():
            weight = float(weight)
            if weight < 0:
                raise ParameterError(
                    f"teleport weight for {node!r} must be >= 0, "
                    f"got {weight}"
                )
            pairs.append((graph.index_of(node), weight))
        idx = np.array([i for i, _ in pairs], dtype=np.int64)
        weights = np.array([w for _, w in pairs])
        order = np.argsort(idx)
        idx, weights = idx[order], weights[order]
        keep = weights > 0.0
        idx, weights = idx[keep], weights[keep]
    else:
        indices = np.array(
            [graph.index_of(node) for node in seeds], dtype=np.int64
        )
        idx, counts = np.unique(indices, return_counts=True)
        weights = counts.astype(np.float64)
    total = weights.sum()
    if total <= 0.0:
        raise ParameterError("teleport specification has no positive mass")
    return idx, weights / total


def canonical_query(graph: BaseGraph, request: RankRequest) -> CanonicalQuery:
    """Validate ``request`` and resolve it against ``graph``.

    Normalises the seed specification into the sparse canonical form
    (O(seeds), no dense allocation) and computes the canonical digest.
    Scaled teleports digest equal (weights are normalised to unit mass
    before hashing), so ``{a: 1}`` and ``{a: 3.0}`` share a cache line,
    as do a seed list, the equivalent mapping and the equivalent dense
    array.
    """
    request.validate()
    method = resolve(request.method)
    params = request.method_params()
    group_key = method.group_key(params)
    seed_idx, seed_weights = _sparse_seeds(graph, request.seeds)
    h = hashlib.sha1()
    # The digest covers the group key plus the method's declared
    # per-answer parameters (alpha for methods that use it, nothing for
    # pure eigen methods) — fields a method ignores cannot split its
    # cache lines.
    h.update(repr((group_key, method.digest_params(params))).encode())
    if seed_idx is None:
        h.update(b"<uniform>")
    else:
        h.update(seed_idx.tobytes())
        h.update(seed_weights.tobytes())
    return CanonicalQuery(
        request=request,
        n=graph.number_of_nodes,
        seed_idx=seed_idx,
        seed_weights=seed_weights,
        digest=h.hexdigest(),
        group_key=group_key,
    )


@dataclass(frozen=True)
class QueryPlan:
    """The planner's decision for one request, with its evidence.

    ``estimates`` holds the raw numbers behind the choice (stored-entry
    count, estimated power sweeps, seed support, estimated push frontier
    reach and the localization ratio) so operators can audit the plan mix
    the service reports in :meth:`~repro.serving.RankingService.stats`.
    """

    strategy: str
    reason: str
    digest: str
    group_key: tuple
    estimates: Mapping[str, float] = field(default_factory=dict)

    def explain(self) -> str:
        """One-line human-readable account of the decision."""
        facts = ", ".join(
            f"{key}={value:.3g}" if isinstance(value, float) else
            f"{key}={value}"
            for key, value in self.estimates.items()
        )
        out = f"strategy={self.strategy}: {self.reason}"
        return f"{out} [{facts}]" if facts else out


class QueryPlanner:
    """Chooses an execution strategy per request with explicit heuristics.

    Parameters
    ----------
    push_max_seeds:
        Largest seed-support size the push path is considered for; wider
        personalisation vectors spread mass too broadly for
        Gauss–Southwell push to beat a pooled batched sweep.
    push_localization:
        Upper bound on the *localization ratio* — the estimated frontier
        reach (``support · avg_out_entries / (1 − α)``) as a fraction of
        the stored entries — below which push is chosen.  The estimate is
        deliberately crude (the push solver carries its own exact
        ``frontier_cap`` fallback); it exists to keep obviously global
        queries off the push path, not to be a performance model.
    """

    def __init__(
        self,
        *,
        push_max_seeds: int = 32,
        push_localization: float = 0.25,
    ) -> None:
        if push_max_seeds < 0:
            raise ParameterError(
                f"push_max_seeds must be >= 0, got {push_max_seeds}"
            )
        if not 0.0 <= push_localization <= 1.0:
            raise ParameterError(
                f"push_localization must be in [0, 1], "
                f"got {push_localization}"
            )
        self.push_max_seeds = push_max_seeds
        self.push_localization = push_localization

    def plan(
        self,
        graph: BaseGraph,
        query: CanonicalQuery,
        *,
        cache_state: str | None = None,
        shard_state=None,
    ) -> QueryPlan:
        """Plan one canonical query.

        ``cache_state`` is the service's result-cache verdict for the
        query's digest: ``"hit"`` (certified answer at the current graph
        version), ``"pending"`` (pre-delta answer plus captured baseline
        residual awaiting incremental correction) or ``None`` (miss).

        ``shard_state`` is a zero-argument callable returning the
        service's block-partitioned operator for the query's transition
        group (a :class:`~repro.shard.operator.ShardedOperator`, or
        ``None`` when the service is not sharding), or ``None`` itself.
        It upgrades two decisions: push-eligible queries whose seeds land
        in a single shard become ``"shard_push"``, and uniform-teleport
        global rankings become ``"sharded"``.  It is called at most once,
        and only by those two branches, so ``"cached"``,
        ``"incremental"``, ``"spectral"`` and wide-seed ``"batch"`` plans
        never build an operator.  Wide-seed personalised queries stay
        ``"batch"`` regardless — pooling cohorts through the coalescer
        beats solving them one sharded system at a time.

        When a trace is active, the decision is annotated onto the
        ambient span (``planner_strategy`` / ``planner_reason``) — this
        covers dry-run plans too, which the service's own ``plan`` span
        does not see.
        """
        plan = self._plan(
            graph, query, cache_state=cache_state, shard_state=shard_state
        )
        annotate(
            planner_strategy=plan.strategy, planner_reason=plan.reason
        )
        return plan

    def _plan(
        self,
        graph: BaseGraph,
        query: CanonicalQuery,
        *,
        cache_state: str | None = None,
        shard_state=None,
    ) -> QueryPlan:
        request = query.request
        n = graph.number_of_nodes
        m = graph.number_of_edges
        entries = float(m if graph.directed else 2 * m)
        alpha = float(request.alpha)
        # Power iteration contracts the L1 error by a factor alpha per
        # sweep, so reaching tol takes ~ log(tol)/log(alpha) sweeps.
        if 0.0 < alpha < 1.0 and request.tol < 1.0:
            sweeps = max(1.0, math.log(request.tol) / math.log(alpha))
        else:
            sweeps = 1.0
        estimates: dict[str, float] = {
            "entries": entries,
            "est_power_sweeps": sweeps,
        }

        if cache_state == "hit":
            return QueryPlan(
                strategy="cached",
                reason="certified cache entry at the current graph version",
                digest=query.digest,
                group_key=query.group_key,
                estimates=estimates,
            )
        if cache_state == "pending":
            return QueryPlan(
                strategy="incremental",
                reason=(
                    "cached pre-delta answer with captured baseline "
                    "residual: correct by residual push instead of "
                    "re-solving"
                ),
                digest=query.digest,
                group_key=query.group_key,
                estimates=estimates,
            )

        method = resolve(request.method)
        if not method.batchable:
            estimates["certificate"] = method.certificate
            return QueryPlan(
                strategy="spectral",
                reason=(
                    f"{method.name} iterates the adjacency operator "
                    f"(not a stochastic transition): direct spectral "
                    f"solve under the {method.certificate} certificate"
                ),
                digest=query.digest,
                group_key=query.group_key,
                estimates=estimates,
            )

        if query.seed_idx is not None:
            support = int(query.seed_idx.size)
            avg_entries = entries / max(n, 1)
            # Crude frontier-reach model: the pushed mass decays by alpha
            # per hop, so the visited neighbourhood is roughly the seeds'
            # out-entries amplified by the walk length 1/(1-alpha).
            reach = support * avg_entries / max(1.0 - alpha, 1e-12)
            localization = reach / max(entries, 1.0)
            estimates.update(
                seed_support=float(support),
                est_frontier_entries=reach,
                localization=localization,
            )
            if (
                method.supports_push
                and support <= self.push_max_seeds
                and localization <= self.push_localization
            ):
                sharded = shard_state() if shard_state is not None else None
                shard = self._local_shard(sharded, query)
                if shard is not None:
                    estimates.update(
                        shard=float(shard),
                        shard_nodes=float(sharded.plan.sizes[shard]),
                    )
                    return QueryPlan(
                        strategy="shard_push",
                        reason=(
                            f"{support} seed(s) fall in shard {shard} "
                            "with no foreign dangling rows: shard-local "
                            "forward push with escaped-mass certificate"
                        ),
                        digest=query.digest,
                        group_key=query.group_key,
                        estimates=estimates,
                    )
                return QueryPlan(
                    strategy="push",
                    reason=(
                        f"{support} seed(s) reach an estimated "
                        f"{100 * localization:.2g}% of stored entries: "
                        "localized forward push"
                    ),
                    digest=query.digest,
                    group_key=query.group_key,
                    estimates=estimates,
                )
            if not method.supports_push:
                reason = f"method {method.name!r} has no push solver"
            elif support > self.push_max_seeds:
                reason = f"seed support {support} exceeds the push window"
            else:
                reason = (
                    f"estimated frontier reach {100 * localization:.2g}% "
                    "de-localises push"
                )
            return QueryPlan(
                strategy="batch",
                reason=f"{reason}: pooled power iteration",
                digest=query.digest,
                group_key=query.group_key,
                estimates=estimates,
            )

        sharded = (
            shard_state()
            if shard_state is not None and method.supports_sharding
            else None
        )
        if sharded is not None:
            estimates["n_shards"] = float(sharded.n_shards)
            return QueryPlan(
                strategy="sharded",
                reason=(
                    "uniform teleport (global ranking) with a "
                    "block-partitioned operator: sharded block "
                    "relaxation"
                ),
                digest=query.digest,
                group_key=query.group_key,
                estimates=estimates,
            )
        return QueryPlan(
            strategy="batch",
            reason="uniform teleport (global ranking): pooled power "
            "iteration",
            digest=query.digest,
            group_key=query.group_key,
            estimates=estimates,
        )

    @staticmethod
    def _local_shard(sharded, query: CanonicalQuery) -> int | None:
        """The single shard a push-eligible query is local to, or ``None``.

        Local means every seed lands in one shard **and** local push can
        be exact about dangling mass: either the request already keeps
        dangling mass in place (``dangling="self"``, which the ghost
        system models directly) or the shard contains no dangling rows at
        all — genuine in-shard dangling under ``"teleport"``/``"uniform"``
        redistributes mass globally, which a shard-local system cannot
        represent.
        """
        if sharded is None:
            return None
        shards = sharded.plan.shards_of(query.seed_idx)
        if np.unique(shards).size != 1:
            return None
        shard = int(shards[0])
        if query.request.dangling == "self":
            return shard
        return shard if sharded.local_dangle[shard].size == 0 else None
