"""D2PR-backed recommendation.

The paper motivates D2PR through recommendation systems: "Recommendation
systems leverage such node significance measures to rank the objects in the
database."  This module packages the algorithms of :mod:`repro.core` into a
small recommender with the two standard modes:

* **global ranking** — rank all items by significance (e.g. "top movies"),
* **contextual recommendation** — rank items relative to a set of seed
  items the user liked, via personalised D2PR (the context-aware setting of
  the paper's §2.1),
* **bulk serving** — :meth:`D2PRRecommender.recommend_for_many` answers a
  whole cohort of personalised queries as one batched solve
  (:func:`repro.core.engine.solve_many`): every user shares the fitted
  transition matrix, so the cohort differs only in teleport vectors and
  advances together, one sparse·dense multiply per sweep,
* **streaming updates** — :meth:`D2PRRecommender.update` absorbs a
  :class:`~repro.graph.delta.GraphDelta` without a refit: the fitted
  graph's caches are patched in place and the global ranking is
  corrected incrementally (:func:`repro.core.engine.update_scores`), so
  serving survives edits.

The degree de-coupling weight ``p`` is the recommender's key hyper-parameter;
:meth:`D2PRRecommender.tune_p` selects it by maximising rank correlation
with a training significance signal, mirroring the paper's per-application
calibration message.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.d2pr import d2pr
from repro.core.engine import RankQuery, solve_many, update_scores
from repro.core.personalized import personalized_d2pr, seed_weights
from repro.core.results import NodeScores
from repro.errors import ParameterError, ReproError
from repro.graph.base import BaseGraph, Node
from repro.linalg.push import forward_push
from repro.metrics.correlation import spearman
from repro.serving import RankingService, RankRequest

__all__ = ["D2PRRecommender", "RecommenderConfig"]


@dataclass(frozen=True)
class RecommenderConfig:
    """Hyper-parameters of :class:`D2PRRecommender`.

    Attributes
    ----------
    method:
        Registered centrality method serving the rankings (see
        :func:`repro.methods.method_names`): ``"d2pr"`` (default),
        ``"pagerank"``, ``"fatigued"``, ``"katz"``, ``"eigenvector"``
        or ``"hits"``.  The method's parameter vocabulary governs which
        of the fields below it interprets; the rest must stay at their
        defaults.
    p:
        Degree de-coupling weight (0 = conventional PageRank).
    alpha:
        Residual probability of the random walk.
    beta:
        Connection-strength blend for weighted graphs (ignored when
        ``weighted=False``).
    weighted:
        Use stored edge weights (paper §3.2.3).
    fatigue:
        Degree-fatigue strength γ of ``method="fatigued"``.
    solver:
        One of ``"power"``, ``"gauss_seidel"``, ``"direct"``, ``"push"``
        (the localized forward-push serving path for personalised
        queries; global rankings under it are served by power iteration).
        Non-power solvers apply to the d2pr family only.
    """

    p: float = 0.0
    alpha: float = 0.85
    beta: float = 0.0
    weighted: bool = False
    solver: str = "power"
    method: str = "d2pr"
    fatigue: float = 0.0

    def method_params(self):
        """This configuration as registry :class:`MethodParams`."""
        from repro.methods import MethodParams

        return MethodParams(
            p=float(self.p),
            alpha=float(self.alpha),
            beta=float(self.beta) if self.weighted else 0.0,
            weighted=bool(self.weighted),
            fatigue=float(self.fatigue),
        )

    def validate(self) -> None:
        """Raise :class:`ParameterError` on out-of-domain settings."""
        from repro.methods import resolve

        if not 0.0 <= self.beta <= 1.0:
            raise ParameterError(f"beta must be in [0, 1], got {self.beta}")
        resolve(self.method).validate(self.method_params())


@dataclass
class D2PRRecommender:
    """Graph recommender built on degree de-coupled PageRank.

    An injected :class:`~repro.serving.RankingService` turns the
    recommender into a *client* of the serving layer: global rankings,
    per-user personalised queries, bulk cohorts and streaming updates
    all route through the service's one planner, microbatch coalescer
    and delta-aware result cache — instead of each method carrying its
    own private solving state.  Several recommenders (or any other
    consumer) sharing one service share one cache.  Without a service
    the recommender keeps its self-contained direct-solve behaviour;
    service mode accepts the ``solver="power"`` (default) and
    ``solver="push"`` configurations — the service's planner makes the
    power/push/batched call itself — while ``gauss_seidel``/``direct``
    semantics require dropping the injection.

    Examples
    --------
    >>> from repro.datasets import load
    >>> dg = load("imdb/movie-movie", scale=0.2)
    >>> rec = D2PRRecommender(config=RecommenderConfig(p=0.0)).fit(dg.graph)
    >>> top = rec.recommend(k=5)
    >>> related = rec.recommend_for(seeds=[top[0][0]], k=5)
    """

    config: RecommenderConfig = field(default_factory=RecommenderConfig)
    service: RankingService | None = None
    _graph: BaseGraph | None = field(default=None, repr=False)
    _global_scores: NodeScores | None = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------
    def fit(self, graph: BaseGraph) -> "D2PRRecommender":
        """Attach a graph and precompute the global significance ranking.

        With an injected :class:`~repro.serving.RankingService` the
        global ranking is served (and cached) by the service, which must
        have been constructed over the same graph object; the
        recommender then shares the service's planner/cache for every
        query and update path.
        """
        self.config.validate()
        graph.require_nonempty()
        if self.service is not None:
            if self.config.solver not in ("power", "push"):
                raise ParameterError(
                    "a RankingService plans power/push/batched execution "
                    f"itself; solver={self.config.solver!r} is not served "
                    "(drop the service injection to use it)"
                )
            if self.service.graph is not graph:
                raise ParameterError(
                    "the injected RankingService serves a different graph "
                    "object; construct the service over the fitted graph"
                )
            self._graph = graph
            self._global_scores = self.service.rank(self._request()).scores
            return self
        self._graph = graph
        self._global_scores = self._solve_global(graph)
        return self

    def _method(self):
        """The registry descriptor of the configured method."""
        from repro.methods import resolve

        return resolve(self.config.method)

    def _group_key(self) -> tuple:
        """The configured method's transition/operator group key."""
        return self._method().group_key(self.config.method_params())

    def _solve_global(self, graph: BaseGraph) -> NodeScores:
        """Direct (service-less) global solve for the configured method."""
        from repro.core.engine import solve_transition

        method = self._method()
        if method.family == "d2pr":
            return d2pr(
                graph,
                self.config.p,
                alpha=self.config.alpha,
                beta=self.config.beta if self.config.weighted else 0.0,
                weighted=self.config.weighted,
                solver=self.config.solver,
            )
        if self.config.solver != "power":
            raise ParameterError(
                f"method {self.config.method!r} solves by power iteration; "
                f"solver={self.config.solver!r} applies to the d2pr family "
                "only"
            )
        key = self._group_key()
        if method.batchable:
            bundle = method.operator(graph, key)
            result = solve_transition(
                bundle.mat,
                alpha=self.config.alpha,
                operator=bundle,
            )
        else:
            result = method.solve(graph, key, alpha=self.config.alpha)
        return NodeScores(graph, result.scores, result)

    def _request(
        self,
        *,
        seeds: Mapping[Node, float] | Sequence[Node] | None = None,
        tol: float = 1e-10,
    ) -> RankRequest:
        """The service-layer request describing this recommender's query."""
        return RankRequest(
            method=self.config.method,
            p=self.config.p,
            alpha=self.config.alpha,
            beta=self.config.beta if self.config.weighted else 0.0,
            weighted=self.config.weighted,
            fatigue=self.config.fatigue,
            seeds=seed_weights(seeds) if seeds is not None else None,
            tol=tol,
        )

    def update(self, delta, *, tol: float = 1e-10) -> "D2PRRecommender":
        """Absorb a :class:`~repro.graph.delta.GraphDelta` without a refit.

        The streaming-serving counterpart of :meth:`fit`: the delta is
        applied to the fitted graph through the delta-aware cache refresh
        and the precomputed global ranking is **incrementally corrected**
        (:func:`repro.core.engine.update_scores`) instead of re-solved
        from scratch — bulk serving (:meth:`recommend`,
        :meth:`recommend_for_many`, :meth:`recommend_one`) keeps running
        against up-to-date scores and patched cached operators while the
        graph takes edits.  Fitted on a frozen shared graph, the update
        raises :class:`~repro.errors.FrozenGraphError` (fit a private
        ``graph.copy()`` to serve a mutable stream).

        With an injected service the delta routes through
        :meth:`~repro.serving.RankingService.apply_delta`, so *every*
        cached answer the service holds (this recommender's and any
        other client's) is corrected instead of evicted; the global
        ranking refresh is then itself an ``"incremental"``-planned
        cache correction.

        Returns ``self`` for chaining.
        """
        _graph, scores = self._require_fitted()
        if self.service is not None:
            self.service.apply_delta(delta)
            self._global_scores = self.service.rank(
                self._request(tol=tol)
            ).scores
            return self
        if not self._method().supports_incremental:
            # Spectral answers carry no incremental-correction
            # certificate; absorb the delta and re-solve directly.
            _graph.apply_delta(delta)
            self._global_scores = self._solve_global(_graph)
            return self
        self._global_scores = update_scores(
            scores,
            delta,
            p=self.config.p,
            alpha=self.config.alpha,
            beta=self.config.beta if self.config.weighted else 0.0,
            weighted=self.config.weighted,
            method=self.config.method,
            fatigue=self.config.fatigue,
            tol=tol,
        )
        return self

    def _require_fitted(self) -> tuple[BaseGraph, NodeScores]:
        if self._graph is None or self._global_scores is None:
            raise ReproError("recommender is not fitted; call fit(graph) first")
        return self._graph, self._global_scores

    @property
    def scores(self) -> NodeScores:
        """Global D2PR scores of the fitted graph."""
        return self._require_fitted()[1]

    # ------------------------------------------------------------------
    # recommendation
    # ------------------------------------------------------------------
    def recommend(
        self, k: int = 10, *, exclude: Sequence[Node] = ()
    ) -> list[tuple[Node, float]]:
        """Top-``k`` items by global D2PR significance.

        ``exclude`` removes items the user already knows.  **Short-result
        contract:** the list holds fewer than ``k`` entries exactly when
        fewer than ``k`` eligible items exist (the graph runs out after
        exclusions) — never because of internal truncation.  Selection is
        ``argpartition``-based (O(n + k·log k) with over-fetch for the
        exclusions) instead of a full O(n·log n) ranking per request;
        ordering matches the full stable ranking, ties broken by node
        index.
        """
        _graph, scores = self._require_fitted()
        return self._select_top_k(scores, set(exclude), k)

    @staticmethod
    def _select_top_k(
        scores: NodeScores, banned: set, k: int
    ) -> list[tuple[Node, float]]:
        """Best ``k`` unbanned nodes, matching the stable full-sort order.

        Over-fetches ``k + len(banned)`` candidates via ``argpartition``
        so exclusions can never push an eligible item out of the window;
        returns fewer than ``k`` entries only when the graph has fewer
        than ``k`` eligible nodes.  Tie-break (equal scores → smaller
        node index first) reproduces ``NodeScores.ranking()`` exactly,
        including across the partition boundary.
        """
        if k < 0:
            raise ParameterError(f"k must be >= 0, got {k}")
        if k == 0:
            return []
        values = scores.values
        n = values.shape[0]
        m = k + len(banned)
        if m >= n:
            order = np.argsort(-values, kind="stable")
        else:
            part = np.argpartition(-values, m - 1)[:m]
            # argpartition picks an arbitrary subset of boundary ties;
            # re-pick the == threshold candidates by smallest index so the
            # selection matches the stable full sort.
            thresh = values[part].min()
            above = part[values[part] > thresh]
            at = np.flatnonzero(values == thresh)[: m - above.size]
            cand = np.concatenate([above, at])
            order = cand[np.lexsort((cand, -values[cand]))]
        graph = scores.graph
        out: list[tuple[Node, float]] = []
        for idx in order:
            node = graph.node_at(int(idx))
            if node in banned:
                continue
            out.append((node, float(values[idx])))
            if len(out) == k:
                break
        return out

    @classmethod
    def _top_k(
        cls,
        seeded: NodeScores,
        seed_set: set,
        k: int,
        include_seeds: bool,
    ) -> list[tuple[Node, float]]:
        return cls._select_top_k(
            seeded, set() if include_seeds else seed_set, k
        )

    def recommend_for(
        self,
        seeds: Mapping[Node, float] | Sequence[Node],
        k: int = 10,
        *,
        include_seeds: bool = False,
        tol: float | None = None,
    ) -> list[tuple[Node, float]]:
        """Top-``k`` items related to ``seeds`` via personalised D2PR.

        Seeds are excluded from the result unless ``include_seeds=True``.
        ``tol`` overrides the solver's convergence tolerance (``None``
        keeps the solver default; the direct solver is exact regardless).
        """
        graph, _scores = self._require_fitted()
        if self.service is not None:
            seeded = self.service.rank(
                self._request(seeds=seeds, tol=tol if tol is not None else 1e-10)
            ).scores
            return self._top_k(seeded, set(seeds), k, include_seeds)
        method = self._method()
        if method.family == "d2pr":
            extra = {} if tol is None else {"tol": tol}
            seeded = personalized_d2pr(
                graph,
                seeds,
                self.config.p,
                alpha=self.config.alpha,
                beta=self.config.beta if self.config.weighted else 0.0,
                weighted=self.config.weighted,
                solver=self.config.solver,
                **extra,
            )
            return self._top_k(seeded, set(seeds), k, include_seeds)
        seeded = self._solve_personalized(graph, seeds, tol=tol)
        return self._top_k(seeded, set(seeds), k, include_seeds)

    def _solve_personalized(
        self,
        graph: BaseGraph,
        seeds: Mapping[Node, float] | Sequence[Node],
        *,
        tol: float | None,
    ) -> NodeScores:
        """Seeded solve for non-d2pr-family methods (service-less mode).

        The registry gates eligibility: a global eigen measure rejects
        seeds outright, a seed-capable method solves against its own
        teleport vector — the batchable fatigued transition through the
        shared solver dispatch, Katz through its direct power method.
        """
        from dataclasses import replace

        from repro.core.engine import build_teleport, solve_transition

        method = self._method()
        method.validate(replace(self.config.method_params(), has_seeds=True))
        if self.config.solver != "power":
            raise ParameterError(
                f"method {self.config.method!r} solves by power iteration; "
                f"solver={self.config.solver!r} applies to the d2pr family "
                "only"
            )
        teleport = build_teleport(graph, seed_weights(seeds))
        extra = {} if tol is None else {"tol": tol}
        key = self._group_key()
        if method.batchable:
            bundle = method.operator(graph, key)
            result = solve_transition(
                bundle.mat,
                alpha=self.config.alpha,
                teleport=teleport,
                operator=bundle,
                **extra,
            )
        else:
            result = method.solve(
                graph,
                key,
                alpha=self.config.alpha,
                teleport=teleport,
                **extra,
            )
        return NodeScores(graph, result.scores, result)

    def recommend_one(
        self,
        seeds: Mapping[Node, float] | Sequence[Node],
        k: int = 10,
        *,
        include_seeds: bool = False,
        tol: float = 1e-8,
    ) -> list[tuple[Node, float]]:
        """Low-latency single-user recommendation via forward push.

        The interactive-serving counterpart of :meth:`recommend_for`: one
        user's seeds, answered by the localized Gauss–Southwell push
        solver (:func:`repro.linalg.forward_push`) against the
        recommender's graph-cached operator bundle.  Push only touches the
        frontier the personalised mass actually reaches — for sparse seed
        sets on large graphs that is a small neighbourhood around the
        seeds and their high-degree hubs, not the whole edge stream, so a
        single query answers in a fraction of a full power-iteration
        solve (``docs/performance.md`` § Forward push).  Non-localized
        queries transparently fall back to warm-started power iteration,
        and non-power solver configurations keep their verification
        semantics through :meth:`recommend_for`.

        ``tol`` bounds the L1 distance to the exact personalised scores
        (push's residual-mass certificate); ranking-quality differences
        at the default 1e-8 are negligible.
        """
        graph, _scores = self._require_fitted()
        if self.service is not None:
            # The service's planner makes the push-vs-batch call (and its
            # cache makes repeat queries free).
            seeded = self.service.rank(
                self._request(seeds=seeds, tol=tol)
            ).scores
            return self._top_k(seeded, set(seeds), k, include_seeds)
        if self.config.solver != "power" or not self._method().supports_push:
            # Keep the configured solver's (or method's) semantics —
            # spectral seeds go through the direct solve with tol honoured.
            return self.recommend_for(
                seeds, k, include_seeds=include_seeds, tol=tol
            )
        from repro.methods import operator_for

        bundle = operator_for(graph, self._group_key())
        # One source of truth for seed semantics: normalise through the
        # same helper recommend_for's personalised solve uses, then hand
        # push an explicit (indices, weights) pair.
        by_node = seed_weights(seeds)
        indices = np.array(
            [graph.index_of(node) for node in by_node], dtype=np.int64
        )
        weights = np.array(list(by_node.values()))
        result = forward_push(
            None,
            (indices, weights),
            alpha=self.config.alpha,
            tol=tol,
            operator=bundle,
        )
        seeded = NodeScores(graph, result.scores, result)
        return self._top_k(seeded, set(seeds), k, include_seeds)

    def recommend_for_many(
        self,
        users: Sequence[Mapping[Node, float] | Sequence[Node]],
        k: int = 10,
        *,
        include_seeds: bool = False,
        batch_size: int = 256,
    ) -> list[list[tuple[Node, float]]]:
        """Bulk serving: top-``k`` recommendations for many users at once.

        ``users`` is a sequence of per-user seed specifications (each a
        seed sequence or ``{node: weight}`` mapping).  Every user's
        personalised system shares the recommender's transition matrix and
        differs only in its teleport vector, so the whole cohort is solved
        as **one float64 batched pass**
        (:func:`repro.core.engine.solve_many`) —
        the path to take when serving query traffic.

        Returns one recommendation list per user, aligned with ``users``.
        Non-power solvers fall back to per-user :meth:`recommend_for`.

        The cohort is served in slices of ``batch_size`` users per solver
        call: one solver call holds the full ``n × K`` teleport and score
        blocks in memory, so the slice size caps peak memory at roughly
        ``5 · 8 · n · batch_size`` bytes regardless of cohort size.

        With an injected :class:`~repro.serving.RankingService` the
        service's coalescer ``window`` (default 16) takes over that
        memory-capping role and ``batch_size`` is not used.
        """
        graph, _scores = self._require_fitted()
        if batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {batch_size}")
        users = list(users)
        if not users:
            return []
        if self.service is not None:
            # One burst through the service: the microbatch coalescer
            # windows the batched columns (its window, not batch_size,
            # caps block memory) and repeat users hit the result cache.
            results = self.service.rank_many(
                [self._request(seeds=seeds) for seeds in users]
            )
            return [
                self._top_k(served.scores, set(seeds), k, include_seeds)
                for seeds, served in zip(users, results)
            ]
        if self.config.solver != "power":
            return [
                self.recommend_for(seeds, k, include_seeds=include_seeds)
                for seeds in users
            ]
        beta = self.config.beta if self.config.weighted else 0.0
        out: list[list[tuple[Node, float]]] = []
        for start in range(0, len(users), batch_size):
            chunk = users[start : start + batch_size]
            queries = [
                RankQuery(
                    p=self.config.p,
                    alpha=self.config.alpha,
                    beta=beta,
                    weighted=self.config.weighted,
                    teleport=seeds,
                    method=self.config.method,
                    fatigue=self.config.fatigue,
                )
                for seeds in chunk
            ]
            results = solve_many(graph, queries)
            out.extend(
                self._top_k(seeded, set(seeds), k, include_seeds)
                for seeds, seeded in zip(chunk, results)
            )
        return out

    # ------------------------------------------------------------------
    # hyper-parameter selection
    # ------------------------------------------------------------------
    def tune_p(
        self,
        significance: np.ndarray,
        p_grid: Sequence[float] = tuple(np.arange(-4.0, 4.01, 0.5)),
        *,
        train_mask: np.ndarray | None = None,
    ) -> tuple[float, dict[float, float]]:
        """Pick the de-coupling weight maximising Spearman correlation.

        Parameters
        ----------
        significance:
            Ground-truth node significances aligned with graph indices.
        p_grid:
            Candidate values (default: the paper's −4..4 step 0.5 sweep).
        train_mask:
            Optional boolean mask restricting the correlation to a training
            subset of nodes (the remaining nodes act as held-out data the
            caller can evaluate separately).

        Returns
        -------
        (best_p, {p: correlation})
            Dict keys are grid values rounded to 10 decimals, so
            ``curve[1.5]`` works even when the grid came from
            ``np.arange`` (whose points carry float noise like
            ``1.5000000000000004``).
        """
        graph, _ = self._require_fitted()
        if "p" not in self._method().vocabulary:
            raise ParameterError(
                f"method {self.config.method!r} does not take p; tune_p "
                "applies to the degree-de-coupled methods only"
            )
        significance = np.asarray(significance, dtype=np.float64)
        if significance.shape != (graph.number_of_nodes,):
            raise ParameterError(
                f"significance must have shape ({graph.number_of_nodes},), "
                f"got {significance.shape}"
            )
        if train_mask is not None:
            train_mask = np.asarray(train_mask, dtype=bool)
            if train_mask.shape != significance.shape:
                raise ParameterError("train_mask shape mismatch")
            if train_mask.sum() < 2:
                raise ParameterError("train_mask must keep at least 2 nodes")

        beta = self.config.beta if self.config.weighted else 0.0
        ps = [float(p) for p in p_grid]
        if self.config.solver == "power":
            # One batched call: each p is its own transition matrix, but
            # solve_many warm-starts consecutive grid points from each
            # other, and the graph's matrix cache amortises the exports.
            results = solve_many(
                graph,
                [
                    RankQuery(
                        p=p,
                        alpha=self.config.alpha,
                        beta=beta,
                        weighted=self.config.weighted,
                        method=self.config.method,
                        fatigue=self.config.fatigue,
                    )
                    for p in ps
                ],
            )
        else:
            results = [
                d2pr(
                    graph,
                    p,
                    alpha=self.config.alpha,
                    beta=beta,
                    weighted=self.config.weighted,
                    solver=self.config.solver,
                )
                for p in ps
            ]
        curve: dict[float, float] = {}
        for p, scores in zip(ps, results):
            values = scores.values
            if train_mask is not None:
                corr = spearman(values[train_mask], significance[train_mask])
            else:
                corr = spearman(values, significance)
            curve[round(p, 10)] = corr
        best_p = max(curve, key=lambda key: curve[key])
        return best_p, curve

    def with_p(self, p: float) -> "D2PRRecommender":
        """Return a new recommender with ``p`` replaced (and refitted)."""
        new = D2PRRecommender(
            config=RecommenderConfig(
                p=p,
                alpha=self.config.alpha,
                beta=self.config.beta,
                weighted=self.config.weighted,
                solver=self.config.solver,
                method=self.config.method,
                fatigue=self.config.fatigue,
            ),
            service=self.service,
        )
        if self._graph is not None:
            new.fit(self._graph)
        return new
