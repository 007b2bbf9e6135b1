"""D2PR-backed recommendation.

The paper motivates D2PR through recommendation systems: "Recommendation
systems leverage such node significance measures to rank the objects in the
database."  This module packages the algorithms of :mod:`repro.core` into a
small recommender:

* **global ranking** — rank all items by significance (e.g. "top movies"),
* **contextual recommendation** — rank items relative to a set of seed
  items the user liked, via personalised D2PR (the context-aware setting of
  the paper's §2.1),
* **bulk serving** — :meth:`D2PRRecommender.recommend_for_many` answers a
  whole cohort of personalised queries as one batched solve: every user
  shares the fitted transition matrix, so the cohort differs only in
  teleport vectors and advances together, one sparse·dense multiply per
  sweep,
* **streaming updates** — :meth:`D2PRRecommender.update` absorbs a
  :class:`~repro.graph.delta.GraphDelta` without a refit: the delta is
  spliced into the fitted graph's edge store and the global ranking is
  corrected incrementally (:func:`repro.core.engine.update_scores`), so
  serving survives edits.

Every solve — the global ranking, seeded queries, cohorts and the ``p``
grid of :meth:`D2PRRecommender.tune_p` — is a list of
:class:`~repro.core.engine.RankQuery` handed to
:func:`repro.core.engine.solve_many`, which dispatches stochastic and
spectral methods alike through the method registry.  The two exceptions
are :meth:`D2PRRecommender.recommend_one` (forward push) and the
incremental correction of :meth:`D2PRRecommender.update`.

The degree de-coupling weight ``p`` is the recommender's key hyper-parameter;
:meth:`D2PRRecommender.tune_p` selects it by maximising rank correlation
with a training significance signal, mirroring the paper's per-application
calibration message.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.engine import RankQuery, solve_many, update_scores
from repro.core.personalized import seed_weights
from repro.core.results import NodeScores
from repro.errors import ParameterError, ReproError
from repro.graph.base import BaseGraph, Node
from repro.linalg.push import forward_push
from repro.metrics.correlation import spearman

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
    """

    p: float = 0.0
    alpha: float = 0.85
    beta: float = 0.0
    weighted: bool = False
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

    Fitting solves the configured method's global ranking once; seeded
    queries, cohorts and ``p`` sweeps solve against the fitted graph's
    cached operators through :func:`repro.core.engine.solve_many`.  A
    shared planner, coalescer and result cache across many clients is
    the serving layer's job (:mod:`repro.serving`), not this class's.

    Examples
    --------
    >>> from repro.datasets import load
    >>> dg = load("imdb/movie-movie", scale=0.2)
    >>> rec = D2PRRecommender(config=RecommenderConfig(p=0.0)).fit(dg.graph)
    >>> top = rec.recommend(k=5)
    >>> related = rec.recommend_for(seeds=[top[0][0]], k=5)
    """

    config: RecommenderConfig = field(default_factory=RecommenderConfig)
    _graph: BaseGraph | None = field(default=None, repr=False)
    _global_scores: NodeScores | None = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------
    def fit(self, graph: BaseGraph) -> "D2PRRecommender":
        """Attach a graph and precompute the global significance ranking."""
        self.config.validate()
        graph.require_nonempty()
        self._graph = graph
        self._global_scores = self._solve(graph)[0]
        return self

    def _method(self):
        """The registry descriptor of the configured method."""
        from repro.methods import resolve

        return resolve(self.config.method)

    def _solve(
        self,
        graph: BaseGraph,
        overrides: Sequence[dict] = ({},),
        tol: float | None = None,
    ) -> list[NodeScores]:
        """Every recommender solve, as one :func:`solve_many` call.

        Builds one :class:`~repro.core.engine.RankQuery` per entry of
        ``overrides`` — the configured query with that entry's fields
        (``teleport``, ``p``) replaced.  ``tol=None`` keeps the engine's
        default tolerance.
        """
        c = self.config
        base = RankQuery(
            p=c.p,
            alpha=c.alpha,
            beta=c.beta if c.weighted else 0.0,
            weighted=c.weighted,
            method=c.method,
            fatigue=c.fatigue,
        )
        queries = [replace(base, **fields) for fields in overrides]
        return solve_many(
            graph, queries, **({} if tol is None else {"tol": tol})
        )

    def update(self, delta, *, tol: float = 1e-10) -> "D2PRRecommender":
        """Absorb a :class:`~repro.graph.delta.GraphDelta` without a refit.

        The streaming-serving counterpart of :meth:`fit`: the delta is
        spliced into the fitted graph's edge store and the precomputed
        global ranking is **incrementally corrected**
        (:func:`repro.core.engine.update_scores`) instead of re-solved
        from scratch — bulk serving (:meth:`recommend`,
        :meth:`recommend_for_many`, :meth:`recommend_one`) keeps running
        against up-to-date scores and rebuilt cached operators while the
        graph takes edits.  Methods without incremental correction
        (the spectral ones) re-solve the global ranking at ``tol``.
        Fitted on a frozen shared graph, the update raises
        :class:`~repro.errors.FrozenGraphError` (fit a private
        ``graph.copy()`` to serve a mutable stream).

        Returns ``self`` for chaining.
        """
        graph, scores = self._require_fitted()
        if not self._method().supports_incremental:
            # Spectral answers carry no incremental-correction
            # certificate; absorb the delta and re-solve.
            graph.apply_delta(delta)
            self._global_scores = self._solve(graph, tol=tol)[0]
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
        A seed sequence weights each node by its number of occurrences
        (:func:`repro.core.personalized.seed_weights`).  ``tol`` overrides
        the convergence tolerance (``None`` keeps the engine default).
        A global eigen measure (``method="eigenvector"``/``"hits"``)
        rejects seeds with :class:`~repro.errors.ParameterError`.
        """
        graph, _scores = self._require_fitted()
        seeded = self._solve(graph, [{"teleport": seeds}], tol)[0]
        return self._top_k(seeded, set(seeds), k, include_seeds)

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
        kernel (:func:`repro.linalg.forward_push`) against the
        recommender's graph-cached operator bundle.  Push only touches the
        frontier the personalised mass actually reaches — for sparse seed
        sets on large graphs that is a small neighbourhood around the
        seeds and their high-degree hubs, not the whole edge stream, so a
        single query answers in a fraction of a full power-iteration
        solve (``docs/performance.md`` § Forward push).  Non-localized
        queries transparently fall back to warm-started power iteration,
        and methods without push are answered by :meth:`recommend_for`.

        ``tol`` bounds the L1 distance to the exact personalised scores
        (push's residual-mass certificate); ranking-quality differences
        at the default 1e-8 are negligible.
        """
        graph, _scores = self._require_fitted()
        method = self._method()
        if not method.supports_push:
            return self.recommend_for(
                seeds, k, include_seeds=include_seeds, tol=tol
            )
        from repro.methods import operator_for

        bundle = operator_for(
            graph, method.group_key(self.config.method_params())
        )
        # The same seed weights recommend_for's teleport carries, handed
        # to push as an explicit (indices, weights) pair.
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

        The cohort is served in slices of ``batch_size`` users per
        ``solve_many`` call: one call holds the full ``n × K`` teleport
        and score blocks in memory, so the slice size caps peak memory at
        roughly ``5 · 8 · n · batch_size`` bytes regardless of cohort
        size.
        """
        graph, _scores = self._require_fitted()
        if batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {batch_size}")
        users = list(users)
        out: list[list[tuple[Node, float]]] = []
        for start in range(0, len(users), batch_size):
            chunk = users[start : start + batch_size]
            results = self._solve(
                graph, [{"teleport": seeds} for seeds in chunk]
            )
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

        ps = [float(p) for p in p_grid]
        # One batched call: each p is its own transition matrix, but
        # solve_many warm-starts consecutive grid points from each
        # other, and the graph's matrix cache amortises the exports.
        results = self._solve(graph, [{"p": p} for p in ps])
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
        new = D2PRRecommender(config=replace(self.config, p=p))
        if self._graph is not None:
            new.fit(self._graph)
        return new
