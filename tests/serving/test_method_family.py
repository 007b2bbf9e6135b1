"""Serving the centrality family through one stack.

Spectral methods plan the ``"spectral"`` strategy, land in the cache as
certified entries, and are evicted (not corrected) by deltas; the
fatigued method rides the full batch/push/incremental machinery.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.graph import DiGraph, GraphDelta
from repro.methods import resolve
from repro.serving import RankingService, RankRequest

SPECTRAL = ["katz", "eigenvector", "hits"]


def _graph(n=120, m=1100, seed=5):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, m)
    cols = rng.integers(0, n, m)
    keep = rows != cols
    return DiGraph.from_arrays(rows[keep], cols[keep], num_nodes=n)


class TestSpectralServing:
    @pytest.mark.parametrize("method", SPECTRAL)
    def test_spectral_plan_then_certified_cache_hit(self, method):
        service = RankingService(_graph())
        first = service.rank(RankRequest(method=method))
        assert first.plan.strategy == "spectral"
        assert first.plan.estimates["certificate"] == resolve(
            method
        ).certificate
        again = service.rank(RankRequest(method=method))
        assert again.plan.strategy == "cached"
        np.testing.assert_allclose(
            first.scores.values, again.scores.values
        )

    def test_spectral_answer_matches_direct_solve(self):
        graph = _graph()
        service = RankingService(graph)
        served = service.rank(RankRequest(method="katz", alpha=0.4))
        direct = resolve("katz").solve(
            graph, ("katz", False), alpha=0.4, tol=1e-10
        )
        assert np.abs(served.scores.values - direct.scores).max() < 1e-9

    def test_seeds_on_global_eigen_measures_rejected(self):
        graph = _graph()
        service = RankingService(graph)
        node = graph.nodes()[0]
        with pytest.raises(ParameterError, match="does not take seeds"):
            service.rank(
                RankRequest(method="eigenvector", seeds={node: 1.0})
            )

    def test_planner_reasons_name_the_method(self):
        service = RankingService(_graph())
        plan = service.rank(RankRequest(method="hits")).plan
        assert "hits" in plan.reason or "adjacency" in plan.reason


class TestMixedFamilyStream:
    def test_repeats_are_certified_hits_matching_cold_solves(self):
        """pagerank / fatigued / katz / eigenvector through one service:
        the first round solves, every repeat is a cache hit, and each
        answer matches a cold per-method solve within 1e-6."""
        from repro.core.engine import RankQuery, solve_many

        graph = _graph()
        tol = 1e-10
        base = [
            RankRequest(method="pagerank", tol=tol),
            RankRequest(method="fatigued", fatigue=0.4, tol=tol),
            RankRequest(method="katz", tol=tol),
            RankRequest(method="eigenvector", tol=tol),
        ]
        repeats = 3
        service = RankingService(graph)
        served = [service.rank(r) for r in base * repeats]

        cold = []
        for request in base:
            graph.invalidate_caches()
            method = resolve(request.method)
            if method.batchable:
                query = RankQuery(
                    method=request.method,
                    p=request.p,
                    alpha=request.alpha,
                    fatigue=request.fatigue,
                )
                cold.append(solve_many(graph, [query], tol=tol)[0].values)
            else:
                key = method.group_key(request.method_params())
                cold.append(
                    method.solve(graph, key, alpha=request.alpha, tol=tol)
                    .scores
                )
        for i, result in enumerate(served):
            want = cold[i % len(base)]
            assert np.abs(result.scores.values - want).sum() <= 1e-6
            if i >= len(base):
                assert result.plan.strategy == "cached"
        plan_mix = service.stats()["plan_mix"]
        assert plan_mix["cached"] == len(base) * (repeats - 1)


class TestFatiguedServing:
    def test_batch_then_cached(self):
        service = RankingService(_graph())
        first = service.rank(RankRequest(method="fatigued", fatigue=0.3))
        assert first.plan.strategy == "batch"
        again = service.rank(RankRequest(method="fatigued", fatigue=0.3))
        assert again.plan.strategy == "cached"

    def test_fatigue_value_is_part_of_the_identity(self):
        service = RankingService(_graph())
        mild = service.rank(RankRequest(method="fatigued", fatigue=0.1))
        harsh = service.rank(RankRequest(method="fatigued", fatigue=0.8))
        assert harsh.plan.strategy != "cached"
        assert (
            np.abs(mild.scores.values - harsh.scores.values).max() > 0.0
        )

    def test_fatigue_dampens_the_hub(self):
        # Hub h has max degree; every leaf can also walk to two other
        # leaves, so down-weighting the hub's incoming transitions (and
        # re-normalising) measurably drains the hub's score.
        from repro.graph import Graph

        edges = [("h", f"l{i}") for i in range(10)]
        edges += [(f"l{i}", f"l{(i + 1) % 10}") for i in range(10)]
        graph = Graph.from_edges(edges)
        service = RankingService(graph)
        hub = graph.index_of("h")
        base = service.rank(RankRequest(method="pagerank"))
        tired = service.rank(RankRequest(method="fatigued", fatigue=0.9))
        assert tired.scores.values[hub] < base.scores.values[hub]

    def test_seeded_fatigued_serves_and_sums_to_one(self):
        graph = _graph()
        service = RankingService(graph)
        node = graph.nodes()[3]
        served = service.rank(
            RankRequest(method="fatigued", fatigue=0.4, seeds={node: 1.0})
        )
        assert served.scores.values.sum() == pytest.approx(1.0)
        assert served.plan.strategy in ("push", "batch")


class TestDeltaSemantics:
    def _delta(self):
        return GraphDelta.insert(
            np.array([0, 1], dtype=np.int64),
            np.array([50, 60], dtype=np.int64),
        )

    def test_delta_evicts_spectral_corrects_stochastic(self):
        graph = _graph()
        service = RankingService(graph)
        service.rank(RankRequest(method="katz"))
        service.rank(RankRequest(method="pagerank"))
        service.apply_delta(self._delta())
        # The stochastic entry survived: corrected on demand, then a hit.
        assert (
            service.rank(RankRequest(method="pagerank")).plan.strategy
            == "incremental"
        )
        assert (
            service.rank(RankRequest(method="pagerank")).plan.strategy
            == "cached"
        )
        # ...while the spectral entry was evicted and re-solves fresh.
        after = service.rank(RankRequest(method="katz"))
        assert after.plan.strategy == "spectral"
        direct = resolve("katz").solve(
            graph, ("katz", False), tol=1e-10
        )
        assert np.abs(after.scores.values - direct.scores).max() < 1e-9

    @pytest.mark.parametrize("method", SPECTRAL)
    def test_evicted_spectral_entries_never_serve_stale(self, method):
        graph = _graph()
        service = RankingService(graph)
        before = service.rank(RankRequest(method=method))
        service.apply_delta(self._delta())
        after = service.rank(RankRequest(method=method))
        assert after.plan.strategy == "spectral"
        # The adjacency changed, so the answer must have moved.
        assert (
            np.abs(before.scores.values - after.scores.values).max() > 0.0
        )


class TestAnalytics:
    def test_degree_rank_profiles_every_method(self):
        service = RankingService(_graph())
        for method in ("pagerank", "fatigued", "katz", "eigenvector"):
            extra = {"fatigue": 0.3} if method == "fatigued" else {}
            profile = service.degree_rank(
                RankRequest(method=method, **extra)
            )
            assert profile.method == method
            assert -1.0 <= profile.spearman <= 1.0
            assert profile.tail.points >= 2
            summary = profile.summary()
            assert summary["method"] == method
            assert summary["n"] == service.graph.number_of_nodes
