"""Integration tests for the RankingService façade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import d2pr, pagerank, personalized_d2pr, solve_many
from repro.core.engine import RankQuery
from repro.errors import FrozenGraphError, ParameterError
from repro.graph import DiGraph, Graph, GraphDelta
from repro.recsys import D2PRRecommender
from repro.recsys.recommender import RecommenderConfig
from repro.serving import RankingService, RankRequest


def _arrays(n=250, m=2500, seed=5):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, m)
    cols = rng.integers(0, n, m)
    keep = rows != cols
    return rows[keep], cols[keep], n


def _graph(cls=Graph, **kwargs):
    rows, cols, n = _arrays(**kwargs)
    return cls.from_arrays(rows, cols, num_nodes=n)


class TestRank:
    def test_global_matches_direct_solve(self):
        graph = _graph()
        service = RankingService(graph)
        served = service.rank(method="d2pr", p=1.0)
        ref = d2pr(graph, 1.0)
        assert np.abs(served.scores.values - ref.values).max() < 1e-9
        assert served.plan.strategy == "batch"

    def test_pagerank_method(self):
        graph = _graph(cls=DiGraph)
        service = RankingService(graph)
        served = service.rank(method="pagerank")
        ref = pagerank(graph)
        assert np.abs(served.scores.values - ref.values).max() < 1e-9

    def test_personalised_matches_within_certificate(self):
        graph = _graph()
        service = RankingService(graph)
        seed = graph.nodes()[7]
        served = service.rank(method="d2pr", p=1.0, seeds=[seed], tol=1e-9)
        ref = personalized_d2pr(graph, [seed], 1.0, tol=1e-9)
        assert served.plan.strategy == "push"
        assert np.abs(served.scores.values - ref.values).sum() < 1e-7

    def test_repeat_is_a_cache_hit(self):
        graph = _graph()
        service = RankingService(graph)
        first = service.rank(method="d2pr", p=1.0)
        second = service.rank(method="d2pr", p=1.0)
        assert second.plan.strategy == "cached"
        assert second.scores is first.scores
        assert service.stats()["hit_rate"] > 0

    def test_tighter_tolerance_is_not_served_from_cache(self):
        graph = _graph()
        service = RankingService(graph)
        service.rank(method="d2pr", p=1.0, tol=1e-6)
        tight = service.rank(method="d2pr", p=1.0, tol=1e-12)
        assert tight.plan.strategy == "batch"
        looser = service.rank(method="d2pr", p=1.0, tol=1e-6)
        assert looser.plan.strategy == "cached"

    def test_top_k_slice(self):
        graph = _graph()
        service = RankingService(graph)
        served = service.rank(method="d2pr", p=1.0, top_k=5)
        assert served.topk == served.scores.top(5)
        assert service.rank(method="d2pr", p=1.0).topk is None

    def test_request_object_and_kwargs_are_equivalent(self):
        graph = _graph()
        service = RankingService(graph)
        a = service.rank(RankRequest(p=1.0))
        b = service.rank(p=1.0)
        assert b.plan.strategy == "cached"
        assert np.array_equal(a.scores.values, b.scores.values)
        with pytest.raises(ParameterError):
            service.rank(RankRequest(p=1.0), p=2.0)
        with pytest.raises(ParameterError):
            service.rank("not a request")

    def test_plan_is_a_dry_run(self):
        graph = _graph()
        service = RankingService(graph)
        plan = service.plan(method="d2pr", p=1.0)
        assert plan.strategy == "batch"
        assert service.stats()["requests"] == 0
        service.rank(method="d2pr", p=1.0)
        assert service.plan(method="d2pr", p=1.0).strategy == "cached"


class TestRankMany:
    def test_burst_matches_solve_many(self):
        graph = _graph()
        service = RankingService(graph, window=4)
        alphas = (0.3, 0.5, 0.7, 0.85, 0.9)
        requests = [RankRequest(p=1.0, alpha=a) for a in alphas]
        served = service.rank_many(requests)
        refs = solve_many(graph, [RankQuery(p=1.0, alpha=a) for a in alphas])
        for got, ref in zip(served, refs):
            assert np.abs(got.scores.values - ref.values).max() < 1e-8
        occupancy = service.stats()["coalescer"]["max_occupancy"]
        assert occupancy == 4  # the window filled once

    def test_burst_mixes_strategies(self):
        graph = _graph()
        nodes = graph.nodes()
        service = RankingService(graph)
        service.rank(method="d2pr", p=1.0)  # warm one cache line
        requests = [
            RankRequest(p=1.0),                       # cached
            RankRequest(p=1.0, seeds=[nodes[0]]),     # push
            RankRequest(p=1.0, alpha=0.5),            # batch
        ]
        served = service.rank_many(requests)
        assert [s.plan.strategy for s in served] == [
            "cached", "push", "batch",
        ]

    def test_wide_seed_requests_pool_into_batches(self):
        graph = _graph()
        nodes = graph.nodes()
        service = RankingService(
            graph, window=8
        )
        # Make push unattractive so the planner pools.
        service._planner.push_max_seeds = 0
        users = [[nodes[i]] for i in range(6)]
        served = service.rank_many(
            [RankRequest(p=1.0, seeds=seeds) for seeds in users]
        )
        assert {s.plan.strategy for s in served} == {"batch"}
        for seeds, got in zip(users, served):
            ref = personalized_d2pr(graph, seeds, 1.0)
            assert np.abs(got.scores.values - ref.values).max() < 1e-8
        assert service.stats()["coalescer"]["columns"] == 6


class TestApplyDelta:
    def test_localized_delta_corrects_cached_entries(self):
        graph = _graph()
        service = RankingService(graph)
        before = service.rank(method="d2pr", p=1.0)
        delta = GraphDelta.insert(np.array([0, 1]), np.array([9, 11]))
        service.apply_delta(delta)
        after = service.rank(method="d2pr", p=1.0)
        assert after.plan.strategy == "incremental"
        cold = d2pr(graph, 1.0)
        assert np.abs(after.scores.values - cold.values).max() < 1e-8
        assert after.scores is not before.scores
        assert service.stats()["cache"]["corrections"] == 1

    def test_delocalised_delta_evicts(self):
        graph = _graph()
        service = RankingService(graph, localized_fraction=0.0)
        service.rank(method="d2pr", p=1.0)
        delta = GraphDelta.insert(
            np.arange(0, 40, dtype=np.int64),
            np.arange(60, 100, dtype=np.int64),
        )
        service.apply_delta(delta)
        after = service.rank(method="d2pr", p=1.0)
        assert after.plan.strategy == "batch"  # cold re-solve
        assert service.stats()["deltas"]["evicting"] == 1
        cold = d2pr(graph, 1.0)
        assert np.abs(after.scores.values - cold.values).max() < 1e-9

    def test_second_delta_evicts_unread_pending_entry(self):
        graph = _graph()
        service = RankingService(graph)
        service.rank(method="d2pr", p=1.0)
        service.apply_delta(
            GraphDelta.insert(np.array([0]), np.array([9]))
        )
        # Entry is pending and never read before the next delta lands.
        service.apply_delta(
            GraphDelta.insert(np.array([1]), np.array([12]))
        )
        after = service.rank(method="d2pr", p=1.0)
        assert after.plan.strategy == "batch"
        cold = d2pr(graph, 1.0)
        assert np.abs(after.scores.values - cold.values).max() < 1e-9

    def test_empty_delta_is_a_noop(self):
        graph = _graph()
        service = RankingService(graph)
        service.rank(method="d2pr", p=1.0)
        service.apply_delta(GraphDelta())
        assert service.rank(method="d2pr", p=1.0).plan.strategy == "cached"

    def test_frozen_graph_raises_and_cache_survives(self):
        graph = _graph()
        service = RankingService(graph)
        service.rank(method="d2pr", p=1.0)
        graph.freeze()
        with pytest.raises(FrozenGraphError):
            service.apply_delta(
                GraphDelta.insert(np.array([0]), np.array([9]))
            )
        # Nothing changed: the cached answer still serves.
        assert service.rank(method="d2pr", p=1.0).plan.strategy == "cached"

    def test_rejects_non_delta(self):
        service = RankingService(_graph())
        with pytest.raises(ParameterError):
            service.apply_delta("not a delta")

    def test_flush_time_mutation_stamp_prevents_stale_cache(self):
        # Auto-flushed answer read only after a behind-the-back
        # mutation: the entry must be certified at the flush-time
        # version, so the next request re-solves instead of serving
        # pre-mutation scores as post-mutation ones.
        graph = _graph()
        service = RankingService(graph, window=1)  # flush at submit
        ticket = service.submit(RankRequest(p=1.0, alpha=0.5))
        graph.add_edge(graph.nodes()[0], graph.nodes()[77])  # external
        ticket.result()  # stores with the pre-mutation stamp
        after = service.rank(method="d2pr", p=1.0, alpha=0.5)
        assert after.plan.strategy == "batch"  # stale entry not served
        cold = d2pr(graph, 1.0, alpha=0.5)
        assert np.abs(after.scores.values - cold.values).max() < 1e-9

    def test_duplicate_batch_requests_share_one_column(self):
        graph = _graph()
        service = RankingService(graph)
        service._planner.push_max_seeds = 0  # force batch planning
        request = RankRequest(p=1.0, seeds=[graph.nodes()[3]], top_k=2)
        served = service.rank_many([request] * 4)
        assert service.stats()["coalescer"]["columns"] == 1
        ref = personalized_d2pr(graph, [graph.nodes()[3]], 1.0)
        for got in served:
            assert np.abs(got.scores.values - ref.values).max() < 1e-8
            assert len(got.topk) == 2

    def test_external_mutation_is_detected(self):
        graph = _graph()
        service = RankingService(graph)
        service.rank(method="d2pr", p=1.0)
        graph.add_edge(graph.nodes()[0], graph.nodes()[99])  # behind our back
        after = service.rank(method="d2pr", p=1.0)
        assert after.plan.strategy == "batch"  # stale entry evicted, re-solved
        cold = d2pr(graph, 1.0)
        assert np.abs(after.scores.values - cold.values).max() < 1e-9

    def test_delta_drains_outstanding_microbatches(self):
        graph = _graph()
        service = RankingService(graph, window=16)
        ticket = service.submit(RankRequest(p=1.0, alpha=0.5))
        assert not ticket.done
        service.apply_delta(
            GraphDelta.insert(np.array([0]), np.array([9]))
        )
        # The pre-delta answer was solved at drain time and corrected.
        served = ticket.result()
        cold = d2pr(graph, 1.0, alpha=0.5)
        after = service.rank(method="d2pr", p=1.0, alpha=0.5)
        assert after.plan.strategy == "incremental"
        assert np.abs(after.scores.values - cold.values).max() < 1e-8
        assert served.scores.values.shape == cold.values.shape


class TestStats:
    def test_shape_and_plan_mix(self):
        graph = _graph()
        service = RankingService(graph)
        service.rank(method="d2pr", p=1.0)
        service.rank(method="d2pr", p=1.0)
        service.rank(method="d2pr", p=1.0, seeds=[graph.nodes()[0]])
        stats = service.stats()
        assert stats["requests"] == 3
        assert stats["plan_mix"] == {"batch": 1, "cached": 1, "push": 1}
        assert set(stats) == {
            "requests", "plan_mix", "cache", "hit_rate", "coalescer",
            "deltas", "latency", "sharding", "warm_start",
        }
        assert stats["warm_start"] is None
        assert stats["sharding"] == {
            "enabled": False,
            "shard_push_local": 0,
            "shard_push_fallback": 0,
            "sharded_solves": 0,
        }


class TestRecommenderIntegration:
    def test_injected_service_matches_plain_recommender(self):
        rows, cols, n = _arrays()
        g_service = Graph.from_arrays(rows, cols, num_nodes=n)
        g_plain = Graph.from_arrays(rows, cols, num_nodes=n)
        service = RankingService(g_service)
        rec = D2PRRecommender(
            config=RecommenderConfig(p=1.0), service=service
        ).fit(g_service)
        plain = D2PRRecommender(config=RecommenderConfig(p=1.0)).fit(g_plain)

        assert rec.recommend(k=5) == plain.recommend(k=5)
        seed = [g_service.nodes()[3]]
        assert [n for n, _ in rec.recommend_one(seed, k=5)] == [
            n for n, _ in plain.recommend_one(seed, k=5)
        ]
        users = [[g_service.nodes()[i]] for i in range(4)]
        assert [
            [n for n, _ in row] for row in rec.recommend_for_many(users, k=3)
        ] == [
            [n for n, _ in row]
            for row in plain.recommend_for_many(users, k=3)
        ]

    def test_paths_share_one_cache(self):
        graph = _graph()
        service = RankingService(graph)
        rec = D2PRRecommender(
            config=RecommenderConfig(p=1.0), service=service
        ).fit(graph)
        seed = [graph.nodes()[2]]
        rec.recommend_one(seed, k=3, tol=1e-8)
        rec.recommend_for(seed, k=3, tol=1e-8)  # same digest: cache hit
        stats = service.stats()
        assert stats["cache"]["hits"] >= 1

    def test_update_routes_through_service(self):
        graph = _graph()
        service = RankingService(graph)
        rec = D2PRRecommender(
            config=RecommenderConfig(p=1.0), service=service
        ).fit(graph)
        rec.update(GraphDelta.insert(np.array([0]), np.array([9])))
        cold = d2pr(graph, 1.0)
        assert np.abs(rec.scores.values - cold.values).max() < 1e-8
        assert service.stats()["deltas"]["applied"] == 1
        assert service.stats()["cache"]["corrections"] >= 1

    def test_fit_validates_service_graph_and_solver(self):
        graph = _graph()
        other = _graph(seed=9)
        service = RankingService(other)
        with pytest.raises(ParameterError):
            D2PRRecommender(service=service).fit(graph)
        service2 = RankingService(graph)
        rec = D2PRRecommender(
            config=RecommenderConfig(solver="direct"), service=service2
        )
        with pytest.raises(ParameterError):
            rec.fit(graph)

    def test_precision_conflict_raises(self):
        graph = _graph()
        service = RankingService(graph)  # double-precision coalescer
        rec = D2PRRecommender(
            config=RecommenderConfig(p=1.0), service=service
        ).fit(graph)
        users = [[graph.nodes()[0]]]
        with pytest.raises(ParameterError):
            rec.recommend_for_many(users, k=3, precision="mixed")
        rec.recommend_for_many(users, k=3, precision="double")  # matches

    def test_with_p_keeps_the_service(self):
        graph = _graph()
        service = RankingService(graph)
        rec = D2PRRecommender(
            config=RecommenderConfig(p=1.0), service=service
        ).fit(graph)
        rec2 = rec.with_p(0.5)
        assert rec2.service is service
        cold = d2pr(graph, 0.5)
        assert np.abs(rec2.scores.values - cold.values).max() < 1e-9


class TestContextManager:
    def test_service_context_manager_closes(self):
        graph = _graph()
        with RankingService(graph) as service:
            assert service.rank(method="d2pr", p=1.0) is not None
        service.close()  # idempotent after __exit__

    def test_latency_recorded_per_strategy(self):
        graph = _graph()
        with RankingService(graph) as service:
            service.rank(method="d2pr", p=1.0)
            seed = graph.nodes()[3]
            service.rank(method="d2pr", p=1.0, seeds=[seed])
            stats = service.stats()
            assert stats["latency"]["batch"]["count"] == 1
            assert stats["latency"]["push"]["count"] == 1
            hist = service.telemetry.get("serving_latency_seconds")
            assert hist.count(strategy="push") == 1
