"""Tests for the delta-aware result cache (unit level)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.results import NodeScores
from repro.errors import ParameterError
from repro.graph import Graph
from repro.serving import RankRequest, ResultCache


@pytest.fixture
def graph():
    return Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])


def _scores(graph, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.random(graph.number_of_nodes)
    return NodeScores(graph, values / values.sum())


def _store(cache, graph, digest, *, tol=1e-10, mutation=0):
    return cache.store(
        digest,
        scores=_scores(graph),
        tol=tol,
        mutation=mutation,
        request=RankRequest(tol=tol),
        teleport=None,
    )


class TestLookup:
    def test_miss_then_hit(self, graph):
        cache = ResultCache()
        state, entry = cache.lookup("q1", mutation=0, tol=1e-10)
        assert state == "miss" and entry is None
        _store(cache, graph, "q1")
        state, entry = cache.lookup("q1", mutation=0, tol=1e-10)
        assert state == "hit" and entry is not None
        assert entry.hits == 1

    def test_mutation_mismatch_evicts(self, graph):
        cache = ResultCache()
        _store(cache, graph, "q1", mutation=3)
        state, _ = cache.lookup("q1", mutation=4, tol=1e-10)
        assert state == "miss"
        assert "q1" not in cache
        assert cache.stats()["evictions"] == 1

    def test_tolerance_gate_misses_without_evicting(self, graph):
        cache = ResultCache()
        _store(cache, graph, "q1", tol=1e-8)
        state, _ = cache.lookup("q1", mutation=0, tol=1e-10)
        assert state == "miss"
        assert "q1" in cache  # still serves looser requests
        state, _ = cache.lookup("q1", mutation=0, tol=1e-6)
        assert state == "hit"

    def test_equal_tolerance_serves(self, graph):
        cache = ResultCache()
        _store(cache, graph, "q1", tol=1e-10)
        state, _ = cache.lookup("q1", mutation=0, tol=1e-10)
        assert state == "hit"

    def test_peek_does_not_count(self, graph):
        cache = ResultCache()
        _store(cache, graph, "q1")
        assert cache.peek("q1", mutation=0, tol=1e-10) == "hit"
        assert cache.peek("q2", mutation=0, tol=1e-10) == "miss"
        stats = cache.stats()
        assert stats["lookups"] == 0 and stats["hits"] == 0


class TestPendingLifecycle:
    def test_mark_and_resolve(self, graph):
        cache = ResultCache()
        _store(cache, graph, "q1", mutation=0)
        cache.mark_pending("q1", object(), mutation=1)
        state, entry = cache.lookup("q1", mutation=1, tol=1e-10)
        assert state == "pending"
        assert entry.pending is not None
        corrected = _scores(graph, seed=2)
        cache.resolve_pending("q1", scores=corrected, tol=1e-10, mutation=1)
        state, entry = cache.lookup("q1", mutation=1, tol=1e-10)
        assert state == "hit"
        assert entry.scores is corrected
        assert cache.stats()["corrections"] == 1

    def test_pending_with_further_mutation_evicts(self, graph):
        cache = ResultCache()
        _store(cache, graph, "q1", mutation=0)
        cache.mark_pending("q1", object(), mutation=1)
        state, _ = cache.lookup("q1", mutation=2, tol=1e-10)
        assert state == "miss"
        assert "q1" not in cache

    def test_live_and_pending_listings(self, graph):
        cache = ResultCache()
        _store(cache, graph, "q1", mutation=0)
        _store(cache, graph, "q2", mutation=0)
        cache.mark_pending("q2", object(), mutation=1)
        assert [d for d, _ in cache.live_entries()] == ["q1"]
        assert [d for d, _ in cache.pending_entries()] == ["q2"]

    def test_re_marking_a_pending_entry_counts_a_chain(self, graph):
        cache = ResultCache()
        _store(cache, graph, "q1", mutation=0)
        cache.mark_pending("q1", object(), mutation=1)
        assert cache.stats()["chained"] == 0
        token = object()
        cache.mark_pending("q1", token, mutation=2)
        assert cache.stats()["chained"] == 1
        state, entry = cache.lookup("q1", mutation=2, tol=1e-10)
        assert state == "pending" and entry.pending is token


class TestCapacity:
    def test_lru_eviction_order(self, graph):
        cache = ResultCache(capacity=2)
        _store(cache, graph, "q1")
        _store(cache, graph, "q2")
        cache.lookup("q1", mutation=0, tol=1e-10)  # refresh q1
        _store(cache, graph, "q3")  # evicts q2 (least recently used)
        assert "q1" in cache and "q3" in cache and "q2" not in cache
        assert cache.stats()["evictions"] == 1

    def test_overwrite_does_not_grow(self, graph):
        cache = ResultCache(capacity=2)
        _store(cache, graph, "q1")
        _store(cache, graph, "q1", tol=1e-12)
        assert len(cache) == 1
        state, entry = cache.lookup("q1", mutation=0, tol=1e-12)
        assert state == "hit" and entry.tol == 1e-12

    def test_evict_all(self, graph):
        cache = ResultCache()
        _store(cache, graph, "q1")
        _store(cache, graph, "q2")
        assert cache.evict_all() == 2
        assert len(cache) == 0
        assert cache.stats()["evictions"] == 2

    def test_rejects_bad_capacity(self):
        with pytest.raises(ParameterError):
            ResultCache(capacity=0)

    def test_stats_shape(self, graph):
        cache = ResultCache()
        _store(cache, graph, "q1")
        cache.lookup("q1", mutation=0, tol=1e-10)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["hit_rate"] == 1.0
        assert set(stats) >= {
            "capacity", "entries", "pending", "lookups", "hits",
            "misses", "corrections", "chained", "evictions", "hit_rate",
        }


class TestAtomicCorrection:
    """Token-identity commit semantics of resolve_pending."""

    def test_resolved_with_matching_token(self, graph):
        cache = ResultCache()
        _store(cache, graph, "q1", mutation=0)
        token = object()
        cache.mark_pending("q1", token, mutation=1)
        corrected = _scores(graph, seed=3)
        status, entry = cache.resolve_pending(
            "q1", scores=corrected, tol=1e-10, mutation=1, token=token
        )
        assert status == "resolved"
        assert entry.scores is corrected
        assert entry.pending is None

    def test_double_correction_is_idempotent(self, graph):
        cache = ResultCache()
        _store(cache, graph, "q1", mutation=0)
        token = object()
        cache.mark_pending("q1", token, mutation=1)
        first = _scores(graph, seed=3)
        second = _scores(graph, seed=4)
        cache.resolve_pending(
            "q1", scores=first, tol=1e-10, mutation=1, token=token
        )
        status, entry = cache.resolve_pending(
            "q1", scores=second, tol=1e-10, mutation=1, token=token
        )
        assert status == "already"
        # the first committed answer stands; the duplicate is dropped
        assert entry.scores is first
        assert cache.stats()["corrections"] == 1

    def test_wrong_token_evicts_never_stores(self, graph):
        """An entry re-marked while a correction was in flight: the stale
        correction must evict the conflicting entry, not overwrite it."""
        cache = ResultCache()
        _store(cache, graph, "q1", mutation=0)
        cache.mark_pending("q1", object(), mutation=1)
        stale_answer = _scores(graph, seed=5)
        # a *different* delta re-marked the entry in between
        cache.mark_pending("q1", object(), mutation=2)
        status, entry = cache.resolve_pending(
            "q1",
            scores=stale_answer,
            tol=1e-10,
            mutation=1,
            token="not-the-current-token",
        )
        assert status == "stale"
        assert entry is None
        assert "q1" not in cache  # evicted, never served stale
        assert cache.stats()["stale_corrections"] == 1

    def test_resolve_after_eviction_is_stale(self, graph):
        cache = ResultCache()
        _store(cache, graph, "q1", mutation=0)
        token = object()
        cache.mark_pending("q1", token, mutation=1)
        cache.evict("q1")
        status, entry = cache.resolve_pending(
            "q1",
            scores=_scores(graph, seed=6),
            tol=1e-10,
            mutation=1,
            token=token,
        )
        assert status == "stale"
        assert entry is None
        assert "q1" not in cache

    def test_fresh_store_at_newer_mutation_wins_over_old_correction(
        self, graph
    ):
        cache = ResultCache()
        _store(cache, graph, "q1", mutation=0)
        token = object()
        cache.mark_pending("q1", token, mutation=1)
        # a fresh solve replaced the pending entry at a newer version
        fresh = _scores(graph, seed=8)
        cache.store(
            "q1",
            scores=fresh,
            tol=1e-10,
            mutation=3,
            request=None,
            teleport=None,
        )
        status, entry = cache.resolve_pending(
            "q1",
            scores=_scores(graph, seed=7),
            tol=1e-10,
            mutation=1,  # the correction targeted the superseded version
            token=token,
        )
        assert status == "stale"
        assert entry is None
        # the fresh entry survives; the outdated correction is dropped
        state, entry = cache.lookup("q1", mutation=3, tol=1e-10)
        assert state == "hit"
        assert entry.scores is fresh

    def test_concurrent_resolvers_commit_exactly_once(self, graph):
        import threading

        cache = ResultCache()
        _store(cache, graph, "q1", mutation=0)
        token = object()
        cache.mark_pending("q1", token, mutation=1)
        answers = [_scores(graph, seed=10 + i) for i in range(4)]
        statuses = []
        barrier = threading.Barrier(4)

        def resolver(i):
            barrier.wait(timeout=5)
            status, _ = cache.resolve_pending(
                "q1",
                scores=answers[i],
                tol=1e-10,
                mutation=1,
                token=token,
            )
            statuses.append(status)

        threads = [
            threading.Thread(target=resolver, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert sorted(statuses) == ["already"] * 3 + ["resolved"]
        assert cache.stats()["corrections"] == 1
        state, entry = cache.lookup("q1", mutation=1, tol=1e-10)
        assert state == "hit"
        assert entry.scores in answers
