"""The service's strategy table: one handler per planner strategy.

Every fresh answer — push, shard-local push (certified or fallen back),
spectral, sharded and batch — goes through the one dispatcher commit, so
it lands in the cache exactly once and a repeat is a certified hit; an
incremental correction commits only through the token-guarded
``resolve_pending``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import DiGraph, GraphDelta
from repro.serving import STRATEGIES, RankingService
from repro.serving.planner import RankRequest


def _community_digraph(n_comm=4, csize=120, seed=2):
    """Ring communities; community 0 has no outgoing cross edge."""
    rng = np.random.default_rng(seed)
    edges = []
    for c in range(n_comm):
        base = c * csize
        for i in range(csize):
            for off in (1, 2, 7):
                edges.append((base + i, base + (i + off) % csize))
    n = n_comm * csize
    for _ in range(40):
        u = int(rng.integers(csize, n))
        v = int(rng.integers(0, n))
        if u != v:
            edges.append((u, v))
    return DiGraph.from_edges(list(dict.fromkeys(edges)))


@pytest.fixture
def service():
    svc = RankingService(
        _community_digraph(), sharding=True, n_shards=4, shard_size_floor=0
    )
    yield svc
    svc.close()


def _spy(monkeypatch, cache, name: str) -> list[str]:
    """Record the digest of every call to ``cache.<name>``."""
    calls: list[str] = []
    original = getattr(cache, name)

    def spy(digest, **kwargs):
        calls.append(digest)
        return original(digest, **kwargs)

    monkeypatch.setattr(cache, name, spy)
    return calls


def test_table_keys_are_the_planner_strategies(service):
    assert tuple(service._strategies) == STRATEGIES


FRESH = [
    # seeds straddling two shards: global forward push
    ("push", dict(seeds=[3, 130]), None),
    # seed in the closed community: certified shard-local push
    ("shard_push", dict(seeds=[5]), "shard_push_local"),
    # seed in an open community: falls back to a global push
    ("shard_push", dict(seeds=[125]), "shard_push_fallback"),
    ("spectral", dict(method="katz"), None),
    ("sharded", dict(), "sharded_solves"),
    # wider than the push window: pooled through the coalescer
    ("batch", dict(seeds=list(range(0, 400, 10))), None),
]


@pytest.mark.parametrize(
    "strategy, fields, shard_event",
    FRESH,
    ids=[f"{case[0]}-{case[2] or 'plain'}" for case in FRESH],
)
def test_fresh_answer_commits_once_then_hits(
    service, monkeypatch, strategy, fields, shard_event
):
    stores = _spy(monkeypatch, service._cache, "store")
    request = RankRequest(
        **{"method": "pagerank", "tol": 1e-8, **fields}
    )
    first = service.rank(request)
    assert first.plan.strategy == strategy
    assert stores == [first.plan.digest]
    assert len(service._cache) == 1
    if shard_event is not None:
        assert service.stats()["sharding"][shard_event] == 1

    again = service.rank(request)
    assert again.plan.strategy == "cached"
    assert stores == [first.plan.digest]
    np.testing.assert_array_equal(
        again.scores.values, first.scores.values
    )
    assert service.stats()["latency"][strategy]["count"] == 1


def test_incremental_commits_only_through_resolve_pending(
    service, monkeypatch
):
    request = RankRequest(method="pagerank", seeds=[3, 130], tol=1e-8)
    service.rank(request)
    service.apply_delta(GraphDelta.insert(np.array([0]), np.array([50])))
    stores = _spy(monkeypatch, service._cache, "store")
    resolved = _spy(monkeypatch, service._cache, "resolve_pending")

    corrected = service.rank(request)
    assert corrected.plan.strategy == "incremental"
    assert stores == []
    assert resolved == [corrected.plan.digest]
    assert service.rank(request).plan.strategy == "cached"
    assert stores == []
