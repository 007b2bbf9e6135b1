"""Serving-layer sharding: planner routes, local push certificate, stats."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.d2pr import d2pr
from repro.graph import DiGraph
from repro.graph.delta import GraphDelta
from repro.serving import QueryPlanner, RankingService
from repro.serving.planner import RankRequest, canonical_query


def _community_digraph(closed_first=True, n_comm=4, csize=120, seed=2):
    """Ring communities; community 0 optionally has no outgoing cross edge."""
    rng = np.random.default_rng(seed)
    edges = []
    for c in range(n_comm):
        base = c * csize
        for i in range(csize):
            for off in (1, 2, 7):
                edges.append((base + i, base + (i + off) % csize))
    n = n_comm * csize
    lo_src = csize if closed_first else 0
    for _ in range(40):
        u = int(rng.integers(lo_src, n))
        v = int(rng.integers(0, n))
        if u != v:
            edges.append((u, v))
    return DiGraph.from_edges(list(dict.fromkeys(edges)))


@pytest.fixture
def service():
    svc = RankingService(
        _community_digraph(),
        sharding=True,
        n_shards=4,
        shard_size_floor=0,
    )
    yield svc
    svc.close()


def test_planner_shard_routes(service):
    graph = service.graph
    op = service._sharded(("d2pr", 0.0, 0.0, False, "teleport"))
    planner = QueryPlanner()

    q_global = canonical_query(graph, RankRequest(method="pagerank"))
    plan = planner.plan(graph, q_global, shard_state=lambda: op)
    assert plan.strategy == "sharded"
    # without shard state the same query pools through the coalescer
    assert planner.plan(graph, q_global).strategy == "batch"

    q_local = canonical_query(
        graph, RankRequest(method="pagerank", seeds=[3, 9])
    )
    plan = planner.plan(graph, q_local, shard_state=lambda: op)
    assert plan.strategy == "shard_push"
    assert "shard" in plan.estimates
    assert planner.plan(graph, q_local).strategy == "push"

    # seeds straddling two shards stay on the global push path
    q_wide = canonical_query(
        graph, RankRequest(method="pagerank", seeds=[3, 130])
    )
    assert (
        planner.plan(graph, q_wide, shard_state=lambda: op).strategy
        == "push"
    )


def test_local_push_certificate_and_fallback(service):
    graph = service.graph
    # seeds in the closed community certify locally
    local = service.rank(RankRequest(method="pagerank", seeds=[5], tol=1e-8))
    assert local.plan.strategy == "shard_push"
    ref = d2pr(graph, 0.0, alpha=0.85, teleport=[5], tol=1e-12)
    assert np.abs(local.scores.values - ref.values).sum() < 1e-6
    # seeds in an open community fail the escaped-mass certificate and
    # fall back to a global push — still correct
    open_seed = 120 + 5
    fallback = service.rank(
        RankRequest(method="pagerank", seeds=[open_seed], tol=1e-8)
    )
    assert fallback.plan.strategy == "shard_push"
    ref = d2pr(graph, 0.0, alpha=0.85, teleport=[open_seed], tol=1e-12)
    assert np.abs(fallback.scores.values - ref.values).sum() < 1e-6
    stats = service.stats()["sharding"]
    assert stats["enabled"]
    assert stats["shard_push_local"] == 1
    assert stats["shard_push_fallback"] == 1


def test_sharded_global_solve_and_cache(service):
    request = RankRequest(method="pagerank", tol=1e-10)
    first = service.rank(request)
    assert first.plan.strategy == "sharded"
    ref = d2pr(service.graph, 0.0, alpha=0.85, tol=1e-12)
    assert np.abs(first.scores.values - ref.values).sum() < 1e-7
    # the sharded answer is cached like any other certified answer
    second = service.rank(request)
    assert second.plan.strategy == "cached"
    assert service.stats()["sharding"]["sharded_solves"] == 1


def test_below_floor_serves_unsharded():
    svc = RankingService(
        _community_digraph(), sharding=True, n_shards=4
    )  # default floor is far above 480 nodes
    try:
        result = svc.rank(RankRequest(method="pagerank"))
        assert result.plan.strategy == "batch"
        assert svc.stats()["sharding"]["sharded_solves"] == 0
    finally:
        svc.close()


def test_delta_closes_and_rebuilds_shard_operators(service):
    service.rank(RankRequest(method="pagerank", tol=1e-10))
    old = service._sharded(("d2pr", 0.0, 0.0, False, "teleport"))
    assert old is not None
    service.apply_delta(GraphDelta.insert(np.array([0]), np.array([50])))
    rebuilt = service._sharded(("d2pr", 0.0, 0.0, False, "teleport"))
    assert rebuilt is not None and rebuilt is not old
    # post-delta answers stay correct through the rebuilt operator
    result = service.rank(RankRequest(method="pagerank", tol=1e-10))
    ref = d2pr(service.graph, 0.0, alpha=0.85, tol=1e-12)
    assert np.abs(result.scores.values - ref.values).sum() < 1e-7


def test_mixed_stream_fills_windows_and_serves_shard_local(service):
    """A burst of wide-seed requests pools in the coalescer while a
    single-seed request in a closed community certifies shard-locally;
    every answer matches its reference within the certificate."""
    graph = service.graph
    rng = np.random.default_rng(4)
    tol = 1e-8
    wide = [
        RankRequest(
            method="pagerank",
            seeds=[int(s) for s in rng.choice(480, 36, replace=False)],
            tol=tol,
        )
        for _ in range(6)
    ]
    local = RankRequest(method="pagerank", seeds=[7], tol=tol)
    served = service.rank_many(wide + [local])
    assert {r.plan.strategy for r in served[:-1]} == {"batch"}
    assert served[-1].plan.strategy == "shard_push"
    stats = service.stats()
    assert stats["coalescer"]["mean_occupancy"] > 1.0
    assert stats["sharding"]["shard_push_local"] >= 1
    bound = 2.0 * tol * 0.85 / 0.15
    for request, result in zip(wide + [local], served):
        ref = d2pr(graph, 0.0, alpha=0.85, teleport=request.seeds, tol=1e-12)
        assert np.abs(result.scores.values - ref.values).sum() <= bound


# ----------------------------------------------------------------------
# lazy shard state: only a plan that reaches shard_push/sharded builds
# ----------------------------------------------------------------------
_OPTIONS = dict(sharding=True, n_shards=4, shard_size_floor=0)


def _sharded_keys(graph):
    return [key for key in graph._cache if key[0] == "sharded_operator"]


def _lazy_stream():
    return [
        RankRequest(method="pagerank", tol=1e-10),  # sharded
        RankRequest(method="pagerank", seeds=[5], tol=1e-8),  # shard_push
        RankRequest(  # wide seeds: batch
            method="d2pr", p=1.0, seeds=list(range(0, 480, 9)), tol=1e-8
        ),
        RankRequest(method="katz", tol=1e-8),  # spectral
    ]


def test_planner_resolves_shard_state_lazily(service):
    graph = service.graph
    op = service._sharded(("d2pr", 0.0, 0.0, False, "teleport"))
    calls = []

    def shard_state():
        calls.append(1)
        return op

    def planned(request, cache_state=None):
        calls.clear()
        query = canonical_query(graph, request)
        plan = QueryPlanner().plan(
            graph, query, cache_state=cache_state, shard_state=shard_state
        )
        return plan.strategy, len(calls)

    global_rank = RankRequest(method="pagerank")
    assert planned(global_rank, "hit") == ("cached", 0)
    assert planned(global_rank, "pending") == ("incremental", 0)
    assert planned(RankRequest(method="katz")) == ("spectral", 0)
    wide = RankRequest(method="pagerank", seeds=list(range(0, 480, 9)))
    assert planned(wide) == ("batch", 0)
    local = RankRequest(method="pagerank", seeds=[3])
    assert planned(local) == ("shard_push", 1)
    assert planned(global_rank) == ("sharded", 1)


def test_sharded_warm_start_answers_hits_without_building(tmp_path):
    live = RankingService(_community_digraph(), **_OPTIONS)
    stream = _lazy_stream()
    served = [live.rank(request) for request in stream]
    assert [r.plan.strategy for r in served] == [
        "sharded", "shard_push", "batch", "spectral"
    ]
    live.checkpoint(tmp_path / "ckpt")

    warm = RankingService.warm_start(tmp_path / "ckpt", **_OPTIONS)
    assert warm._warm_started == {"replayed": 0, "seeded": len(stream)}
    misses = warm.graph._cache_misses
    for request, before in zip(stream, served):
        assert warm.plan(request).strategy == "cached"
        again = warm.rank(request)
        assert again.plan.strategy == "cached"
        assert np.array_equal(again.scores.values, before.scores.values)
    assert warm.graph._cache_misses == misses
    assert _sharded_keys(warm.graph) == []


def test_dry_plan_builds_no_shard_operator():
    svc = RankingService(_community_digraph(), **_OPTIONS)
    wide, spectral = _lazy_stream()[2:]
    assert svc.plan(wide).strategy == "batch"
    assert svc.plan(spectral).strategy == "spectral"
    assert _sharded_keys(svc.graph) == []

    # pending: a localized delta drops the operator a sharded solve built
    request = RankRequest(method="pagerank", tol=1e-10)
    assert svc.rank(request).plan.strategy == "sharded"
    assert _sharded_keys(svc.graph) != []
    svc.apply_delta(GraphDelta.insert(np.array([0]), np.array([50])))
    assert _sharded_keys(svc.graph) == []
    assert svc.plan(request).strategy == "incremental"
    assert _sharded_keys(svc.graph) == []


def test_replay_restart_builds_shard_operators_on_first_use(tmp_path):
    live = RankingService(_community_digraph(), **_OPTIONS)
    global_rank = RankRequest(method="pagerank", tol=1e-10)
    local = RankRequest(method="pagerank", seeds=[5], tol=1e-10)
    live.rank(global_rank)
    live.rank(local)
    live.checkpoint(tmp_path / "ckpt")
    live.apply_delta(GraphDelta.insert(np.array([0]), np.array([50])))

    warm = RankingService.warm_start(tmp_path / "ckpt", **_OPTIONS)
    assert warm._warm_started == {"replayed": 1, "seeded": 0}
    assert _sharded_keys(warm.graph) == []
    graph = warm.graph
    assert graph.number_of_edges == live.graph.number_of_edges
    served = warm.rank(global_rank)
    assert served.plan.strategy == "sharded"
    assert len(_sharded_keys(graph)) == 1
    ref = d2pr(graph, 0.0, alpha=0.85, tol=1e-12)
    assert np.abs(served.scores.values - ref.values).sum() < 1e-7
    served = warm.rank(local)
    assert served.plan.strategy == "shard_push"
    ref = d2pr(graph, 0.0, alpha=0.85, teleport=[5], tol=1e-12)
    assert np.abs(served.scores.values - ref.values).sum() < 1e-7
    assert warm.stats()["sharding"]["shard_push_local"] == 1
