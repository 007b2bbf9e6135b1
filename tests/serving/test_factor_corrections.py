"""A delta builds no transition, and neither does the correction after it.

Every pagerank, d2pr and fatigued key with β ∈ {0, 1} is
``P = diag(r)·M·diag(c)`` over the cached adjacency (paper Eq. 1), so a
localized delta through the service captures the memoised factors, and
the corrected answer pushes on the new factors.  These tests count every
materialisation of a stochastic transition — ``PageRankMethod.transition``,
its bundle and unfactored builders and the factors' own
``scaled_transition`` — across ``apply_delta``, the
corrections that follow and a ``warm_start`` that replays a three-delta
log, and check each corrected answer against a cold solve.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.linalg.operator as operator_module
from repro.graph import Graph, GraphDelta
from repro.methods import PageRankMethod, operator_for
from repro.serving import RankingService, RankRequest

TOL = 1e-9


def _requests() -> list[RankRequest]:
    """Weighted and unweighted d2pr, pagerank and fatigued answers,
    global and seeded."""
    out = []
    for seeds in (None, [390, 400]):
        out += [
            RankRequest(method="pagerank", seeds=seeds, tol=TOL),
            RankRequest(method="pagerank", weighted=True, seeds=seeds, tol=TOL),
            RankRequest(method="d2pr", p=1.5, seeds=seeds, tol=TOL),
            RankRequest(method="d2pr", p=-1.0, weighted=True, seeds=seeds,
                        tol=TOL),
            RankRequest(method="d2pr", p=1.0, beta=1.0, weighted=True,
                        seeds=seeds, tol=TOL),
            RankRequest(method="fatigued", p=1.0, fatigue=0.3, seeds=seeds,
                        tol=TOL),
        ]
    return out


def _graph(rng, blocks=160, size=32) -> Graph:
    """A weighted ring of dense communities: corrections stay local."""
    n = blocks * size
    src = np.repeat(np.arange(n), 6)
    dst = src // size * size + rng.integers(0, size, src.size)
    ring = np.arange(0, n, size)
    rows = np.concatenate((src, ring))
    cols = np.concatenate((dst, (ring + size) % n))
    keep = rows != cols
    return Graph.from_arrays(
        rows[keep], cols[keep], rng.uniform(0.5, 3.0, keep.sum()),
        num_nodes=n,
    )


def _local_delta(graph, rng) -> GraphDelta:
    """A reweight, a delete and an insert inside one community."""
    er, ec, _ = graph.edge_arrays()
    inside = np.flatnonzero((er >= 320) & (ec < 352) & (er < ec))
    pick = rng.choice(inside, 2, replace=False)
    return (
        GraphDelta.reweight(er[pick[:1]], ec[pick[:1]], np.array([2.5]))
        | GraphDelta.delete(er[pick[1:]], ec[pick[1:]])
        | GraphDelta.insert(np.array([321]), np.array([350]), np.array([1.5]))
    )


@pytest.fixture
def builds(monkeypatch):
    """Counts every stochastic-transition materialisation."""
    calls = []

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in ("transition", "build_operator", "_unfactored_transition"):
        count(PageRankMethod, name)
    count(operator_module, "scaled_transition")
    return calls


def _assert_cold(graph, request, scores):
    """Within the correction's certificate plus the cold solve's."""
    cold = RankingService(graph.copy()).rank(request).scores.values
    alpha = request.alpha
    bound = 4.0 * TOL * alpha / (1.0 - alpha)
    assert np.abs(scores.values - cold).sum() <= bound


def test_delta_and_correction_build_no_transition(builds):
    rng = np.random.default_rng(4)
    graph = _graph(rng)
    service = RankingService(graph)
    requests = _requests()
    for request in requests:
        service.rank(request)
    builds.clear()

    service.apply_delta(_local_delta(graph, rng))
    assert builds == []
    corrected = [service.rank(request) for request in requests]
    assert builds == []
    assert {served.plan.strategy for served in corrected} == {"incremental"}
    assert not any(key[0] == "operator" and key[1] != "adjacency"
                   for key in graph._cache)
    for request, served in zip(requests, corrected):
        _assert_cold(graph, request, served.scores)


def test_log_replay_builds_no_transition(builds, tmp_path):
    rng = np.random.default_rng(8)
    graph = _graph(rng)
    service = RankingService(graph)
    requests = _requests()
    for request in requests:
        service.rank(request)
    service.checkpoint(tmp_path / "ckpt")
    for _ in range(3):
        service.apply_delta(_local_delta(graph, rng))
    builds.clear()

    warm = RankingService.warm_start(tmp_path / "ckpt")
    assert warm.stats()["warm_start"]["replayed"] == 3
    assert builds == []
    answers = [warm.rank(request) for request in requests]
    assert builds == []
    assert {served.plan.strategy for served in answers} == {"incremental"}
    for request, served in zip(requests, answers):
        _assert_cold(warm.graph, request, served.scores)


def test_factored_bundle_transpose_equals_conversion():
    """On an undirected graph a factored bundle's transpose is built from
    the factors over the adjacency's own index arrays, equal array for
    array to the CSC→CSR conversion."""
    rng = np.random.default_rng(2)
    graph = _graph(rng, blocks=8)
    for key in (
        ("d2pr", 0.0, 0.0, False, "teleport"),
        ("d2pr", 1.5, 0.0, False, "teleport"),
        ("d2pr", -1.0, 0.0, True, "teleport"),
        ("d2pr", 1.0, 1.0, True, "teleport"),
        ("fatigued", 1.0, 0.4, 0.0, False, "teleport"),
    ):
        bundle = operator_for(graph, key)
        want = bundle.mat.T.tocsr()
        got = bundle.t_csr
        # M is the weighted adjacency at β = 1, else the 0/1 pattern.
        adjacency = graph.to_csr(weighted=key[-3] == 1.0)
        assert np.shares_memory(got.indices, adjacency.indices)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)
