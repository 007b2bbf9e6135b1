"""Property tests: pending corrections chained across localized deltas.

A cached answer still pending when a further localized delta lands keeps
the operator it was certified on under a fresh token, so one incremental
correction covers the whole chain.  These properties pin that rule to a
dense ``np.linalg.solve`` oracle, to the cumulative touched-endpoint
budget and to the token-identity commit guard.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import DiGraph, Graph, GraphDelta
from repro.methods import operator_for
from repro.serving import RankingService, RankRequest
from repro.serving.planner import canonical_query

TOL = 1e-8


def _random_graph(cls, rng, n, m):
    rows = rng.integers(0, n, m)
    cols = rng.integers(0, n, m)
    keep = rows != cols
    return cls.from_arrays(rows[keep], cols[keep], num_nodes=n)


def _edge_delta(graph, rng, edges):
    """``edges`` random inserts, plus a delete when one is available."""
    n = graph.number_of_nodes
    src = rng.integers(0, n, edges)
    dst = (src + rng.integers(1, n, edges)) % n
    delta = GraphDelta.insert(src, dst)
    er, ec, _ = graph.edge_arrays()
    if er.shape[0] > edges and rng.random() < 0.5:
        pick = int(rng.integers(0, er.shape[0]))
        delta = delta | GraphDelta.delete(er[pick:pick + 1], ec[pick:pick + 1])
    return delta


def _oracle(graph, request):
    """Exact fixed point of a cold-built transition, by a dense solve."""
    bundle = operator_for(graph.copy(), request.group_key)
    T = bundle.mat.toarray()
    n = T.shape[0]
    t = np.zeros(n)
    if request.seeds is None:
        t[:] = 1.0 / n
    else:
        t[[graph.index_of(s) for s in request.seeds]] = 1.0 / len(
            request.seeds
        )
    sinks = np.flatnonzero(T.sum(axis=1) == 0.0)
    T[sinks] = t  # dangling="teleport"
    alpha = request.alpha
    x = np.linalg.solve(np.eye(n) - alpha * T.T, (1.0 - alpha) * t)
    return x / x.sum()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    cls=st.sampled_from([Graph, DiGraph]),
    alpha=st.sampled_from([0.6, 0.85]),
    p=st.sampled_from([0.0, 1.0]),
    seeds=st.sampled_from([None, [3], [7, 41]]),
    sizes=st.lists(st.integers(1, 3), min_size=1, max_size=4),
)
def test_unread_chain_corrects_within_certificate(
    seed, cls, alpha, p, seeds, sizes
):
    rng = np.random.default_rng(seed)
    graph = _random_graph(cls, rng, n=60, m=300)
    request = RankRequest(
        method="d2pr", p=p, alpha=alpha, seeds=seeds, tol=TOL
    )
    # A budget of every node: the property is the chained correction,
    # not the budget (pinned separately below).
    service = RankingService(graph, localized_fraction=1.0)
    service.rank(request)
    for k in sizes:
        service.apply_delta(_edge_delta(graph, rng, k))
    assert service.stats()["cache"]["chained"] == len(sizes) - 1
    served = service.rank(request)
    assert served.plan.strategy == "incremental"
    certificate = 3.0 * TOL * request.alpha / (1.0 - request.alpha)
    l1 = float(np.abs(served.scores.values - _oracle(graph, request)).sum())
    assert l1 <= certificate, (l1, certificate)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    sizes=st.lists(st.integers(1, 4), min_size=2, max_size=6),
)
def test_chain_past_budget_is_evicted(seed, sizes):
    rng = np.random.default_rng(seed)
    graph = _random_graph(Graph, rng, n=220, m=2200)
    service = RankingService(graph)  # budget: 5% of 220 nodes = 11
    budget = 0.05 * graph.number_of_nodes
    request = RankRequest(method="d2pr", p=1.0, tol=TOL)
    service.rank(request)
    digest = canonical_query(graph, request).digest
    spent = 0
    for k in sizes:
        delta = _edge_delta(graph, rng, k)
        touched = int(delta.endpoints().size)
        assert touched <= budget  # alone localized: <= 2·4 + 2 endpoints
        service.apply_delta(delta)
        spent += touched
        assert (digest in service._cache) == (spent <= budget)
    served = service.rank(request)
    if spent <= budget:
        assert served.plan.strategy == "incremental"
    else:
        assert served.plan.strategy not in ("cached", "incremental")
    l1 = float(np.abs(served.scores.values - _oracle(graph, request)).sum())
    assert l1 <= 3.0 * TOL * request.alpha / (1.0 - request.alpha)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    before=st.integers(1, 3),
    after=st.integers(1, 3),
)
def test_correction_on_pre_chain_token_is_stale(seed, before, after):
    rng = np.random.default_rng(seed)
    graph = _random_graph(Graph, rng, n=60, m=300)
    service = RankingService(graph, localized_fraction=1.0)
    request = RankRequest(method="d2pr", p=1.0, seeds=[5], tol=TOL)
    service.rank(request)
    digest = canonical_query(graph, request).digest
    cache = service._cache
    for _ in range(before):
        service.apply_delta(_edge_delta(graph, rng, 1))
    state, entry = cache.lookup(
        digest, mutation=graph.mutation_count, tol=TOL
    )
    assert state == "pending"
    token = entry.pending
    answer = entry.scores
    for _ in range(after):
        service.apply_delta(_edge_delta(graph, rng, 1))
    assert cache.pending_entries()[0][1].pending is not token
    outcome, resolved = cache.resolve_pending(
        digest,
        scores=answer,
        tol=TOL,
        mutation=graph.mutation_count,
        token=token,
    )
    assert (outcome, resolved) == ("stale", None)
    assert digest not in cache
    assert cache.stats()["stale_corrections"] == 1
