"""The frontier-local push epoch loop shared by forward push and incremental.

``forward_push`` and ``incremental_update`` run the same slot-based epoch
loop.  These tests pin it to a dense ``np.linalg.solve`` oracle on small
random digraphs with dangling and isolated nodes, check that the residual
support reported on the solver record stays inside a seeded component of
a large graph, and push from several threads on one shared operator
bundle.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse import csgraph

from repro.graph import DiGraph, GraphDelta
from repro.linalg import forward_push, incremental_update, residual_vector
from repro.linalg.operator import LinearOperatorBundle
from repro.telemetry import Tracer

ALPHAS = (0.5, 0.85, 0.99)
DANGLING = ("teleport", "self", "uniform")
TOL = 1e-9
#: Float round-off allowed on top of a certificate.
SLACK = 1e-12
#: Epoch budget large enough for α = 0.99 at TOL.
MAX_ITER = 100_000


def _normalise(adj) -> sparse.csr_matrix:
    """Row-normalise a weighted adjacency (dangling rows stay zero)."""
    out = np.asarray(adj.sum(axis=1)).ravel()
    inv = np.divide(1.0, out, out=np.zeros(out.size), where=out > 0)
    return sparse.csr_matrix(sparse.diags(inv) @ adj)


def _transition(graph) -> sparse.csr_matrix:
    n = graph.number_of_nodes
    rows, cols, weights = graph.edge_arrays()
    return _normalise(
        sparse.csr_matrix((weights, (rows, cols)), shape=(n, n))
    )


def _oracle(P, t, alpha, dangling) -> np.ndarray:
    """Exact fixed point by a dense linear solve on the augmented matrix."""
    n = P.shape[0]
    hat = P.toarray()
    sinks = np.flatnonzero(np.diff(P.indptr) == 0)
    if dangling == "teleport":
        hat[sinks] = t
    elif dangling == "uniform":
        hat[sinks] = 1.0 / n
    else:
        hat[sinks, sinks] = 1.0
    return np.linalg.solve(np.eye(n) - alpha * hat.T, (1.0 - alpha) * t)


def _l1(a, b) -> float:
    return float(np.abs(a - b).sum())


def _traced(solve):
    """Run ``solve()`` under an active trace; return (result, records)."""
    trace = Tracer().start("test")
    with trace.activate():
        result = solve()
    trace.finish()
    return result, trace.root.annotations["solver"]


@st.composite
def digraphs(draw, weighted=True):
    """Random digraph with a dangling node ``n-2`` and an isolated ``n-1``.

    Node 0 always links to node 1 and to the dangling node.
    """
    n = draw(st.integers(4, 20))
    pairs = draw(
        st.sets(
            st.tuples(st.integers(0, n - 3), st.integers(0, n - 2)),
            max_size=4 * n,
        )
    )
    pairs = {(u, v) for u, v in pairs if u != v} | {(0, 1), (0, n - 2)}
    rows, cols = np.array(sorted(pairs), dtype=np.int64).T
    if weighted:
        weights = np.array(
            draw(
                st.lists(
                    st.floats(0.1, 5.0),
                    min_size=rows.size,
                    max_size=rows.size,
                )
            )
        )
    else:
        weights = np.ones(rows.size)
    return DiGraph.from_arrays(rows, cols, weights, num_nodes=n)


@st.composite
def seed_specs(draw, n):
    """A seed spec in one of ``_seed_arrays``' forms, with its teleport."""
    # At most 3 < n indices: a length-n integer array is ambiguous.
    idx = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    w = draw(
        st.lists(st.floats(0.1, 3.0), min_size=len(idx), max_size=len(idx))
    )
    form = draw(
        st.sampled_from(
            ["int", "list", "tuple", "array", "mapping", "pair", "dense"]
        )
    )
    if form == "int":
        spec, idx, w = idx[0], idx[:1], [1.0]
    elif form == "list":
        spec, w = list(idx), [1.0] * len(idx)
    elif form == "tuple":
        spec, w = tuple(idx), [1.0] * len(idx)
    elif form == "array":
        spec, w = np.array(idx, dtype=np.int64), [1.0] * len(idx)
    elif form == "mapping":
        spec = dict(zip(idx, w))
        idx, w = list(spec.keys()), list(spec.values())
    elif form == "pair":
        spec = (np.array(idx, dtype=np.int64), np.array(w))
    else:
        spec = np.zeros(n)
        np.add.at(spec, idx, w)
    t = np.zeros(n)
    np.add.at(t, idx, w)
    return spec, t / t.sum()


class TestForwardPushOracle:
    @settings(max_examples=80, deadline=None)
    @given(
        graph=digraphs(),
        data=st.data(),
        alpha=st.sampled_from(ALPHAS),
        dangling=st.sampled_from(DANGLING),
    )
    def test_matches_dense_solve_within_certificate(
        self, graph, data, alpha, dangling
    ):
        P = _transition(graph)
        spec, t = data.draw(seed_specs(P.shape[0]))
        result = forward_push(
            P, spec, alpha=alpha, tol=TOL, max_iter=MAX_ITER,
            dangling=dangling, frontier_cap=1.0,
        )
        exact = _oracle(P, t, alpha, dangling)
        assert result.converged
        if dangling == "uniform":
            # Every drawn graph has sinks: uniform dangling falls back.
            assert result.method == "forward_push_fallback"
            assert _l1(result.scores, exact) <= (
                TOL * alpha / (1.0 - alpha) + SLACK
            )
            return
        assert result.method == "forward_push"
        remaining = result.residuals[-1]
        assert remaining <= TOL
        # The certificate is on the settled estimate q = scores·Σq, and
        # Σq = 1 − remaining residual mass: ‖q − x*‖₁ = Σres ≤ tol.
        settled = result.scores * (1.0 - remaining)
        assert _l1(settled, exact) <= TOL + SLACK

    @settings(max_examples=40, deadline=None)
    @given(
        graph=digraphs(weighted=False),
        alpha=st.sampled_from(ALPHAS),
        dangling=st.sampled_from(("teleport", "self")),
    )
    def test_forced_mid_run_frontier_cap_fallback(
        self, graph, alpha, dangling
    ):
        # Epoch 1 pushes the lone seed (1 row ≤ 1.5); node 0 has at least
        # two equal-weight out-neighbours, so epoch 2's frontier has ≥ 2
        # rows and trips the cap mid-run.
        P = _transition(graph)
        n = P.shape[0]
        result, records = _traced(
            lambda: forward_push(
                P, 0, alpha=alpha, tol=TOL, max_iter=MAX_ITER,
                dangling=dangling, frontier_cap=1.5 / n,
            )
        )
        assert result.method == "forward_push_fallback"
        assert result.converged
        assert result.residuals[0] == pytest.approx(alpha)
        (record,) = records
        assert record["fallback"] == "frontier_cap"
        assert record["push_epochs"] == 1
        assert record["frontier_peak"] == 1
        assert record["support"] >= 3
        t = np.zeros(n)
        t[0] = 1.0
        exact = _oracle(P, t, alpha, dangling)
        assert _l1(result.scores, exact) <= (
            TOL * alpha / (1.0 - alpha) + SLACK
        )


def _apply(graph, kind, rng):
    """Apply one delta of ``kind``; return ``align`` for old vectors."""
    n = graph.number_of_nodes
    rows, cols, _ = graph.edge_arrays()
    if kind == "insert":
        u = rng.integers(0, n, 3)
        keys = np.unique(u * n + (u + rng.integers(1, n, 3)) % n)
        delta = GraphDelta.insert(
            keys // n, keys % n, rng.uniform(0.5, 2.0, keys.size)
        )
    elif kind in ("delete", "reweight"):
        pick = rng.choice(rows.size, min(2, rows.size), replace=False)
        if kind == "delete":
            delta = GraphDelta.delete(rows[pick], cols[pick])
        else:
            delta = GraphDelta.reweight(
                rows[pick], cols[pick], rng.uniform(0.5, 2.0, pick.size)
            )
    elif kind == "add_node":
        target = int(rng.integers(0, n))
        delta = GraphDelta.add_nodes(["fresh"]) | GraphDelta.insert(
            np.array([n, target]), np.array([target, n])
        )
        graph.apply_delta(delta)
        return lambda vec: np.append(vec, 0.0)
    else:
        gone = int(rng.integers(0, n))
        graph.apply_delta(GraphDelta.remove_nodes([gone]))
        return lambda vec: np.delete(vec, gone)
    graph.apply_delta(delta)
    return lambda vec: vec


class TestIncrementalOracle:
    @settings(max_examples=80, deadline=None)
    @given(
        graph=digraphs(),
        alpha=st.sampled_from(ALPHAS),
        dangling=st.sampled_from(DANGLING),
        kind=st.sampled_from(
            ["insert", "delete", "reweight", "add_node", "remove_node"]
        ),
        with_baseline=st.booleans(),
        personalised=st.booleans(),
        frontier_cap=st.sampled_from([1.0, 0.05]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_dense_solve_within_certificate(
        self, graph, alpha, dangling, kind, with_baseline, personalised,
        frontier_cap, seed,
    ):
        rng = np.random.default_rng(seed)
        P_old = _transition(graph)
        n = P_old.shape[0]
        if personalised:
            t_old = np.zeros(n)
            t_old[rng.choice(n, 2, replace=False)] = [1.0, 2.0]
            t_old /= t_old.sum()
        else:
            t_old = np.full(n, 1.0 / n)
        x_old = _oracle(P_old, t_old, alpha, dangling)
        baseline = residual_vector(
            LinearOperatorBundle.of(P_old), x_old, t_old, alpha, dangling
        )

        align = _apply(graph, kind, rng)
        P_new = _transition(graph)
        t_new = align(t_old)
        if t_new.sum() == 0.0:  # the removed node was the whole teleport
            t_new = np.full(t_new.size, 1.0)
        t_new = t_new / t_new.sum()
        result = incremental_update(
            P_new, align(x_old), alpha=alpha, teleport=t_new,
            dangling=dangling, tol=TOL, max_iter=MAX_ITER,
            frontier_cap=frontier_cap,
            baseline_residual=align(baseline) if with_baseline else None,
        )
        exact = _oracle(P_new, t_new, alpha, dangling)

        assert result.converged
        assert result.method in ("incremental_push", "incremental_fallback")
        has_sinks = (np.diff(P_new.indptr) == 0).any()
        if result.iterations and dangling == "uniform" and has_sinks:
            assert result.method == "incremental_fallback"
        if frontier_cap == 1.0 and dangling != "uniform":
            assert result.method == "incremental_push"
        assert _l1(result.scores, exact) <= (
            3.0 * TOL * alpha / (1.0 - alpha) + SLACK
        )


def _two_component_adjacency(component: int, n: int, rng):
    """A random ``component``-node block (nodes 0..component-1) inside an
    ``n``-node graph with no edges between the block and the rest."""
    out_deg = 4
    src = np.repeat(np.arange(n), out_deg)
    inside = src < component
    dst = np.where(
        inside,
        rng.integers(0, component, src.size),
        rng.integers(component, n, src.size),
    )
    keep = src != dst
    adj = sparse.csr_matrix(
        (np.ones(int(keep.sum())), (src[keep], dst[keep])), shape=(n, n)
    )
    adj.sum_duplicates()
    return adj


class TestLocality:
    COMPONENT = 200
    N = 100_000 + COMPONENT

    def test_support_stays_inside_the_seeded_component(self):
        rng = np.random.default_rng(15)
        adj = _two_component_adjacency(self.COMPONENT, self.N, rng)
        P = _normalise(adj)
        seeds = [3, 77, 150]
        result, (record,) = _traced(
            lambda: forward_push(P, seeds, tol=1e-10)
        )
        assert result.method == "forward_push"
        assert record["support"] <= self.COMPONENT
        # At this tol the residual reaches exactly the seeds' out-reach.
        reach = set()
        for seed in seeds:
            reach.update(csgraph.breadth_first_order(
                adj, seed, return_predecessors=False
            ).tolist())
        assert record["support"] == len(reach)
        assert 0 < record["frontier_peak"] <= record["support"]
        assert not result.scores[self.COMPONENT:].any()

        # A delta inside the component: the correction stays there too.
        t = np.zeros(self.N)
        t[seeds] = 1.0 / len(seeds)
        P_new = _normalise(
            adj + sparse.csr_matrix(([1.0], ([3], [4])), shape=adj.shape)
        )
        updated, (record,) = _traced(
            lambda: incremental_update(
                P_new, result.scores, teleport=t, tol=1e-10,
            )
        )
        assert updated.method == "incremental_push"
        assert record["support"] <= self.COMPONENT
        assert 0 < record["frontier_peak"] <= record["support"]


class TestSharedBundleThreads:
    def test_concurrent_pushes_match_sequential_answers(self):
        # More threads than cores on one fresh bundle (its lazy views are
        # built under contention), with a short switch interval so the
        # epochs interleave; every answer must equal the sequential one
        # bit for bit, computed on an identical matrix's own bundle.
        rng = np.random.default_rng(4)
        n = 3_000
        P = _normalise(_two_component_adjacency(n // 2, n, rng))
        shared = LinearOperatorBundle.of(P)
        reference = LinearOperatorBundle.of(P.copy())
        seed_sets = [[1, 2], [1_600], [40, 900, 1_200], [2_999, 5]]
        expected = [
            forward_push(None, seeds, tol=1e-10, operator=reference).scores
            for seeds in seed_sets
        ]
        start = threading.Barrier(len(seed_sets))
        answers: dict[int, list[np.ndarray]] = {}

        def worker(k: int) -> None:
            start.wait()
            answers[k] = [
                forward_push(
                    None, seed_sets[k], tol=1e-10, operator=shared
                ).scores
                for _ in range(5)
            ]

        threads = [
            threading.Thread(target=worker, args=(k,))
            for k in range(len(seed_sets))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for k, want in enumerate(expected):
            assert len(answers[k]) == 5
            for got in answers[k]:
                np.testing.assert_array_equal(got, want)
