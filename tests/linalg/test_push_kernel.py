"""The frontier-local push epoch loop shared by forward push and incremental.

``forward_push`` and ``incremental_update`` run the same slot-based epoch
loop, finished by local sparse LU solves on the support's out-closure.
These tests pin it to a dense ``np.linalg.solve`` oracle on small random
digraphs with dangling and isolated nodes, check that the residual
support reported on the solver record stays inside a seeded component of
a large graph, push from several threads on one shared operator bundle,
and cover the local finish: dangling seeds, signed residuals, supports
too large for the limits, and a community ring it finishes in a handful
of steps.
"""

from __future__ import annotations

import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse.linalg import spsolve

from repro.graph import DiGraph, GraphDelta
from repro.linalg import forward_push, incremental_update, residual_vector
from repro.linalg import push
from repro.linalg.operator import Factors, LinearOperatorBundle
from repro.telemetry import Tracer
from tests.linalg.factor_cases import exact, factor_cases, oracle_transition

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


def _system(P, t, alpha, dangling) -> np.ndarray:
    """Dense ``I − α·P̂ᵀ`` of the dangling-augmented transition ``P̂``."""
    n = P.shape[0]
    hat = P.toarray()
    sinks = np.flatnonzero(np.diff(P.indptr) == 0)
    if dangling == "teleport":
        hat[sinks] = t
    elif dangling == "uniform":
        hat[sinks] = 1.0 / n
    else:
        hat[sinks, sinks] = 1.0
    return np.eye(n) - alpha * hat.T


def _oracle(P, t, alpha, dangling) -> np.ndarray:
    """Exact fixed point by a dense linear solve on the augmented matrix."""
    return np.linalg.solve(_system(P, t, alpha, dangling), (1.0 - alpha) * t)


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
        # The old system is an input only while the index space holds.
        before = None
        if with_baseline and kind in ("insert", "delete", "reweight"):
            before = LinearOperatorBundle.of(P_old)

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
            before=before,
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


def _epochs_only():
    """Patch the push loop so it never reaches a local solve."""
    return mock.patch.object(push, "_LOCAL_EPOCHS", 10**9)


def _finished_locally(result, record) -> bool:
    """A run past the local-solve epoch budget must have solved locally."""
    return (
        record["local_solves"] >= 1
        or result.iterations <= push._LOCAL_EPOCHS
    )


#: Deepest ``fan`` whose share of the seed's mass after ``fan`` cycle
#: hops, ``min(ALPHAS) ** fan``, is still at least ``4·TOL``; past it the
#: push can certify before the fan is ever pushed.
_FAN_REACH = int(np.log(4.0 * TOL) / np.log(min(ALPHAS)))


def _fanned_cycle(length: int, fan: int, width: int) -> sparse.csr_matrix:
    """A directed cycle whose node ``fan`` also links to ``width`` nodes."""
    rows = np.concatenate([np.arange(length), np.full(width, fan)])
    cols = np.concatenate([
        (np.arange(length) + 1) % length,
        (fan + 2 + np.arange(width)) % length,
    ])
    adj = sparse.csr_matrix(
        (np.ones(rows.size), (rows, cols)), shape=(length, length)
    )
    adj.sum_duplicates()
    return adj


@st.composite
def fanned_cycles(draw):
    """A :func:`_fanned_cycle` whose fan the seed's mass always reaches.

    Each epoch pushes one row until the mass reaches ``fan``, so the
    support grows one node per epoch while its two-hop closure after
    ``_LOCAL_EPOCHS`` epochs already has ``_LOCAL_EPOCHS + 3`` nodes.
    ``fan`` stays within :data:`_FAN_REACH` hops of the seed.
    """
    length = draw(st.integers(24, 60))
    fan = draw(
        st.integers(push._LOCAL_EPOCHS + 2, min(length // 2, _FAN_REACH))
    )
    width = draw(st.integers(12, length // 2))
    return _fanned_cycle(length, fan, width)


def _community_ring(blocks: int, size: int, peers: int, rng):
    """``blocks`` random ``size``-node communities, each node linking to
    ``peers`` nodes of its own block, plus one bridge edge per block to
    the next block around the ring."""
    n = blocks * size
    src = np.repeat(np.arange(n), peers)
    dst = (src // size) * size + (
        src % size + rng.integers(1, size, src.size)
    ) % size
    bridge = np.arange(0, n, size)
    adj = sparse.csr_matrix(
        (
            np.ones(src.size + bridge.size),
            (
                np.concatenate([src, bridge]),
                np.concatenate([dst, (bridge + size) % n]),
            ),
        ),
        shape=(n, n),
    )
    adj.sum_duplicates()
    return adj


class TestLocalFinish:
    @settings(max_examples=60, deadline=None)
    @given(
        graph=digraphs(),
        alpha=st.sampled_from(ALPHAS),
        dangling=st.sampled_from(("teleport", "self")),
        where=st.sampled_from(("sink", "beside", "both")),
    )
    def test_dangling_seeds_match_dense_solve(
        self, graph, alpha, dangling, where
    ):
        # Node n-2 is dangling and node 0 links to it; under "teleport"
        # the seeds are the dangling target, so the local system carries
        # the rank-one block, under "self" the diagonal 1 − α.
        P = _transition(graph)
        n = P.shape[0]
        seeds = {"sink": [n - 2], "beside": [0], "both": [0, n - 2]}[where]
        result, (record,) = _traced(
            lambda: forward_push(
                P, seeds, alpha=alpha, tol=TOL, max_iter=MAX_ITER,
                dangling=dangling, frontier_cap=1.0,
            )
        )
        t = np.zeros(n)
        t[seeds] = 1.0 / len(seeds)
        exact = _oracle(P, t, alpha, dangling)
        assert result.method == "forward_push"
        assert result.converged
        assert _finished_locally(result, record)
        remaining = result.residuals[-1]
        assert remaining <= TOL
        settled = result.scores * (1.0 - remaining)
        assert _l1(settled, exact) <= TOL + SLACK

    @settings(max_examples=60, deadline=None)
    @given(
        graph=digraphs(),
        alpha=st.sampled_from(ALPHAS),
        dangling=st.sampled_from(("teleport", "self")),
        where=st.sampled_from(("sink", "beside", "both")),
    )
    def test_local_solves_keep_the_push_invariant(
        self, graph, alpha, dangling, where
    ):
        # x = q + (1−α)·(I − αP̂ᵀ)⁻¹·res holds after every step, so the
        # unnormalised state — not just the returned scores — is exact.
        P = _transition(graph)
        n = P.shape[0]
        seeds = np.array(
            {"sink": [n - 2], "beside": [0], "both": [0, n - 2]}[where]
        )
        weights = np.full(seeds.size, 1.0 / seeds.size)
        front = push._push_epochs(
            Factors.resolve(P, None), seeds, weights.copy(),
            alpha=alpha, tol=TOL, max_iter=MAX_ITER, dangling=dangling,
            settle=1.0 - alpha, target=(seeds, weights),
            row_limit=np.inf, entry_limit=np.inf, history=[],
        )
        t = np.zeros(n)
        t[seeds] = weights
        system = _system(P, t, alpha, dangling)
        state = front.dense(front.q) + (1.0 - alpha) * np.linalg.solve(
            system, front.dense(front.res)
        )
        assert front.converged
        assert front.local_solves >= 1 or front.epochs <= push._LOCAL_EPOCHS
        np.testing.assert_allclose(
            state, np.linalg.solve(system, (1.0 - alpha) * t), atol=1e-12
        )

    def test_refused_local_solve_changes_nothing(self):
        # Community 0 holds the seed and a dangling node (15); the
        # teleport target (node 40) lies in another community.
        rng = np.random.default_rng(3)
        adj = _community_ring(8, 16, 4, rng).tolil()
        adj[15, :] = 0.0
        P = _normalise(adj.tocsr())
        bundle = Factors.resolve(P, None)
        far = (np.array([40]), np.array([1.0]))
        support = np.array([3, 15])
        cases = {
            "rows": dict(row_limit=4, entry_limit=np.inf, target=far),
            "entries": dict(row_limit=np.inf, entry_limit=10, target=far),
            "target": dict(row_limit=np.inf, entry_limit=np.inf, target=far),
        }
        for name, limits in cases.items():
            front = push._Frontier(bundle.n, support, np.array([0.5, 0.5]))
            before = [front.nodes.copy(), front.q.copy(), front.res.copy(),
                      front.slot_of.copy()]
            assert not push._local_solve(
                front, bundle, alpha=0.85, dangling="teleport", settle=0.15,
                **limits,
            ), name
            after = [front.nodes, front.q, front.res, front.slot_of]
            for old, new in zip(before, after):
                np.testing.assert_array_equal(old, new)
            assert front.local_solves == 0
        # The same support with the target inside it is solved.
        front = push._Frontier(bundle.n, support, np.array([0.5, 0.5]))
        assert push._local_solve(
            front, bundle, alpha=0.85, dangling="teleport", settle=0.15,
            row_limit=np.inf, entry_limit=np.inf,
            target=(np.array([3]), np.array([1.0])),
        )
        assert front.local_solves == 1

    def test_expander_support_is_refused_by_the_fill_bound(self):
        # A random 400-node block fills its LU densely; the solve is
        # refused and the epochs converge as they always did.
        rng = np.random.default_rng(5)
        adj = _two_component_adjacency(400, 2_000, rng)
        P = _normalise(adj)
        result, (record,) = _traced(lambda: forward_push(P, [7], tol=1e-8))
        with _epochs_only():
            epochs_only = forward_push(P, [7], tol=1e-8)
        assert record["local_solves"] == 0
        assert result.method == "forward_push"
        np.testing.assert_array_equal(result.scores, epochs_only.scores)

    @settings(max_examples=60, deadline=None)
    @given(
        graph=digraphs(),
        alpha=st.sampled_from(ALPHAS),
        dangling=st.sampled_from(("teleport", "self")),
        kind=st.sampled_from(["delete", "reweight", "insert"]),
        personalised=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_signed_incremental_residual_matches_dense_solve(
        self, graph, alpha, dangling, kind, personalised, seed
    ):
        # A delete or reweight moves walk mass between out-neighbours,
        # so the starting residual of the correction has both signs.
        rng = np.random.default_rng(seed)
        P_old = _transition(graph)
        n = P_old.shape[0]
        t = np.zeros(n)
        if personalised:
            t[rng.choice(n, 2, replace=False)] = [1.0, 2.0]
        else:
            t[:] = 1.0
        t /= t.sum()
        x_old = _oracle(P_old, t, alpha, dangling)
        _apply(graph, kind, rng)
        P_new = _transition(graph)
        start = residual_vector(
            LinearOperatorBundle.of(P_new), x_old, t, alpha, dangling
        )
        assume((start < -TOL).any() and (start > TOL).any())
        result, (record,) = _traced(
            lambda: incremental_update(
                P_new, x_old, alpha=alpha, teleport=t, dangling=dangling,
                tol=TOL, max_iter=MAX_ITER, frontier_cap=1.0,
            )
        )
        exact = _oracle(P_new, t, alpha, dangling)
        assert result.converged
        assert result.method == "incremental_push"
        if dangling == "self":
            # Under "teleport" a dangling row in the support with the
            # target outside it refuses the solve; the epochs finish.
            assert _finished_locally(result, record)
        assert _l1(result.scores, exact) <= (
            3.0 * TOL * alpha / (1.0 - alpha) + SLACK
        )

    @settings(max_examples=40, deadline=None)
    @given(
        adj=fanned_cycles(),
        alpha=st.sampled_from(ALPHAS),
        dangling=st.sampled_from(DANGLING),
    )
    def test_support_beyond_the_limits_takes_the_epoch_path(
        self, adj, alpha, dangling
    ):
        # The closure outgrows the row limit before the first local
        # solve; the run must then be exactly today's epochs and, once
        # the fan floods the frontier, today's power fallback.
        P = _normalise(adj)
        n = P.shape[0]
        cap = (push._LOCAL_EPOCHS + 2) / n

        def solve():
            return forward_push(
                P, 0, alpha=alpha, tol=TOL, max_iter=MAX_ITER,
                dangling=dangling, frontier_cap=cap,
            )

        result, (record,) = _traced(solve)
        with _epochs_only():
            epochs_only, (reference,) = _traced(solve)
        assert record["local_solves"] == 0
        assert record == reference
        np.testing.assert_array_equal(result.scores, epochs_only.scores)
        assert result.residuals == epochs_only.residuals
        assert result.method == "forward_push_fallback"
        assert record["fallback"] == "frontier_cap"
        assert record["push_epochs"] > push._LOCAL_EPOCHS
        t = np.zeros(n)
        t[0] = 1.0
        exact = _oracle(P, t, alpha, dangling)
        assert _l1(result.scores, exact) <= (
            TOL * alpha / (1.0 - alpha) + SLACK
        )

    @pytest.mark.parametrize("dangling", DANGLING)
    def test_fan_beyond_reach_certifies_as_plain_push(self, dangling):
        # At α = 0.5 only 0.5**29 ≈ 1.9·TOL of the seed's mass reaches
        # node 29, so the epochs certify before the fan floods the
        # frontier: a plain push, never a local solve, within its own
        # certificate.
        P = _normalise(_fanned_cycle(58, 29, 12))
        n = P.shape[0]
        cap = (push._LOCAL_EPOCHS + 2) / n

        def solve():
            return forward_push(
                P, 0, alpha=0.5, tol=TOL, max_iter=MAX_ITER,
                dangling=dangling, frontier_cap=cap,
            )

        result, (record,) = _traced(solve)
        with _epochs_only():
            epochs_only, (reference,) = _traced(solve)
        assert result.method == "forward_push"
        assert record["local_solves"] == 0
        assert record == reference
        np.testing.assert_array_equal(result.scores, epochs_only.scores)
        assert result.residuals == epochs_only.residuals
        remaining = result.residuals[-1]
        assert remaining <= TOL
        t = np.zeros(n)
        t[0] = 1.0
        settled = result.scores * (1.0 - remaining)
        assert _l1(settled, _oracle(P, t, 0.5, dangling)) <= TOL + SLACK

    def test_community_ring_finishes_in_a_few_local_solves(self):
        rng = np.random.default_rng(19)
        adj = _community_ring(64, 64, 12, rng)
        P = _normalise(adj)
        n = P.shape[0]
        seeds = [130, 140, 171]
        tol = 1e-8
        result, (record,) = _traced(
            lambda: forward_push(P, seeds, tol=tol)
        )
        with _epochs_only():
            epochs_only = forward_push(P, seeds, tol=tol)
        assert result.method == epochs_only.method == "forward_push"
        assert record["local_solves"] >= 1
        assert result.iterations <= 20
        assert epochs_only.iterations >= 5 * result.iterations
        t = np.zeros(n)
        t[seeds] = 1.0 / len(seeds)
        exact = spsolve(
            (sparse.identity(n) - 0.85 * P.T).tocsc(), 0.15 * t
        )
        remaining = result.residuals[-1]
        assert remaining <= tol
        settled = result.scores * (1.0 - remaining)
        assert _l1(settled, exact) <= tol + SLACK


class TestOnTheFactors:
    """Push on ``(M, r, c)`` against the paper-era oracle bundle, after
    1–3 chained deltas (so the factors are the refreshed ones)."""

    @settings(max_examples=80, deadline=None)
    @given(
        case=factor_cases(),
        alpha=st.sampled_from(ALPHAS[:2]),
        data=st.data(),
    )
    def test_push_on_factors_matches_the_oracle_bundle(
        self, case, alpha, data
    ):
        dangling = case.key[-1]
        case.apply_deltas()
        factors = case.factors()
        P = oracle_transition(case.graph, case.key)
        n = P.shape[0]
        idx = data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=3,
                     unique=True)
        )
        t = np.zeros(n)
        t[idx] = 1.0 / len(idx)
        # frontier_cap=1.0: the push runs natively on these small graphs.
        common = dict(
            alpha=alpha, tol=TOL, max_iter=MAX_ITER, dangling=dangling,
            frontier_cap=1.0,
        )
        on_factors = forward_push(None, idx, operator=factors, **common)
        on_oracle = forward_push(P, idx, **common)
        assert on_factors.converged and on_oracle.converged
        assert on_factors.method == on_oracle.method
        assert _l1(on_factors.scores, on_oracle.scores) <= 2 * TOL
        x = exact(P, t, alpha, dangling)
        for result in (on_factors, on_oracle):
            if result.method == "forward_push_fallback":
                bound = TOL * alpha / (1.0 - alpha) + SLACK
                assert _l1(result.scores, x) <= bound
                continue
            remaining = result.residuals[-1]
            assert remaining <= TOL
            # The certificate is on the settled estimate (see
            # TestForwardPushOracle).
            assert _l1(result.scores * (1.0 - remaining), x) <= TOL + SLACK
