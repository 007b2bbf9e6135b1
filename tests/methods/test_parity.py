"""Randomized parity: every registered method vs a dense NumPy reference.

Each registered method's production path (the engine's grouped solve for
the stochastic family, the descriptor's direct power method for the
spectral one) is checked against an independent dense-linear-algebra
reference on small random graphs — across Graph/DiGraph, weighted edges,
dangling nodes, dangling-strategy spellings and seed spellings.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import RankQuery, build_teleport, solve_many
from repro.graph import DiGraph, Graph
from repro.methods import (
    adjacency_bundle,
    operator_for,
    resolve,
    spectral_radius,
)

SEEDS = [7, 21, 42]


def _random_graph(cls, seed, n=24, weighted=False, dangling=False):
    """Small random graph; ``dangling=True`` makes the last 3 nodes sinks."""
    rng = np.random.default_rng(seed)
    m = 5 * n
    rows = rng.integers(0, n, m)
    cols = rng.integers(0, n, m)
    keep = rows != cols
    if dangling and cls is DiGraph:
        keep &= rows < n - 3
    weights = rng.uniform(0.5, 2.0, m) if weighted else None
    return cls.from_arrays(
        rows[keep],
        cols[keep],
        weights[keep] if weights is not None else None,
        num_nodes=n,
    )


def _dense_stochastic_reference(graph, group_key, alpha, teleport=None):
    """Dense linear solve of ``x = α·Tᵀx + (1−α)·t`` with dangling fix."""
    bundle = operator_for(graph, group_key)
    T = np.asarray(bundle.mat.todense(), dtype=np.float64)
    n = T.shape[0]
    t = (
        teleport
        if teleport is not None
        else np.full(n, 1.0 / n)
    )
    dangling = group_key[-1]
    sinks = np.flatnonzero(T.sum(axis=1) == 0.0)
    for i in sinks:
        if dangling == "teleport":
            T[i] = t
        elif dangling == "uniform":
            T[i] = 1.0 / n
        else:  # "self"
            T[i, i] = 1.0
    x = np.linalg.solve(np.eye(n) - alpha * T.T, (1.0 - alpha) * t)
    return x / x.sum()


STOCHASTIC = [
    ("pagerank", {}),
    ("d2pr", {"p": 1.5}),
    ("d2pr", {"p": -1.0}),
    ("fatigued", {"p": 0.5, "fatigue": 0.4}),
    ("fatigued", {"fatigue": 0.8}),
]


class TestStochasticParity:
    @pytest.mark.parametrize("cls", [Graph, DiGraph])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name,extra", STOCHASTIC)
    def test_matches_dense_solve(self, cls, weighted, seed, name, extra):
        graph = _random_graph(
            cls, seed, weighted=weighted, dangling=True
        )
        kwargs = dict(extra)
        if weighted and name != "pagerank":
            kwargs["beta"] = 0.5
        query = RankQuery(
            method=name, weighted=weighted, alpha=0.9, **kwargs
        )
        scores = solve_many(graph, [query], tol=1e-13)[0]
        ref = _dense_stochastic_reference(graph, query.group_key, 0.9)
        assert np.abs(scores.values - ref).max() < 1e-9

    @pytest.mark.parametrize("dangling", ["teleport", "uniform", "self"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_dangling_spellings(self, dangling, seed):
        graph = _random_graph(DiGraph, seed, dangling=True)
        query = RankQuery(method="d2pr", p=1.0, dangling=dangling)
        scores = solve_many(graph, [query], tol=1e-13)[0]
        ref = _dense_stochastic_reference(graph, query.group_key, 0.85)
        assert np.abs(scores.values - ref).max() < 1e-9

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seed_spellings_agree(self, seed):
        graph = _random_graph(DiGraph, seed)
        nodes = graph.nodes()
        as_list = RankQuery(
            method="d2pr", p=1.0, teleport=[nodes[1], nodes[4]]
        )
        as_dict = RankQuery(
            method="d2pr", p=1.0, teleport={nodes[1]: 1.0, nodes[4]: 1.0}
        )
        listed, mapped = solve_many(graph, [as_list, as_dict], tol=1e-13)
        assert np.abs(listed.values - mapped.values).max() < 1e-12
        ref = _dense_stochastic_reference(
            graph,
            as_list.group_key,
            0.85,
            teleport=build_teleport(graph, [nodes[1], nodes[4]]),
        )
        assert np.abs(listed.values - ref).max() < 1e-9

    @pytest.mark.parametrize("cls", [Graph, DiGraph])
    def test_weighted_pagerank_agrees_across_layers(self, cls):
        """Served, engine and library weighted pagerank: one walk (β = 1)."""
        from repro import pagerank
        from repro.serving import RankingService, RankRequest

        graph = _random_graph(cls, 5, n=60, weighted=True, dangling=True)
        tol = 1e-10
        library = pagerank(graph, weighted=True, tol=tol).values
        engine = solve_many(
            graph, [RankQuery(method="pagerank", weighted=True)], tol=tol
        )[0].values
        served = RankingService(graph).rank(
            RankRequest(method="pagerank", weighted=True, tol=tol)
        ).scores.values
        assert np.abs(engine - library).sum() < tol
        assert np.abs(served - library).sum() < tol
        unweighted = pagerank(graph, tol=tol).values
        assert np.abs(library - unweighted).sum() > 1e3 * tol

    def test_mixed_method_batch_solves_every_query(self):
        graph = _random_graph(DiGraph, 11, dangling=True)
        queries = [
            RankQuery(method="pagerank"),
            RankQuery(method="d2pr", p=2.0),
            RankQuery(method="fatigued", fatigue=0.3),
            RankQuery(method="katz"),
            RankQuery(method="eigenvector"),
            RankQuery(method="hits"),
        ]
        results = solve_many(graph, queries, tol=1e-12)
        assert len(results) == len(queries)
        for scores in results:
            assert scores.values.sum() == pytest.approx(1.0)
            assert (scores.values >= 0.0).all()


class TestKatzParity:
    @pytest.mark.parametrize("cls", [Graph, DiGraph])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_dense_linear_solve(self, cls, weighted, seed):
        graph = _random_graph(cls, seed, weighted=weighted)
        alpha = 0.5
        result = resolve("katz").solve(
            graph, ("katz", weighted), alpha=alpha, tol=1e-13
        )
        A = np.asarray(
            adjacency_bundle(graph, weighted=weighted).mat.todense()
        )
        lam = spectral_radius(graph, weighted=weighted)
        n = A.shape[0]
        t = np.full(n, 1.0 / n)
        ref = np.linalg.solve(
            np.eye(n) - (alpha / lam) * A.T, (1.0 - alpha) * t
        )
        ref /= ref.sum()
        assert np.abs(result.scores - ref).max() < 1e-9

    def test_seeded_katz_localizes_around_the_seed(self):
        graph = _random_graph(DiGraph, 3)
        nodes = graph.nodes()
        teleport = build_teleport(graph, {nodes[0]: 1.0})
        result = resolve("katz").solve(
            graph, ("katz", False), alpha=0.3, teleport=teleport, tol=1e-12
        )
        assert result.converged
        assert result.scores.argmax() == 0


class TestEigenvectorParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_dense_eig_on_connected_graph(self, seed):
        rng = np.random.default_rng(seed)
        n = 20
        # Ring + random chords: connected, aperiodic enough for eig.
        rows = list(range(n)) + list(rng.integers(0, n, 30))
        cols = [(i + 1) % n for i in range(n)] + list(
            rng.integers(0, n, 30)
        )
        rows, cols = np.asarray(rows), np.asarray(cols)
        keep = rows != cols
        graph = Graph.from_arrays(rows[keep], cols[keep], num_nodes=n)
        result = resolve("eigenvector").solve(
            graph, ("eigenvector", False), tol=1e-13
        )
        A = np.asarray(
            adjacency_bundle(graph, weighted=False).mat.todense()
        )
        eigvals, eigvecs = np.linalg.eigh(A)  # symmetric adjacency
        vec = np.abs(eigvecs[:, np.argmax(eigvals)])
        vec /= vec.sum()
        assert np.abs(result.scores - vec).max() < 1e-8

    @pytest.mark.parametrize("seed", SEEDS)
    def test_eigen_certificate_holds_on_digraphs(self, seed):
        graph = _random_graph(DiGraph, seed)
        result = resolve("eigenvector").solve(
            graph, ("eigenvector", False), tol=1e-12
        )
        A = np.asarray(
            adjacency_bundle(graph, weighted=False).mat.todense()
        )
        x = result.scores
        ax = A.T @ x
        lam = ax.sum()
        assert lam > 0.0
        assert np.abs(ax - lam * x).sum() / lam < 1e-10


class TestHitsParity:
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_authorities_match_dense_eig_of_ata(self, seed, weighted):
        graph = _random_graph(DiGraph, seed, weighted=weighted)
        result = resolve("hits").solve(
            graph, ("hits", weighted), tol=1e-14, max_iter=5000
        )
        A = np.asarray(
            adjacency_bundle(graph, weighted=weighted).mat.todense()
        )
        M = A.T @ A  # authorities: dominant eigenvector of AᵀA
        eigvals, eigvecs = np.linalg.eigh(M)
        vec = np.abs(eigvecs[:, np.argmax(eigvals)])
        vec /= vec.sum()
        assert np.abs(result.scores - vec).max() < 1e-6


class TestDegenerateGraphs:
    @pytest.mark.parametrize("name", ["katz", "eigenvector", "hits"])
    def test_edgeless_graph_is_uniform_and_converged(self, name):
        graph = Graph()
        graph.add_nodes_from(["a", "b", "c"])
        result = resolve(name).solve(graph, (name, False), tol=1e-12)
        assert result.converged
        np.testing.assert_allclose(result.scores, 1.0 / 3.0)
