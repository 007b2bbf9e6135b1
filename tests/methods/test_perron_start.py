"""The cached Lanczos Perron start of the spectral methods.

On an undirected graph every spectral loop (the Perron-root estimate
behind Katz, eigenvector centrality, HITS) starts from the Perron vector
of the symmetric adjacency, computed once per graph version; directed
graphs keep the uniform start.  These tests pin the accuracy that buys,
the iteration counts it saves, determinism and the cache lifecycle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import DiGraph, Graph, GraphDelta
from repro.methods import adjacency_bundle, resolve, spectral_radius
from repro.methods.spectral import _perron_start

SEEDS = [3, 17, 29]


def _random_graph(cls, seed, n=60, weighted=False):
    rng = np.random.default_rng(seed)
    m = 4 * n
    rows = rng.integers(0, n, m)
    cols = rng.integers(0, n, m)
    keep = rows != cols
    weights = rng.uniform(0.5, 3.0, m)[keep] if weighted else None
    return cls.from_arrays(rows[keep], cols[keep], weights, num_nodes=n)


def _bipartite_graph(seed, left=20, right=30):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, left, 150)
    cols = rng.integers(left, left + right, 150)
    return Graph.from_arrays(rows, cols, num_nodes=left + right)


def _disconnected_graph(seed):
    """Two random components of different density plus 5 isolated nodes."""
    rng = np.random.default_rng(seed)
    rows_a, cols_a = rng.integers(0, 30, 150), rng.integers(0, 30, 150)
    rows_b, cols_b = rng.integers(30, 50, 40), rng.integers(30, 50, 40)
    rows = np.concatenate([rows_a, rows_b])
    cols = np.concatenate([cols_a, cols_b])
    keep = rows != cols
    return Graph.from_arrays(rows[keep], cols[keep], num_nodes=55)


def _cases():
    for seed in SEEDS:
        for weighted in (False, True):
            yield pytest.param(
                lambda s=seed, w=weighted: _random_graph(Graph, s, weighted=w),
                weighted,
                id=f"random-{seed}-{'w' if weighted else 'u'}",
            )
    yield pytest.param(lambda: _bipartite_graph(5), False, id="bipartite")
    yield pytest.param(
        lambda: _disconnected_graph(8), False, id="disconnected-isolated"
    )


CASES = list(_cases())


def _dense(graph, weighted):
    return np.asarray(adjacency_bundle(graph, weighted=weighted).mat.todense())


@pytest.mark.parametrize("make, weighted", CASES)
class TestUndirected:
    def test_spectral_radius_matches_eigvalsh(self, make, weighted):
        graph = make()
        lam = spectral_radius(graph, weighted=weighted)
        ref = np.linalg.eigvalsh(_dense(graph, weighted)).max()
        assert abs(lam - ref) <= 1e-10 * ref

    @pytest.mark.parametrize("name", ["eigenvector", "hits"])
    def test_eigen_methods_finish_in_two_steps(self, make, weighted, name):
        graph = make()
        tol = 1e-10
        result = resolve(name).solve(graph, (name, weighted), tol=tol)
        assert result.converged
        assert result.iterations <= 2
        A = _dense(graph, weighted)
        M = A.T if name == "eigenvector" else A.T @ A
        x = result.scores
        y = M @ x
        lam = y.sum()
        assert np.abs(y - lam * x).sum() / lam < tol

    def test_katz_matches_dense_solve(self, make, weighted):
        graph = make()
        alpha = 0.6
        result = resolve("katz").solve(
            graph, ("katz", weighted), alpha=alpha, tol=1e-13
        )
        A = _dense(graph, weighted)
        lam = np.linalg.eigvalsh(A).max()
        n = A.shape[0]
        ref = np.linalg.solve(
            np.eye(n) - (alpha / lam) * A.T, np.full(n, (1.0 - alpha) / n)
        )
        ref /= ref.sum()
        assert np.abs(result.scores - ref).max() < 1e-9

    @pytest.mark.parametrize("name", ["katz", "eigenvector", "hits"])
    def test_fresh_builds_agree(self, make, weighted, name):
        first = resolve(name).solve(make(), (name, weighted), tol=1e-10)
        second = resolve(name).solve(make(), (name, weighted), tol=1e-10)
        assert np.abs(first.scores - second.scores).sum() <= 1e-14


def test_start_is_a_clipped_unit_vector():
    graph = _disconnected_graph(8)
    start = _perron_start(graph, weighted=False)
    assert start.min() >= 0.0
    assert start.sum() == pytest.approx(1.0, abs=1e-15)
    assert not start.flags.writeable
    # Isolated nodes carry no Perron mass.
    assert np.all(start[50:] == 0.0)


@pytest.mark.parametrize("weighted", [False, True])
def test_digraph_start_is_exactly_uniform(weighted):
    graph = _random_graph(DiGraph, 11, weighted=weighted)
    n = graph.number_of_nodes
    start = _perron_start(graph, weighted=weighted)
    assert np.array_equal(start, np.full(n, 1.0 / n))


def test_tiny_and_edgeless_graphs_start_uniform():
    edgeless = Graph()
    edgeless.add_nodes_from(range(4))
    assert np.array_equal(
        _perron_start(edgeless, weighted=False), np.full(4, 0.25)
    )
    pair = Graph.from_arrays(np.array([0]), np.array([1]), num_nodes=2)
    assert np.array_equal(_perron_start(pair, weighted=False), [0.5, 0.5])


@pytest.mark.parametrize("weighted", [False, True])
def test_edge_delta_rebuilds_the_start(weighted):
    graph = _random_graph(Graph, 23, weighted=weighted)
    key = ("perron", weighted)
    before = _perron_start(graph, weighted=weighted)
    assert graph._cache[key] is before
    hub, low = int(np.argmax(before)), int(np.argmin(before))
    stats = graph.apply_delta(
        GraphDelta.insert(np.array([low]), np.array([hub]))
    )
    assert key in stats["dropped"]
    assert key not in graph._cache
    after = _perron_start(graph, weighted=weighted)
    assert after is not before
    assert graph._cache[key] is after
    lam = spectral_radius(graph, weighted=weighted)
    ref = np.linalg.eigvalsh(_dense(graph, weighted)).max()
    assert abs(lam - ref) <= 1e-10 * ref
