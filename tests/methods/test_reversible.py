"""The reversibility predicate: which transitions satisfy detailed balance.

``CentralityMethod.reversible`` lets the batch solver run a Chebyshev
semi-iteration, which is only sound on a real spectrum.  Every transition
the predicate accepts must satisfy ``π_i·P_ij = π_j·P_ji`` for its
stationary law ``π``; the rejected shapes include one that does not.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import DiGraph, Graph
from repro.methods import MethodParams, method_names, resolve


def _edges(n=12, m=40, seed=3):
    """A connected, non-bipartite edge list with integer weights 1-5."""
    rng = np.random.default_rng(seed)
    ring = np.arange(n)
    rows = np.concatenate([ring, [0], rng.integers(0, n, m)])
    cols = np.concatenate([(ring + 1) % n, [2], rng.integers(0, n, m)])
    keep = rows != cols
    rows, cols = rows[keep], cols[keep]
    weights = rng.integers(1, 6, rows.size).astype(np.float64)
    return rows, cols, weights, n


def _graph(cls=Graph, weighted=False):
    rows, cols, weights, n = _edges()
    return cls.from_arrays(
        rows, cols, weights if weighted else None, num_nodes=n
    )


def _stationary(mat: np.ndarray) -> np.ndarray:
    """Stationary law of the row-stochastic ``mat`` (unique: connected)."""
    vals, vecs = np.linalg.eig(mat.T)
    pi = np.real(vecs[:, np.argmin(np.abs(vals - 1.0))])
    return pi / pi.sum()


def _balance_gap(mat: np.ndarray) -> float:
    """Largest violation of detailed balance, ``max |π_i P_ij − π_j P_ji|``."""
    flow = _stationary(mat)[:, None] * mat
    return float(np.abs(flow - flow.T).max())


def _cases():
    for name in ("pagerank", "d2pr", "fatigued"):
        for weighted in (False, True):
            for beta in (0.0, 1.0):
                if name == "pagerank":
                    # pagerank pins β itself: 0 unweighted, 1 weighted.
                    if beta != 0.0:
                        continue
                elif beta != 0.0 and not weighted:
                    continue  # β is only defined on weighted graphs
                yield name, weighted, beta


def _key(name, weighted, beta, p=1.5):
    method = resolve(name)
    fields = {"weighted": weighted}
    if "p" in method.vocabulary:
        fields.update(p=p, beta=beta)
    if "fatigue" in method.vocabulary:
        fields["fatigue"] = 0.4
    return method, method.group_key(MethodParams(**fields))


class TestReversiblePredicate:
    @pytest.mark.parametrize("name, weighted, beta", list(_cases()))
    def test_undirected_walks_satisfy_detailed_balance(
        self, name, weighted, beta
    ):
        graph = _graph(weighted=weighted)
        method, key = _key(name, weighted, beta)
        assert method.reversible(graph, key)
        mat = method.transition(graph, key).toarray()
        assert _balance_gap(mat) < 1e-12

    @pytest.mark.parametrize("name", ["pagerank", "d2pr", "fatigued"])
    def test_directed_graph_is_not_reversible(self, name):
        graph = _graph(cls=DiGraph)
        method, key = _key(name, False, 0.0)
        assert not method.reversible(graph, key)

    def test_directed_walk_violates_detailed_balance(self):
        graph = _graph(cls=DiGraph)
        method, key = _key("d2pr", False, 0.0)
        mat = method.transition(graph, key).toarray()
        assert (mat.sum(axis=1) > 0).all()  # no dangling rows
        assert _balance_gap(mat) > 1e-6

    @pytest.mark.parametrize("name", ["d2pr", "fatigued"])
    def test_blended_beta_is_not_reversible(self, name):
        graph = _graph(weighted=True)
        method, key = _key(name, True, 0.5)
        assert not method.reversible(graph, key)
        mat = method.transition(graph, key).toarray()
        assert _balance_gap(mat) > 1e-6

    def test_spectral_methods_are_never_reversible(self):
        graph = _graph()
        for name in method_names():
            method = resolve(name)
            if method.batchable:
                continue
            key = method.group_key(MethodParams())
            assert not method.reversible(graph, key)
