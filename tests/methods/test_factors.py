"""The pooled factors of the stochastic family: ``P = diag(r)·M·diag(c)``.

``CentralityMethod.factors`` lets the coalescer solve a whole ``p`` grid
as one block over one adjacency, and ``transition()`` materialises the
same factors.  The factored sweep must reproduce the paper-era builders
of ``linalg/transition.py`` to round-off, on the same dangling rows; keys
that cannot factor (a blend, or a ``θ^{-p}`` spread beyond float64
range) must fall back to their materialised bundle and still answer
like :func:`~repro.core.d2pr`.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import d2pr
from repro.graph import DiGraph, Graph
from repro.linalg.transition import (
    blended_transition,
    degree_decoupled_transition,
)
from repro.methods import family_method
from repro.serving import RankingService, RankRequest


def _random_graph(n, density, directed, weighted, seed):
    """A small graph with sinks: isolated nodes, and out-degree-0 nodes
    when directed; weights span two decades when weighted."""
    rng = np.random.default_rng(seed)
    m = max(1, int(density * n * n))
    # The last two nodes stay edgeless (isolated sinks).
    rows = rng.integers(0, n - 2, m)
    cols = rng.integers(0, n - 2, m)
    keep = rows != cols
    rows, cols = rows[keep], cols[keep]
    if rows.size == 0:
        rows, cols = np.array([0]), np.array([1])
    weights = 10.0 ** rng.uniform(-1.0, 1.0, rows.size) if weighted else None
    cls = DiGraph if directed else Graph
    return cls.from_arrays(rows, cols, weights, num_nodes=n)


def _apply_factors(f, x):
    """``Pᵀx`` from the factors, as the batch sweep computes it."""
    col = np.ones(f.mat.n) if f.col is None else f.col
    return col[:, None] * (f.mat.mat.T @ (f.row[:, None] * x))


def _oracle(graph, p, beta, weighted, fatigue):
    """The key's transition from the paper-era builders, independently
    of the factors: ``θ`` and the clamp are derived here, and fatigue
    is the column rescale ``1 − φ`` with rows re-normalised."""
    adjacency = graph.to_csr(weighted=weighted)
    theta = np.asarray(adjacency.sum(axis=1)).ravel()
    if weighted:
        positive = theta[theta > 0]
        floor = float(positive.min()) if positive.size else 1.0
        mat = blended_transition(adjacency, p, beta, clamp_min=floor)
    else:
        mat = degree_decoupled_transition(adjacency, p, clamp_min=1.0)
    if fatigue == 0.0 or theta.max() == 0.0:
        return mat
    keep = 1.0 - fatigue * theta / theta.max()
    mat = mat.multiply(keep[np.newaxis, :]).tocsr()
    mass = np.asarray(mat.sum(axis=1)).ravel()
    inv = np.divide(1.0, mass, out=np.zeros_like(mass), where=mass > 0.0)
    return sparse.diags(inv) @ mat


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=25),
    density=st.floats(min_value=0.05, max_value=0.5),
    directed=st.booleans(),
    weighted=st.booleans(),
    p=st.floats(min_value=-4.0, max_value=4.0),
    beta_one=st.booleans(),
    fatigue=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.89)),
    fatigued=st.booleans(),
    seed=st.integers(min_value=0, max_value=9999),
)
def test_factors_reproduce_the_transition(
    n, density, directed, weighted, p, beta_one, fatigue, fatigued, seed
):
    graph = _random_graph(n, density, directed, weighted, seed)
    beta = 1.0 if (beta_one and weighted) else 0.0
    if fatigued:
        key = ("fatigued", p, fatigue, beta, weighted, "teleport")
    else:
        key = ("d2pr", p, beta, weighted, "teleport")
        fatigue = 0.0
    method = family_method(key)
    f = method.factors(graph, key)
    assert f.pool == method.pool_key(key) == ("csr", beta == 1.0, "teleport")
    assert f.row is not None
    oracle = _oracle(graph, p, beta, weighted, fatigue)
    x = np.random.default_rng(seed).random((n, 3))
    want = oracle.T @ x
    got = _apply_factors(f, x)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
    np.testing.assert_array_equal(
        f.mat.dangle_idx, np.flatnonzero(np.diff(oracle.indptr) == 0)
    )
    # The served transition is the same factors, materialised.
    served = method.operator(graph, key).mat
    assert abs(served - oracle).max() <= 1e-15


def _wide_graph():
    """Weighted, with out-weights spanning ~9 decades: any |p| ≥ 40
    spreads θ^{-p} beyond float64 range."""
    rows = np.array([0, 0, 1, 2, 3, 4, 5])
    cols = np.array([1, 2, 3, 4, 5, 5, 0])
    weights = np.array([1e5, 1e-4, 2.0, 3e-4, 1.0, 7e3, 0.5])
    return Graph.from_arrays(rows, cols, weights, num_nodes=6)


class TestFallback:
    def test_blend_keeps_its_materialised_bundle(self):
        graph = _random_graph(12, 0.3, False, True, 1)
        for key in (
            ("d2pr", 1.0, 0.3, True, "teleport"),
            ("fatigued", 1.0, 0.4, 0.7, True, "teleport"),
        ):
            method = family_method(key)
            f = method.factors(graph, key)
            assert method.pool_key(key) == key == f.pool
            assert f.row is None and f.col is None
            assert f.mat is method.operator(graph, key)

    @pytest.mark.parametrize("p", [-120.0, -80.0, 80.0])
    def test_desideratum_p_beyond_exp_range_falls_back(self, p):
        graph = _wide_graph()
        key = ("d2pr", p, 0.0, True, "teleport")
        f = family_method(key).factors(graph, key)
        assert f.pool == key and f.row is None
        self._matches_d2pr(graph, p, weighted=True)

    @pytest.mark.parametrize("p", [-120.0, -80.0, 80.0])
    def test_desideratum_p_within_range_factors(self, figure1_graph, p):
        # Degrees 1..3: |p|·log 3 stays far inside float64 range, so the
        # limits factor — and still answer like d2pr.
        key = ("d2pr", p, 0.0, False, "teleport")
        f = family_method(key).factors(figure1_graph, key)
        assert f.pool == ("csr", False, "teleport") and f.row is not None
        self._matches_d2pr(figure1_graph, p, weighted=False)

    @staticmethod
    def _matches_d2pr(graph, p, *, weighted):
        tol = 1e-10
        served = RankingService(graph).rank(
            RankRequest(method="d2pr", p=p, weighted=weighted, tol=tol)
        )
        ref = d2pr(graph, p, weighted=weighted, tol=tol).values
        assert np.abs(served.scores.values - ref).sum() < 2 * 0.85 / 0.15 * tol


def test_pooled_factors_match_per_key_factors():
    """One ``pooled_factors`` call gives every key the factors
    ``factors()`` gives it alone: the pooled keys' columns exactly, and
    a blend on its own."""
    graph = _random_graph(20, 0.3, False, True, seed=5)
    keys = [("d2pr", p, 0.0, True, "teleport") for p in (-2.0, 0.0, 1.5)]
    keys += [
        ("fatigued", 1.0, 0.5, 0.0, True, "teleport"),
        ("d2pr", 1.0, 0.3, True, "teleport"),
    ]
    entries = family_method(keys[0]).pooled_factors(graph, keys)
    assert sorted(k for pooled, _ in entries for k in pooled) == sorted(keys)
    for pooled, f in entries:
        for g, key in enumerate(pooled):
            alone = family_method(key).factors(graph, key)
            assert alone.pool == f.pool
            if f.row is None:
                assert alone.row is None and len(pooled) == 1
                continue
            row = f.row if f.row.ndim == 1 else f.row[:, g]
            assert np.array_equal(row, alone.row)
            if alone.col is None:
                assert f.col is None or np.all(f.col[:, g] == 1.0)
            else:
                assert np.array_equal(f.col[:, g], alone.col)
