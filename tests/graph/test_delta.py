"""Tests for GraphDelta and the delta-aware cache refresh (apply_delta)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import d2pr, pagerank
from repro.core.d2pr import d2pr_operator, d2pr_transition
from repro.core.engine import RankQuery, adjacency_and_theta, solve_many
from repro.errors import (
    EdgeError,
    FrozenGraphError,
    NodeNotFoundError,
    ParameterError,
)
from repro.graph import DiGraph, Graph, GraphDelta
from repro.graph.delta import _CHAIN_FRACTION
from repro.methods import family_method, fatigued_transition


def _arr(*values):
    return np.array(values, dtype=np.int64)


def _rebuilt(graph):
    """Fresh graph of the same class built from the canonical edges."""
    cls = type(graph)
    return cls.from_arrays(
        *graph.edge_arrays(), num_nodes=graph.number_of_nodes
    )


def _assert_same_csr(got, want):
    """Bit-for-bit equality of two CSR matrices."""
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


@pytest.fixture
def grid_graph(rng) -> Graph:
    n = 60
    rows = rng.integers(0, n, 400)
    cols = rng.integers(0, n, 400)
    keep = rows != cols
    return Graph.from_arrays(rows[keep], cols[keep], num_nodes=n)


@pytest.fixture
def grid_digraph(rng) -> DiGraph:
    n = 60
    rows = rng.integers(0, n, 400)
    cols = rng.integers(0, n, 400)
    keep = rows != cols
    return DiGraph.from_arrays(rows[keep], cols[keep], num_nodes=n)


class TestGraphDelta:
    def test_constructors_and_size(self):
        delta = GraphDelta.insert(_arr(0, 1), _arr(2, 3))
        assert delta.size == 2
        assert delta.insert_weights.tolist() == [1.0, 1.0]
        delta = GraphDelta.delete(_arr(4), _arr(5))
        assert delta.size == 1
        delta = GraphDelta.reweight(_arr(1), _arr(2), np.array([3.0]))
        assert delta.reweight_weights.tolist() == [3.0]

    def test_union_concatenates(self):
        delta = GraphDelta.insert(_arr(0), _arr(1)) | GraphDelta.delete(
            _arr(2), _arr(3)
        )
        assert delta.size == 2
        assert delta.endpoints().tolist() == [0, 1, 2, 3]

    def test_rejects_float_indices(self):
        with pytest.raises(ParameterError):
            GraphDelta.insert(np.array([0.5]), np.array([1.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ParameterError):
            GraphDelta.insert(_arr(0, 1), _arr(2))
        with pytest.raises(ParameterError):
            GraphDelta.reweight(_arr(0), _arr(1), np.array([1.0, 2.0]))

    def test_empty_delta_is_a_noop(self, grid_graph):
        version = grid_graph.mutation_count
        stats = grid_graph.apply_delta(GraphDelta())
        assert stats["inserted"] == 0
        assert grid_graph.mutation_count == version


class TestApplySemantics:
    def test_matches_add_edge_sequence(self):
        g = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d")])
        ref = g.copy()
        idx = {node: g.index_of(node) for node in g.nodes()}
        delta = GraphDelta.insert(
            _arr(idx["a"], idx["b"]),
            _arr(idx["c"], idx["d"]),
            np.array([2.0, 3.0]),
        )
        g.apply_delta(delta)
        ref.add_edge("a", "c", weight=2.0)
        ref.add_edge("b", "d", weight=3.0)
        assert (g.to_csr() != ref.to_csr()).nnz == 0
        assert g.number_of_edges == ref.number_of_edges

    def test_insert_upserts_existing_edge(self):
        g = Graph.from_edges([("a", "b")])
        g.apply_delta(GraphDelta.insert(_arr(0), _arr(1), np.array([5.0])))
        assert g.edge_weight("a", "b") == 5.0
        assert g.number_of_edges == 1

    def test_duplicate_inserts_keep_last_weight(self):
        g = Graph.from_edges([("a", "b")])
        g.apply_delta(
            GraphDelta.insert(
                _arr(0, 0), _arr(1, 1), np.array([5.0, 7.0])
            )
        )
        assert g.edge_weight("a", "b") == 7.0

    def test_delete_removes_edge(self, grid_graph):
        er, ec, _ = grid_graph.edge_arrays()
        before = grid_graph.number_of_edges
        grid_graph.apply_delta(GraphDelta.delete(er[:3], ec[:3]))
        assert grid_graph.number_of_edges == before - 3
        for k in range(3):
            assert not grid_graph.has_edge(int(er[k]), int(ec[k]))

    def test_delete_reversed_orientation_undirected(self):
        g = Graph.from_edges([("a", "b"), ("b", "c")])
        g.apply_delta(
            GraphDelta.delete(
                _arr(g.index_of("b")), _arr(g.index_of("a"))
            )
        )
        assert not g.has_edge("a", "b")
        assert g.number_of_edges == 1

    def test_reweight_sets_weight(self):
        g = Graph.from_edges([("a", "b", 1.5)])
        g.apply_delta(GraphDelta.reweight(_arr(0), _arr(1), np.array([9.0])))
        assert g.edge_weight("a", "b") == 9.0

    def test_reweight_of_same_delta_insert_allowed(self):
        g = Graph.from_edges([("a", "b")])
        g.add_node("c")
        delta = GraphDelta.insert(_arr(0), _arr(2)) | GraphDelta.reweight(
            _arr(0), _arr(2), np.array([4.0])
        )
        g.apply_delta(delta)
        assert g.edge_weight("a", "c") == 4.0

    def test_delete_then_insert_same_pair(self):
        g = Graph.from_edges([("a", "b", 2.0), ("b", "c")])
        delta = GraphDelta.delete(_arr(0), _arr(1)) | GraphDelta.insert(
            _arr(0), _arr(1), np.array([8.0])
        )
        g.apply_delta(delta)
        assert g.edge_weight("a", "b") == 8.0
        assert g.number_of_edges == 2

    def test_directed_orientation_respected(self, grid_digraph):
        er, ec, _ = grid_digraph.edge_arrays()
        u, v = int(er[0]), int(ec[0])
        if not grid_digraph.has_edge(v, u):
            grid_digraph.apply_delta(GraphDelta.insert(_arr(v), _arr(u)))
        grid_digraph.apply_delta(GraphDelta.delete(_arr(u), _arr(v)))
        assert not grid_digraph.has_edge(u, v)
        assert grid_digraph.has_edge(v, u)

    def test_works_after_dict_materialisation(self):
        g = Graph.from_edges([("a", "b"), ("b", "c")])
        g.add_edge("c", "d")  # dict path
        assert g.neighbors("b")  # force materialisation
        g.apply_delta(GraphDelta.insert(_arr(0), _arr(3)))
        assert g.has_edge("a", "d")
        assert (g.to_csr() != _rebuilt(g).to_csr()).nnz == 0

    def test_stats_counts(self, grid_graph):
        er, ec, _ = grid_graph.edge_arrays()
        stats = grid_graph.apply_delta(
            GraphDelta.delete(er[:2], ec[:2])
            | GraphDelta.reweight(er[2:4], ec[2:4], np.array([2.0, 3.0]))
        )
        assert stats["deleted"] == 2
        assert stats["reweighted"] == 2
        assert stats["inserted"] == 0


def _stepwise_store(graph, delta):
    """The store ``delta`` leaves on ``graph``, merged step by step.

    The reference merge: build every key, drop the deletes with a keep
    mask, ``np.insert`` the fresh upserts, then set the reweights, each
    step on the previous step's arrays.  Returns ``(rows, cols,
    weights, stats)``, or ``None`` where a step finds a missing edge.
    """
    n = np.int64(graph.number_of_nodes)
    rows, cols, w = (np.array(a) for a in graph._canonical_edges())
    keys = rows * n + cols
    stats = {"inserted": 0, "deleted": 0, "reweighted": 0}

    def find(want):
        pos = np.searchsorted(keys, want)
        hit = np.zeros(want.size, dtype=bool)
        ok = pos < keys.size
        hit[ok] = keys[pos[ok]] == want[ok]
        return pos, hit

    dr, dc = graph._canonical_pairs(delta.delete_rows, delta.delete_cols)
    if dr.size:
        want = np.unique(dr * n + dc)
        pos, hit = find(want)
        if not hit.all():
            return None
        keep = np.ones(keys.size, dtype=bool)
        keep[pos] = False
        keys, rows, cols, w = keys[keep], rows[keep], cols[keep], w[keep]
        stats["deleted"] = int(want.size)
    ir, ic = graph._canonical_pairs(delta.insert_rows, delta.insert_cols)
    if ir.size:
        want = ir * n + ic
        sel = graph._dedup_last_wins(want)
        want, iw = want[sel], delta.insert_weights[sel]
        pos, hit = find(want)
        w[pos[hit]] = iw[hit]
        at = pos[~hit]
        keys = np.insert(keys, at, want[~hit])
        rows = np.insert(rows, at, ir[sel][~hit])
        cols = np.insert(cols, at, ic[sel][~hit])
        w = np.insert(w, at, iw[~hit])
        stats["inserted"] = int((~hit).sum())
    rr, rc = graph._canonical_pairs(delta.reweight_rows, delta.reweight_cols)
    if rr.size:
        want = rr * n + rc
        sel = graph._dedup_last_wins(want)
        pos, hit = find(want[sel])
        if not hit.all():
            return None
        w[pos] = delta.reweight_weights[sel]
        stats["reweighted"] = int(sel.size)
    return rows, cols, w, stats


@st.composite
def _store_and_delta(draw):
    """A small graph and a delta mixing inserts, upserts, deletes,
    re-inserts of deleted edges and reweights (of kept, upserted,
    re-inserted and fresh edges), sometimes naming a missing edge."""
    cls = draw(st.sampled_from([Graph, DiGraph]))
    n = draw(st.integers(2, 12))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda uv: uv[0] != uv[1]
    )
    edges = draw(st.lists(pairs, max_size=30))
    weights = st.floats(0.25, 4.0)
    graph = cls.from_arrays(
        np.array([u for u, _ in edges], dtype=np.int64),
        np.array([v for _, v in edges], dtype=np.int64),
        np.array([draw(weights) for _ in edges]),
        num_nodes=n,
    )
    er, ec, _ = graph.edge_arrays()
    existing = list(zip(er.tolist(), ec.tolist()))
    some = st.lists(st.sampled_from(existing), max_size=6) if existing else (
        st.just([])
    )
    deletes = list(dict.fromkeys(draw(some)))
    inserts = draw(some) + deletes[: draw(st.integers(0, len(deletes)))]
    inserts += draw(st.lists(pairs, max_size=6))
    reweights = draw(some) + draw(st.lists(st.sampled_from(inserts), max_size=3)
                                  if inserts else st.just([]))
    if draw(st.booleans()):
        deletes += draw(st.lists(pairs, max_size=1))
        reweights += draw(st.lists(pairs, max_size=1))

    def arrays(uvs):
        return (
            np.array([u for u, _ in uvs], dtype=np.int64),
            np.array([v for _, v in uvs], dtype=np.int64),
        )

    delta = (
        GraphDelta.delete(*arrays(deletes))
        | GraphDelta.insert(
            *arrays(inserts), np.array([draw(weights) for _ in inserts])
        )
        | GraphDelta.reweight(
            *arrays(reweights), np.array([draw(weights) for _ in reweights])
        )
    )
    return graph, delta


class TestOnePassMerge:
    """``apply_graph_delta`` merges each store column in one pass; the
    committed store must equal the step-by-step merge exactly."""

    @settings(max_examples=300, deadline=None)
    @given(case=_store_and_delta())
    def test_store_equals_stepwise_merge(self, case):
        graph, delta = case
        want = _stepwise_store(graph, delta)
        if want is None:
            with pytest.raises(EdgeError):
                graph.apply_delta(delta)
            return
        stats = graph.apply_delta(delta)
        rows, cols, w = graph._canonical_edges()
        assert np.array_equal(rows, want[0])
        assert np.array_equal(cols, want[1])
        assert np.array_equal(w, want[2])
        assert graph.number_of_edges == rows.size
        for key, count in want[3].items():
            assert stats[key] == count


class TestApplyValidation:
    def test_delete_missing_edge_raises(self):
        g = Graph.from_edges([("a", "b"), ("b", "c")])
        with pytest.raises(EdgeError, match="delete missing"):
            g.apply_delta(GraphDelta.delete(_arr(0), _arr(2)))

    def test_reweight_missing_edge_raises(self):
        g = Graph.from_edges([("a", "b"), ("b", "c")])
        with pytest.raises(EdgeError, match="reweight missing"):
            g.apply_delta(
                GraphDelta.reweight(_arr(0), _arr(2), np.array([1.0]))
            )

    def test_self_loop_rejected(self, grid_graph):
        with pytest.raises(EdgeError, match="self-loop"):
            grid_graph.apply_delta(GraphDelta.insert(_arr(3), _arr(3)))

    def test_unknown_index_rejected(self, grid_graph):
        with pytest.raises(NodeNotFoundError):
            grid_graph.apply_delta(GraphDelta.insert(_arr(0), _arr(10_000)))

    def test_bad_weight_rejected(self, grid_graph):
        with pytest.raises(EdgeError):
            grid_graph.apply_delta(
                GraphDelta.insert(_arr(0), _arr(1), np.array([-1.0]))
            )
        with pytest.raises(EdgeError):
            grid_graph.apply_delta(
                GraphDelta.insert(_arr(0), _arr(1), np.array([np.inf]))
            )

    def test_frozen_graph_raises_and_stays_intact(self, grid_graph):
        before = grid_graph.number_of_edges
        grid_graph.freeze()
        with pytest.raises(FrozenGraphError):
            grid_graph.apply_delta(GraphDelta.insert(_arr(0), _arr(1)))
        assert grid_graph.number_of_edges == before

    def test_non_delta_rejected(self, grid_graph):
        with pytest.raises(ParameterError):
            grid_graph.apply_delta("not a delta")


class TestCacheRefresh:
    def _warm(self, graph, *, p=1.5):
        graph.to_coo_arrays()
        graph.to_csr()
        graph.to_csr(weighted=False)
        adjacency_and_theta(graph, weighted=False)
        pagerank(graph)
        d2pr(graph, p)
        return d2pr_transition(graph, p)

    def _delta_for(self, graph, rng):
        er, ec, _ = graph.edge_arrays()
        sel = rng.choice(er.shape[0], 4, replace=False)
        free = np.setdiff1d(np.arange(er.shape[0]), sel)
        rw = free[:3]
        n = graph.number_of_nodes
        ins_r = rng.integers(0, n, 6)
        ins_c = rng.integers(0, n, 6)
        keep = ins_r != ins_c
        return (
            GraphDelta.delete(er[sel], ec[sel])
            | GraphDelta.insert(ins_r[keep], ins_c[keep])
            | GraphDelta.reweight(er[rw], ec[rw], np.full(3, 2.0))
        )

    @pytest.mark.parametrize("weighted", [False, True])
    def test_cached_theta_is_read_only(self, grid_graph, rng, weighted):
        # Shared and unfingerprinted: a write into theta would silently
        # move every later D2PR build, before and after a refresh.
        self._warm(grid_graph)
        _, theta = adjacency_and_theta(grid_graph, weighted=weighted)
        with pytest.raises(ValueError):
            theta[0] = 100.0
        stats = grid_graph.apply_delta(self._delta_for(grid_graph, rng))
        assert ("theta", weighted) in stats["refreshed"]
        _, theta = adjacency_and_theta(grid_graph, weighted=weighted)
        with pytest.raises(ValueError):
            theta[0] = 100.0

    @pytest.mark.parametrize("factory", ["grid_graph", "grid_digraph"])
    def test_refreshed_entries_match_fresh_builds(
        self, factory, request, rng
    ):
        graph = request.getfixturevalue(factory)
        old_transition = self._warm(graph)
        delta = self._delta_for(graph, rng)
        stats = graph.apply_delta(delta)
        fresh = _rebuilt(graph)

        # The graph refreshes only the adjacency and theta; every
        # operator bundle, its memoised factors (and the raw COO
        # triple) are dropped.
        assert {key[0] for key in stats["refreshed"]} == {"csr", "theta"}
        assert {key[0] for key in stats["dropped"]} <= {
            "coo", "operator", "factors",
        }
        assert ("operator", "d2pr", 1.5, 0.0, False) in stats["dropped"]
        assert ("operator", "d2pr", 0.0, 0.0, False) in stats["dropped"]

        for weighted in (False, True):
            _assert_same_csr(
                graph.to_csr(weighted=weighted),
                fresh.to_csr(weighted=weighted),
            )
        _, theta_new = adjacency_and_theta(graph, weighted=False)
        _, theta_ref = adjacency_and_theta(fresh, weighted=False)
        assert np.array_equal(theta_new, theta_ref)
        # The next bundle read rebuilds from the refreshed pair and
        # equals a fresh build exactly.
        patched = d2pr_transition(graph, 1.5)
        assert patched is not old_transition
        _assert_same_csr(patched, d2pr_transition(fresh, 1.5))
        _assert_same_csr(
            d2pr_transition(graph, 0.0), d2pr_transition(fresh, 0.0)
        )
        np.testing.assert_allclose(
            pagerank(graph).values, pagerank(fresh).values, atol=1e-12
        )

        # A fatigued solve caches only its own bundle; the next delta
        # drops it and the rebuild equals a fresh build.
        solve_many(graph, [RankQuery(method="fatigued", p=1.5, fatigue=0.3)])
        assert {key[0] for key in graph._cache} <= {
            "coo", "csr", "theta", "operator", "factors"
        }
        fatigued_key = ("operator", "fatigued", 1.5, 0.3, 0.0, False)
        assert fatigued_key in graph._cache
        stats = graph.apply_delta(self._delta_for(graph, rng))
        assert fatigued_key in stats["dropped"]
        fresh = _rebuilt(graph)
        _assert_same_csr(
            fatigued_transition(graph, 1.5, fatigue=0.3),
            fatigued_transition(fresh, 1.5, fatigue=0.3),
        )

    def test_refresh_hits_cache_not_rebuild(self, grid_graph, rng):
        # Only the bundle, its memoised factors and the adjacency bundle
        # they wrap are rebuilt: the adjacency and theta they read are
        # hits on the refreshed entries.
        self._warm(grid_graph)
        delta = self._delta_for(grid_graph, rng)
        grid_graph.apply_delta(delta)
        misses = grid_graph.cache_info()["misses"]
        d2pr_transition(grid_graph, 1.5)
        assert grid_graph.cache_info()["misses"] == misses + 3
        grid_graph.to_csr()
        adjacency_and_theta(grid_graph, weighted=False)
        assert grid_graph.cache_info()["misses"] == misses + 3

    def test_version_bumps_once(self, grid_graph, rng):
        self._warm(grid_graph)
        version = grid_graph.mutation_count
        grid_graph.apply_delta(self._delta_for(grid_graph, rng))
        assert grid_graph.mutation_count == version + 1

    def test_old_objects_untouched(self, grid_graph, rng):
        transition = self._warm(grid_graph)
        old_data = transition.data.copy()
        old_nnz = transition.nnz
        grid_graph.apply_delta(self._delta_for(grid_graph, rng))
        # holders of the pre-delta matrix keep a consistent snapshot
        assert transition.nnz == old_nnz
        np.testing.assert_array_equal(transition.data, old_data)

    def test_refreshed_operator_bundle_serves_new_matrix(
        self, grid_graph, rng
    ):
        self._warm(grid_graph)
        old_bundle = d2pr_operator(grid_graph, 1.5)
        grid_graph.apply_delta(self._delta_for(grid_graph, rng))
        new_bundle = d2pr_operator(grid_graph, 1.5)
        assert new_bundle is not old_bundle
        assert new_bundle.mat is d2pr_transition(grid_graph, 1.5)
        fresh = _rebuilt(grid_graph)
        np.testing.assert_allclose(
            d2pr(grid_graph, 1.5).values, d2pr(fresh, 1.5).values,
            atol=1e-12,
        )

    def test_walk_operator_refreshed(self, grid_digraph, rng):
        pagerank(grid_digraph)
        delta = self._delta_for(grid_digraph, rng)
        stats = grid_digraph.apply_delta(delta)
        assert ("operator", "d2pr", 0.0, 0.0, False) in stats["dropped"]
        assert ("csr", False) in stats["refreshed"]
        fresh = _rebuilt(grid_digraph)
        _assert_same_csr(
            d2pr_transition(grid_digraph, 0.0), d2pr_transition(fresh, 0.0)
        )
        np.testing.assert_allclose(
            pagerank(grid_digraph).values, pagerank(fresh).values,
            atol=1e-12,
        )

    @pytest.mark.parametrize("p,beta", [(0.0, 1.0), (0.0, 0.5), (2.0, 1.0)])
    def test_clamp_free_weighted_transition_refreshed(self, rng, p, beta):
        # Weighted bundles, the blend included, are dropped like every
        # other and rebuilt from the refreshed weighted adjacency and θ.
        n = 30
        rows = rng.integers(0, n, 150)
        cols = rng.integers(0, n, 150)
        keep = rows != cols
        weights = rng.uniform(0.5, 4.0, keep.sum())
        g = DiGraph.from_arrays(rows[keep], cols[keep], weights, num_nodes=n)
        if (p, beta) == (0.0, 1.0):
            pagerank(g, weighted=True)
        else:
            d2pr(g, p, beta=beta, weighted=True)
        er, ec, _ = g.edge_arrays()
        stats = g.apply_delta(
            GraphDelta.delete(er[:2], ec[:2])
            | GraphDelta.reweight(er[2:4], ec[2:4], np.full(2, 7.0))
        )
        assert ("operator", "d2pr", p, beta, True) in stats["dropped"]
        assert ("csr", True) in stats["refreshed"]
        fresh = _rebuilt(g)
        _assert_same_csr(
            d2pr_transition(g, p, beta=beta, weighted=True),
            d2pr_transition(fresh, p, beta=beta, weighted=True),
        )
        np.testing.assert_allclose(
            d2pr(g, p, beta=beta, weighted=True).values,
            d2pr(fresh, p, beta=beta, weighted=True).values,
            atol=1e-12,
        )

    def test_weighted_default_clamp_transition_dropped(self, rng):
        n = 30
        rows = rng.integers(0, n, 150)
        cols = rng.integers(0, n, 150)
        keep = rows != cols
        weights = rng.uniform(0.5, 4.0, keep.sum())
        g = Graph.from_arrays(rows[keep], cols[keep], weights, num_nodes=n)
        d2pr(g, 1.0, weighted=True)  # caches weighted transition, clamp=None
        er, ec, _ = g.edge_arrays()
        stats = g.apply_delta(GraphDelta.delete(er[:2], ec[:2]))
        assert ("operator", "d2pr", 1.0, 0.0, True) in stats["dropped"]
        # ...and the rebuild-on-demand answer matches a fresh graph
        fresh = _rebuilt(g)
        np.testing.assert_allclose(
            d2pr(g, 1.0, weighted=True).values,
            d2pr(fresh, 1.0, weighted=True).values,
            atol=1e-12,
        )

    def test_unread_pending_entries_chain(self, rng):
        # An entry nobody reads between two deltas is re-deferred, not
        # evicted: it keeps its last materialised value and resolves as
        # one patch over both deltas, with no rebuild.
        n = 400
        rows = rng.integers(0, n, 2400)
        cols = rng.integers(0, n, 2400)
        keep = rows != cols
        graph = Graph.from_arrays(rows[keep], cols[keep], num_nodes=n)
        self._warm(graph)

        def local_delta(lo):
            er, ec, _ = graph.edge_arrays()
            inside = np.flatnonzero((er >= lo) & (ec < lo + 12) & (er < ec))
            return GraphDelta.delete(
                er[inside[:2]], ec[inside[:2]]
            ) | GraphDelta.insert(_arr(lo, lo + 1), _arr(lo + 5, lo + 7))

        stats1 = graph.apply_delta(local_delta(100))
        stats2 = graph.apply_delta(local_delta(300))
        assert stats1["chained"] == []
        assert {key[0] for key in stats1["refreshed"]} == {"csr", "theta"}
        assert set(stats2["chained"]) == set(stats1["refreshed"])
        assert stats2["refreshed"] == []
        assert set(stats2["dropped"]) <= {("coo",)}
        fresh = _rebuilt(graph)  # reads only the dropped ("coo",)
        misses = graph.cache_info()["misses"]
        _assert_same_csr(graph.to_csr(), fresh.to_csr())
        assert graph.cache_info()["misses"] == misses
        # The rebuilds are the bundle, its factors and the adjacency
        # bundle, from the chained pair.
        patched = d2pr_transition(graph, 1.5)
        assert graph.cache_info()["misses"] == misses + 3
        _assert_same_csr(patched, d2pr_transition(fresh, 1.5))
        np.testing.assert_allclose(
            d2pr(graph, 1.5).values, d2pr(fresh, 1.5).values, atol=1e-12,
        )

    def test_read_entries_stay_refreshed_across_deltas(
        self, grid_graph, rng
    ):
        # The serving-loop pattern: the transition is read every round,
        # so the adjacency and theta keep getting patched, not rebuilt,
        # and each round's bundle is rebuilt from them.
        self._warm(grid_graph)
        for _ in range(3):
            d2pr_transition(grid_graph, 1.5)  # resolve before next delta
            stats = grid_graph.apply_delta(
                self._delta_for(grid_graph, rng)
            )
            assert {("csr", False), ("theta", False)} <= set(
                stats["refreshed"]
            )
            assert ("operator", "d2pr", 1.5, 0.0, False) in stats["dropped"]
            fresh = _rebuilt(grid_graph)
            _assert_same_csr(
                d2pr_transition(grid_graph, 1.5), d2pr_transition(fresh, 1.5)
            )

    def test_repeated_deltas_stay_consistent(self, grid_graph, rng):
        self._warm(grid_graph)
        for _ in range(4):
            delta = self._delta_for(grid_graph, rng)
            grid_graph.apply_delta(delta)
            fresh = _rebuilt(grid_graph)
            assert (grid_graph.to_csr() != fresh.to_csr()).nnz == 0
            patched = d2pr_transition(grid_graph, 1.5)
            rebuilt = d2pr_transition(fresh, 1.5)
            assert np.abs((patched - rebuilt).toarray()).max() < 1e-14


#: Group keys of every bundle the chain tests warm: d2pr and fatigued,
#: p ∈ {0, 1.5, −2}, β ∈ {0, 1} (β = 1 on weighted keys only), both
#: weight flags.  Every one is dropped at a delta and rebuilt on read.
_CHAIN_KEYS = [
    key
    for p in (0.0, 1.5, -2.0)
    for beta, weighted in ((0.0, False), (0.0, True), (1.0, True))
    for key in (
        ("d2pr", p, beta, weighted, "teleport"),
        ("fatigued", p, 0.3, beta, weighted, "teleport"),
    )
]


def _local_graph(cls, rng, *, n, m, weighted):
    """Short-range edges, so a window of nodes holds edges to rewire."""
    rows = rng.integers(0, n, m)
    cols = (rows + rng.integers(1, 9, m)) % n
    weights = rng.uniform(0.5, 4.0, m) if weighted else None
    return cls.from_arrays(rows, cols, weights, num_nodes=n)


def _window_delta(graph, rng, lo, width, *, weighted):
    """Deletes, inserts and reweights among nodes ``lo .. lo+width-1``."""
    er, ec, _ = graph.edge_arrays()
    inside = np.flatnonzero(
        (er >= lo) & (er < lo + width) & (ec >= lo) & (ec < lo + width)
    )
    picked = rng.permutation(inside)
    gone, moved = picked[:2], picked[2:4]
    ins_r = lo + rng.integers(0, width, 3)
    ins_c = lo + rng.integers(0, width, 3)
    keep = ins_r != ins_c

    def weights(k):
        return rng.uniform(0.5, 4.0, k) if weighted else np.ones(k)

    return (
        GraphDelta.delete(er[gone], ec[gone])
        | GraphDelta.insert(ins_r[keep], ins_c[keep], weights(keep.sum()))
        | GraphDelta.reweight(er[moved], ec[moved], weights(moved.size))
    )


def _warm_chain_keys(graph):
    for weighted in (False, True):
        adjacency_and_theta(graph, weighted=weighted)
    for key in _CHAIN_KEYS:
        family_method(key).operator(graph, key).t_csr


def _min_theta_delta(graph):
    """Reweight one edge of the node with the smallest positive Θ down,
    which moves the weighted clamp of every p ≠ 0, β = 0 key.  Reads
    the edge store only, so no pending cache entry is resolved."""
    er, ec, ew = graph.edge_arrays()
    n = graph.number_of_nodes
    theta = np.bincount(er, weights=ew, minlength=n)
    if not graph.directed:
        theta += np.bincount(ec, weights=ew, minlength=n)
    low = theta[theta > 0].min()
    node = int(np.flatnonzero(theta == low)[0])
    incident = er == node
    if not graph.directed:
        incident |= ec == node
    edge = int(np.flatnonzero(incident)[0])
    return GraphDelta.reweight(
        er[edge:edge + 1], ec[edge:edge + 1], np.array([ew[edge] / 8.0])
    ), low


class TestChainedRefresh:
    """The adjacency and θ chain across unread deltas; every bundle is
    rebuilt from them and equals a fresh build exactly."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        cls=st.sampled_from([Graph, DiGraph]),
        weighted=st.booleans(),
        starts=st.lists(st.integers(0, 984), min_size=1, max_size=5),
        lower_clamp=st.booleans(),
    )
    def test_chained_entries_match_fresh_builds(
        self, seed, cls, weighted, starts, lower_clamp
    ):
        rng = np.random.default_rng(seed)
        graph = _local_graph(cls, rng, n=1000, m=5000, weighted=weighted)
        _warm_chain_keys(graph)
        # Five 16-node windows plus the two nodes of the clamp-moving
        # reweight stay under the chain bound (100 nodes).  Nothing is
        # read from the cache between the deltas.
        history = [
            graph.apply_delta(
                _window_delta(graph, rng, lo, 16, weighted=weighted)
            )
            for lo in starts
        ]
        if lower_clamp:
            delta, clamp = _min_theta_delta(graph)
            history.append(graph.apply_delta(delta))
        deferred = set(history[0]["refreshed"])
        assert deferred == {
            ("csr", False), ("csr", True), ("theta", False), ("theta", True)
        }
        operators = {("operator", *key[:-1]) for key in _CHAIN_KEYS}
        assert operators <= set(history[0]["dropped"])
        for stats in history[1:]:
            assert set(stats["chained"]) == deferred
            assert stats["refreshed"] == []

        fresh = _rebuilt(graph)
        for w in (False, True):
            csr, theta = adjacency_and_theta(graph, weighted=w)
            csr_ref, theta_ref = adjacency_and_theta(fresh, weighted=w)
            _assert_same_csr(csr, csr_ref)
            assert np.array_equal(theta, theta_ref)
        if lower_clamp:
            _, theta = adjacency_and_theta(graph, weighted=True)
            assert theta[theta > 0].min() < clamp
        for key in _CHAIN_KEYS:
            method = family_method(key)
            _assert_same_csr(
                method.operator(graph, key).mat,
                method.operator(fresh, key).mat,
            )

    def test_union_past_the_bound_is_dropped(self, rng):
        n = 400
        graph = _local_graph(Graph, rng, n=n, m=2000, weighted=False)
        _warm_chain_keys(graph)
        # Each path touches 3/4 of the bound, so the second delta's
        # union passes it.
        width = int(_CHAIN_FRACTION * n) * 3 // 4

        def path(lo):
            nodes = np.arange(lo, lo + width, dtype=np.int64)
            return GraphDelta.insert(nodes[:-1], nodes[1:])

        stats1 = graph.apply_delta(path(0))
        stats2 = graph.apply_delta(path(200))
        assert stats1["chained"] == []
        assert ("csr", False) in stats1["refreshed"]
        assert stats2["chained"] == [] and stats2["refreshed"] == []
        assert set(stats2["dropped"]) >= set(stats1["refreshed"])
        assert graph.cache_info()["entries"] == 0
        fresh = _rebuilt(graph)
        assert (graph.to_csr() != fresh.to_csr()).nnz == 0
        np.testing.assert_allclose(
            d2pr(graph, 1.5).values, d2pr(fresh, 1.5).values, atol=1e-12,
        )


class TestDanglingTransitions:
    def test_delete_creates_dangling_row(self):
        dg = DiGraph.from_edges([(0, 1), (1, 2), (2, 0)], nodes=range(3))
        d2pr(dg, 1.0)
        dg.apply_delta(GraphDelta.delete(_arr(2), _arr(0)))
        transition = d2pr_transition(dg, 1.0)
        assert np.diff(transition.indptr)[2] == 0  # truly empty, not zeros
        fresh = _rebuilt(dg)
        np.testing.assert_allclose(
            d2pr(dg, 1.0).values, d2pr(fresh, 1.0).values, atol=1e-12
        )

    def test_insert_fills_dangling_row(self, dangling_digraph):
        dg = dangling_digraph
        d2pr(dg, 0.5)
        c, a = dg.index_of("c"), dg.index_of("a")
        dg.apply_delta(GraphDelta.insert(_arr(c), _arr(a)))
        fresh = _rebuilt(dg)
        np.testing.assert_allclose(
            d2pr(dg, 0.5).values, d2pr(fresh, 0.5).values, atol=1e-12
        )


class TestNodeOps:
    """Node inserts/deletes through GraphDelta."""

    def test_add_nodes_constructor(self):
        delta = GraphDelta.add_nodes(["x", "y"], attrs=[{"k": 1}, None])
        assert delta.size == 2
        assert delta.has_node_ops
        assert delta.node_inserts[0] == ("x", {"k": 1})
        assert delta.node_inserts[1][1] == {}

    def test_remove_nodes_constructor(self):
        delta = GraphDelta.remove_nodes([3, 1])
        assert delta.size == 2
        assert delta.has_node_ops
        assert delta.node_deletes.dtype == np.int64

    def test_add_nodes_validation(self):
        with pytest.raises(ParameterError):
            GraphDelta.add_nodes(["x"], attrs=[{}, {}])  # misaligned
        with pytest.raises(ParameterError):
            GraphDelta.add_nodes([["unhashable"]])

    def test_union_carries_node_ops(self):
        delta = GraphDelta.add_nodes(["x"]) | GraphDelta.remove_nodes([0])
        assert len(delta.node_inserts) == 1
        assert delta.node_deletes.tolist() == [0]
        assert delta.size == 2

    def test_insert_node_matches_add_node(self):
        g = Graph.from_edges([("a", "b")])
        stats = g.apply_delta(GraphDelta.add_nodes(["c"], attrs=[{"k": 7}]))
        assert stats["nodes_inserted"] == 1
        assert g.number_of_nodes == 3
        assert g.has_node("c")
        assert g.node_attr("c", "k") == 7
        assert g.degree("c") == 0

    def test_insert_then_edge_to_new_node_in_one_delta(self):
        g = Graph.from_edges([("a", "b")])
        # Edge indices live in the *post-insert* index space: index 2 is
        # the node being inserted by the same delta.
        delta = GraphDelta.add_nodes(["c"]) | GraphDelta.insert(
            _arr(0), _arr(2), np.array([4.0])
        )
        g.apply_delta(delta)
        assert g.edge_weight("a", "c") == 4.0
        assert g.number_of_edges == 2

    def test_duplicate_or_existing_node_rejected(self):
        g = Graph.from_edges([("a", "b")])
        with pytest.raises(ParameterError, match="already exists"):
            g.apply_delta(GraphDelta.add_nodes(["a"]))
        with pytest.raises(ParameterError, match="duplicate node insert"):
            g.apply_delta(GraphDelta.add_nodes(["c", "c"]))

    def test_delete_node_drops_incident_edges_and_compacts(self):
        g = Graph.from_edges([("a", "b"), ("b", "c"), ("a", "c")])
        stats = g.apply_delta(GraphDelta.remove_nodes([1]))  # drop "b"
        assert stats["nodes_deleted"] == 1
        assert g.nodes() == ["a", "c"]
        assert g.number_of_edges == 1
        assert g.edge_weight("a", "c") == 1.0
        # Indices were remapped: "c" moved from 2 to 1.
        assert g.index_of("c") == 1

    def test_delete_out_of_range_rejected(self):
        g = Graph.from_edges([("a", "b")])
        with pytest.raises(NodeNotFoundError):
            g.apply_delta(GraphDelta.remove_nodes([5]))

    def test_node_ops_evict_caches_and_bump_version(self, grid_graph):
        grid_graph.to_csr()
        pagerank(grid_graph)
        before = grid_graph.mutation_count
        grid_graph.apply_delta(GraphDelta.add_nodes(["fresh"]))
        assert grid_graph.mutation_count > before
        # Matrices rebuilt at the new size.
        assert grid_graph.to_csr().shape[0] == grid_graph.number_of_nodes

    @pytest.mark.parametrize("cls", [Graph, DiGraph])
    def test_mixed_delta_matches_rebuilt_reference(self, cls, rng):
        rows = rng.integers(0, 40, 200)
        cols = rng.integers(0, 40, 200)
        keep = rows != cols
        graph = cls.from_arrays(rows[keep], cols[keep], num_nodes=40)
        er, ec, _ = graph.edge_arrays()
        sel = rng.choice(er.shape[0], 3, replace=False)
        delta = (
            GraphDelta.delete(er[sel], ec[sel])
            | GraphDelta.add_nodes(["n1", "n2"])
            | GraphDelta.insert(_arr(0, 40), _arr(40, 41))
            | GraphDelta.remove_nodes([7])
        )
        graph.apply_delta(delta)
        rebuilt = _rebuilt(graph)
        assert (graph.to_csr() != rebuilt.to_csr()).nnz == 0
        assert graph.number_of_nodes == rebuilt.number_of_nodes
        # Key-sort and canonical invariants survived the remap.
        r2, c2, _ = graph._canonical_edges()
        keys = r2 * graph.number_of_nodes + c2
        assert np.all(np.diff(keys) > 0)
        if not graph.directed:
            assert np.all(r2 < c2)

    def test_frozen_graph_rejects_node_ops(self, grid_graph):
        grid_graph.freeze()
        with pytest.raises(FrozenGraphError):
            grid_graph.apply_delta(GraphDelta.add_nodes(["x"]))
