"""Tests for GraphDelta and the delta-aware cache refresh (apply_delta)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import d2pr, pagerank
from repro.core.d2pr import d2pr_operator, d2pr_transition
from repro.core.engine import adjacency_and_theta
from repro.errors import (
    EdgeError,
    FrozenGraphError,
    NodeNotFoundError,
    ParameterError,
)
from repro.graph import DiGraph, Graph, GraphDelta


def _arr(*values):
    return np.array(values, dtype=np.int64)


def _rebuilt(graph):
    """Fresh graph of the same class built from the canonical edges."""
    cls = type(graph)
    return cls.from_arrays(
        *graph.edge_arrays(), num_nodes=graph.number_of_nodes
    )


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

    @pytest.mark.parametrize("factory", ["grid_graph", "grid_digraph"])
    def test_refreshed_entries_match_fresh_builds(
        self, factory, request, rng
    ):
        graph = request.getfixturevalue(factory)
        old_transition = self._warm(graph)
        delta = self._delta_for(graph, rng)
        stats = graph.apply_delta(delta)
        fresh = _rebuilt(graph)

        # the refreshed keys include every warmed matrix; the raw COO
        # triple is dropped (its on-demand rebuild is the same cost)
        kinds = {key[0] for key in stats["refreshed"]}
        assert {"csr", "adj_theta", "d2pr_transition", "operator"} <= kinds
        assert {key[0] for key in stats["dropped"]} <= {"coo"}

        assert (graph.to_csr() != fresh.to_csr()).nnz == 0
        assert (
            graph.to_csr(weighted=False) != fresh.to_csr(weighted=False)
        ).nnz == 0
        adj_new, theta_new = adjacency_and_theta(graph, weighted=False)
        adj_ref, theta_ref = adjacency_and_theta(fresh, weighted=False)
        np.testing.assert_allclose(theta_new, theta_ref)
        patched = d2pr_transition(graph, 1.5)
        rebuilt = d2pr_transition(fresh, 1.5)
        assert patched is not old_transition
        diff = (patched - rebuilt)
        assert abs(diff).max() < 1e-15 if diff.nnz else True
        np.testing.assert_allclose(
            pagerank(graph).values, pagerank(fresh).values, atol=1e-12
        )

    def test_refresh_hits_cache_not_rebuild(self, grid_graph, rng):
        self._warm(grid_graph)
        delta = self._delta_for(grid_graph, rng)
        grid_graph.apply_delta(delta)
        misses = grid_graph.cache_info()["misses"]
        d2pr_transition(grid_graph, 1.5)  # must be a hit on refreshed entry
        grid_graph.to_csr()
        assert grid_graph.cache_info()["misses"] == misses

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
        assert ("operator", "d2pr", 0.0, 0.0, False, None) in stats[
            "refreshed"
        ]
        fresh = _rebuilt(grid_digraph)
        np.testing.assert_allclose(
            pagerank(grid_digraph).values, pagerank(fresh).values,
            atol=1e-12,
        )

    @pytest.mark.parametrize("p,beta", [(0.0, 1.0), (0.0, 0.5), (2.0, 1.0)])
    def test_clamp_free_weighted_transition_refreshed(self, rng, p, beta):
        # At p = 0 or beta = 1 the default clamp cannot reach the matrix,
        # so the weighted walk (p = 0, beta = 1) is patched, not evicted.
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
        key = ("d2pr_transition", p, beta, True, None)
        assert key in stats["refreshed"]
        assert ("operator", "d2pr", *key[1:]) in stats["refreshed"]
        fresh = _rebuilt(g)
        patched = d2pr_transition(g, p, beta=beta, weighted=True)
        rebuilt = d2pr_transition(fresh, p, beta=beta, weighted=True)
        assert patched.shape == rebuilt.shape
        assert abs(patched - rebuilt).max() < 1e-15
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
        dropped_kinds = {key[0] for key in stats["dropped"]}
        assert "d2pr_transition" in dropped_kinds
        # ...and the rebuild-on-demand answer matches a fresh graph
        fresh = _rebuilt(g)
        np.testing.assert_allclose(
            d2pr(g, 1.0, weighted=True).values,
            d2pr(fresh, 1.0, weighted=True).values,
            atol=1e-12,
        )

    def test_unread_pending_entries_evicted_not_chained(
        self, grid_graph, rng
    ):
        # An entry nobody reads between two deltas is evicted, not
        # chained — chaining would retain one store snapshot per delta.
        self._warm(grid_graph)
        stats1 = grid_graph.apply_delta(self._delta_for(grid_graph, rng))
        stats2 = grid_graph.apply_delta(self._delta_for(grid_graph, rng))
        assert set(stats2["dropped"]) >= set(stats1["refreshed"])
        assert stats2["refreshed"] == []
        fresh = _rebuilt(grid_graph)
        assert (grid_graph.to_csr() != fresh.to_csr()).nnz == 0
        np.testing.assert_allclose(
            d2pr(grid_graph, 1.5).values, d2pr(fresh, 1.5).values,
            atol=1e-12,
        )

    def test_read_entries_stay_refreshed_across_deltas(
        self, grid_graph, rng
    ):
        # The serving-loop pattern: the transition is read every round,
        # so it keeps getting patched instead of evicted.
        self._warm(grid_graph)
        for _ in range(3):
            d2pr_transition(grid_graph, 1.5)  # resolve before next delta
            stats = grid_graph.apply_delta(
                self._delta_for(grid_graph, rng)
            )
            assert ("d2pr_transition", 1.5, 0.0, False, None) in stats[
                "refreshed"
            ]
        fresh = _rebuilt(grid_graph)
        patched = d2pr_transition(grid_graph, 1.5)
        rebuilt = d2pr_transition(fresh, 1.5)
        assert np.abs((patched - rebuilt).toarray()).max() < 1e-14

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


class TestTransposePatch:
    """The operator-bundle refresh patches the cached transpose in place."""

    def _delta(self, rng, graph):
        er, ec, _ = graph.edge_arrays()
        n = graph.number_of_nodes
        sel = rng.choice(er.shape[0], 3, replace=False)
        ins_r = rng.integers(0, n, 5)
        ins_c = rng.integers(0, n, 5)
        keep = ins_r != ins_c
        return GraphDelta.delete(er[sel], ec[sel]) | GraphDelta.insert(
            ins_r[keep], ins_c[keep]
        )

    @pytest.mark.parametrize("cls", [Graph, DiGraph])
    def test_built_transpose_is_patched_not_rebuilt(self, cls, rng):
        rows = rng.integers(0, 200, 2000)
        cols = rng.integers(0, 200, 2000)
        keep = rows != cols
        graph = cls.from_arrays(rows[keep], cols[keep], num_nodes=200)
        bundle = d2pr_operator(graph, 1.0)
        bundle.t_csr  # build the transpose view
        graph.apply_delta(self._delta(rng, graph))
        refreshed = d2pr_operator(graph, 1.0)
        assert refreshed is not bundle
        # Seeded at refresh time, before any solver touched it.
        assert refreshed._t_csr is not None
        reference = refreshed.mat.T.tocsr()
        assert refreshed.t_csr.nnz == reference.nnz
        assert (refreshed.t_csr != reference).nnz == 0

    def test_unbuilt_transpose_stays_lazy(self, rng):
        rows = rng.integers(0, 100, 800)
        cols = rng.integers(0, 100, 800)
        keep = rows != cols
        graph = Graph.from_arrays(rows[keep], cols[keep], num_nodes=100)
        d2pr_operator(graph, 1.0)  # bundle exists, transpose never built
        graph.apply_delta(self._delta(rng, graph))
        refreshed = d2pr_operator(graph, 1.0)
        assert refreshed._t_csr is None  # no eager cost
        reference = refreshed.mat.T.tocsr()
        assert (refreshed.t_csr != reference).nnz == 0

    def test_chained_deltas_keep_patching(self, rng):
        rows = rng.integers(0, 150, 1200)
        cols = rng.integers(0, 150, 1200)
        keep = rows != cols
        graph = Graph.from_arrays(rows[keep], cols[keep], num_nodes=150)
        d2pr_operator(graph, 1.0).t_csr
        for _ in range(3):
            graph.apply_delta(self._delta(rng, graph))
            bundle = d2pr_operator(graph, 1.0)
            assert bundle._t_csr is not None
            reference = bundle.mat.T.tocsr()
            assert (bundle.t_csr != reference).nnz == 0
            bundle.t_csr  # keep it built for the next round


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
