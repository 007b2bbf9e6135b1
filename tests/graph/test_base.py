"""Unit tests for repro.graph.base (Graph / DiGraph)."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.errors import EdgeError, EmptyGraphError, NodeNotFoundError
from repro.graph import DiGraph, Graph


class TestGraphNodes:
    def test_add_node_returns_index(self):
        g = Graph()
        assert g.add_node("a") == 0
        assert g.add_node("b") == 1

    def test_add_existing_node_is_idempotent(self):
        g = Graph()
        g.add_node("a")
        assert g.add_node("a") == 0
        assert g.number_of_nodes == 1

    def test_add_node_merges_attrs(self):
        g = Graph()
        g.add_node("a", color="red")
        g.add_node("a", size=3)
        assert g.node_attr("a", "color") == "red"
        assert g.node_attr("a", "size") == 3

    def test_nodes_in_insertion_order(self):
        g = Graph()
        for name in ("z", "a", "m"):
            g.add_node(name)
        assert g.nodes() == ["z", "a", "m"]

    def test_index_of_unknown_raises(self):
        g = Graph()
        with pytest.raises(NodeNotFoundError):
            g.index_of("ghost")

    def test_node_at_roundtrip(self):
        g = Graph()
        g.add_nodes_from(["a", "b", "c"])
        for node in g.nodes():
            assert g.node_at(g.index_of(node)) == node

    def test_node_at_out_of_range_raises(self):
        g = Graph()
        g.add_node("a")
        with pytest.raises(NodeNotFoundError):
            g.node_at(5)

    def test_contains_and_len(self):
        g = Graph()
        g.add_nodes_from(["a", "b"])
        assert "a" in g
        assert "zzz" not in g
        assert len(g) == 2

    def test_iteration_yields_nodes(self):
        g = Graph()
        g.add_nodes_from(["a", "b"])
        assert list(g) == ["a", "b"]

    def test_hashable_non_string_nodes(self):
        g = Graph()
        g.add_edge((1, 2), frozenset({3}))
        assert g.has_edge((1, 2), frozenset({3}))

    def test_require_nonempty_raises_on_empty(self):
        with pytest.raises(EmptyGraphError):
            Graph().require_nonempty()


class TestGraphAttributes:
    def test_node_attr_default(self):
        g = Graph()
        g.add_node("a")
        assert g.node_attr("a", "missing", default=7) == 7

    def test_node_attr_array_alignment(self):
        g = Graph()
        g.add_node("a", score=1.0)
        g.add_node("b")
        g.add_node("c", score=3.0)
        arr = g.node_attr_array("score")
        assert arr[0] == 1.0
        assert np.isnan(arr[1])
        assert arr[2] == 3.0

    def test_node_attr_array_custom_default(self):
        g = Graph()
        g.add_node("a")
        arr = g.node_attr_array("score", default=-1.0)
        assert arr[0] == -1.0

    def test_attribute_names_sorted(self):
        g = Graph()
        g.add_node("a", zeta=1, alpha=2)
        assert g.attribute_names() == ["alpha", "zeta"]

    def test_set_node_attr_after_creation(self):
        g = Graph()
        g.add_node("a")
        g.set_node_attr("a", "significance", 4.2)
        assert g.node_attr("a", "significance") == 4.2


class TestGraphEdges:
    def test_add_edge_creates_nodes(self):
        g = Graph()
        g.add_edge("a", "b")
        assert g.number_of_nodes == 2
        assert g.number_of_edges == 1

    def test_edge_is_symmetric(self):
        g = Graph()
        g.add_edge("a", "b", weight=2.5)
        assert g.edge_weight("a", "b") == 2.5
        assert g.edge_weight("b", "a") == 2.5

    def test_re_adding_edge_updates_weight_not_count(self):
        g = Graph()
        g.add_edge("a", "b", weight=1.0)
        g.add_edge("a", "b", weight=9.0)
        assert g.number_of_edges == 1
        assert g.edge_weight("a", "b") == 9.0

    def test_self_loop_rejected(self):
        g = Graph()
        with pytest.raises(EdgeError):
            g.add_edge("a", "a")

    def test_nonpositive_weight_rejected(self):
        g = Graph()
        with pytest.raises(EdgeError):
            g.add_edge("a", "b", weight=0.0)
        with pytest.raises(EdgeError):
            g.add_edge("a", "b", weight=-1.0)

    def test_nonfinite_weight_rejected(self):
        g = Graph()
        with pytest.raises(EdgeError):
            g.add_edge("a", "b", weight=float("nan"))
        with pytest.raises(EdgeError):
            g.add_edge("a", "b", weight=float("inf"))

    def test_edge_weight_missing_edge_raises(self):
        g = Graph()
        g.add_nodes_from(["a", "b"])
        with pytest.raises(EdgeError):
            g.edge_weight("a", "b")

    def test_increment_edge_accumulates(self):
        g = Graph()
        g.increment_edge("a", "b")
        g.increment_edge("a", "b", delta=2.0)
        assert g.edge_weight("a", "b") == 3.0
        assert g.number_of_edges == 1

    def test_increment_edge_self_loop_rejected(self):
        g = Graph()
        with pytest.raises(EdgeError):
            g.increment_edge("x", "x")

    def test_edges_listed_once(self, figure1_graph):
        edges = list(figure1_graph.edges())
        assert len(edges) == 6
        endpoints = {frozenset((u, v)) for u, v, _ in edges}
        assert len(endpoints) == 6

    def test_add_edges_from_mixed_tuples(self):
        g = Graph()
        g.add_edges_from([("a", "b"), ("b", "c", 4.0)])
        assert g.edge_weight("a", "b") == 1.0
        assert g.edge_weight("b", "c") == 4.0

    def test_has_edge_unknown_nodes(self):
        g = Graph()
        assert not g.has_edge("a", "b")

    def test_neighbors(self, figure1_graph):
        assert sorted(figure1_graph.neighbors("A")) == ["B", "C", "D"]
        assert sorted(figure1_graph.neighbors("C")) == ["A", "E", "F"]

    def test_degree(self, figure1_graph):
        assert figure1_graph.degree("A") == 3
        assert figure1_graph.degree("D") == 1

    def test_degree_vector(self, figure1_graph):
        degrees = figure1_graph.degree_vector()
        by_node = {
            node: degrees[figure1_graph.index_of(node)]
            for node in figure1_graph.nodes()
        }
        assert by_node == {"A": 3, "B": 2, "C": 3, "D": 1, "E": 2, "F": 1}

    def test_weighted_degree_vector(self):
        g = Graph()
        g.add_edge("a", "b", weight=2.0)
        g.add_edge("a", "c", weight=3.0)
        strengths = g.degree_vector(weighted=True)
        assert strengths[g.index_of("a")] == 5.0


class TestGraphExport:
    def test_to_csr_shape_and_symmetry(self, figure1_graph):
        mat = figure1_graph.to_csr()
        assert mat.shape == (6, 6)
        assert (mat != mat.T).nnz == 0

    def test_to_csr_unweighted_binarizes(self):
        g = Graph()
        g.add_edge("a", "b", weight=7.0)
        mat = g.to_csr(weighted=False)
        assert mat.data.tolist() == [1.0, 1.0]

    def test_to_coo_arrays_roundtrip(self):
        g = Graph()
        g.add_edge("a", "b", weight=2.0)
        rows, cols, data = g.to_coo_arrays()
        assert len(rows) == 2  # both orientations
        assert set(zip(rows.tolist(), cols.tolist())) == {(0, 1), (1, 0)}
        assert data.tolist() == [2.0, 2.0]

    @pytest.mark.parametrize("cls", [Graph, DiGraph])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_to_csr_matches_sorted_summed_oracle(self, cls, weighted, rng):
        # Built straight from the store, without scipy's sort and
        # duplicate sum; nodes 50..59 stay isolated.
        n = 60
        rows = rng.integers(0, 50, 300)
        cols = rng.integers(0, 50, 300)
        keep = rows != cols
        weights = rng.uniform(0.5, 4.0, int(keep.sum()))
        graph = cls.from_arrays(rows[keep], cols[keep], weights, num_nodes=n)
        coo_rows, coo_cols, data = graph.to_coo_arrays()
        if not weighted:
            data = np.ones_like(data)
        oracle = sparse.coo_matrix(
            (data, (coo_rows, coo_cols)), shape=(n, n)
        ).tocsr()
        oracle.sum_duplicates()
        mat = graph.to_csr(weighted=weighted)
        assert np.array_equal(mat.indptr, oracle.indptr)
        assert np.array_equal(mat.indices, oracle.indices)
        assert np.array_equal(mat.data, oracle.data)
        assert mat.indices.dtype == oracle.indices.dtype
        assert np.diff(mat.indptr)[50:].sum() == 0

    @pytest.mark.parametrize("cls", [Graph, DiGraph])
    def test_to_csr_of_empty_graph(self, cls):
        assert cls().to_csr().shape == (0, 0)
        edgeless = cls.from_arrays(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            num_nodes=4,
        )
        mat = edgeless.to_csr()
        assert mat.shape == (4, 4)
        assert mat.nnz == 0
        assert np.array_equal(mat.indptr, np.zeros(5))


class TestGraphStructure:
    def test_connected_components_sizes(self):
        g = Graph.from_edges([("a", "b"), ("c", "d"), ("d", "e")])
        comps = g.connected_components()
        assert [len(c) for c in comps] == [3, 2]

    def test_connected_components_isolated_node(self):
        g = Graph()
        g.add_node("lonely")
        g.add_edge("a", "b")
        comps = g.connected_components()
        assert [len(c) for c in comps] == [2, 1]

    def test_largest_connected_component(self):
        g = Graph.from_edges([("a", "b"), ("b", "c"), ("x", "y")])
        lcc = g.largest_connected_component()
        assert sorted(lcc.nodes()) == ["a", "b", "c"]
        assert lcc.number_of_edges == 2

    def test_subgraph_preserves_attrs_and_weights(self):
        g = Graph()
        g.add_node("a", significance=1.5)
        g.add_edge("a", "b", weight=3.0)
        g.add_edge("b", "c")
        sub = g.subgraph(["a", "b"])
        assert sub.number_of_nodes == 2
        assert sub.edge_weight("a", "b") == 3.0
        assert sub.node_attr("a", "significance") == 1.5
        assert not sub.has_node("c")

    def test_copy_is_independent(self, path_graph):
        clone = path_graph.copy()
        clone.add_edge("d", "zzz")
        assert not path_graph.has_node("zzz")

    def test_to_directed_doubles_edges(self, path_graph):
        d = path_graph.to_directed()
        assert d.number_of_edges == 2 * path_graph.number_of_edges
        assert d.has_edge("a", "b") and d.has_edge("b", "a")

    def test_from_edges_with_isolated_nodes(self):
        g = Graph.from_edges([("a", "b")], nodes=["isolated"])
        assert g.has_node("isolated")
        assert g.degree("isolated") == 0


class TestDiGraph:
    def test_directed_edge_one_way(self):
        g = DiGraph()
        g.add_edge("a", "b")
        assert g.has_edge("a", "b")
        assert not g.has_edge("b", "a")

    def test_in_out_degree(self, cycle_digraph):
        for node in cycle_digraph.nodes():
            assert cycle_digraph.out_degree(node) == 1
            assert cycle_digraph.in_degree(node) == 1

    def test_in_degree_vector_weighted(self):
        g = DiGraph()
        g.add_edge("a", "c", weight=2.0)
        g.add_edge("b", "c", weight=3.0)
        vec = g.in_degree_vector(weighted=True)
        assert vec[g.index_of("c")] == 5.0

    def test_predecessors(self):
        g = DiGraph.from_edges([("a", "c"), ("b", "c")])
        assert sorted(g.predecessors("c")) == ["a", "b"]

    def test_dangling_mask(self, dangling_digraph):
        mask = dangling_digraph.dangling_mask()
        assert mask[dangling_digraph.index_of("c")]
        assert not mask[dangling_digraph.index_of("a")]

    def test_self_loop_rejected(self):
        g = DiGraph()
        with pytest.raises(EdgeError):
            g.add_edge("a", "a")

    def test_subgraph_directed(self):
        g = DiGraph.from_edges([("a", "b"), ("b", "c"), ("c", "a")])
        sub = g.subgraph(["a", "b"])
        assert sub.has_edge("a", "b")
        assert not sub.has_edge("b", "a")
        assert sub.number_of_edges == 1

    def test_to_undirected_sums_antiparallel(self):
        g = DiGraph()
        g.add_edge("a", "b", weight=2.0)
        g.add_edge("b", "a", weight=3.0)
        u = g.to_undirected()
        assert u.edge_weight("a", "b") == 5.0
        assert u.number_of_edges == 1

    def test_edges_yields_directed_tuples(self, cycle_digraph):
        edges = {(u, v) for u, v, _w in cycle_digraph.edges()}
        assert ("a", "b") in edges
        assert ("b", "a") not in edges

    def test_re_adding_directed_edge_updates_weight(self):
        g = DiGraph()
        g.add_edge("a", "b", weight=1.0)
        g.add_edge("a", "b", weight=5.0)
        assert g.number_of_edges == 1
        assert g.edge_weight("a", "b") == 5.0

    def test_out_degree_vector(self, dangling_digraph):
        vec = dangling_digraph.out_degree_vector()
        assert vec[dangling_digraph.index_of("a")] == 2
        assert vec[dangling_digraph.index_of("c")] == 0

    def test_copy_preserves_direction(self, cycle_digraph):
        clone = cycle_digraph.copy()
        assert clone.has_edge("a", "b")
        assert not clone.has_edge("b", "a")


class TestFreeze:
    def test_freeze_blocks_all_mutators(self):
        from repro.errors import FrozenGraphError

        g = Graph.from_edges([("a", "b"), ("b", "c")])
        assert not g.frozen
        assert g.freeze() is g
        assert g.frozen
        with pytest.raises(FrozenGraphError):
            g.add_node("d")
        with pytest.raises(FrozenGraphError):
            g.add_edge("a", "c")
        with pytest.raises(FrozenGraphError):
            g.increment_edge("a", "b")
        with pytest.raises(FrozenGraphError):
            g.add_edges_arrays(np.array([0]), np.array([2]))
        with pytest.raises(FrozenGraphError):
            g.set_node_attr("a", "x", 1.0)

    def test_freeze_blocks_digraph_mutators(self):
        from repro.errors import FrozenGraphError

        g = DiGraph.from_edges([("a", "b")])
        g.freeze()
        with pytest.raises(FrozenGraphError):
            g.add_edge("b", "a")
        with pytest.raises(FrozenGraphError):
            g.add_edges_arrays(np.array([1]), np.array([0]))

    def test_frozen_graph_reads_fine(self):
        g = Graph.from_edges([("a", "b"), ("b", "c")])
        g.freeze()
        assert g.has_edge("a", "b")
        assert g.neighbors("b") == ["a", "c"]
        assert g.to_csr(weighted=False).nnz == 4
        assert g.degree("b") == 2

    def test_frozen_lazy_graph_materialises_on_read(self):
        """Freezing a bulk-ingested graph must not break lazy dict access."""
        g = Graph.from_arrays(
            np.array([0, 1]), np.array([1, 2]), num_nodes=3
        )
        g.freeze()
        assert sorted(g.neighbors(1)) == [0, 2]

    def test_copy_and_subgraph_unfrozen(self):
        g = Graph.from_edges([("a", "b"), ("b", "c")])
        g.freeze()
        c = g.copy()
        assert not c.frozen
        c.add_edge("a", "c")
        s = g.subgraph(["a", "b"])
        assert not s.frozen
        s.add_node("z")

    def test_freeze_idempotent(self):
        g = Graph.from_edges([("a", "b")])
        g.freeze().freeze()
        assert g.frozen


class TestOperatorBundleCache:
    """Graph-cached solver-operator bundles follow the matrix-cache contract."""

    @staticmethod
    def _bundle(g):
        from repro.core.d2pr import d2pr_operator

        # At p = 0 the d2pr bundle wraps the uniform walk.
        return d2pr_operator(g, 0.0)

    def test_bundle_memoised_until_mutation(self):
        g = DiGraph.from_edges([("a", "b"), ("b", "c")])
        bundle = self._bundle(g)
        assert self._bundle(g) is bundle
        assert bundle.t_csr is bundle.t_csr

    def test_bundle_counts_as_cache_entry(self):
        g = DiGraph.from_edges([("a", "b"), ("b", "c")])
        before = g.cache_info()["entries"]
        self._bundle(g)
        after = g.cache_info()
        assert after["entries"] > before
        self._bundle(g)
        assert g.cache_info()["hits"] == after["hits"] + 1

    def test_mutation_invalidates_bundle(self):
        g = DiGraph.from_edges([("a", "b"), ("b", "c")])
        stale = self._bundle(g)
        stale_t = stale.t_csr
        version = g.mutation_count
        g.add_edge("c", "a")
        assert g.mutation_count > version
        fresh = self._bundle(g)
        assert fresh is not stale
        # The fresh bundle sees the new edge; the stale one never will.
        assert fresh.t_csr.nnz == stale_t.nnz + 1
        assert not fresh.has_dangling  # the cycle closed
        assert stale.has_dangling

    def test_mutation_invalidates_dangling_mask(self):
        g = DiGraph.from_edges([("a", "b"), ("b", "c")])
        assert self._bundle(g).dangle_mask[g.index_of("c")]
        g.add_edge("c", "b")
        assert not self._bundle(g).dangle_mask.any()

    def test_frozen_graph_keeps_bundle_stable(self):
        from repro.errors import FrozenGraphError

        g = DiGraph.from_edges([("a", "b"), ("b", "c")])
        g.freeze()
        bundle = self._bundle(g)
        with pytest.raises(FrozenGraphError):
            g.add_edge("c", "a")
        # The rejected mutation must not have touched the cache.
        assert self._bundle(g) is bundle

    def test_invalidate_caches_drops_bundle(self):
        g = DiGraph.from_edges([("a", "b")])
        bundle = self._bundle(g)
        g.invalidate_caches()
        assert self._bundle(g) is not bundle

    def test_d2pr_solve_reuses_bundle_across_calls(self):
        from repro.core.d2pr import d2pr, d2pr_operator

        g = DiGraph.from_edges([("a", "b"), ("b", "c"), ("c", "a")])
        d2pr(g, 1.0, tol=1e-8)
        bundle = d2pr_operator(g, 1.0)
        misses = g.cache_info()["misses"]
        d2pr(g, 1.0, tol=1e-8, alpha=0.6)
        assert d2pr_operator(g, 1.0) is bundle
        assert g.cache_info()["misses"] == misses
