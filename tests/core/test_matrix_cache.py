"""Tests for the invalidation-aware matrix cache on BaseGraph.

Covers the ISSUE acceptance criterion: repeated ``d2pr``/``pagerank`` calls
on an unmutated graph must hit the matrix cache (observable through the
hit/miss counters), and any structural mutation must invalidate it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import d2pr, hitting_times, pagerank, simulate_walk
from repro.core.d2pr import d2pr_transition
from repro.graph import DiGraph, Graph
from repro.linalg.operator import LinearOperatorBundle
from repro.methods import resolve
from repro.serving import RankingService, RankRequest


@pytest.fixture
def small_graph() -> Graph:
    return Graph.from_edges(
        [("A", "B"), ("A", "C"), ("A", "D"), ("B", "E"), ("C", "E"), ("C", "F")]
    )


class TestCacheHits:
    def test_repeated_d2pr_hits_cache(self, small_graph):
        first = d2pr(small_graph, 1.5)
        hits_before = small_graph.cache_info()["hits"]
        second = d2pr(small_graph, 1.5)
        assert small_graph.cache_info()["hits"] > hits_before
        np.testing.assert_allclose(first.values, second.values)

    def test_transition_object_is_reused(self, small_graph):
        t1 = d2pr_transition(small_graph, 2.0)
        t2 = d2pr_transition(small_graph, 2.0)
        assert t1 is t2

    def test_different_p_is_a_different_entry(self, small_graph):
        t1 = d2pr_transition(small_graph, 1.0)
        t2 = d2pr_transition(small_graph, 2.0)
        assert t1 is not t2

    def test_repeated_pagerank_hits_cache(self, small_graph):
        pagerank(small_graph)
        hits_before = small_graph.cache_info()["hits"]
        pagerank(small_graph)
        assert small_graph.cache_info()["hits"] > hits_before

    def test_to_csr_cached_per_weight_flag(self, small_graph):
        assert small_graph.to_csr() is small_graph.to_csr()
        assert small_graph.to_csr(weighted=False) is not small_graph.to_csr()

    def test_alpha_sweep_shares_one_transition(self, small_graph):
        d2pr(small_graph, 0.5, alpha=0.5)
        hits_before = small_graph.cache_info()["hits"]
        d2pr(small_graph, 0.5, alpha=0.9)  # same transition, new solve
        assert small_graph.cache_info()["hits"] > hits_before

    def test_simulate_walk_reuses_transition(self, small_graph):
        d2pr_transition(small_graph, 0.0)
        hits_before = small_graph.cache_info()["hits"]
        simulate_walk(small_graph, 0.0, steps=500, seed=1)
        assert small_graph.cache_info()["hits"] > hits_before


class TestInvalidation:
    def test_add_edge_invalidates(self, small_graph):
        before = d2pr(small_graph, 1.0).values
        csr_before = small_graph.to_csr()
        small_graph.add_edge("E", "F")
        assert small_graph.to_csr() is not csr_before
        after = d2pr(small_graph, 1.0).values
        assert after.shape == before.shape
        assert not np.allclose(after, before)

    def test_add_node_invalidates(self, small_graph):
        small_graph.to_csr()
        version = small_graph.mutation_count
        small_graph.add_node("G")
        assert small_graph.mutation_count > version
        assert small_graph.to_csr().shape == (7, 7)

    def test_increment_edge_invalidates(self, small_graph):
        scores = d2pr(small_graph, 0.0, beta=1.0, weighted=True).values
        small_graph.increment_edge("A", "B", delta=9.0)
        rescored = d2pr(small_graph, 0.0, beta=1.0, weighted=True).values
        assert not np.allclose(scores, rescored)

    def test_bulk_ingestion_invalidates(self):
        g = Graph()
        g.add_nodes_from(range(4))
        g.add_edges_arrays(np.array([0, 1]), np.array([1, 2]))
        mat = g.to_csr()
        g.add_edges_arrays(np.array([2]), np.array([3]))
        assert g.to_csr() is not mat
        assert g.to_csr().shape == (4, 4)
        assert g.to_csr().nnz == 6

    def test_cached_matrix_matches_fresh_export_after_mutations(self):
        rng = np.random.default_rng(3)
        g = Graph()
        g.add_nodes_from(range(30))
        for _ in range(4):  # mutate, solve, mutate again
            rows = rng.integers(0, 30, size=40)
            cols = rng.integers(0, 30, size=40)
            keep = rows != cols
            g.add_edges_arrays(rows[keep], cols[keep])
            cached = g.to_csr()
            fresh = Graph.from_arrays(*g.edge_arrays(), num_nodes=30).to_csr()
            assert (cached != fresh).nnz == 0

    def test_manual_invalidate_caches(self, small_graph):
        mat = small_graph.to_csr()
        small_graph.invalidate_caches()
        assert small_graph.cache_info()["entries"] == 0
        rebuilt = small_graph.to_csr()
        assert rebuilt is not mat
        assert (rebuilt != mat).nnz == 0

    def test_set_node_attr_does_not_invalidate(self, small_graph):
        mat = small_graph.to_csr()
        small_graph.set_node_attr("A", "significance", 3.0)
        assert small_graph.to_csr() is mat


class TestCacheIsolation:
    def test_copies_get_independent_caches(self, small_graph):
        original = small_graph.to_csr()
        clone = small_graph.copy()
        clone.add_edge("D", "F")
        assert small_graph.to_csr() is original
        assert clone.to_csr().nnz != original.nnz

    def test_directed_graph_cache(self):
        g = DiGraph.from_edges([("a", "b"), ("b", "c"), ("a", "c")])
        t1 = d2pr_transition(g, 1.0)
        assert d2pr_transition(g, 1.0) is t1
        g.add_edge("c", "a")
        assert d2pr_transition(g, 1.0) is not t1

    def test_counters_monotonic(self, small_graph):
        info0 = small_graph.cache_info()
        small_graph.to_csr()
        small_graph.to_csr()
        info1 = small_graph.cache_info()
        assert info1["misses"] >= info0["misses"] + 1
        assert info1["hits"] >= info0["hits"] + 1


class TestOneOperatorBuilder:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_walk_callers_share_one_transition_and_bundle(
        self, small_graph, weighted
    ):
        g = small_graph
        beta = 1.0 if weighted else 0.0
        pagerank(g, weighted=weighted)
        d2pr(g, 0.0, beta=beta, weighted=weighted)
        hitting_times(g, "A", weighted=weighted)
        RankingService(g).rank(
            RankRequest(method="pagerank", weighted=weighted)
        )
        transitions = [k for k in g._cache if k[0].endswith("_transition")]
        bundles = [k for k in g._cache if k[0] == "operator"]
        assert transitions == []
        # The service's batch answer solves on the pooled adjacency
        # (pattern at beta = 0, weighted at beta = 1), not a transition;
        # the transition is materialised from the same adjacency.
        key = ("operator", "d2pr", 0.0, beta, weighted)
        assert sorted(bundles, key=repr) == sorted(
            [key, ("operator", "adjacency", weighted)], key=repr
        )
        assert d2pr_transition(g, 0.0, beta=beta, weighted=weighted) is (
            g._cache[key].mat
        )

    def test_repeat_predecessor_reads_do_no_fingerprint_work(
        self, monkeypatch
    ):
        g = DiGraph.from_edges(
            [("a", "b"), ("b", "c"), ("a", "c"), ("d", "c"), ("c", "a")]
        )
        calls = []
        original = LinearOperatorBundle._fingerprint_of

        def counting(mat):
            calls.append(1)
            return original(mat)

        monkeypatch.setattr(
            LinearOperatorBundle, "_fingerprint_of", staticmethod(counting)
        )
        assert g.predecessors("c") == ["a", "b", "d"]
        built = len(calls)
        assert g.predecessors("c") == ["a", "b", "d"]
        assert g.in_degree("c") == 3
        assert len(calls) == built

    def test_predecessors_and_spectral_share_the_adjacency_bundle(self):
        g = DiGraph.from_edges([("a", "b", 2.0), ("b", "c", 1.0)])
        g.predecessors("b")
        resolve("eigenvector").solve(g, ("eigenvector", True))
        bundles = [k for k in g._cache if k[0] == "operator"]
        assert bundles == [("operator", "adjacency", True)]
