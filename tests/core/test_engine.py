"""Unit tests for repro.core.engine (teleport construction, dispatch)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import (
    RankQuery,
    adjacency_and_theta,
    build_teleport,
    solve_many,
    solve_transition,
)
from repro.errors import ParameterError
from repro.graph import DiGraph, Graph
from repro.linalg import power_iteration, uniform_transition


class TestBuildTeleport:
    def test_none_passthrough(self, figure1_graph):
        assert build_teleport(figure1_graph, None) is None

    def test_array_passthrough(self, figure1_graph):
        vec = np.ones(6)
        out = build_teleport(figure1_graph, vec)
        assert np.array_equal(out, vec)

    def test_array_wrong_shape_rejected(self, figure1_graph):
        with pytest.raises(ParameterError):
            build_teleport(figure1_graph, np.ones(3))

    def test_mapping(self, figure1_graph):
        out = build_teleport(figure1_graph, {"A": 2.0, "B": 1.0})
        assert out[figure1_graph.index_of("A")] == 2.0
        assert out[figure1_graph.index_of("B")] == 1.0
        assert out.sum() == 3.0

    def test_mapping_negative_weight_rejected(self, figure1_graph):
        with pytest.raises(ParameterError):
            build_teleport(figure1_graph, {"A": -1.0})

    def test_sequence_counts_duplicates(self, figure1_graph):
        out = build_teleport(figure1_graph, ["A", "A", "B"])
        assert out[figure1_graph.index_of("A")] == 2.0
        assert out[figure1_graph.index_of("B")] == 1.0

    def test_empty_mass_rejected(self, figure1_graph):
        with pytest.raises(ParameterError):
            build_teleport(figure1_graph, {"A": 0.0})

    def test_unknown_node_rejected(self, figure1_graph):
        from repro.errors import NodeNotFoundError

        with pytest.raises(NodeNotFoundError):
            build_teleport(figure1_graph, ["ghost"])


class TestAdjacencyAndTheta:
    def test_undirected_theta_is_degree(self, figure1_graph):
        _adj, theta = adjacency_and_theta(figure1_graph, weighted=False)
        assert np.array_equal(theta, figure1_graph.degree_vector())

    def test_directed_theta_is_out_degree(self, dangling_digraph):
        _adj, theta = adjacency_and_theta(dangling_digraph, weighted=False)
        assert np.array_equal(theta, dangling_digraph.out_degree_vector())

    def test_weighted_theta_is_out_weight(self):
        g = Graph()
        g.add_edge("a", "b", weight=2.0)
        g.add_edge("a", "c", weight=3.0)
        _adj, theta = adjacency_and_theta(g, weighted=True)
        assert theta[g.index_of("a")] == 5.0

    def test_empty_graph_rejected(self):
        from repro.errors import EmptyGraphError

        with pytest.raises(EmptyGraphError):
            adjacency_and_theta(Graph(), weighted=False)


class TestSolveTransition:
    def test_unknown_solver_rejected(self, figure1_graph):
        t = uniform_transition(figure1_graph.to_csr(weighted=False))
        with pytest.raises(ParameterError):
            solve_transition(t, solver="magic")

    @pytest.mark.parametrize("solver", ["power", "gauss_seidel", "direct"])
    def test_all_solvers_dispatch(self, figure1_graph, solver):
        t = uniform_transition(figure1_graph.to_csr(weighted=False))
        result = solve_transition(t, solver=solver, tol=1e-11)
        assert result.scores.sum() == pytest.approx(1.0)

    def test_directed_dangling_dispatch(self, dangling_digraph):
        t = uniform_transition(dangling_digraph.to_csr(weighted=False))
        result = solve_transition(t, solver="power", dangling="self")
        assert result.scores.sum() == pytest.approx(1.0)

    def test_digraph_roundtrip(self):
        g = DiGraph.from_edges([("a", "b"), ("b", "a"), ("b", "c")])
        t = uniform_transition(g.to_csr(weighted=False))
        result = solve_transition(t, tol=1e-12)
        assert result.converged


class TestSolveMany:
    @pytest.fixture(scope="class")
    def graph(self):
        from repro.graph import barabasi_albert

        return barabasi_albert(120, 3, seed=9)

    def test_empty_queries(self, graph):
        assert solve_many(graph, []) == []

    def test_matches_individual_d2pr(self, graph):
        from repro.core.d2pr import d2pr

        queries = [
            RankQuery(p=0.0),
            RankQuery(p=1.0, alpha=0.7),
            RankQuery(p=1.0, alpha=0.9),
            RankQuery(p=-2.0, teleport=[graph.nodes()[0]]),
        ]
        results = solve_many(graph, queries)
        for query, result in zip(queries, results):
            direct = d2pr(
                graph,
                query.p,
                alpha=query.alpha,
                teleport=query.teleport,
            )
            np.testing.assert_allclose(
                result.values, direct.values, atol=1e-12, rtol=0
            )

    def test_results_align_with_input_order(self, graph):
        """Grouping by matrix must not permute the output."""
        queries = [
            RankQuery(p=1.0, alpha=0.5),
            RankQuery(p=-1.0, alpha=0.5),
            RankQuery(p=1.0, alpha=0.9),
        ]
        results = solve_many(graph, queries)
        assert results[0].solver_result.iterations != 0
        from repro.core.d2pr import d2pr

        np.testing.assert_allclose(
            results[1].values, d2pr(graph, -1.0, alpha=0.5).values,
            atol=1e-12, rtol=0,
        )

    def test_shared_matrix_queries_solved_in_one_batch(self, graph):
        """Same (p, beta) queries build exactly one transition matrix."""
        graph.invalidate_caches()
        queries = [RankQuery(p=2.0, alpha=a) for a in (0.5, 0.7, 0.9)]
        solve_many(graph, queries)
        entries_after_first = graph.cache_info()["entries"]
        # one d2pr transition (plus its coo/csr/adj_theta inputs), no more
        assert (
            sum(
                1
                for key in graph._cache
                if key[0] == "d2pr_transition"
            )
            == 1
        )
        solve_many(graph, queries)
        assert graph.cache_info()["entries"] == entries_after_first

    def test_warm_start_cuts_iterations_along_grid(self, graph):
        ps = [0.0, 0.25, 0.5, 0.75, 1.0]
        cold = solve_many(
            graph, [RankQuery(p=p) for p in ps], warm_start=False
        )
        warm = solve_many(graph, [RankQuery(p=p) for p in ps])
        cold_total = sum(r.solver_result.iterations for r in cold)
        warm_total = sum(r.solver_result.iterations for r in warm)
        assert warm_total < cold_total
        for c, w in zip(cold, warm):
            np.testing.assert_allclose(
                w.values, c.values, atol=1e-8, rtol=0
            )

    def test_mixed_dangling_grouped_separately(self, graph):
        from repro.core.d2pr import d2pr

        queries = [
            RankQuery(p=1.0, dangling="teleport"),
            RankQuery(p=1.0, dangling="uniform"),
        ]
        # warm_start off: strict equivalence with cold individual solves
        results = solve_many(graph, queries, warm_start=False)
        for query, result in zip(queries, results):
            direct = d2pr(graph, 1.0, dangling=query.dangling)
            np.testing.assert_allclose(
                result.values, direct.values, atol=1e-12, rtol=0
            )

    def test_invalid_query_rejected(self, graph):
        with pytest.raises(ParameterError):
            solve_many(graph, [RankQuery(alpha=1.0)])
        with pytest.raises(ParameterError):
            solve_many(graph, [RankQuery(beta=0.5, weighted=False)])
        with pytest.raises(ParameterError):
            solve_many(graph, [RankQuery(dangling="bounce")])

    def test_solver_diagnostics_attached(self, graph):
        result = solve_many(graph, [RankQuery(p=0.5)])[0]
        assert result.solver_result is not None
        assert result.solver_result.converged
        assert result.solver_result.residuals

    def test_mixed_precision_within_tolerance(self, graph):
        from repro.core.d2pr import d2pr

        queries = [RankQuery(p=1.0, alpha=0.85), RankQuery(p=1.0, alpha=0.5)]
        mixed = solve_many(graph, queries, tol=1e-10, precision="mixed")
        for query, result in zip(queries, mixed):
            assert result.solver_result.converged
            assert result.solver_result.final_residual < 1e-10
            direct = d2pr(graph, 1.0, alpha=query.alpha)
            np.testing.assert_allclose(
                result.values, direct.values, atol=1e-8, rtol=0
            )

    def test_invalid_precision_rejected(self, graph):
        with pytest.raises(ParameterError):
            solve_many(graph, [RankQuery()], precision="half")


class TestTeleportDigest:
    """Regression: digest must normalise, and reject invalid mass."""

    def test_scaled_vectors_digest_equal(self):
        from repro.core.engine import _teleport_digest

        vec = np.array([0.0, 1.0, 3.0, 0.5])
        assert _teleport_digest(vec) == _teleport_digest(3.0 * vec)
        assert _teleport_digest(vec) == _teleport_digest(vec / vec.sum())

    def test_different_shapes_digest_differently(self):
        from repro.core.engine import _teleport_digest

        a = np.array([1.0, 0.0, 1.0])
        b = np.array([0.0, 1.0, 1.0])
        assert _teleport_digest(a) != _teleport_digest(b)

    def test_none_passthrough(self):
        from repro.core.engine import _teleport_digest

        assert _teleport_digest(None) is None

    def test_zero_mass_rejected(self):
        from repro.core.engine import _teleport_digest

        with pytest.raises(ParameterError):
            _teleport_digest(np.zeros(4))

    def test_negative_entries_rejected(self):
        from repro.core.engine import _teleport_digest

        with pytest.raises(ParameterError):
            _teleport_digest(np.array([1.0, -1.0, 2.0]))

    def test_non_finite_rejected(self):
        from repro.core.engine import _teleport_digest

        with pytest.raises(ParameterError):
            _teleport_digest(np.array([1.0, np.inf]))

    def test_scaled_teleports_warm_start_in_solve_many(self, figure1_graph):
        # Two groups whose columns differ only by teleport scaling must
        # produce identical digests, enabling the cross-group warm start.
        seeds = np.zeros(6)
        seeds[0] = 1.0
        cold = solve_many(
            figure1_graph,
            [RankQuery(p=0.0, teleport=seeds),
             RankQuery(p=0.5, teleport=7.5 * seeds)],
            warm_start=False,
        )
        warm = solve_many(
            figure1_graph,
            [RankQuery(p=0.0, teleport=seeds),
             RankQuery(p=0.5, teleport=7.5 * seeds)],
        )
        warm_total = sum(r.solver_result.iterations for r in warm)
        cold_total = sum(r.solver_result.iterations for r in cold)
        assert warm_total <= cold_total
        for c, w in zip(cold, warm):
            np.testing.assert_allclose(c.values, w.values, atol=1e-8)


class TestWarmFrom:
    """Warm-starting a solve from a previous solution."""

    @pytest.fixture
    def transition(self, figure1_graph):
        return uniform_transition(figure1_graph.to_csr())

    def test_power_warm_start_cuts_iterations(self, transition):
        """Seeding ``power_iteration(x0=)`` with its fixed point."""
        cold = power_iteration(transition, tol=1e-12)
        warm = power_iteration(transition, tol=1e-12, x0=cold.scores)
        assert warm.iterations < cold.iterations
        np.testing.assert_allclose(warm.scores, cold.scores, atol=1e-10)
