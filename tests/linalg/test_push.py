"""Forward-push solver: cross-checks against power iteration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.d2pr import d2pr, d2pr_operator, d2pr_transition
from repro.errors import ParameterError
from repro.graph import DiGraph, Graph
from repro.linalg import forward_push, power_iteration

PUSH_TOL = 1e-10
CHECK_ATOL = 1e-8


def _random_digraph(n: int, m: int, seed: int) -> DiGraph:
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, m)
    cols = rng.integers(0, n, m)
    keep = rows != cols
    return DiGraph.from_arrays(rows[keep], cols[keep], num_nodes=n)


def _dense_teleport(n: int, seeds: dict[int, float]) -> np.ndarray:
    t = np.zeros(n)
    for idx, w in seeds.items():
        t[idx] = w
    return t


class TestPushMatchesPower:
    @pytest.mark.parametrize("dangling", ["teleport", "self"])
    def test_random_digraph_single_seed(self, dangling):
        g = _random_digraph(300, 1500, seed=1)
        t = d2pr_transition(g, 1.0)
        reference = power_iteration(
            t,
            teleport=_dense_teleport(300, {7: 1.0}),
            tol=1e-13,
            dangling=dangling,
        )
        result = forward_push(
            t, 7, tol=PUSH_TOL, dangling=dangling, frontier_cap=1.0
        )
        assert result.converged
        assert result.method == "forward_push"
        assert np.abs(result.scores - reference.scores).sum() < CHECK_ATOL

    def test_weighted_seed_set(self):
        g = _random_digraph(250, 1200, seed=2)
        t = d2pr_transition(g, 0.5)
        seeds = {3: 1.0, 11: 2.5, 42: 0.5}
        reference = power_iteration(
            t, teleport=_dense_teleport(250, seeds), tol=1e-13
        )
        result = forward_push(t, seeds, tol=PUSH_TOL, frontier_cap=1.0)
        assert result.converged
        assert np.abs(result.scores - reference.scores).sum() < CHECK_ATOL

    def test_undirected_graph(self, figure1_graph):
        t = d2pr_transition(figure1_graph, 2.0)
        n = figure1_graph.number_of_nodes
        seed = figure1_graph.index_of("C")
        reference = power_iteration(
            t, teleport=_dense_teleport(n, {seed: 1.0}), tol=1e-13
        )
        result = forward_push(t, seed, tol=PUSH_TOL, frontier_cap=1.0)
        assert np.abs(result.scores - reference.scores).sum() < CHECK_ATOL

    @pytest.mark.parametrize("alpha", [0.3, 0.85, 0.99])
    def test_alpha_range(self, alpha):
        g = _random_digraph(200, 900, seed=3)
        t = d2pr_transition(g, 0.0)
        reference = power_iteration(
            t,
            teleport=_dense_teleport(200, {5: 1.0}),
            alpha=alpha,
            tol=1e-13,
            max_iter=5000,
        )
        result = forward_push(
            t, 5, alpha=alpha, tol=PUSH_TOL, frontier_cap=1.0, max_iter=5000
        )
        assert result.converged
        assert np.abs(result.scores - reference.scores).sum() < CHECK_ATOL

    def test_uniform_dangling_without_sinks_stays_native(self):
        g = DiGraph.from_edges(
            [(i, (i + 1) % 40) for i in range(40)]
            + [(i, (i + 11) % 40) for i in range(40)]
        )
        t = d2pr_transition(g, 0.0)
        reference = power_iteration(
            t,
            teleport=_dense_teleport(40, {0: 1.0}),
            tol=1e-13,
            dangling="uniform",
        )
        result = forward_push(
            t, 0, tol=PUSH_TOL, dangling="uniform", frontier_cap=1.0
        )
        assert result.method == "forward_push"
        assert np.abs(result.scores - reference.scores).sum() < CHECK_ATOL

    def test_seed_on_dangling_node(self, dangling_digraph):
        t = d2pr_transition(dangling_digraph, 0.0)
        sink = dangling_digraph.index_of("c")
        n = dangling_digraph.number_of_nodes
        reference = power_iteration(
            t, teleport=_dense_teleport(n, {sink: 1.0}), tol=1e-13
        )
        result = forward_push(t, sink, tol=PUSH_TOL, frontier_cap=1.0)
        assert np.abs(result.scores - reference.scores).sum() < CHECK_ATOL


class TestCertificate:
    def test_residual_history_is_decreasing_mass(self):
        g = _random_digraph(200, 1000, seed=4)
        t = d2pr_transition(g, 1.0)
        result = forward_push(t, 0, tol=PUSH_TOL, frontier_cap=1.0)
        assert result.converged
        assert result.residuals[-1] <= PUSH_TOL
        # Mass can only leave the residual vector, never re-enter.
        assert all(
            later <= earlier + 1e-15
            for earlier, later in zip(result.residuals, result.residuals[1:])
        )

    def test_scores_sum_to_one(self):
        g = _random_digraph(150, 700, seed=5)
        t = d2pr_transition(g, 0.0)
        result = forward_push(t, {2: 1.0}, tol=PUSH_TOL, frontier_cap=1.0)
        assert result.scores.sum() == pytest.approx(1.0)
        assert (result.scores >= 0).all()

    def test_unconverged_flagged(self):
        g = _random_digraph(200, 1000, seed=6)
        t = d2pr_transition(g, 0.0)
        result = forward_push(t, 0, tol=1e-14, max_iter=2, frontier_cap=1.0)
        assert not result.converged
        assert result.iterations == 2


class TestFallback:
    def test_frontier_cap_zero_forces_fallback(self, figure1_graph):
        t = d2pr_transition(figure1_graph, 0.0)
        n = figure1_graph.number_of_nodes
        reference = power_iteration(
            t, teleport=_dense_teleport(n, {0: 1.0}), tol=1e-13
        )
        result = forward_push(t, 0, tol=PUSH_TOL, frontier_cap=0.0)
        assert result.method == "forward_push_fallback"
        assert result.converged
        assert np.abs(result.scores - reference.scores).sum() < CHECK_ATOL

    def test_uniform_dangling_with_sinks_falls_back(self, dangling_digraph):
        t = d2pr_transition(dangling_digraph, 0.0)
        n = dangling_digraph.number_of_nodes
        reference = power_iteration(
            t,
            teleport=_dense_teleport(n, {0: 1.0}),
            tol=1e-13,
            dangling="uniform",
        )
        result = forward_push(
            t, 0, tol=PUSH_TOL, dangling="uniform", frontier_cap=1.0
        )
        assert result.method == "forward_push_fallback"
        assert np.abs(result.scores - reference.scores).sum() < CHECK_ATOL

    def test_mid_run_fallback_warm_start_converges(self):
        # A cap small enough to trip after a few epochs on an expander.
        g = _random_digraph(300, 3000, seed=7)
        t = d2pr_transition(g, 0.0)
        reference = power_iteration(
            t, teleport=_dense_teleport(300, {1: 1.0}), tol=1e-13
        )
        result = forward_push(t, 1, tol=PUSH_TOL, frontier_cap=0.05)
        assert result.method == "forward_push_fallback"
        assert result.converged
        assert np.abs(result.scores - reference.scores).sum() < CHECK_ATOL


class TestSeedSpecs:
    def test_sequence_accumulates_duplicates(self):
        g = _random_digraph(100, 500, seed=8)
        t = d2pr_transition(g, 0.0)
        a = forward_push(t, [4, 4, 9], tol=PUSH_TOL, frontier_cap=1.0)
        b = forward_push(
            t, {4: 2.0, 9: 1.0}, tol=PUSH_TOL, frontier_cap=1.0
        )
        np.testing.assert_allclose(a.scores, b.scores, atol=1e-12)

    def test_indices_weights_tuple(self):
        g = _random_digraph(100, 500, seed=8)
        t = d2pr_transition(g, 0.0)
        a = forward_push(
            t,
            (np.array([4, 9]), np.array([2.0, 1.0])),
            tol=PUSH_TOL,
            frontier_cap=1.0,
        )
        b = forward_push(t, {4: 2.0, 9: 1.0}, tol=PUSH_TOL, frontier_cap=1.0)
        np.testing.assert_allclose(a.scores, b.scores, atol=1e-12)

    def test_dense_vector_sparsified(self):
        g = _random_digraph(100, 500, seed=8)
        t = d2pr_transition(g, 0.0)
        dense = np.zeros(100)
        dense[4] = 2.0
        dense[9] = 1.0
        a = forward_push(t, dense, tol=PUSH_TOL, frontier_cap=1.0)
        b = forward_push(t, {4: 2.0, 9: 1.0}, tol=PUSH_TOL, frontier_cap=1.0)
        np.testing.assert_allclose(a.scores, b.scores, atol=1e-12)

    def test_scalar_tuple_is_two_seeds(self):
        g = _random_digraph(100, 500, seed=8)
        t = d2pr_transition(g, 0.0)
        a = forward_push(t, (4, 9), tol=PUSH_TOL, frontier_cap=1.0)
        b = forward_push(t, [4, 9], tol=PUSH_TOL, frontier_cap=1.0)
        np.testing.assert_allclose(a.scores, b.scores, atol=1e-12)

    def test_length_n_integer_array_rejected_as_ambiguous(self):
        g = _random_digraph(6, 20, seed=8)
        t = d2pr_transition(g, 0.0)
        one_hot_int = np.zeros(6, dtype=np.int64)
        one_hot_int[2] = 1
        with pytest.raises(ParameterError, match="ambiguous"):
            forward_push(t, one_hot_int, tol=PUSH_TOL)
        # The float spelling of the same vector is unambiguous.
        result = forward_push(
            t, one_hot_int.astype(float), tol=PUSH_TOL, frontier_cap=1.0
        )
        reference = forward_push(t, 2, tol=PUSH_TOL, frontier_cap=1.0)
        np.testing.assert_allclose(result.scores, reference.scores, atol=1e-12)

    def test_float_seed_indices_rejected_in_all_forms(self):
        g = _random_digraph(50, 200, seed=9)
        t = d2pr_transition(g, 0.0)
        with pytest.raises(ParameterError, match="integer dtype"):
            forward_push(t, {2.7: 1.0}, tol=PUSH_TOL)
        with pytest.raises(ParameterError, match="integer dtype"):
            forward_push(
                t, (np.array([2.7]), np.array([1.0])), tol=PUSH_TOL
            )

    def test_operator_shape_mismatch_rejected(self):
        from repro.linalg import LinearOperatorBundle

        small = d2pr_transition(_random_digraph(20, 60, seed=9), 0.0)
        big = d2pr_transition(_random_digraph(30, 90, seed=9), 0.0)
        with pytest.raises(ParameterError, match="shape"):
            forward_push(
                small, 0, operator=LinearOperatorBundle.of(big)
            )

    def test_errors(self):
        g = _random_digraph(50, 200, seed=9)
        t = d2pr_transition(g, 0.0)
        with pytest.raises(ParameterError):
            forward_push(t, [], tol=PUSH_TOL)
        with pytest.raises(ParameterError):
            forward_push(t, 50, tol=PUSH_TOL)  # out of range
        with pytest.raises(ParameterError):
            forward_push(t, {3: -1.0}, tol=PUSH_TOL)
        with pytest.raises(ParameterError):
            forward_push(t, {3: 0.0}, tol=PUSH_TOL)
        with pytest.raises(ParameterError):
            forward_push(t, 3, alpha=1.0)
        with pytest.raises(ParameterError):
            forward_push(t, 3, dangling="magic")
        with pytest.raises(ParameterError):
            forward_push(t, 3, frontier_cap=2.0)
        with pytest.raises(ParameterError):
            forward_push(None, 3)


class TestEngineAndRecommender:
    def test_d2pr_push_solver_matches_power(self):
        g = _random_digraph(200, 1000, seed=10)
        by_push = d2pr(g, 1.0, teleport=[3, 17], solver="push", tol=PUSH_TOL)
        by_power = d2pr(g, 1.0, teleport=[3, 17], solver="power", tol=1e-13)
        assert np.abs(by_push.values - by_power.values).sum() < CHECK_ATOL

    def test_d2pr_push_uniform_teleport_served_by_power(self, figure1_graph):
        by_push = d2pr(figure1_graph, 0.0, solver="push", tol=1e-10)
        by_power = d2pr(figure1_graph, 0.0, solver="power", tol=1e-13)
        assert np.abs(by_push.values - by_power.values).sum() < CHECK_ATOL

    def test_push_uses_graph_cached_operator(self):
        g = _random_digraph(120, 600, seed=11)
        d2pr(g, 1.0, teleport=[3], solver="push", tol=1e-8)
        bundle = d2pr_operator(g, 1.0)
        entries = g.cache_info()["entries"]
        d2pr(g, 1.0, teleport=[5], solver="push", tol=1e-8)
        assert d2pr_operator(g, 1.0) is bundle
        assert g.cache_info()["entries"] == entries

    def test_recommend_one_matches_recommend_for(self):
        from repro.recsys import D2PRRecommender, RecommenderConfig

        g = Graph()
        rng = np.random.default_rng(12)
        rows = rng.integers(0, 150, 900)
        cols = rng.integers(0, 150, 900)
        keep = rows != cols
        g = Graph.from_arrays(rows[keep], cols[keep], num_nodes=150)
        rec = D2PRRecommender(config=RecommenderConfig(p=1.0)).fit(g)
        one = rec.recommend_one([3, 17], k=8, tol=1e-10)
        ref = rec.recommend_for([3, 17], k=8)
        assert [node for node, _ in one] == [node for node, _ in ref]
        for (_, a), (_, b) in zip(one, ref):
            assert a == pytest.approx(b, abs=1e-7)

    def test_recommend_one_duplicate_seeds_match_recommend_for(self):
        from repro.recsys import D2PRRecommender, RecommenderConfig

        rng = np.random.default_rng(13)
        rows = rng.integers(0, 80, 500)
        cols = rng.integers(0, 80, 500)
        keep = rows != cols
        g = Graph.from_arrays(rows[keep], cols[keep], num_nodes=80)
        rec = D2PRRecommender(config=RecommenderConfig(p=0.5)).fit(g)
        # A repeated seed weighs by its occurrences on both paths: the
        # push seed arrays and recommend_for's teleport agree.
        one = rec.recommend_one([3, 3, 9], k=6, tol=1e-10)
        ref = rec.recommend_for([3, 3, 9], k=6)
        assert [n for n, _ in one] == [n for n, _ in ref]
        for (_, a), (_, b) in zip(one, ref):
            assert a == pytest.approx(b, abs=1e-7)

    def test_engine_push_rejects_wrong_length_teleport(self, figure1_graph):
        from repro.core.engine import solve_transition

        t = d2pr_transition(figure1_graph, 0.0)
        with pytest.raises(ParameterError):
            solve_transition(
                t, solver="push", teleport=np.array([0.3, 0.7])
            )

    def test_float_index_array_rejected(self):
        g = _random_digraph(50, 200, seed=9)
        t = d2pr_transition(g, 0.0)
        with pytest.raises(ParameterError, match="integer dtype"):
            forward_push(t, np.array([3.0, 7.0]), tol=PUSH_TOL)

    def test_push_uniform_teleport_ignores_push_only_kwargs(
        self, figure1_graph
    ):
        # Uniform teleport routes to power iteration inside the engine;
        # push-only options must be dropped, not crash the fallback.
        from repro.core.engine import solve_transition

        t = d2pr_transition(figure1_graph, 0.0)
        result = solve_transition(t, solver="push", frontier_cap=0.5)
        reference = solve_transition(t, solver="power", tol=1e-13)
        assert np.abs(result.scores - reference.scores).sum() < CHECK_ATOL

    def test_hitting_shares_pagerank_bundle(self):
        from repro.core.hitting import hitting_times
        from repro.core.pagerank import pagerank

        g = DiGraph.from_edges([(0, 1), (1, 2), (2, 0)])
        pagerank(g, tol=1e-8)
        entries = g.cache_info()["entries"]
        hitting_times(g, 0)
        # The walk transition IS the pagerank transition: no new matrix
        # or bundle entries appear, both features share one export.
        assert g.cache_info()["entries"] == entries
