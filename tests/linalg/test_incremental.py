"""Tests for incremental rank maintenance (residual-correction updates)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import d2pr, update_scores
from repro.core.d2pr import d2pr_operator
from repro.errors import FrozenGraphError, ParameterError
from repro.graph import DiGraph, Graph, GraphDelta
from repro.linalg import incremental_update, power_iteration, residual_vector
from repro.linalg.operator import LinearOperatorBundle


def _random_graph(cls, n, m, rng, weighted=False):
    rows = rng.integers(0, n, m)
    cols = rng.integers(0, n, m)
    keep = rows != cols
    weights = rng.uniform(0.5, 3.0, keep.sum()) if weighted else None
    return cls.from_arrays(rows[keep], cols[keep], weights, num_nodes=n)


def _random_delta(graph, rng, *, deletes=4, inserts=6, reweights=3):
    er, ec, _ = graph.edge_arrays()
    n = graph.number_of_nodes
    sel = rng.choice(er.shape[0], deletes + reweights, replace=False)
    dsel, rsel = sel[:deletes], sel[deletes:]
    ins_r = rng.integers(0, n, inserts)
    ins_c = rng.integers(0, n, inserts)
    keep = ins_r != ins_c
    delta = GraphDelta.delete(er[dsel], ec[dsel]) | GraphDelta.insert(
        ins_r[keep], ins_c[keep], rng.uniform(0.5, 2.0, keep.sum())
    )
    if reweights:
        delta = delta | GraphDelta.reweight(
            er[rsel], ec[rsel], rng.uniform(0.5, 2.0, rsel.size)
        )
    return delta


class TestResidualVector:
    def test_zero_at_fixed_point(self, cycle_digraph):
        bundle = d2pr_operator(cycle_digraph, 0.0)
        result = power_iteration(None, operator=bundle, tol=1e-14)
        t = np.full(bundle.n, 1.0 / bundle.n)
        res = residual_vector(bundle, result.scores, t, 0.85, "teleport")
        assert np.abs(res).sum() < 1e-12

    def test_nonzero_off_fixed_point(self, cycle_digraph):
        bundle = d2pr_operator(cycle_digraph, 0.0)
        x = np.full(bundle.n, 1.0 / bundle.n)
        x[0] += 0.1
        x /= x.sum()
        res = residual_vector(bundle, x, np.full(bundle.n, 1.0 / bundle.n),
                              0.85, "teleport")
        assert np.abs(res).sum() > 1e-3


class TestIncrementalUpdate:
    def test_converges_to_new_fixed_point(self, rng):
        g = _random_graph(Graph, 120, 700, rng)
        old = d2pr(g, 1.0, tol=1e-12)
        g.apply_delta(_random_delta(g, rng))
        bundle = d2pr_operator(g, 1.0)
        result = incremental_update(
            None, old.values, alpha=0.85, tol=1e-12, operator=bundle
        )
        reference = power_iteration(None, operator=bundle, tol=1e-12)
        assert result.converged
        assert np.abs(result.scores - reference.scores).max() < 1e-9

    @pytest.mark.parametrize("dangling", ["teleport", "self", "uniform"])
    def test_dangling_strategies(self, rng, dangling):
        g = _random_graph(DiGraph, 80, 300, rng)
        old = d2pr(g, 0.5, dangling=dangling, tol=1e-12)
        g.apply_delta(_random_delta(g, rng))
        bundle = d2pr_operator(g, 0.5)
        result = incremental_update(
            None, old.values, alpha=0.85, dangling=dangling,
            tol=1e-12, operator=bundle,
        )
        reference = power_iteration(
            None, operator=bundle, dangling=dangling, tol=1e-12
        )
        assert np.abs(result.scores - reference.scores).max() < 1e-9

    def test_personalised_teleport(self, rng):
        g = _random_graph(Graph, 100, 500, rng)
        t = np.zeros(100)
        t[[3, 7]] = [0.25, 0.75]
        old = d2pr(g, 1.0, teleport=t, tol=1e-12)
        g.apply_delta(_random_delta(g, rng))
        bundle = d2pr_operator(g, 1.0)
        result = incremental_update(
            None, old.values, alpha=0.85, teleport=t, tol=1e-12,
            operator=bundle,
        )
        reference = power_iteration(
            None, teleport=t, operator=bundle, tol=1e-12
        )
        assert np.abs(result.scores - reference.scores).max() < 1e-9

    def test_frontier_cap_zero_forces_fallback(self, rng):
        g = _random_graph(Graph, 60, 300, rng)
        old = d2pr(g, 0.0, tol=1e-10)
        g.apply_delta(_random_delta(g, rng))
        bundle = d2pr_operator(g, 0.0)
        result = incremental_update(
            None, old.values, alpha=0.85, tol=1e-10,
            operator=bundle, frontier_cap=0.0,
        )
        assert result.method == "incremental_fallback"
        reference = power_iteration(None, operator=bundle, tol=1e-10)
        assert np.abs(result.scores - reference.scores).max() < 1e-8

    def test_noop_delta_returns_quickly(self, rng):
        g = _random_graph(Graph, 60, 300, rng)
        bundle = d2pr_operator(g, 0.0)
        exact = power_iteration(None, operator=bundle, tol=1e-13)
        result = incremental_update(
            None, exact.scores, alpha=0.85, tol=1e-8, operator=bundle
        )
        assert result.converged
        assert result.iterations <= 2

    def test_exhausted_budget_reported(self, rng):
        g = _random_graph(Graph, 60, 300, rng)
        old = d2pr(g, 0.0, tol=1e-10)
        g.apply_delta(_random_delta(g, rng))
        bundle = d2pr_operator(g, 0.0)
        result = incremental_update(
            None, old.values, alpha=0.85, tol=1e-14, max_iter=1,
            operator=bundle, frontier_cap=1.0,
        )
        assert not result.converged
        assert result.iterations == 1

    def test_bad_previous_rejected(self, cycle_digraph):
        bundle = d2pr_operator(cycle_digraph, 0.0)
        with pytest.raises(ParameterError):
            incremental_update(None, np.zeros(4), operator=bundle)
        with pytest.raises(ParameterError):
            incremental_update(None, np.ones(7), operator=bundle)
        with pytest.raises(ParameterError):
            incremental_update(
                None, np.array([0.5, 0.5, 0.5, -0.5]), operator=bundle
            )

    def test_bad_baseline_shape_rejected(self, cycle_digraph):
        bundle = d2pr_operator(cycle_digraph, 0.0)
        with pytest.raises(ParameterError):
            incremental_update(
                None, np.full(4, 0.25), operator=bundle,
                baseline_residual=np.zeros(5),
            )

    def test_resolves_bundle_from_matrix(self, figure1_graph):
        transition = d2pr_operator(figure1_graph, 0.0).mat
        result = incremental_update(
            transition, np.full(transition.shape[0], 1.0 / 6), tol=1e-10
        )
        reference = power_iteration(transition, tol=1e-10)
        assert np.abs(result.scores - reference.scores).max() < 1e-8
        assert isinstance(
            LinearOperatorBundle.of(transition), LinearOperatorBundle
        )


class TestUpdateScoresProperty:
    """Randomized equivalence: update_scores == cold solve, within tol."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("cls", [Graph, DiGraph])
    def test_matches_cold_solve(self, cls, seed):
        rng = np.random.default_rng(seed)
        g = _random_graph(cls, 90, 450, rng)
        p = float(rng.uniform(-1.5, 1.5))
        tol = 1e-11
        previous = d2pr(g, p, tol=tol)
        for _ in range(3):
            delta = _random_delta(g, rng)
            updated = update_scores(previous, delta, p=p, tol=tol)
            fresh = cls.from_arrays(
                *g.edge_arrays(), num_nodes=g.number_of_nodes
            )
            cold = d2pr(fresh, p, tol=tol)
            assert np.abs(updated.values - cold.values).max() < 100 * tol
            previous = updated

    @pytest.mark.parametrize("seed", [5, 6])
    def test_weighted_matches_cold_solve(self, seed):
        rng = np.random.default_rng(seed)
        g = _random_graph(Graph, 80, 400, rng, weighted=True)
        tol = 1e-11
        previous = d2pr(g, 0.5, beta=0.3, weighted=True, tol=tol)
        delta = _random_delta(g, rng)
        updated = update_scores(
            previous, delta, p=0.5, beta=0.3, weighted=True, tol=tol
        )
        fresh = Graph.from_arrays(
            *g.edge_arrays(), num_nodes=g.number_of_nodes
        )
        cold = d2pr(fresh, 0.5, beta=0.3, weighted=True, tol=tol)
        assert np.abs(updated.values - cold.values).max() < 100 * tol

    def test_frozen_graph_raises(self, rng):
        g = _random_graph(Graph, 50, 200, rng)
        previous = d2pr(g, 0.0)
        g.freeze()
        with pytest.raises(FrozenGraphError):
            update_scores(previous, GraphDelta.insert(
                np.array([0]), np.array([1])
            ), p=0.0)

    def test_update_with_live_cached_bundles(self, rng):
        g = _random_graph(Graph, 90, 450, rng)
        tol = 1e-11
        previous = d2pr(g, 1.0, tol=tol)
        live_bundle = d2pr_operator(g, 1.0)
        live_bundle.t_csr  # force the expensive view while the delta lands
        delta = _random_delta(g, rng)
        updated = update_scores(previous, delta, p=1.0, tol=tol)
        # the pre-delta bundle still answers consistently for holders
        stale = power_iteration(None, operator=live_bundle, tol=tol)
        assert stale.converged
        # and the refreshed bundle matches a cold rebuild
        fresh = Graph.from_arrays(*g.edge_arrays(),
                                  num_nodes=g.number_of_nodes)
        cold = d2pr(fresh, 1.0, tol=tol)
        assert np.abs(updated.values - cold.values).max() < 100 * tol

    def test_apply_delta_false_skips_application(self, rng):
        g = _random_graph(Graph, 60, 300, rng)
        tol = 1e-11
        previous = d2pr(g, 0.0, tol=tol)
        delta = _random_delta(g, rng)
        g.apply_delta(delta)
        version = g.mutation_count
        updated = update_scores(
            previous, delta, p=0.0, tol=tol, apply_delta=False
        )
        assert g.mutation_count == version  # not applied twice
        fresh = Graph.from_arrays(*g.edge_arrays(),
                                  num_nodes=g.number_of_nodes)
        cold = d2pr(fresh, 0.0, tol=tol)
        assert np.abs(updated.values - cold.values).max() < 100 * tol

    def test_previous_type_checked(self):
        with pytest.raises(ParameterError):
            update_scores(np.zeros(5), GraphDelta())

    def test_method_reported(self, rng):
        g = _random_graph(Graph, 90, 450, rng)
        previous = d2pr(g, 0.0, tol=1e-10)
        updated = update_scores(previous, _random_delta(g, rng), p=0.0,
                                tol=1e-10)
        assert updated.solver_result.method in (
            "incremental_push", "incremental_fallback"
        )
