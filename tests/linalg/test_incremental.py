"""Tests for incremental rank maintenance (residual-correction updates)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import d2pr, update_scores
from repro.core.d2pr import d2pr_operator
from repro.errors import FrozenGraphError, ParameterError
from repro.graph import DiGraph, Graph, GraphDelta
from repro.linalg import incremental_update, power_iteration, residual_vector
from repro.linalg.incremental import (
    _changed_rows,
    _local_delta,
    delta_residual,
)
from repro.linalg.operator import LinearOperatorBundle
from repro.methods import family_method
from tests.linalg.factor_cases import exact, factor_cases, oracle_transition


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

    def test_bad_before_shape_rejected(self, cycle_digraph, figure1_graph):
        bundle = d2pr_operator(cycle_digraph, 0.0)
        with pytest.raises(ParameterError):
            incremental_update(
                None, np.full(4, 0.25), operator=bundle,
                before=d2pr_operator(figure1_graph, 0.0),
            )
        # Factored ``before`` needs the touched nodes to find the
        # changed rows.
        factors = family_method(("d2pr", 1.0, 0.0, False, "teleport"))
        factors = factors.factors(
            cycle_digraph, ("d2pr", 1.0, 0.0, False, "teleport")
        )
        with pytest.raises(ParameterError):
            incremental_update(
                None, np.full(4, 0.25), operator=factors, before=factors,
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


class TestOnTheFactors:
    """Corrections on ``(M, r, c)`` against the paper-era oracle.

    The delta part of the residual, computed on the changed rows only,
    must equal the difference of two full residuals on the oracle
    transitions; a correction on the factors must agree with the same
    correction on the oracle bundle and hold its certificate against a
    dense solve.
    """

    @staticmethod
    def _teleport(n, personal, rng):
        if not personal:
            return np.full(n, 1.0 / n)
        t = np.zeros(n)
        t[rng.choice(n, 2, replace=False)] = [1.0, 3.0]
        return t / t.sum()

    @settings(max_examples=100, deadline=None)
    @given(
        case=factor_cases(),
        alpha=st.sampled_from([0.5, 0.85]),
        personal=st.booleans(),
    )
    def test_local_delta_equals_the_residual_difference(
        self, case, alpha, personal
    ):
        dangling = case.key[-1]
        before = case.factors()
        old = LinearOperatorBundle.of(oracle_transition(case.graph, case.key))
        n = old.n
        rng = np.random.default_rng(n)
        x = rng.uniform(0.1, 1.0, n)
        x /= x.sum()
        t = self._teleport(n, personal, rng)
        touched = case.apply_deltas()
        after = case.factors()
        new = LinearOperatorBundle.of(oracle_transition(case.graph, case.key))

        want = residual_vector(new, x, t, alpha, dangling) - residual_vector(
            old, x, t, alpha, dangling
        )
        rows = _changed_rows(before, after, touched)
        local = _local_delta(before, after, rows, x, t, alpha, dangling)
        assert np.abs(local - want).sum() <= 1e-14
        public = delta_residual(before, after, x, touched, t, alpha, dangling)
        assert public is None or np.array_equal(public, local)

    @settings(max_examples=100, deadline=None)
    @given(
        case=factor_cases(),
        alpha=st.sampled_from([0.5, 0.85]),
        personal=st.booleans(),
    )
    def test_correction_on_factors_matches_the_oracle_bundle(
        self, case, alpha, personal
    ):
        tol = 1e-9
        dangling = case.key[-1]
        before = case.factors()
        P_old = oracle_transition(case.graph, case.key)
        t = self._teleport(P_old.shape[0], personal, np.random.default_rng(1))
        x_old = np.maximum(exact(P_old, t, alpha, dangling), 0.0)
        touched = case.apply_deltas()
        after = case.factors()
        P_new = oracle_transition(case.graph, case.key)

        # frontier_cap=1.0: the push runs natively on these small graphs.
        common = dict(
            alpha=alpha, teleport=t, dangling=dangling, tol=tol,
            max_iter=100_000, frontier_cap=1.0,
        )
        on_factors = incremental_update(
            None, x_old, operator=after, before=before, touched=touched,
            **common,
        )
        on_oracle = incremental_update(
            P_new, x_old, before=LinearOperatorBundle.of(P_old), **common
        )
        assert on_factors.converged and on_oracle.converged
        assert np.abs(on_factors.scores - on_oracle.scores).sum() <= 2 * tol
        x_new = exact(P_new, t, alpha, dangling)
        bound = 3.0 * tol * alpha / (1.0 - alpha) + 1e-12
        for result in (on_factors, on_oracle):
            assert np.abs(result.scores - x_new).sum() <= bound
