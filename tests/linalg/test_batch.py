"""Unit tests for repro.linalg.batch (batched power iteration).

The core contract: ``power_iteration_batch`` must match
``power_iteration`` column by column (atol 1e-12) across all dangling
strategies, with mixed converged/unconverged columns, and with warm-start
on and off.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.d2pr import d2pr_transition
from repro.errors import ConvergenceError, ParameterError
from repro.graph import Graph
from repro.linalg import (
    DANGLING_STRATEGIES,
    BatchResult,
    power_iteration,
    power_iteration_batch,
)
from repro.linalg.transition import uniform_transition


@pytest.fixture(scope="module")
def transition():
    """A transition with dangling rows (random sparse digraph projection)."""
    rng = np.random.default_rng(42)
    n = 250
    rows = rng.integers(0, n, 1200)
    cols = rng.integers(0, n, 1200)
    keep = rows != cols
    graph = Graph.from_arrays(rows[keep], cols[keep], num_nodes=n)
    return d2pr_transition(graph, 1.0)


@pytest.fixture(scope="module")
def dangling_transition():
    """A small transition where some rows are all-zero (true dangling)."""
    from scipy import sparse

    mat = sparse.csr_matrix(
        np.array(
            [
                [0.0, 0.5, 0.5, 0.0],
                [0.0, 0.0, 0.0, 0.0],  # dangling
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],  # dangling
            ]
        )
    )
    return mat


def _teleports_and_alphas(n, rng):
    tels = [None, rng.random(n), None, rng.random(n) + 0.1]
    alphas = [0.5, 0.85, 0.95, 0.7]
    return tels, alphas


class TestColumnEquivalence:
    @pytest.mark.parametrize("dangling", DANGLING_STRATEGIES)
    def test_matches_sequential_per_column(self, transition, dangling):
        rng = np.random.default_rng(7)
        n = transition.shape[0]
        tels, alphas = _teleports_and_alphas(n, rng)
        batch = power_iteration_batch(
            transition, tels, alphas=alphas, dangling=dangling, tol=1e-10
        )
        for k, (tel, alpha) in enumerate(zip(tels, alphas)):
            seq = power_iteration(
                transition, alpha=alpha, teleport=tel, dangling=dangling,
                tol=1e-10,
            )
            np.testing.assert_allclose(
                batch.scores[:, k], seq.scores, atol=1e-12, rtol=0
            )
            assert batch.iterations[k] == seq.iterations
            assert bool(batch.converged[k]) == seq.converged

    @pytest.mark.parametrize("dangling", DANGLING_STRATEGIES)
    def test_true_dangling_rows(self, dangling_transition, dangling):
        rng = np.random.default_rng(3)
        tels = [None, rng.random(4)]
        batch = power_iteration_batch(
            dangling_transition, tels, alphas=0.85, dangling=dangling
        )
        for k, tel in enumerate(tels):
            seq = power_iteration(
                dangling_transition, alpha=0.85, teleport=tel,
                dangling=dangling,
            )
            np.testing.assert_allclose(
                batch.scores[:, k], seq.scores, atol=1e-12, rtol=0
            )

    def test_columns_sum_to_one(self, transition):
        batch = power_iteration_batch(transition, n_queries=5)
        np.testing.assert_allclose(batch.scores.sum(axis=0), 1.0)

    def test_single_column_batch(self, transition):
        batch = power_iteration_batch(transition)
        seq = power_iteration(transition)
        assert batch.n_queries == 1
        np.testing.assert_allclose(
            batch.scores[:, 0], seq.scores, atol=1e-12, rtol=0
        )


class TestMixedConvergence:
    def test_slow_column_does_not_stall_fast_columns(self, transition):
        """α=0.99 needs far more sweeps than α=0.3; budgets stay per-column."""
        batch = power_iteration_batch(
            transition, alphas=[0.3, 0.99], tol=1e-12
        )
        assert batch.iterations[1] > batch.iterations[0]
        for k, alpha in enumerate((0.3, 0.99)):
            seq = power_iteration(transition, alpha=alpha, tol=1e-12)
            assert batch.iterations[k] == seq.iterations
            np.testing.assert_allclose(
                batch.scores[:, k], seq.scores, atol=1e-12, rtol=0
            )

    def test_partial_convergence_flags(self, transition):
        """With a tiny budget the slow column fails, the fast one converges."""
        batch = power_iteration_batch(
            transition, alphas=[0.1, 0.999], tol=1e-10, max_iter=20
        )
        assert bool(batch.converged[0]) is True
        assert bool(batch.converged[1]) is False
        assert not batch.all_converged
        assert batch.iterations[1] == 20
        # the converged column froze at its convergence sweep
        seq = power_iteration(transition, alpha=0.1, tol=1e-10)
        np.testing.assert_allclose(
            batch.scores[:, 0], seq.scores, atol=1e-12, rtol=0
        )

    def test_raise_on_failure(self, transition):
        with pytest.raises(ConvergenceError):
            power_iteration_batch(
                transition, alphas=[0.1, 0.999], max_iter=20,
                raise_on_failure=True,
            )

    def test_residual_histories_have_per_column_length(self, transition):
        batch = power_iteration_batch(transition, alphas=[0.3, 0.95])
        assert len(batch.residuals[0]) == batch.iterations[0]
        assert len(batch.residuals[1]) == batch.iterations[1]
        np.testing.assert_allclose(
            batch.final_residuals,
            [batch.residuals[0][-1], batch.residuals[1][-1]],
        )


class TestWarmStart:
    def test_warm_start_block_cuts_iterations(self, transition):
        cold = power_iteration_batch(transition, alphas=[0.85, 0.9])
        warm = power_iteration_batch(
            transition, alphas=[0.85, 0.9], warm_start=cold.scores
        )
        assert (warm.iterations <= 2).all()
        np.testing.assert_allclose(
            warm.scores, cold.scores, atol=1e-9, rtol=0
        )

    def test_warm_start_vector_broadcasts(self, transition):
        cold = power_iteration_batch(transition, alphas=[0.85, 0.85])
        warm = power_iteration_batch(
            transition, alphas=[0.85, 0.85], warm_start=cold.scores[:, 0]
        )
        assert (warm.iterations < cold.iterations).all()
        np.testing.assert_allclose(
            warm.scores, cold.scores, atol=1e-9, rtol=0
        )

    def test_warm_start_same_fixed_point(self, transition):
        """Warm-started solves land on the cold-start fixed point."""
        rng = np.random.default_rng(0)
        n = transition.shape[0]
        guess = rng.random((n, 2))
        cold = power_iteration_batch(transition, alphas=[0.6, 0.8], tol=1e-12)
        warm = power_iteration_batch(
            transition, alphas=[0.6, 0.8], warm_start=guess, tol=1e-12
        )
        np.testing.assert_allclose(
            warm.scores, cold.scores, atol=1e-10, rtol=0
        )

    def test_bad_warm_start_string_rejected(self, transition):
        with pytest.raises(ParameterError):
            power_iteration_batch(transition, warm_start="cascade")

    def test_bad_warm_start_shape_rejected(self, transition):
        with pytest.raises(ParameterError):
            power_iteration_batch(
                transition, alphas=[0.85, 0.9],
                warm_start=np.ones((3, 7)),
            )


class TestValidation:
    def test_width_from_alphas(self, transition):
        assert power_iteration_batch(transition, alphas=[0.5, 0.9]).n_queries == 2

    def test_width_from_n_queries(self, transition):
        batch = power_iteration_batch(transition, n_queries=3)
        assert batch.n_queries == 3
        np.testing.assert_allclose(batch.scores[:, 0], batch.scores[:, 2])

    def test_width_mismatch_rejected(self, transition):
        n = transition.shape[0]
        with pytest.raises(ParameterError):
            power_iteration_batch(
                transition, [None, None], alphas=[0.5, 0.6, 0.7]
            )
        with pytest.raises(ParameterError):
            power_iteration_batch(
                transition, np.ones((n, 2)), n_queries=3
            )

    def test_bad_alpha_rejected(self, transition):
        with pytest.raises(ParameterError):
            power_iteration_batch(transition, alphas=[0.5, 1.0])

    def test_negative_teleport_rejected(self, transition):
        n = transition.shape[0]
        bad = np.ones(n)
        bad[0] = -1.0
        with pytest.raises(ParameterError):
            power_iteration_batch(transition, [bad])

    def test_zero_teleport_rejected(self, transition):
        n = transition.shape[0]
        with pytest.raises(ParameterError):
            power_iteration_batch(transition, [np.zeros(n)])

    def test_unknown_dangling_rejected(self, transition):
        with pytest.raises(ParameterError):
            power_iteration_batch(transition, dangling="bounce")

    def test_nonsquare_rejected(self):
        from scipy import sparse

        with pytest.raises(ParameterError):
            power_iteration_batch(sparse.csr_matrix(np.ones((2, 3))))

    def test_column_view(self, transition):
        batch = power_iteration_batch(transition, alphas=[0.5, 0.9])
        col = batch.column(1)
        np.testing.assert_allclose(col.scores, batch.scores[:, 1])
        assert col.iterations == batch.iterations[1]
        assert col.method.startswith("power_iteration_batch")
        with pytest.raises(ParameterError):
            batch.column(2)

    def test_result_type(self, transition):
        assert isinstance(power_iteration_batch(transition), BatchResult)


class TestNoDangling:
    def test_fully_stochastic_matrix(self):
        """Matrices without dangling rows skip the dangling branch."""
        rng = np.random.default_rng(1)
        n = 60
        rows = np.repeat(np.arange(n), 3)
        cols = (rows + rng.integers(1, n, rows.shape[0])) % n
        graph = Graph.from_arrays(rows, cols, num_nodes=n)
        transition = uniform_transition(graph.to_csr(weighted=False))
        batch = power_iteration_batch(transition, alphas=[0.85, 0.5])
        for k, alpha in enumerate((0.85, 0.5)):
            seq = power_iteration(transition, alpha=alpha)
            np.testing.assert_allclose(
                batch.scores[:, k], seq.scores, atol=1e-12, rtol=0
            )


class TestMixedPrecision:
    """precision="mixed": f32 sweeps + f64 polish, certified at tol in f64."""

    @pytest.mark.parametrize("dangling", DANGLING_STRATEGIES)
    def test_within_tolerance_of_sequential(self, transition, dangling):
        rng = np.random.default_rng(11)
        n = transition.shape[0]
        tels = [None, rng.random(n)]
        alphas = [0.7, 0.9]
        mixed = power_iteration_batch(
            transition, tels, alphas=alphas, dangling=dangling,
            tol=1e-10, precision="mixed",
        )
        assert mixed.all_converged
        assert mixed.method == "power_iteration_batch_mixed"
        for k, (tel, alpha) in enumerate(zip(tels, alphas)):
            seq = power_iteration(
                transition, alpha=alpha, teleport=tel, dangling=dangling,
                tol=1e-10,
            )
            np.testing.assert_allclose(
                mixed.scores[:, k], seq.scores, atol=1e-8, rtol=0
            )

    def test_final_residual_certified_in_double(self, transition):
        mixed = power_iteration_batch(
            transition, alphas=[0.85, 0.95], tol=1e-10, precision="mixed"
        )
        assert (mixed.final_residuals < 1e-10).all()

    def test_loose_tolerance_skips_float32_phase(self, transition):
        """tol above the switch point runs pure float64 (identical paths)."""
        loose_mixed = power_iteration_batch(
            transition, alphas=[0.85], tol=1e-4, precision="mixed"
        )
        loose_double = power_iteration_batch(
            transition, alphas=[0.85], tol=1e-4, precision="double"
        )
        np.testing.assert_allclose(
            loose_mixed.scores, loose_double.scores, atol=0, rtol=0
        )
        assert loose_mixed.iterations[0] == loose_double.iterations[0]

    def test_true_dangling_rows_mixed(self, dangling_transition):
        mixed = power_iteration_batch(
            dangling_transition, alphas=[0.85], precision="mixed"
        )
        seq = power_iteration(dangling_transition, alpha=0.85)
        np.testing.assert_allclose(
            mixed.scores[:, 0], seq.scores, atol=1e-8, rtol=0
        )

    def test_invalid_precision_rejected(self, transition):
        with pytest.raises(ParameterError):
            power_iteration_batch(transition, precision="half")


class TestAlphaFamily:
    """Shared-teleport α grids take the one-matvec-per-sweep family path."""

    def test_family_dispatch_and_equivalence(self, transition):
        alphas = [0.5, 0.7, 0.85, 0.9]
        batch = power_iteration_batch(transition, alphas=alphas, tol=1e-10)
        assert batch.method == "power_iteration_batch_family"
        for k, alpha in enumerate(alphas):
            seq = power_iteration(transition, alpha=alpha, tol=1e-10)
            np.testing.assert_allclose(
                batch.scores[:, k], seq.scores, atol=1e-12, rtol=0
            )
            assert bool(batch.converged[k]) == seq.converged

    def test_family_with_shared_personalised_teleport(self, transition):
        rng = np.random.default_rng(5)
        n = transition.shape[0]
        tel = rng.random(n)
        batch = power_iteration_batch(
            transition, [tel, tel], alphas=[0.6, 0.9], tol=1e-10
        )
        assert batch.method == "power_iteration_batch_family"
        for k, alpha in enumerate((0.6, 0.9)):
            seq = power_iteration(
                transition, alpha=alpha, teleport=tel, tol=1e-10
            )
            np.testing.assert_allclose(
                batch.scores[:, k], seq.scores, atol=1e-12, rtol=0
            )

    @pytest.mark.parametrize("dangling", DANGLING_STRATEGIES)
    def test_family_dangling_strategies(self, dangling_transition, dangling):
        batch = power_iteration_batch(
            dangling_transition, alphas=[0.5, 0.85], dangling=dangling
        )
        assert batch.method == "power_iteration_batch_family"
        for k, alpha in enumerate((0.5, 0.85)):
            seq = power_iteration(
                dangling_transition, alpha=alpha, dangling=dangling
            )
            np.testing.assert_allclose(
                batch.scores[:, k], seq.scores, atol=1e-12, rtol=0
            )

    def test_distinct_teleports_do_not_dispatch(self, transition):
        rng = np.random.default_rng(6)
        n = transition.shape[0]
        batch = power_iteration_batch(
            transition, [None, rng.random(n)], alphas=[0.85, 0.85]
        )
        assert batch.method == "power_iteration_batch"

    def test_warm_start_does_not_dispatch(self, transition):
        n = transition.shape[0]
        batch = power_iteration_batch(
            transition, alphas=[0.5, 0.9], warm_start=np.ones(n)
        )
        assert batch.method == "power_iteration_batch"

    def test_family_partial_convergence(self, transition):
        batch = power_iteration_batch(
            transition, alphas=[0.1, 0.999], tol=1e-10, max_iter=20
        )
        assert batch.method == "power_iteration_batch_family"
        assert bool(batch.converged[0]) is True
        assert bool(batch.converged[1]) is False
        assert batch.iterations[1] == 20

    def test_loose_tol_mixed_method_not_mislabelled(self, transition):
        """tol above the float32 switch runs (and reports) pure float64."""
        rng = np.random.default_rng(9)
        loose = power_iteration_batch(
            transition, [None, rng.random(transition.shape[0])],
            alphas=0.85, tol=1e-4, precision="mixed",
        )
        assert loose.method == "power_iteration_batch"


class TestOperatorParam:
    def test_operator_kwarg_matches_plain_call(self):
        from repro.linalg import LinearOperatorBundle

        g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        t = d2pr_transition(g, 1.0)
        bundle = LinearOperatorBundle.of(t)
        plain = power_iteration_batch(t, n_queries=3, alphas=[0.5, 0.7, 0.9])
        via_op = power_iteration_batch(
            t, n_queries=3, alphas=[0.5, 0.7, 0.9], operator=bundle
        )
        np.testing.assert_allclose(plain.scores, via_op.scores, atol=1e-12)

    def test_operator_shape_mismatch_rejected(self):
        from repro.linalg import LinearOperatorBundle

        g = Graph.from_edges([(0, 1), (1, 2)])
        other = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        bundle = LinearOperatorBundle.of(d2pr_transition(other, 0.0))
        with pytest.raises(ParameterError):
            power_iteration_batch(
                d2pr_transition(g, 0.0), n_queries=2, operator=bundle
            )
