"""Unit tests for repro.linalg.batch (batched power iteration).

The core contract: ``power_iteration_batch`` must match
``power_iteration`` column by column (atol 1e-12) across all dangling
strategies, with mixed converged/unconverged columns, and with warm-start
on and off.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.d2pr import d2pr_transition
from repro.errors import ParameterError
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


def _community_ring(n=4096, community=64, reps=12, seed=1):
    """Undirected ring of dense blocks: slow global mixing, λ₂ near 1."""
    rng = np.random.default_rng(seed)
    u = np.repeat(np.arange(n), reps)
    offsets = rng.integers(1, community, size=u.size)
    v = (u // community) * community + (u % community + offsets) % community
    bridge = np.arange(0, n, community)
    rows = np.concatenate([u, bridge])
    cols = np.concatenate([v, (bridge + community) % n])
    return Graph.from_arrays(rows, cols, num_nodes=n)


def _seed_block(n, k, rng, community=64, seeds=3):
    """``k`` personalised columns, each on 3 seeds inside one block."""
    block = np.zeros((n, k))
    for j in range(k):
        base = community * rng.integers(0, n // community)
        block[base + rng.choice(community, seeds, replace=False), j] = 1.0
    return block


def _dense_oracle(transition, teleport, alpha, dangling):
    """Exact fixed point of the power step, by one dense solve."""
    mat = transition.toarray()
    n = mat.shape[0]
    t = teleport / teleport.sum()
    d = (mat.sum(axis=1) == 0).astype(np.float64)
    step = mat.T.copy()
    if dangling == "teleport":
        step += np.outer(t, d)
    elif dangling == "uniform":
        step += np.outer(np.full(n, 1.0 / n), d)
    else:  # "self"
        step += np.diag(d)
    return np.linalg.solve(np.eye(n) - alpha * step, (1.0 - alpha) * t)


class TestChebyshev:
    """reversible=True: Chebyshev sweeps, power-step certificate."""

    TOL = 1e-9

    @pytest.fixture(scope="class")
    def undirected(self):
        """A reversible d2pr walk on an undirected graph with an isolated node."""
        rng = np.random.default_rng(3)
        n = 200
        rows = rng.integers(0, n - 1, 900)
        cols = rng.integers(0, n - 1, 900)
        keep = rows != cols
        graph = Graph.from_arrays(rows[keep], cols[keep], num_nodes=n)
        assert graph.degree(n - 1) == 0
        return d2pr_transition(graph, 1.0)

    def _assert_certified(self, batch, transition, teleports, alphas,
                          dangling="teleport", tol=TOL):
        for k, (tel, alpha) in enumerate(zip(teleports, alphas)):
            exact = _dense_oracle(transition, tel, alpha, dangling)
            err = np.abs(batch.scores[:, k] - exact).sum()
            assert err <= alpha / (1 - alpha) * tol

    @pytest.mark.parametrize("dangling", DANGLING_STRATEGIES)
    def test_dangling_strategies_within_certificate(self, undirected, dangling):
        rng = np.random.default_rng(7)
        n = undirected.shape[0]
        tels = [np.full(n, 1.0), rng.random(n), rng.random(n) + 0.1]
        batch = power_iteration_batch(
            undirected, tels, alphas=0.85, dangling=dangling,
            tol=self.TOL, reversible=True,
        )
        assert batch.all_converged
        assert batch.method == "power_iteration_batch_chebyshev"
        self._assert_certified(
            batch, undirected, tels, [0.85] * 3, dangling=dangling
        )

    def test_per_column_alpha(self, undirected):
        rng = np.random.default_rng(8)
        n = undirected.shape[0]
        tels = [rng.random(n) for _ in range(4)]
        alphas = [0.5, 0.85, 0.95, 0.7]
        batch = power_iteration_batch(
            undirected, tels, alphas=alphas, tol=self.TOL, reversible=True
        )
        assert batch.all_converged
        self._assert_certified(batch, undirected, tels, alphas)

    def test_refill_beyond_one_chunk(self, undirected):
        rng = np.random.default_rng(9)
        n = undirected.shape[0]
        tels = [rng.random(n) ** 4 for _ in range(40)]
        alphas = rng.uniform(0.5, 0.95, 40)
        batch = power_iteration_batch(
            undirected, tels, alphas=alphas, tol=self.TOL, reversible=True
        )
        assert batch.all_converged
        self._assert_certified(batch, undirected, tels, alphas)

    def test_warm_start(self, undirected):
        rng = np.random.default_rng(10)
        n = undirected.shape[0]
        tels = [rng.random(n), rng.random(n)]
        near = np.column_stack(
            [_dense_oracle(undirected, t, 0.85, "teleport") for t in tels]
        ) + 1e-4 * rng.random((n, 2))
        cold = power_iteration_batch(
            undirected, tels, tol=self.TOL, reversible=True
        )
        warm = power_iteration_batch(
            undirected, tels, tol=self.TOL, warm_start=near, reversible=True
        )
        assert warm.all_converged
        assert (warm.iterations < cold.iterations).all()
        self._assert_certified(warm, undirected, tels, [0.85, 0.85])

    def test_max_iter_exhaustion_reported(self, undirected):
        rng = np.random.default_rng(11)
        n = undirected.shape[0]
        batch = power_iteration_batch(
            undirected, [rng.random(n), rng.random(n)],
            tol=1e-14, max_iter=5, reversible=True,
        )
        assert not batch.converged.any()
        assert (batch.iterations == 5).all()

    def test_scores_non_negative_on_long_ring(self):
        """Chebyshev over-relaxation would dip tiny entries below zero."""
        transition = d2pr_transition(_community_ring(), 1.0)
        n = transition.shape[0]
        block = _seed_block(n, 8, np.random.default_rng(12))
        batch = power_iteration_batch(
            transition, block, tol=1e-8, reversible=True
        )
        assert batch.all_converged
        assert (batch.scores >= 0.0).all()

    def test_personalised_block_needs_fewer_sweeps(self):
        transition = d2pr_transition(_community_ring(), 1.0)
        n = transition.shape[0]
        block = _seed_block(n, 8, np.random.default_rng(13))
        power = power_iteration_batch(transition, block, tol=1e-8)
        cheb = power_iteration_batch(
            transition, block, tol=1e-8, reversible=True
        )
        assert power.all_converged and cheb.all_converged
        assert cheb.iterations.sum() <= 0.6 * power.iterations.sum()
        assert np.abs(cheb.scores - power.scores).sum(axis=0).max() <= (
            2 * 0.85 / 0.15 * 1e-8
        )

    def test_long_solve_stays_certified(self, undirected):
        """At α = 0.99 a column sweeps past the point where the loop
        folds its iterate's factor back in (z shrinks by ω per sweep)."""
        rng = np.random.default_rng(15)
        n = undirected.shape[0]
        tels = [rng.random(n), None]
        batch = power_iteration_batch(
            undirected, tels, alphas=0.99, tol=1e-12, reversible=True
        )
        assert batch.all_converged
        assert (batch.iterations > 150).all()
        self._assert_certified(
            batch, undirected, [tels[0], np.ones(n)], [0.99, 0.99],
            tol=1e-12,
        )

    def test_residuals_list_the_evaluated_sweeps(self, undirected):
        rng = np.random.default_rng(14)
        n = undirected.shape[0]
        tels = [rng.random(n) for _ in range(5)]
        batch = power_iteration_batch(
            undirected, tels, tol=self.TOL, reversible=True
        )
        assert batch.all_converged
        for k, hist in enumerate(batch.residuals):
            # The first sweep is evaluated, later ones only once the
            # a-priori rate says tol is in reach; the last certifies.
            assert 2 <= len(hist) < batch.iterations[k]
            assert hist[-1] < self.TOL <= min(hist[:-1])

    def test_alpha_family_ignores_the_flag(self, undirected):
        batch = power_iteration_batch(
            undirected, None, alphas=[0.5, 0.85], tol=self.TOL,
            reversible=True,
        )
        assert batch.method == "power_iteration_batch_family"


P_GRID = tuple(np.arange(-4.0, 4.01, 0.5).round(1))


def _key_transition(graph, key):
    """A pooled key's transition from the paper-era builders of
    ``linalg/transition.py``: the weighted β = 0 D2PR walk, with
    fatigue's ``1 − φ`` column rescale and renormalised rows."""
    from scipy import sparse

    from repro.linalg.transition import blended_transition

    adjacency = graph.to_csr(weighted=True)
    theta = np.asarray(adjacency.sum(axis=1)).ravel()
    floor = float(theta[theta > 0].min())
    p, fatigue = (key[1], key[2]) if key[0] == "fatigued" else (key[1], 0.0)
    mat = blended_transition(adjacency, p, 0.0, clamp_min=floor)
    if fatigue == 0.0:
        return mat
    mat = mat.multiply(1.0 - fatigue * theta / theta.max()).tocsr()
    mass = np.asarray(mat.sum(axis=1)).ravel()
    inv = np.divide(1.0, mass, out=np.zeros_like(mass), where=mass > 0.0)
    return sparse.diags(inv) @ mat


class TestPooledLoopProperties:
    """Pooled blocks of methods-built factors: every column certified
    against a dense solve, whatever the pool's width and composition."""

    TOL = 1e-9

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=6, max_value=30),
        density=st.floats(min_value=0.1, max_value=0.5),
        seed=st.integers(min_value=0, max_value=9999),
        data=st.data(),
    )
    def test_columns_certified_and_pool_independent(
        self, n, density, seed, data
    ):
        from repro.methods import family_method

        rng = np.random.default_rng(seed)
        m = max(1, int(density * n * n))
        # The last two nodes stay isolated (dangling rows).
        rows, cols = rng.integers(0, n - 2, m), rng.integers(0, n - 2, m)
        keep = rows != cols
        if not keep.any():
            rows, cols, keep = np.array([0]), np.array([1]), np.array([True])
        weights = 10.0 ** rng.uniform(-1.0, 1.0, int(keep.sum()))
        graph = Graph.from_arrays(rows[keep], cols[keep], weights, num_nodes=n)

        dangling = data.draw(st.sampled_from(DANGLING_STRATEGIES))
        ps = data.draw(st.lists(st.sampled_from(P_GRID), min_size=1,
                                max_size=5, unique=True))
        keys = [("d2pr", float(p), 0.0, True, dangling) for p in ps]
        if data.draw(st.booleans()):
            keys.append(("fatigued", 1.0, 0.5, 0.0, True, dangling))
        k = data.draw(st.integers(min_value=1, max_value=40))
        col_keys = [keys[i] for i in rng.integers(0, len(keys), k)]
        alphas = rng.uniform(0.3, 0.95, k)
        teleports = []
        for kind in rng.integers(0, 3, k):
            if kind == 0:
                teleports.append(None)
            elif kind == 1:
                seeds = rng.choice(n, int(rng.integers(1, min(40, n) + 1)),
                                   replace=False)
                vec = np.zeros(n)
                vec[seeds] = rng.random(seeds.size) + 0.1
                teleports.append(vec)
            else:
                teleports.append(rng.random(n) + 0.01)

        factors = {key: family_method(key).factors(graph, key)
                   for key in keys}
        bundle = factors[keys[0]].mat

        def solve(idx):
            fs = [factors[col_keys[j]] for j in idx]
            if len({col_keys[j] for j in idx}) == 1:
                scales = (fs[0].row, fs[0].col)  # one key: shared vectors
            else:
                ones = np.ones(n)
                scales = (
                    np.column_stack([f.row for f in fs]),
                    np.column_stack([ones if f.col is None else f.col
                                     for f in fs]),
                )
            return power_iteration_batch(
                bundle.mat, [teleports[j] for j in idx],
                alphas=alphas[idx], tol=self.TOL, dangling=dangling,
                operator=bundle, reversible=True, scales=scales,
            )

        batch = solve(np.arange(k))
        assert (batch.scores >= 0.0).all()
        assert np.allclose(np.ones(n) @ batch.scores, 1.0, rtol=0, atol=1e-12)
        transitions = {key: _key_transition(graph, key) for key in keys}
        for j in range(k):
            tel = np.ones(n) if teleports[j] is None else teleports[j]
            exact = _dense_oracle(
                transitions[col_keys[j]], tel, alphas[j], dangling
            )
            bound = alphas[j] / (1 - alphas[j]) * self.TOL
            assert np.abs(batch.scores[:, j] - exact).sum() <= bound
        for j in rng.choice(k, min(k, 4), replace=False):
            alone = solve(np.array([j]))
            bound = 2 * alphas[j] / (1 - alphas[j]) * self.TOL
            gap = np.abs(alone.scores[:, 0] - batch.scores[:, j]).sum()
            assert gap <= bound
            assert alone.converged[0] == batch.converged[j]
