"""Unit tests for the cached solver-operator bundle."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.core.d2pr import d2pr_operator, d2pr_transition
from repro.errors import ParameterError
from repro.graph import DiGraph
from repro.linalg import LinearOperatorBundle, power_iteration
from repro.linalg.transition import uniform_transition


def _transition(graph):
    return uniform_transition(graph.to_csr(weighted=False))


class TestBundleViews:
    def test_mat_aliases_canonical_csr(self, dangling_digraph):
        t = _transition(dangling_digraph)
        bundle = LinearOperatorBundle(t)
        assert bundle.mat is t

    def test_non_csr_input_canonicalised(self):
        coo = sparse.coo_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        bundle = LinearOperatorBundle(coo)
        assert bundle.mat.format == "csr"
        assert bundle.mat.dtype == np.float64

    def test_t_csr_is_transpose(self, dangling_digraph):
        t = _transition(dangling_digraph)
        bundle = LinearOperatorBundle(t)
        expected = t.T.tocsr()
        assert bundle.t_csr.format == "csr"
        assert (bundle.t_csr != expected).nnz == 0

    def test_t_csr_memoised(self, dangling_digraph):
        bundle = LinearOperatorBundle(_transition(dangling_digraph))
        assert bundle.t_csr is bundle.t_csr

    def test_t_csc_is_free_view(self, dangling_digraph):
        t = _transition(dangling_digraph)
        bundle = LinearOperatorBundle(t)
        assert bundle.t_csc.format == "csc"
        # The view shares the CSR's buffers: no conversion happened.
        assert np.shares_memory(bundle.t_csc.data, t.data)

    def test_dangle_mask_and_idx(self, dangling_digraph):
        bundle = LinearOperatorBundle(_transition(dangling_digraph))
        sink = dangling_digraph.index_of("c")
        assert bundle.has_dangling
        assert bundle.dangle_mask[sink]
        assert bundle.dangle_mask.sum() == 1
        assert list(bundle.dangle_idx) == [sink]
        assert not bundle.dangle_mask.flags.writeable

    def test_no_dangling_on_cycle(self, cycle_digraph):
        bundle = LinearOperatorBundle(_transition(cycle_digraph))
        assert not bundle.has_dangling
        assert bundle.dangle_idx.size == 0

    def test_rejects_non_square(self):
        with pytest.raises(ParameterError):
            LinearOperatorBundle(sparse.csr_matrix(np.ones((2, 3))))

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            LinearOperatorBundle(sparse.csr_matrix((0, 0)))


class TestBundleMemoisation:
    def test_of_attaches_to_matrix_object(self, dangling_digraph):
        t = _transition(dangling_digraph)
        bundle = LinearOperatorBundle.of(t)
        assert LinearOperatorBundle.of(t) is bundle

    def test_of_passes_through_bundles(self, dangling_digraph):
        bundle = LinearOperatorBundle.of(_transition(dangling_digraph))
        assert LinearOperatorBundle.of(bundle) is bundle

    def test_repeated_power_iteration_shares_bundle(self, figure1_graph):
        # The acceptance scenario of the bugfix: back-to-back single-query
        # solves against a cached matrix must not re-derive the transpose.
        t = d2pr_transition(figure1_graph, 1.0)
        power_iteration(t, tol=1e-10)
        bundle = LinearOperatorBundle.of(t)
        first = bundle.t_csr
        power_iteration(t, tol=1e-10)
        assert bundle.t_csr is first

    def test_structural_inplace_edit_rebuilds_bundle(self):
        # scipy setitem replaces the index/data buffers; `of` must notice
        # and rebuild instead of serving the stale transpose.
        import warnings

        from scipy import sparse as sp

        t = sp.csr_matrix(
            np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        )
        stale = LinearOperatorBundle.of(t)
        assert stale.has_dangling
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # SparseEfficiencyWarning
            t[2, 0] = 1.0
        fresh = LinearOperatorBundle.of(t)
        assert fresh is not stale
        assert not fresh.has_dangling

    def test_value_only_inplace_edit_rebuilds_bundle(self):
        # Regression: mutating `.data` through the same buffers (same
        # sparsity pattern) used to pass the structural fingerprint and
        # serve a stale cached transpose.
        from scipy import sparse as sp

        t = sp.csr_matrix(
            np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        )
        stale = LinearOperatorBundle.of(t)
        stale_transpose = stale.t_csr
        t.data *= np.array([0.5, 1.5, 1.0, 1.0])  # same pattern, new values
        fresh = LinearOperatorBundle.of(t)
        assert fresh is not stale
        np.testing.assert_allclose(fresh.t_csr.toarray(), t.T.toarray())
        assert not np.allclose(
            fresh.t_csr.toarray(), stale_transpose.toarray()
        )

    def test_single_value_edit_detected_by_checksum(self, figure1_graph):
        t = d2pr_transition(figure1_graph, 1.0).copy()
        stale = LinearOperatorBundle.of(t)
        t.data[0] += 0.125  # one entry, same buffers, same nnz
        fresh = LinearOperatorBundle.of(t)
        assert fresh is not stale

    def test_unchanged_matrix_keeps_bundle(self, figure1_graph):
        t = d2pr_transition(figure1_graph, 1.0)
        bundle = LinearOperatorBundle.of(t)
        assert LinearOperatorBundle.of(t) is bundle  # checksum stable

    def test_operator_kwarg_used(self, figure1_graph):
        t = d2pr_transition(figure1_graph, 0.0)
        bundle = LinearOperatorBundle(t)
        via_operator = power_iteration(None, operator=bundle, tol=1e-12)
        via_matrix = power_iteration(t, tol=1e-12)
        np.testing.assert_allclose(
            via_operator.scores, via_matrix.scores, atol=1e-12
        )

    def test_missing_matrix_and_operator_rejected(self):
        with pytest.raises(ParameterError):
            power_iteration(None)

    def test_shape_mismatch_rejected(self, figure1_graph, cycle_digraph):
        bundle = LinearOperatorBundle(_transition(cycle_digraph))
        with pytest.raises(ParameterError):
            power_iteration(_transition(figure1_graph), operator=bundle)


class TestPatchedViews:
    def test_patched_memoised_per_teleport(self, dangling_digraph):
        bundle = LinearOperatorBundle(_transition(dangling_digraph))
        t = np.full(bundle.n, 1.0 / bundle.n)
        assert bundle.patched("teleport", t) is bundle.patched("teleport", t)
        other = np.zeros(bundle.n)
        other[0] = 1.0
        assert bundle.patched("teleport", other) is not bundle.patched(
            "teleport", t
        )

    def test_patched_csc_cached_alongside(self, dangling_digraph):
        bundle = LinearOperatorBundle(_transition(dangling_digraph))
        t = np.full(bundle.n, 1.0 / bundle.n)
        csc = bundle.patched_csc("teleport", t)
        assert csc.format == "csc"
        assert bundle.patched_csc("teleport", t) is csc

    def test_patched_rows_stochastic(self, dangling_digraph):
        bundle = LinearOperatorBundle(_transition(dangling_digraph))
        t = np.full(bundle.n, 1.0 / bundle.n)
        sums = np.asarray(bundle.patched("teleport", t).sum(axis=1)).ravel()
        np.testing.assert_allclose(sums, 1.0)

    def test_uniform_and_self_patched_ignore_teleport(
        self, dangling_digraph
    ):
        # Their patched rows do not depend on the teleport, so distinct
        # teleports must share one memo entry per strategy.
        bundle = LinearOperatorBundle(_transition(dangling_digraph))
        t1 = np.full(bundle.n, 1.0 / bundle.n)
        t2 = np.zeros(bundle.n)
        t2[0] = 1.0
        for strategy in ("uniform", "self"):
            assert bundle.patched(strategy, t1) is bundle.patched(
                strategy, t2
            )

    def test_patched_memo_capped(self, dangling_digraph):
        from repro.linalg.operator import _PATCHED_CAP

        bundle = LinearOperatorBundle(_transition(dangling_digraph))
        for i in range(_PATCHED_CAP + 3):
            t = np.zeros(bundle.n)
            t[i % bundle.n] = 1.0
            t[(i + 1) % bundle.n] = 1.0 + i
            bundle.patched("teleport", t / t.sum())
        assert len(bundle._patched) <= _PATCHED_CAP


class TestDanglingTargets:
    def test_teleport_target_is_passed_vector(self, dangling_digraph):
        bundle = LinearOperatorBundle(_transition(dangling_digraph))
        t = np.full(bundle.n, 1.0 / bundle.n)
        assert bundle.dangling_target("teleport", t) is t

    def test_uniform_target_cached(self, dangling_digraph):
        bundle = LinearOperatorBundle(_transition(dangling_digraph))
        t = np.zeros(bundle.n)
        t[0] = 1.0
        uniform = bundle.dangling_target("uniform", t)
        np.testing.assert_allclose(uniform, 1.0 / bundle.n)
        assert bundle.dangling_target("uniform", t) is uniform

    def test_self_target_is_none(self, dangling_digraph):
        bundle = LinearOperatorBundle(_transition(dangling_digraph))
        assert bundle.dangling_target("self", np.ones(bundle.n)) is None

    def test_unknown_strategy_rejected(self, dangling_digraph):
        bundle = LinearOperatorBundle(_transition(dangling_digraph))
        with pytest.raises(ParameterError):
            bundle.dangling_target("magic", np.ones(bundle.n))


class TestD2prOperator:
    def test_wraps_cached_transition(self, figure1_graph):
        bundle = d2pr_operator(figure1_graph, 1.5)
        assert bundle.mat is d2pr_transition(figure1_graph, 1.5)

    def test_memoised_on_graph_cache(self, figure1_graph):
        assert d2pr_operator(figure1_graph, 2.0) is d2pr_operator(
            figure1_graph, 2.0
        )
        assert d2pr_operator(figure1_graph, 2.0) is not d2pr_operator(
            figure1_graph, 1.0
        )

    def test_solvers_share_one_transpose_per_graph_version(self):
        g = DiGraph.from_edges([(0, 1), (1, 2), (2, 0), (0, 2)])
        from repro.core.d2pr import d2pr

        d2pr(g, 1.0, tol=1e-8)
        bundle = d2pr_operator(g, 1.0)
        t_csr = bundle.t_csr
        d2pr(g, 1.0, tol=1e-8, alpha=0.7)
        assert d2pr_operator(g, 1.0).t_csr is t_csr
