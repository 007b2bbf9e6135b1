"""Unit and property tests for repro.metrics.correlation, cross-checked
against scipy.stats (used strictly as an oracle)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.metrics import kendall, pearson, rank_data, spearman

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestRankData:
    def test_simple(self):
        assert rank_data(np.array([30.0, 10.0, 20.0])).tolist() == [3.0, 1.0, 2.0]

    def test_average_ties(self):
        assert rank_data(np.array([10.0, 20.0, 20.0, 30.0])).tolist() == [
            1.0,
            2.5,
            2.5,
            4.0,
        ]

    def test_all_equal(self):
        ranks = rank_data(np.array([5.0, 5.0, 5.0]))
        assert ranks.tolist() == [2.0, 2.0, 2.0]

    def test_single_element(self):
        assert rank_data(np.array([42.0])).tolist() == [1.0]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(finite_floats, min_size=1, max_size=60))
    def test_matches_scipy(self, values):
        ours = rank_data(np.array(values))
        theirs = scipy.stats.rankdata(values, method="average")
        assert np.allclose(ours, theirs)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(min_value=-3, max_value=3), max_size=80))
    def test_heavy_ties_match_average_rank_oracle(self, values):
        """Brute force: 1 + (#smaller) + (#equal − 1)/2 per element."""
        x = np.array(values, dtype=np.float64)
        oracle = [
            1.0 + float((x < v).sum()) + (float((x == v).sum()) - 1.0) / 2.0
            for v in x
        ]
        assert rank_data(x).tolist() == oracle

    @settings(max_examples=50, deadline=None)
    @given(st.lists(finite_floats, min_size=1, max_size=40))
    def test_ranks_sum_invariant(self, values):
        """Ranks always sum to n(n+1)/2 regardless of ties."""
        n = len(values)
        assert rank_data(np.array(values)).sum() == pytest.approx(n * (n + 1) / 2)


class TestPearson:
    def test_perfect_positive(self):
        x = np.arange(10.0)
        assert pearson(x, 2 * x + 1) == pytest.approx(1.0)

    def test_perfect_negative(self):
        x = np.arange(10.0)
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_constant_input_returns_zero(self):
        assert pearson(np.ones(5), np.arange(5.0)) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            pearson(np.ones(3), np.ones(4))

    def test_too_short_rejected(self):
        with pytest.raises(ParameterError):
            pearson(np.array([1.0]), np.array([2.0]))

    def test_nonfinite_rejected(self):
        with pytest.raises(ParameterError):
            pearson(np.array([1.0, np.nan]), np.array([1.0, 2.0]))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(finite_floats, min_size=2, max_size=50),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_matches_scipy(self, xs, seed):
        rng = np.random.default_rng(seed)
        x = np.array(xs)
        y = rng.normal(size=x.shape[0])
        if np.all(x == x[0]) or np.all(y == y[0]):
            assert pearson(x, y) == 0.0
        else:
            theirs = scipy.stats.pearsonr(x, y).statistic
            if np.isnan(theirs):
                # scipy can lose the signal to underflow where our
                # max-abs pre-scaling keeps it; just require boundedness.
                assert -1.0 <= pearson(x, y) <= 1.0
            else:
                assert pearson(x, y) == pytest.approx(theirs, abs=1e-7)


class TestSpearman:
    def test_monotone_transform_invariance(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert spearman(x, np.exp(x)) == pytest.approx(1.0)

    def test_reversal(self):
        x = np.arange(6.0)
        assert spearman(x, x[::-1]) == pytest.approx(-1.0)

    def test_paper_formula_equivalence(self):
        """Spearman == Pearson applied to average-tie ranks (§4.2)."""
        rng = np.random.default_rng(5)
        x = rng.integers(0, 5, size=40).astype(float)  # heavy ties
        y = rng.integers(0, 5, size=40).astype(float)
        assert spearman(x, y) == pytest.approx(
            pearson(rank_data(x), rank_data(y))
        )

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(finite_floats, min_size=2, max_size=50),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_matches_scipy(self, xs, seed):
        rng = np.random.default_rng(seed)
        x = np.array(xs)
        y = rng.normal(size=x.shape[0])
        ours = spearman(x, y)
        theirs = scipy.stats.spearmanr(x, y).statistic
        if np.isnan(theirs):  # scipy returns nan for constant input
            assert ours == 0.0
        else:
            assert ours == pytest.approx(theirs, abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(finite_floats, min_size=2, max_size=40))
    def test_bounded(self, xs):
        rng = np.random.default_rng(0)
        y = rng.normal(size=len(xs))
        assert -1.0 <= spearman(np.array(xs), y) <= 1.0


class TestKendall:
    def test_perfect_agreement(self):
        x = np.arange(8.0)
        assert kendall(x, x * 3) == pytest.approx(1.0)

    def test_perfect_disagreement(self):
        x = np.arange(8.0)
        assert kendall(x, -x) == pytest.approx(-1.0)

    def test_constant_returns_zero(self):
        assert kendall(np.ones(4), np.arange(4.0)) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(finite_floats, min_size=2, max_size=30),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_matches_scipy_tau_b(self, xs, seed):
        rng = np.random.default_rng(seed)
        x = np.array(xs)
        y = rng.normal(size=x.shape[0])
        ours = kendall(x, y)
        theirs = scipy.stats.kendalltau(x, y).statistic
        if np.isnan(theirs):
            assert ours == 0.0
        else:
            assert ours == pytest.approx(theirs, abs=1e-9)

    def test_ties_handled(self):
        x = np.array([1.0, 1.0, 2.0, 3.0])
        y = np.array([1.0, 2.0, 2.0, 3.0])
        theirs = scipy.stats.kendalltau(x, y).statistic
        assert kendall(x, y) == pytest.approx(theirs, abs=1e-9)
