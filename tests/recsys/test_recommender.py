"""Unit tests for repro.recsys.recommender."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import d2pr
from repro.errors import ParameterError, ReproError
from repro.graph import barabasi_albert
from repro.recsys import D2PRRecommender, RecommenderConfig


@pytest.fixture
def fitted():
    g = barabasi_albert(60, 2, seed=2)
    rec = D2PRRecommender(config=RecommenderConfig(p=0.5)).fit(g)
    return g, rec


class TestConfig:
    def test_defaults_valid(self):
        RecommenderConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 1.0},
            {"alpha": -0.2},
            {"beta": 1.5},
            {"p": float("inf")},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            RecommenderConfig(**kwargs).validate()


class TestFitAndRecommend:
    def test_unfitted_raises(self):
        rec = D2PRRecommender()
        with pytest.raises(ReproError):
            rec.recommend()

    def test_scores_match_direct_d2pr(self, fitted):
        g, rec = fitted
        direct = d2pr(g, 0.5)
        assert np.allclose(rec.scores.values, direct.values, atol=1e-12)

    def test_recommend_k_items(self, fitted):
        _g, rec = fitted
        top = rec.recommend(k=5)
        assert len(top) == 5
        scores = [s for _n, s in top]
        assert scores == sorted(scores, reverse=True)

    def test_recommend_excludes(self, fitted):
        _g, rec = fitted
        first = rec.recommend(k=1)[0][0]
        top = rec.recommend(k=5, exclude=[first])
        assert first not in [n for n, _s in top]

    def test_recommend_for_excludes_seeds(self, fitted):
        g, rec = fitted
        seed_node = g.nodes()[0]
        related = rec.recommend_for([seed_node], k=5)
        assert seed_node not in [n for n, _s in related]

    def test_recommend_for_include_seeds(self, fitted):
        g, rec = fitted
        seed_node = g.nodes()[0]
        related = rec.recommend_for([seed_node], k=3, include_seeds=True)
        # the seed dominates its own personalised ranking
        assert related[0][0] == seed_node

    def test_recommendations_are_local(self, fitted):
        """Seeded recommendations favour the seed's neighbourhood."""
        g, rec = fitted
        seed_node = g.nodes()[10]
        related = [n for n, _s in rec.recommend_for([seed_node], k=5)]
        neighbours = set(g.neighbors(seed_node))
        assert any(n in neighbours for n in related)

    def test_fit_returns_self(self):
        g = barabasi_albert(20, 2, seed=3)
        rec = D2PRRecommender()
        assert rec.fit(g) is rec


class TestTuneP:
    def test_recovers_planted_best_p(self):
        """If significance IS a d2pr ranking, tune_p should find its p."""
        g = barabasi_albert(80, 2, seed=5)
        planted = d2pr(g, -1.0).values
        rec = D2PRRecommender().fit(g)
        best_p, curve = rec.tune_p(planted, p_grid=(-2.0, -1.0, 0.0, 1.0, 2.0))
        assert best_p == -1.0
        assert curve[-1.0] == pytest.approx(1.0, abs=1e-6)

    def test_curve_has_all_grid_points(self, fitted):
        g, rec = fitted
        sig = g.degree_vector()
        _best, curve = rec.tune_p(sig, p_grid=(-1.0, 0.0, 1.0))
        assert set(curve) == {-1.0, 0.0, 1.0}

    def test_train_mask_restricts(self, fitted):
        g, rec = fitted
        rng = np.random.default_rng(0)
        sig = rng.normal(size=g.number_of_nodes)
        mask = np.zeros(g.number_of_nodes, dtype=bool)
        mask[:30] = True
        best_masked, curve_masked = rec.tune_p(sig, p_grid=(0.0, 1.0), train_mask=mask)
        _best_full, curve_full = rec.tune_p(sig, p_grid=(0.0, 1.0))
        assert curve_masked != curve_full
        assert best_masked in (0.0, 1.0)

    def test_bad_significance_shape_rejected(self, fitted):
        _g, rec = fitted
        with pytest.raises(ParameterError):
            rec.tune_p(np.ones(3))

    def test_tiny_train_mask_rejected(self, fitted):
        g, rec = fitted
        sig = np.ones(g.number_of_nodes)
        mask = np.zeros(g.number_of_nodes, dtype=bool)
        mask[0] = True
        with pytest.raises(ParameterError):
            rec.tune_p(sig, train_mask=mask)

    def test_with_p_refits(self, fitted):
        g, rec = fitted
        new = rec.with_p(-2.0)
        assert new.config.p == -2.0
        direct = d2pr(g, -2.0)
        assert np.allclose(new.scores.values, direct.values, atol=1e-12)


class TestRecommendForMany:
    def test_matches_per_user_path(self, fitted):
        """Bulk serving returns the same rankings as per-user solves."""
        g, rec = fitted
        users = [[g.nodes()[i]] for i in range(0, 30, 5)]
        bulk = rec.recommend_for_many(users, k=5)
        assert len(bulk) == len(users)
        for seeds, got in zip(users, bulk):
            expected = rec.recommend_for(seeds, k=5)
            assert [n for n, _s in got] == [n for n, _s in expected]
            np.testing.assert_allclose(
                [s for _n, s in got],
                [s for _n, s in expected],
                atol=1e-12,
                rtol=0,
            )

    def test_empty_users(self, fitted):
        _g, rec = fitted
        assert rec.recommend_for_many([]) == []

    def test_include_seeds(self, fitted):
        g, rec = fitted
        seed_node = g.nodes()[0]
        bulk = rec.recommend_for_many([[seed_node]], k=3, include_seeds=True)
        assert bulk[0][0][0] == seed_node

    def test_mapping_seeds(self, fitted):
        g, rec = fitted
        users = [{g.nodes()[0]: 2.0, g.nodes()[1]: 1.0}, [g.nodes()[2]]]
        bulk = rec.recommend_for_many(users, k=4)
        assert len(bulk) == 2
        assert all(len(r) == 4 for r in bulk)

    def test_unfitted_raises(self):
        with pytest.raises(ReproError):
            D2PRRecommender().recommend_for_many([["x"]])


class TestTunePGridKeys:
    def test_arange_grid_keys_are_exact(self, fitted):
        """Keys coming from np.arange lose their float noise."""
        g, rec = fitted
        sig = g.degree_vector().astype(float)
        _best, curve = rec.tune_p(sig, p_grid=np.arange(-1.0, 1.51, 0.5))
        assert 1.5 in curve  # arange yields 1.5000000000000004
        assert set(curve) == {-1.0, -0.5, 0.0, 0.5, 1.0, 1.5}

    def test_batched_matches_sequential_solver_path(self, fitted):
        """The solve_many path agrees with the per-p d2pr loop."""
        g, rec = fitted
        sig = g.degree_vector().astype(float)
        _b1, batched = rec.tune_p(sig, p_grid=(-1.0, 0.0, 1.0))
        seq = {}
        for p in (-1.0, 0.0, 1.0):
            from repro.metrics.correlation import spearman

            seq[p] = spearman(d2pr(g, p, alpha=0.85).values, sig)
        for p, corr in batched.items():
            assert corr == pytest.approx(seq[p], abs=1e-9)

    def test_batch_size_slicing_matches_single_batch(self, fitted):
        g, rec = fitted
        users = [[g.nodes()[i]] for i in range(7)]
        whole = rec.recommend_for_many(users, k=3)
        sliced = rec.recommend_for_many(users, k=3, batch_size=2)
        assert [[n for n, _s in u] for u in whole] == [
            [n for n, _s in u] for u in sliced
        ]
        with pytest.raises(ParameterError):
            rec.recommend_for_many(users, batch_size=0)


class TestTopKSelection:
    """Regression: argpartition top-k must match the stable full sort and
    honour the short-result contract under exclusions."""

    def _reference(self, scores, banned, k):
        out = []
        for node in scores.ranking():
            if node in banned:
                continue
            out.append((node, scores[node]))
            if len(out) == k:
                break
        return out

    def test_matches_full_sort_reference(self, fitted):
        _g, rec = fitted
        scores = rec.scores
        for k in (1, 3, 10, 59, 60, 100):
            assert rec.recommend(k=k) == self._reference(scores, set(), k)

    def test_matches_reference_with_exclusions(self, fitted):
        _g, rec = fitted
        scores = rec.scores
        banned = set(scores.ranking()[:7])  # ban the whole top
        assert rec.recommend(k=5, exclude=list(banned)) == self._reference(
            scores, banned, 5
        )

    def test_tie_break_matches_stable_sort(self):
        from repro.graph import Graph

        # 6-cycle: perfectly symmetric, all scores tie.
        g = Graph.from_edges([(i, (i + 1) % 6) for i in range(6)])
        rec = D2PRRecommender().fit(g)
        top = rec.recommend(k=3)
        assert [node for node, _ in top] == [0, 1, 2]  # smallest index first

    def test_short_result_when_exclusions_exhaust(self, fitted):
        g, rec = fitted
        everything = g.nodes()
        out = rec.recommend(k=10, exclude=everything[:-2])
        assert len(out) == 2  # only two eligible nodes remain

    def test_k_larger_than_graph(self, fitted):
        g, rec = fitted
        out = rec.recommend(k=10_000)
        assert len(out) == g.number_of_nodes

    def test_k_zero_empty(self, fitted):
        _g, rec = fitted
        assert rec.recommend(k=0) == []

    def test_negative_k_rejected(self, fitted):
        _g, rec = fitted
        with pytest.raises(ParameterError):
            rec.recommend(k=-1)

    def test_unknown_excluded_nodes_harmless(self, fitted):
        _g, rec = fitted
        out = rec.recommend(k=5, exclude=["no-such-node"])
        assert len(out) == 5

    def test_recommend_for_seed_exclusion_still_fills_k(self, fitted):
        g, rec = fitted
        seeds = g.nodes()[:4]
        out = rec.recommend_for(seeds, k=8)
        assert len(out) == 8
        assert not set(seeds) & {node for node, _ in out}


class TestStreamingUpdate:
    def test_update_matches_refit(self, fitted):
        from repro.graph import GraphDelta

        g, rec = fitted
        er, ec, _ = g.edge_arrays()
        rng = np.random.default_rng(11)
        dsel = rng.choice(er.shape[0], 3, replace=False)
        ins_r = rng.integers(0, 60, 5)
        ins_c = rng.integers(0, 60, 5)
        keep = ins_r != ins_c
        delta = GraphDelta.delete(er[dsel], ec[dsel]) | GraphDelta.insert(
            ins_r[keep], ins_c[keep]
        )
        rec.update(delta, tol=1e-11)
        refit = D2PRRecommender(config=rec.config).fit(g)
        np.testing.assert_allclose(
            rec.scores.values, refit.scores.values, atol=1e-8
        )
        assert [n for n, _ in rec.recommend(k=10)] == [
            n for n, _ in refit.recommend(k=10)
        ]

    def test_update_returns_self_and_serves(self, fitted):
        from repro.graph import GraphDelta

        g, rec = fitted
        er, ec, _ = g.edge_arrays()
        delta = GraphDelta.delete(er[:1], ec[:1])
        assert rec.update(delta) is rec
        seeds = [g.nodes()[5]]
        assert len(rec.recommend_for(seeds, k=5)) == 5
        assert len(rec.recommend_one(seeds, k=5)) == 5

    def test_update_unfitted_raises(self):
        from repro.graph import GraphDelta

        with pytest.raises(ReproError):
            D2PRRecommender().update(GraphDelta())

    def test_update_frozen_graph_raises(self):
        from repro.errors import FrozenGraphError
        from repro.graph import GraphDelta, barabasi_albert as ba

        g = ba(40, 2, seed=3).freeze()
        rec = D2PRRecommender().fit(g)
        er, ec, _ = g.edge_arrays()
        with pytest.raises(FrozenGraphError):
            rec.update(GraphDelta.delete(er[:1], ec[:1]))


def _direct_solve(graph, config, seeds=None):
    """The configured method's own solve, bypassing the recommender."""
    from repro.core.engine import build_teleport, solve_transition
    from repro.methods import resolve

    method = resolve(config.method)
    key = method.group_key(config.method_params())
    teleport = build_teleport(graph, seeds)
    if method.batchable:
        bundle = method.operator(graph, key)
        result = solve_transition(
            bundle.mat, alpha=config.alpha, teleport=teleport, operator=bundle
        )
    else:
        result = method.solve(
            graph, key, alpha=config.alpha, teleport=teleport
        )
    return result.scores


class TestOtherMethods:
    CONFIGS = {
        "fatigued": RecommenderConfig(method="fatigued", p=0.5, fatigue=0.3),
        "katz": RecommenderConfig(method="katz", alpha=0.5),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_paths_match_direct_solve(self, name):
        config = self.CONFIGS[name]
        g = barabasi_albert(60, 2, seed=2)
        rec = D2PRRecommender(config=config).fit(g)
        np.testing.assert_allclose(
            rec.scores.values, _direct_solve(g, config), atol=1e-12, rtol=0
        )
        users = [[g.nodes()[i]] for i in (1, 7, 20)] + [
            {g.nodes()[3]: 2.0, g.nodes()[40]: 1.0}
        ]
        for seeds, bulk in zip(users, rec.recommend_for_many(users, k=5)):
            direct = _direct_solve(g, config, seeds)
            one = rec.recommend_for(seeds, k=5)
            for got in (one, bulk):
                assert [n for n, _ in got] == [n for n, _ in one]
                np.testing.assert_allclose(
                    [s for _, s in got],
                    [direct[g.index_of(n)] for n, _ in got],
                    atol=1e-12,
                    rtol=0,
                )

    def test_eigenvector_fits_and_rejects_seeds(self):
        config = RecommenderConfig(method="eigenvector")
        g = barabasi_albert(60, 2, seed=2)
        rec = D2PRRecommender(config=config).fit(g)
        np.testing.assert_allclose(
            rec.scores.values, _direct_solve(g, config), atol=1e-12, rtol=0
        )
        with pytest.raises(ParameterError):
            rec.recommend_for([g.nodes()[0]], k=3)

    def test_recommend_one_without_push_is_recommend_for(self):
        g = barabasi_albert(60, 2, seed=2)
        rec = D2PRRecommender(config=self.CONFIGS["katz"]).fit(g)
        seeds = [g.nodes()[5], g.nodes()[11]]
        assert rec.recommend_one(seeds, k=6) == rec.recommend_for(
            seeds, k=6, tol=1e-8
        )

    def test_update_honours_tol_without_incremental(self):
        """A re-solving method converges to the tol the caller asked for."""
        from repro.graph import GraphDelta

        g = barabasi_albert(60, 2, seed=2)
        rec = D2PRRecommender(
            config=RecommenderConfig(method="katz", alpha=0.05)
        ).fit(g)
        er, ec, _ = g.edge_arrays()
        rec.update(GraphDelta.delete(er[:1], ec[:1]), tol=1e-13)
        assert rec.scores.solver_result.final_residual < 1e-13
