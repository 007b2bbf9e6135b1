"""Unit tests for repro.core.personalized (PPR / D2PPR / robust variant)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    d2pr,
    personalized_d2pr,
    personalized_pagerank,
    robust_personalized_d2pr,
)
from repro.errors import ParameterError
from repro.graph import Graph, barabasi_albert


@pytest.fixture
def two_cluster_graph() -> Graph:
    """Two triangles joined by one bridge edge."""
    g = Graph.from_edges(
        [
            ("a1", "a2"),
            ("a2", "a3"),
            ("a1", "a3"),
            ("b1", "b2"),
            ("b2", "b3"),
            ("b1", "b3"),
            ("a1", "b1"),
        ]
    )
    return g


class TestPersonalizedPageRank:
    def test_seed_scores_highest(self, two_cluster_graph):
        scores = personalized_pagerank(two_cluster_graph, ["a2"])
        assert scores.ranking()[0] == "a2"

    def test_mass_concentrates_near_seed(self, two_cluster_graph):
        scores = personalized_pagerank(two_cluster_graph, ["a2"])
        a_mass = scores["a1"] + scores["a2"] + scores["a3"]
        b_mass = scores["b1"] + scores["b2"] + scores["b3"]
        assert a_mass > b_mass

    def test_weighted_seed_mapping(self, two_cluster_graph):
        scores = personalized_pagerank(
            two_cluster_graph, {"a2": 3.0, "b2": 1.0}
        )
        assert scores["a2"] > scores["b2"]

    def test_empty_seeds_rejected(self, two_cluster_graph):
        with pytest.raises(ParameterError):
            personalized_pagerank(two_cluster_graph, [])

    def test_negative_seed_weight_rejected(self, two_cluster_graph):
        with pytest.raises(ParameterError):
            personalized_pagerank(two_cluster_graph, {"a2": -1.0})

    def test_zero_total_mass_rejected(self, two_cluster_graph):
        with pytest.raises(ParameterError):
            personalized_pagerank(two_cluster_graph, {"a2": 0.0})

    def test_duplicate_seeds_weight_by_occurrence(self):
        """A repeated seed counts twice, exactly as d2pr's teleport does."""
        g = barabasi_albert(50, 2, seed=1)
        a, b = g.nodes()[3], g.nodes()[17]
        seeds = [a, a, b]
        ppr = personalized_pagerank(g, seeds).values
        direct = d2pr(g, 0.0, teleport=seeds).values
        np.testing.assert_allclose(ppr, direct, atol=1e-12, rtol=0)
        weighted = d2pr(g, 0.0, teleport={a: 2.0, b: 1.0}).values
        np.testing.assert_allclose(ppr, weighted, atol=1e-12, rtol=0)


class TestPersonalizedD2PR:
    def test_equals_d2pr_with_teleport(self, two_cluster_graph):
        a = personalized_d2pr(two_cluster_graph, ["a1"], 1.5).values
        b = d2pr(two_cluster_graph, 1.5, teleport={"a1": 1.0}).values
        assert np.allclose(a, b, atol=1e-12)

    def test_p_zero_equals_ppr(self, two_cluster_graph):
        a = personalized_d2pr(two_cluster_graph, ["a1"], 0.0).values
        b = personalized_pagerank(two_cluster_graph, ["a1"]).values
        assert np.allclose(a, b, atol=1e-12)

    def test_degree_penalty_changes_neighbour_ranking(self):
        g = barabasi_albert(80, 2, seed=3)
        hub = g.nodes()[int(np.argmax(g.degree_vector()))]
        seed_node = g.neighbors(hub)[0]
        conventional = personalized_d2pr(g, [seed_node], 0.0)
        penalised = personalized_d2pr(g, [seed_node], 3.0)
        assert penalised[hub] < conventional[hub]

    def test_scores_are_distribution(self, two_cluster_graph):
        scores = personalized_d2pr(two_cluster_graph, ["b3"], -1.0)
        assert scores.values.sum() == pytest.approx(1.0)
        assert (scores.values >= 0).all()


class TestRobustPersonalizedD2PR:
    def test_single_seed_reduces_to_plain(self, two_cluster_graph):
        a = robust_personalized_d2pr(two_cluster_graph, ["a1"], 1.0).values
        b = personalized_d2pr(two_cluster_graph, ["a1"], 1.0).values
        assert np.allclose(a, b, atol=1e-12)

    def test_returns_distribution(self, two_cluster_graph):
        scores = robust_personalized_d2pr(
            two_cluster_graph, ["a1", "a2", "b1"], 0.5
        )
        assert scores.values.sum() == pytest.approx(1.0)

    def test_redundant_seed_downweighted(self):
        """A seed duplicating another's neighbourhood loses influence."""
        g = barabasi_albert(60, 2, seed=11)
        nodes = g.nodes()
        hub = nodes[int(np.argmax(g.degree_vector()))]
        # two tightly-related seeds plus one from elsewhere
        near = g.neighbors(hub)[0]
        robust = robust_personalized_d2pr(g, [hub, near, nodes[-1]], 0.0)
        assert robust.values.sum() == pytest.approx(1.0)

    def test_invalid_noise_discount_rejected(self, two_cluster_graph):
        with pytest.raises(ParameterError):
            robust_personalized_d2pr(
                two_cluster_graph, ["a1", "a2"], 0.0, noise_discount=1.5
            )

    def test_noise_discount_zero_keeps_all_seeds(self, two_cluster_graph):
        a = robust_personalized_d2pr(
            two_cluster_graph, ["a1", "b1"], 1.0, noise_discount=0.0
        ).values
        b = personalized_d2pr(two_cluster_graph, ["a1", "b1"], 1.0).values
        assert np.allclose(a, b, atol=1e-12)


class TestRobustBatchedEquivalence:
    """The batched LOO path must match a hand-rolled sequential loop."""

    def test_matches_manual_sequential_loop(self):
        g = barabasi_albert(70, 2, seed=21)
        nodes = g.nodes()
        seeds = [nodes[0], nodes[5], nodes[20]]
        robust = robust_personalized_d2pr(g, seeds, 1.0)

        # Re-derive the result with per-seed sequential solves.
        weights = {s: 1.0 for s in seeds}
        full = personalized_d2pr(g, weights, 1.0)
        influences = {}
        for seed in weights:
            reduced = {s: w for s, w in weights.items() if s != seed}
            loo = personalized_d2pr(g, reduced, 1.0)
            influences[seed] = float(np.abs(full.values - loo.values).sum())
        max_influence = max(influences.values())
        adjusted = {}
        for seed, base in weights.items():
            relative = influences[seed] / max_influence
            factor = relative if relative < 0.5 else 1.0
            adjusted[seed] = base * max(factor, 1e-12)
        expected = personalized_d2pr(g, adjusted, 1.0)
        np.testing.assert_allclose(
            robust.values, expected.values, atol=1e-10, rtol=0
        )

    def test_kwargs_forwarded_to_batched_path(self, two_cluster_graph):
        loose = robust_personalized_d2pr(
            two_cluster_graph, ["a1", "b2"], 1.0, tol=1e-4, max_iter=5
        )
        tight = robust_personalized_d2pr(
            two_cluster_graph, ["a1", "b2"], 1.0, tol=1e-12
        )
        assert loose.values.sum() == pytest.approx(1.0)
        assert tight.values.sum() == pytest.approx(1.0)

    def test_non_power_solver_falls_back(self, two_cluster_graph):
        batched = robust_personalized_d2pr(
            two_cluster_graph, ["a1", "b1"], 0.5
        )
        direct = robust_personalized_d2pr(
            two_cluster_graph, ["a1", "b1"], 0.5, solver="direct"
        )
        np.testing.assert_allclose(
            batched.values, direct.values, atol=1e-7, rtol=0
        )
