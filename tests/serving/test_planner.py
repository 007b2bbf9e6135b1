"""Tests for request normalisation and the query planner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.graph import Graph
from repro.serving import (
    QueryPlan,
    QueryPlanner,
    RankRequest,
    canonical_query,
)


def _graph(n=200, m=2000, seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, m)
    cols = rng.integers(0, n, m)
    keep = rows != cols
    return Graph.from_arrays(rows[keep], cols[keep], num_nodes=n)


class TestRankRequestValidation:
    def test_defaults_validate(self):
        RankRequest().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"method": "nosuch"},
            {"method": "eigenvector", "alpha": 0.5},  # not in vocabulary
            {"method": "katz", "p": 1.0},  # not in vocabulary
            {"method": "fatigued", "fatigue": 1.0},  # γ < 1 strictly
            {"method": "pagerank", "p": 1.0},
            {"method": "pagerank", "beta": 0.5, "weighted": True},
            {"alpha": 1.0},
            {"alpha": -0.1},
            {"p": float("inf")},
            {"beta": 0.5},  # beta without weighted
            {"dangling": "bounce"},
            {"tol": 0.0},
            {"tol": -1e-8},
            {"top_k": -1},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ParameterError):
            RankRequest(**kwargs).validate()

    def test_pagerank_resolves_to_p_zero(self):
        assert RankRequest(method="pagerank").resolved_p == 0.0
        assert RankRequest(method="d2pr", p=1.5).resolved_p == 1.5


class TestCanonicalQuery:
    def test_digest_ignores_seed_spelling(self):
        graph = _graph()
        nodes = graph.nodes()
        as_list = canonical_query(
            graph, RankRequest(seeds=[nodes[3], nodes[5]])
        )
        as_map = canonical_query(
            graph, RankRequest(seeds={nodes[3]: 1.0, nodes[5]: 1.0})
        )
        scaled = canonical_query(
            graph, RankRequest(seeds={nodes[3]: 4.0, nodes[5]: 4.0})
        )
        assert as_list.digest == as_map.digest == scaled.digest

    def test_digest_matches_dense_array_spelling(self):
        graph = _graph()
        n = graph.number_of_nodes
        nodes = graph.nodes()
        dense = np.zeros(n)
        dense[graph.index_of(nodes[3])] = 2.0
        dense[graph.index_of(nodes[5])] = 2.0
        as_array = canonical_query(graph, RankRequest(seeds=dense))
        as_list = canonical_query(
            graph, RankRequest(seeds=[nodes[3], nodes[5]])
        )
        assert as_array.digest == as_list.digest

    def test_duplicate_list_seeds_weight_by_occurrence(self):
        # build_teleport semantics: each occurrence adds weight 1.
        graph = _graph()
        nodes = graph.nodes()
        doubled = canonical_query(
            graph, RankRequest(seeds=[nodes[3], nodes[3], nodes[5]])
        )
        weighted = canonical_query(
            graph, RankRequest(seeds={nodes[3]: 2.0, nodes[5]: 1.0})
        )
        assert doubled.digest == weighted.digest

    def test_zero_weight_mapping_seeds_are_dropped(self):
        graph = _graph()
        nodes = graph.nodes()
        with_zero = canonical_query(
            graph, RankRequest(seeds={nodes[3]: 1.0, nodes[5]: 0.0})
        )
        without = canonical_query(graph, RankRequest(seeds={nodes[3]: 1.0}))
        assert with_zero.digest == without.digest
        assert with_zero.seed_idx.size == 1

    def test_dense_teleport_roundtrip(self):
        graph = _graph()
        nodes = graph.nodes()
        query = canonical_query(
            graph, RankRequest(seeds={nodes[3]: 3.0, nodes[5]: 1.0})
        )
        vec = query.dense_teleport()
        assert vec.shape == (graph.number_of_nodes,)
        assert abs(vec.sum() - 1.0) < 1e-12
        assert vec[graph.index_of(nodes[3])] == 0.75
        assert canonical_query(graph, RankRequest()).dense_teleport() is None

    @pytest.mark.parametrize(
        "seeds",
        [
            {"no-such-node": 1.0},
            {0: -1.0},
            {0: 0.0},
            [],
        ],
    )
    def test_bad_seed_specs_raise(self, seeds):
        graph = Graph.from_edges([(0, 1), (1, 2)])
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            canonical_query(graph, RankRequest(seeds=seeds))

    def test_digest_separates_answers(self):
        graph = _graph()
        nodes = graph.nodes()
        base = canonical_query(graph, RankRequest(p=1.0))
        assert (
            canonical_query(graph, RankRequest(p=2.0)).digest != base.digest
        )
        assert (
            canonical_query(graph, RankRequest(p=1.0, alpha=0.5)).digest
            != base.digest
        )
        assert (
            canonical_query(
                graph, RankRequest(p=1.0, seeds=[nodes[0]])
            ).digest
            != base.digest
        )
        assert (
            canonical_query(
                graph, RankRequest(p=1.0, dangling="self")
            ).digest
            != base.digest
        )

    def test_digest_ignores_tolerance_and_top_k(self):
        graph = _graph()
        loose = canonical_query(graph, RankRequest(p=1.0, tol=1e-6))
        tight = canonical_query(graph, RankRequest(p=1.0, tol=1e-12))
        sliced = canonical_query(graph, RankRequest(p=1.0, top_k=5))
        assert loose.digest == tight.digest == sliced.digest

    def test_pagerank_and_d2pr_p0_share_a_digest(self):
        graph = _graph()
        pr = canonical_query(graph, RankRequest(method="pagerank"))
        d0 = canonical_query(graph, RankRequest(method="d2pr", p=0.0))
        assert pr.digest == d0.digest

    def test_group_key_is_the_transition_identity(self):
        graph = _graph()
        query = canonical_query(
            graph, RankRequest(p=1.5, dangling="self")
        )
        assert query.group_key == ("d2pr", 1.5, 0.0, False, "self")


class TestQueryPlanner:
    def test_uniform_teleport_plans_batch(self):
        graph = _graph()
        plan = QueryPlanner().plan(
            graph, canonical_query(graph, RankRequest(p=1.0))
        )
        assert plan.strategy == "batch"
        assert "uniform" in plan.reason

    def test_sparse_seed_plans_push(self):
        graph = _graph()
        plan = QueryPlanner().plan(
            graph,
            canonical_query(
                graph, RankRequest(p=1.0, seeds=[graph.nodes()[0]])
            ),
        )
        assert plan.strategy == "push"
        assert plan.estimates["seed_support"] == 1

    def test_wide_seed_set_plans_batch(self):
        graph = _graph()
        nodes = graph.nodes()
        planner = QueryPlanner(push_max_seeds=4)
        plan = planner.plan(
            graph,
            canonical_query(graph, RankRequest(p=1.0, seeds=nodes[:20])),
        )
        assert plan.strategy == "batch"
        assert "exceeds the push window" in plan.reason

    def test_delocalised_reach_plans_batch(self):
        # Tiny graph: even one seed's estimated frontier covers it.
        graph = Graph.from_edges([("a", "b"), ("b", "c")])
        plan = QueryPlanner(push_localization=0.01).plan(
            graph, canonical_query(graph, RankRequest(seeds=["a"]))
        )
        assert plan.strategy == "batch"
        assert "de-localises" in plan.reason

    def test_cache_states_override(self):
        graph = _graph()
        query = canonical_query(graph, RankRequest(p=1.0))
        planner = QueryPlanner()
        assert planner.plan(graph, query, cache_state="hit").strategy == (
            "cached"
        )
        assert planner.plan(
            graph, query, cache_state="pending"
        ).strategy == "incremental"

    def test_explain_mentions_strategy_and_estimates(self):
        graph = _graph()
        plan = QueryPlanner().plan(
            graph,
            canonical_query(
                graph, RankRequest(p=1.0, seeds=[graph.nodes()[1]])
            ),
        )
        text = plan.explain()
        assert "strategy=push" in text
        assert "localization=" in text
        assert isinstance(plan, QueryPlan)

    def test_planner_rejects_bad_thresholds(self):
        with pytest.raises(ParameterError):
            QueryPlanner(push_max_seeds=-1)
        with pytest.raises(ParameterError):
            QueryPlanner(push_localization=1.5)
