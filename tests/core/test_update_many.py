"""Tests for the batched delta-aware entry point ``update_scores_many``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import solve_many, update_scores_many
from repro.core.engine import RankQuery
from repro.errors import FrozenGraphError, ParameterError
from repro.graph import DiGraph, Graph, GraphDelta


def _random_graph(cls, rng, n=240, m=2400, weighted=False):
    rows = rng.integers(0, n, m)
    cols = rng.integers(0, n, m)
    keep = rows != cols
    weights = rng.uniform(0.5, 3.0, keep.sum()) if weighted else None
    return cls.from_arrays(rows[keep], cols[keep], weights, num_nodes=n)


def _random_delta(graph, rng, *, deletes=3, inserts=5):
    er, ec, _ = graph.edge_arrays()
    n = graph.number_of_nodes
    sel = rng.choice(er.shape[0], deletes, replace=False)
    ins_r = rng.integers(0, n, inserts)
    ins_c = rng.integers(0, n, inserts)
    keep = ins_r != ins_c
    return GraphDelta.delete(er[sel], ec[sel]) | GraphDelta.insert(
        ins_r[keep], ins_c[keep]
    )


@pytest.mark.parametrize("cls", [Graph, DiGraph])
def test_block_matches_cold_resolve(cls, rng):
    graph = _random_graph(cls, rng)
    nodes = graph.nodes()
    queries = [
        RankQuery(p=1.0),
        RankQuery(p=1.0, teleport=[nodes[3], nodes[9]]),
        RankQuery(p=0.5, alpha=0.7),
        RankQuery(p=0.0, alpha=0.85, teleport={nodes[1]: 2.0}),
    ]
    previous = solve_many(graph, queries)
    delta = _random_delta(graph, rng)
    updated = update_scores_many(previous, delta, queries)
    cold = solve_many(graph, queries)
    for got, ref in zip(updated, cold):
        assert np.abs(got.values - ref.values).max() < 1e-8
        assert got.solver_result.method.startswith("incremental")


def test_queries_default_to_global_ranking(rng):
    graph = _random_graph(Graph, rng)
    queries = [RankQuery(), RankQuery()]
    previous = solve_many(graph, queries)
    delta = _random_delta(graph, rng)
    updated = update_scores_many(previous, delta)
    cold = solve_many(graph, queries)
    for got, ref in zip(updated, cold):
        assert np.abs(got.values - ref.values).max() < 1e-8


def test_apply_delta_false_skips_application(rng):
    graph = _random_graph(Graph, rng)
    queries = [RankQuery(p=1.0), RankQuery(p=1.0, alpha=0.6)]
    previous = solve_many(graph, queries)
    delta = _random_delta(graph, rng)
    graph.apply_delta(delta)
    before = graph.mutation_count
    updated = update_scores_many(
        previous, delta, queries, apply_delta=False
    )
    assert graph.mutation_count == before  # not applied a second time
    cold = solve_many(graph, queries)
    for got, ref in zip(updated, cold):
        assert np.abs(got.values - ref.values).max() < 1e-8


def test_shared_bundles_across_one_group(rng):
    # All queries share one transition: the pre-delta baseline capture
    # and the post-delta correction must reuse one cached bundle, which
    # shows up as exactly two d2pr operator cache entries being built.
    graph = _random_graph(Graph, rng)
    nodes = graph.nodes()
    queries = [
        RankQuery(p=1.0, teleport=[nodes[i]]) for i in range(6)
    ]
    previous = solve_many(graph, queries)
    delta = _random_delta(graph, rng)
    updated = update_scores_many(previous, delta, queries)
    cold = solve_many(graph, queries)
    for got, ref in zip(updated, cold):
        assert np.abs(got.values - ref.values).max() < 1e-8


def test_validation_errors(rng):
    graph = _random_graph(Graph, rng)
    other = _random_graph(Graph, np.random.default_rng(99))
    queries = [RankQuery(p=1.0)]
    previous = solve_many(graph, queries)
    delta = _random_delta(graph, rng)

    assert update_scores_many([], delta) == []
    with pytest.raises(ParameterError):
        update_scores_many(["junk"], delta, queries)
    with pytest.raises(ParameterError):
        update_scores_many(
            previous + solve_many(other, queries), delta, queries * 2
        )
    with pytest.raises(ParameterError):
        update_scores_many(previous, delta, queries * 2)  # misaligned


def test_frozen_graph_raises(rng):
    graph = _random_graph(Graph, rng)
    queries = [RankQuery(p=1.0)]
    previous = solve_many(graph, queries)
    delta = _random_delta(graph, rng)
    graph.freeze()
    with pytest.raises(FrozenGraphError):
        update_scores_many(previous, delta, queries)


def test_weighted_block(rng):
    graph = _random_graph(Graph, rng, weighted=True)
    queries = [
        RankQuery(p=1.0, weighted=True, beta=0.5),
        RankQuery(p=1.0, weighted=True, beta=0.5, alpha=0.7),
    ]
    previous = solve_many(graph, queries)
    er, ec, _ = graph.edge_arrays()
    delta = GraphDelta.reweight(
        er[:4], ec[:4], np.full(4, 2.5)
    )
    updated = update_scores_many(previous, delta, queries)
    cold = solve_many(graph, queries)
    for got, ref in zip(updated, cold):
        assert np.abs(got.values - ref.values).max() < 1e-8
