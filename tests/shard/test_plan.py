"""Tests for the shard partitioner and its relabeling plan."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.shard import ShardedOperator, ShardPlan, plan_shards


def _structure(graph):
    return graph.to_csr(weighted=False)


def _check_invariants(plan: ShardPlan, n: int, k: int):
    assert plan.n == n
    assert plan.n_shards == k
    # order/ranks are inverse permutations
    assert np.array_equal(np.sort(plan.order), np.arange(n))
    assert np.array_equal(plan.ranks[plan.order], np.arange(n))
    # bounds partition [0, n] and agree with assign
    assert plan.bounds[0] == 0 and plan.bounds[-1] == n
    assert (np.diff(plan.bounds) >= 0).all()
    for s in range(k):
        sl = plan.shard_slice(s)
        assert (plan.assign[plan.order[sl]] == s).all()
    assert int(plan.sizes.sum()) == n


@pytest.mark.parametrize("k", [1, 3, 8])
def test_plan_invariants(community_digraph, k):
    plan = plan_shards(_structure(community_digraph), k)
    _check_invariants(plan, community_digraph.number_of_nodes, k)
    # blocked ranges: ceil(n / k)-sized, contiguous, identity relabeling
    n = community_digraph.number_of_nodes
    size = -(-n // k)
    assert np.array_equal(plan.order, np.arange(n))
    blocks = np.minimum(np.arange(n) // size, k - 1)
    assert np.array_equal(plan.assign, blocks)


def test_more_shards_than_nodes_clamps():
    import scipy.sparse as sp

    mat = sp.csr_matrix((np.ones(3), ([0, 1, 2], [1, 2, 0])), shape=(3, 3))
    plan = plan_shards(mat, 100)
    _check_invariants(plan, 3, 3)
    assert (plan.sizes == 1).all()


def test_zero_shards_rejected(community_digraph):
    with pytest.raises(ParameterError):
        plan_shards(_structure(community_digraph), 0)


def test_non_square_structure_rejected():
    import scipy.sparse as sp

    with pytest.raises(ParameterError):
        plan_shards(sp.csr_matrix((3, 4)), 2)


def test_blocked_plan_follows_index_communities(community_digraph):
    """Blocked ranges at the community count keep most mass in-shard."""
    plan = plan_shards(_structure(community_digraph), 4)
    op = ShardedOperator(
        community_digraph.to_csr(weighted=False), plan, force=True
    )
    assert op.cross_fraction < 0.1


def test_permute_roundtrip(community_digraph):
    plan = plan_shards(_structure(community_digraph), 4)
    vec = np.random.default_rng(0).random(plan.n)
    assert np.array_equal(plan.unpermute(plan.permute(vec)), vec)


def test_shards_of_bounds(community_digraph):
    plan = plan_shards(_structure(community_digraph), 4)
    with pytest.raises(ParameterError):
        plan.shards_of(np.array([plan.n]))
    shards = plan.shards_of(np.arange(plan.n))
    assert set(shards.tolist()) == set(range(4))


def test_graph_shard_plan_cached(community_digraph):
    g = community_digraph
    p1 = g.shard_plan(4)
    p2 = g.shard_plan(4)
    assert p1 is p2
    assert g.shard_plan(2) is not p1
    # mutation drops the cached plan
    g.add_edge(0, 999999)
    assert g.shard_plan(4) is not p1
