"""Tests for the blocked shard partitioner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.shard import ShardedOperator, ShardPlan, plan_shards


def _check_invariants(plan: ShardPlan, n: int, k: int):
    assert plan.n == n
    assert plan.n_shards == k
    # bounds partition [0, n] into contiguous ranges
    assert plan.bounds[0] == 0 and plan.bounds[-1] == n
    assert (np.diff(plan.bounds) >= 0).all()
    assert int(plan.sizes.sum()) == n


@pytest.mark.parametrize("k", [1, 3, 8])
def test_plan_invariants(community_digraph, k):
    n = community_digraph.number_of_nodes
    plan = plan_shards(n, k)
    _check_invariants(plan, n, k)
    # blocked ranges: ceil(n / k)-sized and contiguous
    size = -(-n // k)
    blocks = np.minimum(np.arange(n) // size, k - 1)
    for s in range(k):
        lo, hi = int(plan.bounds[s]), int(plan.bounds[s + 1])
        assert (blocks[lo:hi] == s).all()


def test_short_last_block_leaves_trailing_shards_empty():
    plan = plan_shards(5, 4)
    assert plan.bounds.tolist() == [0, 2, 4, 5, 5]
    assert plan.sizes.tolist() == [2, 2, 1, 0]


def test_more_shards_than_nodes_clamps():
    plan = plan_shards(3, 100)
    _check_invariants(plan, 3, 3)
    assert (plan.sizes == 1).all()


def test_zero_shards_rejected(community_digraph):
    with pytest.raises(ParameterError):
        plan_shards(community_digraph.number_of_nodes, 0)


def test_empty_node_set_rejected():
    with pytest.raises(ParameterError):
        plan_shards(0, 2)


def test_non_square_structure_rejected():
    import scipy.sparse as sp

    with pytest.raises(ParameterError):
        ShardedOperator(sp.csr_matrix((3, 4)), n_shards=2)


def test_blocked_plan_follows_index_communities(community_digraph):
    """Blocked ranges at the community count keep most mass in-shard."""
    op = ShardedOperator(community_digraph.to_csr(weighted=False), n_shards=4)
    assert op.cross_fraction < 0.1
