"""Tests for the block-partitioned operator views."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.core.d2pr import d2pr_operator
from repro.errors import ReproError
from repro.methods import sharded_operator_for
from repro.shard import DEFAULT_SIZE_FLOOR, ShardedOperator


def _sharded(graph, k=4):
    bundle = d2pr_operator(graph, 0.0)
    return ShardedOperator(bundle, n_shards=k)


def test_split_is_exact(community_digraph):
    """intra + ext scattered back equals the solve operand A = P.T."""
    op = _sharded(community_digraph)
    plan = op.plan
    a = op.bundle.t_csr
    rebuilt = sparse.vstack(
        [
            op.ext[s]
            + sparse.hstack(
                [
                    sparse.csr_matrix(
                        (op.intra[s].shape[0], int(plan.bounds[s]))
                    ),
                    op.intra[s],
                    sparse.csr_matrix(
                        (
                            op.intra[s].shape[0],
                            plan.n - int(plan.bounds[s + 1]),
                        )
                    ),
                ],
                format="csr",
            )
            for s in range(op.n_shards)
        ],
        format="csr",
    )
    assert abs(a - rebuilt).sum() < 1e-12


@pytest.mark.parametrize("fixture", ["community_digraph", "dangling_digraph"])
def test_blocks_are_the_row_split_of_the_transpose(fixture, request):
    """Each shard's blocks are rows lo:hi of P.T.tocsr(), bit for bit."""
    graph = request.getfixturevalue(fixture)
    op = _sharded(graph, k=3)
    a = op.bundle.mat.T.tocsr()
    for s in range(op.n_shards):
        lo, hi = int(op.plan.bounds[s]), int(op.plan.bounds[s + 1])
        rows = a[lo:hi].tocoo()
        inside = (rows.col >= lo) & (rows.col < hi)
        for block, keep, shift in (
            (op.intra[s], inside, lo),
            (op.ext[s], ~inside, 0),
        ):
            coo = block.tocoo()
            assert np.array_equal(coo.row, rows.row[keep])
            assert np.array_equal(coo.col, rows.col[keep] - shift)
            assert np.array_equal(coo.data, rows.data[keep])


def test_ext_has_no_inshard_columns(community_digraph):
    op = _sharded(community_digraph)
    plan = op.plan
    for s in range(op.n_shards):
        lo, hi = int(plan.bounds[s]), int(plan.bounds[s + 1])
        ext = op.ext[s].tocoo()
        assert not ((ext.col >= lo) & (ext.col < hi)).any()


def test_dangling_bookkeeping(dangling_digraph):
    op = _sharded(dangling_digraph, k=3)
    plan = op.plan
    dangle = op.bundle.dangle_mask
    # per-shard local offsets index the global mask
    for s in range(op.n_shards):
        lo = int(plan.bounds[s])
        assert dangle[lo + op.local_dangle[s]].all()
    assert sum(ld.size for ld in op.local_dangle) == int(dangle.sum())
    for shard, node in zip(op.dangle_shard, op.bundle.dangle_idx):
        assert plan.bounds[shard] <= node < plan.bounds[shard + 1]


def test_coarse_ctx_matches_dense(community_digraph):
    """Coupling column sums reproduce the dense cross-flow matrix."""
    op = _sharded(community_digraph)
    plan = op.plan
    k = op.n_shards
    rng = np.random.default_rng(5)
    x = rng.random(plan.n)
    dense = np.zeros((k, k))
    for s in range(k):
        # independent dense route: total mass arriving in shard s from
        # each source shard q is the coupling block restricted to q's
        # columns applied to the iterate
        for q in range(k):
            lo, hi = int(plan.bounds[q]), int(plan.bounds[q + 1])
            dense[s, q] = float(
                (op.ext[s][:, lo:hi] @ x[lo:hi]).sum()
            )
        assert np.isclose(
            dense[s].sum(), float(np.asarray(op.ext[s] @ x).sum())
        )
    fast = np.zeros((k, k))
    for s, (js, vs, qs) in enumerate(op.coarse_ctx):
        np.add.at(fast[s], qs, vs * x[js])
    assert np.allclose(fast, dense)


def test_builds_below_size_floor(path_graph):
    """The floor is the caller's decision; the constructor always builds."""
    assert DEFAULT_SIZE_FLOOR > path_graph.number_of_nodes
    op = ShardedOperator(d2pr_operator(path_graph, 0.0), n_shards=2)
    assert op.n_shards == 2


def test_push_context_ghost_absorbs_leak(community_digraph):
    op = _sharded(community_digraph)
    local, ghost = op.push_context(1)
    ns = op.intra[1].shape[0]
    assert ghost == ns
    mat = local.mat
    assert mat.shape == (ns + 1, ns + 1)
    row_sums = np.asarray(mat.sum(axis=1)).ravel()
    # every non-ghost local row is stochastic (leak routed to ghost);
    # the ghost row is empty (dangling)
    assert np.allclose(row_sums[:ns], 1.0)
    assert row_sums[ns] == 0.0


def _key(p, dangling="teleport"):
    return ("d2pr", float(p), 0.0, False, dangling)


def test_cached_sharded_operator(community_digraph):
    g = community_digraph
    a = sharded_operator_for(g, _key(0.0), n_shards=4)
    b = sharded_operator_for(g, _key(0.0), n_shards=4)
    assert a is b
    assert sharded_operator_for(g, _key(0.5), n_shards=4) is not a
    # the dangling strategy is per solve: one sharded operator serves all
    assert sharded_operator_for(g, _key(0.0, "uniform"), n_shards=4) is a
    assert a.bundle is d2pr_operator(g, 0.0)


def test_fatigued_sharded_operator_from_base_class(community_digraph):
    g = community_digraph
    key = ("fatigued", 0.0, 0.5, 0.0, False, "teleport")
    sharded = sharded_operator_for(g, key, n_shards=4)
    assert sharded is sharded_operator_for(g, key, n_shards=4)
    assert ("sharded_operator", *key[:-1], None, 4) in g._cache


def test_sharded_operator_caches_no_plan(community_digraph):
    """The operator owns its plan; the graph cache holds no plan key."""
    g = community_digraph
    sharded_operator_for(g, _key(0.0), n_shards=4)
    assert not [key for key in g._cache if key[0] == "shard_plan"]


def test_spectral_methods_refuse_sharding(community_digraph):
    with pytest.raises(ReproError):
        sharded_operator_for(community_digraph, ("katz", False))
