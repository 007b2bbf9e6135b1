"""Node-to-shard partitioning into contiguous index blocks.

A :class:`ShardPlan` is the contract every sharded component shares: an
assignment of nodes to shards plus a **node relabeling** under which each
shard's rows are contiguous.  The relabeling is what makes the sharded
operator cheap — a shard's diagonal block is a plain row-range slice of
the permuted matrix and its iterate a plain slice of the permuted vector,
with no index indirection in the inner loop.

Partitioning is **blocked**: ``ceil(n / k)``-sized contiguous index
ranges, the last one short.  It costs nothing to compute and is exactly
right when the node numbering already encodes locality — the workload
generators and most real ingests emit community-clustered ids.  Under a
blocked plan the relabeling is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.errors import ParameterError

__all__ = ["ShardPlan", "plan_shards"]


@dataclass(frozen=True)
class ShardPlan:
    """Immutable node→shard assignment with a contiguity relabeling.

    Attributes
    ----------
    assign:
        ``(n,)`` int32, ``assign[v]`` = shard of original node ``v``.
    order:
        ``(n,)`` int64 permutation, ``order[i]`` = original node at
        permuted position ``i``.  Positions are grouped by shard and keep
        ascending original order inside each shard (a stable relabeling,
        so plans are deterministic and diffable).
    ranks:
        Inverse permutation: ``ranks[v]`` = permuted position of original
        node ``v``.
    bounds:
        ``(n_shards + 1,)`` int64; shard ``s`` owns permuted rows
        ``bounds[s]:bounds[s + 1]``.
    """

    assign: np.ndarray
    order: np.ndarray
    ranks: np.ndarray
    bounds: np.ndarray

    @property
    def n(self) -> int:
        return int(self.assign.shape[0])

    @property
    def n_shards(self) -> int:
        return int(self.bounds.shape[0] - 1)

    @property
    def sizes(self) -> np.ndarray:
        """Nodes per shard (``(n_shards,)`` int64)."""
        return np.diff(self.bounds)

    def shard_slice(self, shard: int) -> slice:
        """Permuted row range of ``shard``."""
        if not 0 <= shard < self.n_shards:
            raise ParameterError(
                f"shard {shard} out of range for n_shards={self.n_shards}"
            )
        return slice(int(self.bounds[shard]), int(self.bounds[shard + 1]))

    def shards_of(self, nodes: np.ndarray) -> np.ndarray:
        """Distinct shards touched by the given original node indices."""
        idx = np.asarray(nodes, dtype=np.int64).ravel()
        if idx.size and ((idx < 0).any() or (idx >= self.n).any()):
            raise ParameterError(
                f"node index out of range for n={self.n}"
            )
        return np.unique(self.assign[idx])

    def permute(self, vec: np.ndarray) -> np.ndarray:
        """Reindex a node-aligned vector into permuted (shard-grouped) order."""
        return vec[self.order]

    def unpermute(self, vec: np.ndarray) -> np.ndarray:
        """Reindex a permuted vector back to original node order."""
        return vec[self.ranks]


def plan_shards(structure: sparse.spmatrix, n_shards: int) -> ShardPlan:
    """Partition the nodes of a (square) sparse structure into blocks.

    ``n_shards`` is clamped to ``[1, n]`` — asking for more shards than
    nodes yields one node per shard, never an empty request.  Only the
    shape of ``structure`` is read, so any of a graph's cached matrices
    (adjacency, transition) produces the same plan.
    """
    if n_shards < 1:
        raise ParameterError(f"n_shards must be >= 1, got {n_shards}")
    n, n_cols = structure.shape
    if n != n_cols:
        raise ParameterError(
            f"structure must be square, got {structure.shape}"
        )
    if n == 0:
        raise ParameterError("cannot shard an empty structure")
    k = min(int(n_shards), n)
    size = -(-n // k)
    labels = np.minimum(np.arange(n, dtype=np.int64) // size, k - 1).astype(
        np.int32
    )
    # Blocked labels are already shard-major, so the relabeling is the
    # identity permutation (``order`` and ``ranks`` share one array).
    order = np.arange(n, dtype=np.int64)
    ranks = order
    bounds = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(labels, minlength=k), out=bounds[1:])
    for arr in (labels, order, bounds):
        arr.setflags(write=False)
    return ShardPlan(
        assign=labels, order=order, ranks=ranks, bounds=bounds
    )
