"""Node-to-shard partitioning into contiguous index blocks.

A :class:`ShardPlan` is the contract every sharded component shares:
shard ``s`` owns the node indices ``bounds[s]:bounds[s + 1]``.  Because
shards are index ranges, a shard's diagonal block is a plain row-range
slice of the solve operand and its iterate a plain slice of the score
vector, with no index indirection in the inner loop.

Partitioning is **blocked**: ``ceil(n / k)``-sized contiguous index
ranges, the last one short.  It costs nothing to compute and is exactly
right when the node numbering already encodes locality — the workload
generators and most real ingests emit community-clustered ids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError

__all__ = ["ShardPlan", "plan_shards"]


@dataclass(frozen=True)
class ShardPlan:
    """Immutable split of ``n`` nodes into contiguous index ranges.

    Attributes
    ----------
    bounds:
        ``(n_shards + 1,)`` int64; shard ``s`` owns node indices
        ``bounds[s]:bounds[s + 1]``.
    """

    bounds: np.ndarray

    @property
    def n(self) -> int:
        return int(self.bounds[-1])

    @property
    def n_shards(self) -> int:
        return int(self.bounds.shape[0] - 1)

    @property
    def sizes(self) -> np.ndarray:
        """Nodes per shard (``(n_shards,)`` int64)."""
        return np.diff(self.bounds)


def plan_shards(n: int, n_shards: int) -> ShardPlan:
    """Partition ``n`` nodes into ``n_shards`` blocked index ranges.

    ``n_shards`` is clamped to ``[1, n]`` — asking for more shards than
    nodes yields one node per shard, never an empty request.
    """
    if n_shards < 1:
        raise ParameterError(f"n_shards must be >= 1, got {n_shards}")
    if n < 1:
        raise ParameterError("cannot shard an empty node set")
    k = min(int(n_shards), int(n))
    size = -(-int(n) // k)
    # Shard s owns [s·size, (s+1)·size) clipped to n; with a short last
    # block the trailing shards may be empty.
    bounds = np.minimum(np.arange(k + 1, dtype=np.int64) * size, int(n))
    bounds.setflags(write=False)
    return ShardPlan(bounds=bounds)
