"""Block-partitioned sharding of the solver core.

The monolithic solvers stream one CSR; this package blocks the graph
into contiguous node ranges (:mod:`repro.shard.plan`), splits the solve
operand into per-shard diagonal and coupling blocks
(:mod:`repro.shard.operator`), and converges the same fixed point by
serial block Gauss–Seidel rounds with an aggregation/disaggregation
coarse correction (:mod:`repro.shard.solver`).
:func:`repro.shard.solver.sharded_solve` is the solver entry point;
the serving layer's ``sharded`` strategy is its only library caller.
"""

from repro.shard.operator import DEFAULT_SIZE_FLOOR, ShardedOperator
from repro.shard.plan import ShardPlan, plan_shards
from repro.shard.solver import sharded_solve

__all__ = [
    "DEFAULT_SIZE_FLOOR",
    "ShardPlan",
    "ShardedOperator",
    "plan_shards",
    "sharded_solve",
]
