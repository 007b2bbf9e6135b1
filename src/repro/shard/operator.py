"""Per-shard block views of a transition operator.

:class:`ShardedOperator` splits the solve operand ``A = P.T`` of one
:class:`~repro.linalg.operator.LinearOperatorBundle` along a blocked
:class:`~repro.shard.plan.ShardPlan`: for each shard ``s`` it holds the
**diagonal block** ``A_ss`` (an ``n_s × n_s`` CSR over the shard's own
rows/columns — the operand of the shard's inner relaxation sweeps) and
the **coupling block** ``A_s·`` (an ``n_s × n`` CSR holding the same
rows' off-shard columns — the operand of the boundary-mass exchange
between rounds).  The split is exact: ``A_ss + A_s·`` scattered back is
row-range ``s`` of ``A``, so block relaxation over these views
converges to the *same* fixed point as the monolithic solvers.

Construction is one transpose conversion ``P.T.tocsr()`` (not cached on
the bundle, so deltas never re-patch it), then each shard's rows are
split by a column mask with ``O(nnz)`` cumulative sums.  Blocks keep
their ``indices``/``indptr`` in int32 where the shape allows, halving
the index bytes every relaxation sweep streams.

Shard-local push views (:meth:`ShardedOperator.push_context`) model the
rest of the graph as a single absorbing **ghost node**: the shard's
local rows of ``P`` keep their in-shard columns and route all escaping
mass to the ghost, which is dangling (handled in closed form by
:func:`~repro.linalg.push.forward_push` under ``dangling="self"``).  The
ghost's settled mass is an exact upper bound on the probability the true
walk spends outside the shard, which is what the planner's shard-local
certificate checks.

The constructor builds at any size.  Whether sharding pays off is the
caller's decision: :func:`~repro.shard.solver.sharded_solve` falls back
to the monolithic power path below ``DEFAULT_SIZE_FLOOR`` nodes when it
builds its own operator, and the service's ``shard_size_floor`` keeps
small graphs unsharded.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.linalg.operator import LinearOperatorBundle
from repro.shard.plan import plan_shards

__all__ = ["DEFAULT_SIZE_FLOOR", "ShardedOperator"]

#: Below this many nodes a sharded solve cannot beat the monolithic path
#: (block setup alone exceeds a handful of full sweeps); the callers that
#: decide whether to shard stay monolithic below it.
DEFAULT_SIZE_FLOOR = 4096


def _split_rows(
    mat: sparse.csr_matrix, lo: int, hi: int
) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """Split rows ``lo:hi`` into (diagonal, coupling) blocks.

    One pass over the row range's nnz: a column mask plus two cumulative
    sums rebuild both CSR index structures without scipy's generic (and
    far slower) fancy-indexing machinery.
    """
    n = mat.shape[1]
    ns = hi - lo
    start, end = int(mat.indptr[lo]), int(mat.indptr[hi])
    idx = mat.indices[start:end]
    dat = mat.data[start:end]
    local_indptr = (mat.indptr[lo : hi + 1] - start).astype(np.int64)
    inside = (idx >= lo) & (idx < hi)
    running = np.concatenate(([0], np.cumsum(inside)))
    intra_indptr = running[local_indptr]

    def idx_dtype(maxval: int) -> type:
        # int32 indices halve the index-stream bytes of every sweep; the
        # dtype must be shared by indices and indptr or scipy upcasts.
        return np.int32 if maxval <= np.iinfo(np.int32).max else np.int64

    dt = idx_dtype(max(ns, end - start))
    intra = sparse.csr_matrix(
        (
            dat[inside],
            (idx[inside] - lo).astype(dt),
            intra_indptr.astype(dt),
        ),
        shape=(ns, ns),
    )
    outside = ~inside
    dt = idx_dtype(max(n, end - start))
    ext = sparse.csr_matrix(
        (
            dat[outside],
            idx[outside].astype(dt),
            (local_indptr - intra_indptr).astype(dt),
        ),
        shape=(ns, n),
    )
    return intra, ext


class ShardedOperator:
    """Block decomposition of one transition operator into blocked shards.

    Parameters
    ----------
    operator:
        The monolithic :class:`~repro.linalg.operator.LinearOperatorBundle`
        (or a transition matrix, which resolves to its memoised bundle).
    n_shards:
        Shard count of the blocked :class:`~repro.shard.plan.ShardPlan`
        (clamped to the node count).
    """

    def __init__(
        self,
        operator: "LinearOperatorBundle | sparse.spmatrix",
        *,
        n_shards: int = 8,
    ) -> None:
        bundle = LinearOperatorBundle.of(operator)
        plan = plan_shards(bundle.n, n_shards)
        self.bundle = bundle
        self.plan = plan

        a = bundle.mat.T.tocsr()
        self.intra: list[sparse.csr_matrix] = []
        self.ext: list[sparse.csr_matrix] = []
        for s in range(plan.n_shards):
            lo, hi = int(plan.bounds[s]), int(plan.bounds[s + 1])
            intra, ext = _split_rows(a, lo, hi)
            self.intra.append(intra)
            self.ext.append(ext)

        # Each shard's *local* dangling offsets (into its own slice), and
        # the shard of every global dangling row.
        mask = bundle.dangle_mask
        self.local_dangle: list[np.ndarray] = [
            np.flatnonzero(
                mask[int(plan.bounds[s]) : int(plan.bounds[s + 1])]
            )
            for s in range(plan.n_shards)
        ]
        self.dangle_shard = (
            np.searchsorted(plan.bounds, bundle.dangle_idx, side="right") - 1
        )
        self._coarse_ctx: list[tuple] | None = None
        self._push_ctx: dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # shape / diagnostics
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.bundle.n

    @property
    def n_shards(self) -> int:
        return self.plan.n_shards

    @property
    def cross_fraction(self) -> float:
        """Fraction of stored entries in coupling (off-diagonal) blocks."""
        total = self.bundle.mat.nnz
        if total == 0:
            return 0.0
        cross = sum(block.nnz for block in self.ext)
        return float(cross / total)

    @property
    def coarse_ctx(self) -> list[tuple]:
        """Static boundary-flow functionals of the aggregation step.

        For shard ``s`` the entry is ``(js, vs, qs)``: the column
        support of the coupling block ``A_s·``, its column sums, and
        each support column's source shard.  The cross-shard mass
        flow ``C[s, q] = 1ᵀ A_sq x_q`` of *any* iterate then reduces to
        ``Σ_{j∈q} vs[j]·x[j]`` — a precomputed linear functional, so one
        aggregation round touches only ``O(nnz(coupling))`` entries
        instead of re-streaming the blocks.
        """
        if self._coarse_ctx is None:
            ctx = []
            for s in range(self.plan.n_shards):
                colsum = np.asarray(self.ext[s].sum(axis=0)).ravel()
                js = np.flatnonzero(colsum)
                vs = colsum[js]
                qs = (
                    np.searchsorted(self.plan.bounds, js, side="right") - 1
                )
                ctx.append((js, vs, qs))
            self._coarse_ctx = ctx
        return self._coarse_ctx

    # ------------------------------------------------------------------
    # shard-local push views
    # ------------------------------------------------------------------
    def push_context(self, shard: int) -> tuple[LinearOperatorBundle, int]:
        """Return ``(local bundle, ghost index)`` for shard-local push.

        The local system has ``n_s + 1`` nodes: the shard's own rows of
        ``P`` restricted to in-shard columns, plus one trailing **ghost**
        column absorbing each row's escaping (off-shard) mass.  The ghost
        row is empty — a dangling node — so under ``dangling="self"`` the
        push solver settles everything that would leave the shard into
        the ghost's score in closed form; that settled mass bounds the
        true solution's out-of-shard probability from above.
        """
        ctx = self._push_ctx.get(shard)
        if ctx is not None:
            return ctx
        lo = int(self.plan.bounds[shard])
        ns = self.intra[shard].shape[0]
        # Local P_ss = (A_ss).T; the CSC transpose view converts once.
        local_p = self.intra[shard].T.tocsr()
        # Row sums of the full P rows tell leak = full − in-shard mass;
        # rows that were dangling globally stay dangling locally.
        full_row_sum = 1.0 - self.bundle.dangle_mask[lo : lo + ns].astype(
            np.float64
        )
        leak = full_row_sum - np.asarray(local_p.sum(axis=1)).ravel()
        np.clip(leak, 0.0, None, out=leak)
        leak[leak < 1e-15] = 0.0  # round-off dust is not real escape
        ghost_rows = np.flatnonzero(leak)
        ghost_col = sparse.csr_matrix(
            (
                leak[ghost_rows],
                (ghost_rows, np.full(ghost_rows.shape[0], ns)),
            ),
            shape=(ns, ns + 1),
        )
        body = sparse.hstack(
            [local_p, sparse.csr_matrix((ns, 1))], format="csr"
        )
        body = (body + ghost_col).tocsr()
        full = sparse.vstack(
            [body, sparse.csr_matrix((1, ns + 1))], format="csr"
        )
        ctx = (LinearOperatorBundle(full), ns)
        self._push_ctx[shard] = ctx
        return ctx

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ShardedOperator n={self.n} shards={self.n_shards} "
            f"cross={self.cross_fraction:.3f}>"
        )
