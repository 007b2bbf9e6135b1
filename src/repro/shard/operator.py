"""Per-shard block views of a transition operator.

:class:`ShardedOperator` splits the solve operand ``A = P.T`` of one
:class:`~repro.linalg.operator.LinearOperatorBundle` along a
:class:`~repro.shard.plan.ShardPlan`: for each shard ``s`` it holds the
**diagonal block** ``A_ss`` (an ``n_s × n_s`` CSR over the shard's own
permuted rows/columns — the operand of the shard's inner relaxation
sweeps) and the **coupling block** ``A_s·`` (an ``n_s × n`` CSR holding
the same rows' off-shard columns — the operand of the boundary-mass
exchange between rounds).  The split is exact: ``A_ss + A_s·`` scattered
back is row-range ``s`` of the permuted ``A``, so block relaxation over
these views converges to the *same* fixed point as the monolithic
solvers.

Construction is one vectorised pass: ``P``'s COO triplets are relabeled
through the plan and assembled directly into the permuted ``A`` (no
monolithic transpose conversion), then each shard's rows are split by a
column mask with ``O(nnz)`` cumulative sums.  Blocks keep their
``indices``/``indptr`` in int32 where the shape allows, halving the
index bytes every relaxation sweep streams.

Shard-local push views (:meth:`ShardedOperator.push_context`) model the
rest of the graph as a single absorbing **ghost node**: the shard's
local rows of ``P`` keep their in-shard columns and route all escaping
mass to the ghost, which is dangling (handled in closed form by
:func:`~repro.linalg.push.forward_push` under ``dangling="self"``).  The
ghost's settled mass is an exact upper bound on the probability the true
walk spends outside the shard, which is what the planner's shard-local
certificate checks.

Size floor
----------
Sharding pays off only past a size where block bookkeeping is noise;
below ``size_floor`` nodes the constructor **refuses** (raises
:class:`~repro.errors.ParameterError`) unless ``force=True``.
:func:`~repro.shard.solver.sharded_solve` converts that refusal into a
transparent fallback to the monolithic power path, so tiny-graph callers
never pay shard setup.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.errors import ParameterError
from repro.linalg.operator import LinearOperatorBundle
from repro.shard.plan import ShardPlan, plan_shards

__all__ = ["DEFAULT_SIZE_FLOOR", "ShardedOperator"]

#: Below this many nodes a sharded solve cannot beat the monolithic path
#: (block setup alone exceeds a handful of full sweeps); the constructor
#: refuses unless forced and the solver falls back transparently.
DEFAULT_SIZE_FLOOR = 4096


def _split_rows(
    mat: sparse.csr_matrix, lo: int, hi: int
) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """Split permuted rows ``lo:hi`` into (diagonal, coupling) blocks.

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
    """Block decomposition of one transition operator along a shard plan.

    Parameters
    ----------
    operator:
        The monolithic :class:`~repro.linalg.operator.LinearOperatorBundle`
        (or a transition matrix, which resolves to its memoised bundle).
    plan:
        A :class:`~repro.shard.plan.ShardPlan` over the same node set;
        built on demand from ``n_shards`` when omitted.
    n_shards:
        Shard count used when ``plan`` is ``None``.
    size_floor:
        Minimum node count; smaller operands are refused unless
        ``force=True`` (see module docstring).
    force:
        Build regardless of ``size_floor`` (tests, explicit callers).
    """

    def __init__(
        self,
        operator: "LinearOperatorBundle | sparse.spmatrix",
        plan: ShardPlan | None = None,
        *,
        n_shards: int = 8,
        size_floor: int = DEFAULT_SIZE_FLOOR,
        force: bool = False,
    ) -> None:
        bundle = LinearOperatorBundle.of(operator)
        n = bundle.n
        if n < size_floor and not force:
            raise ParameterError(
                f"graph has {n} nodes, below the sharding size floor of "
                f"{size_floor}; solve monolithically (or pass force=True / "
                "a smaller size_floor)"
            )
        if plan is None:
            plan = plan_shards(bundle.mat, n_shards)
        if plan.n != n:
            raise ParameterError(
                f"shard plan covers {plan.n} nodes but the operator has {n}"
            )
        self.bundle = bundle
        self.plan = plan

        # Assemble the permuted A = P.T directly from P's COO triplets:
        # edge u→v of P contributes A[rank(v), rank(u)], so one relabeled
        # coo→csr assembly replaces both the transpose conversion and the
        # (row, column) permutation.
        coo = bundle.mat.tocoo()
        a_rows = plan.ranks[coo.col]
        a_cols = plan.ranks[coo.row]
        permuted = sparse.csr_matrix(
            (coo.data, (a_rows, a_cols)), shape=(n, n)
        )
        self.intra: list[sparse.csr_matrix] = []
        self.ext: list[sparse.csr_matrix] = []
        for s in range(plan.n_shards):
            lo, hi = int(plan.bounds[s]), int(plan.bounds[s + 1])
            intra, ext = _split_rows(permuted, lo, hi)
            self.intra.append(intra)
            self.ext.append(ext)

        # Permuted dangling bookkeeping: global mask plus each shard's
        # *local* dangling offsets (into its own slice).
        pmask = bundle.dangle_mask[plan.order]
        pmask.setflags(write=False)
        self.dangle_mask_p = pmask
        self.dangle_idx_p = np.flatnonzero(pmask)
        self.local_dangle: list[np.ndarray] = [
            np.flatnonzero(
                pmask[int(plan.bounds[s]) : int(plan.bounds[s + 1])]
            )
            for s in range(plan.n_shards)
        ]
        self.dangle_shard_p = (
            np.searchsorted(plan.bounds, self.dangle_idx_p, side="right") - 1
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

        For shard ``s`` the entry is ``(js, vs, qs)``: the permuted
        column support of the coupling block ``A_s·``, its column sums,
        and each support column's source shard.  The cross-shard mass
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
        full_row_sum = 1.0 - self.bundle.dangle_mask[
            self.plan.order[lo : lo + ns]
        ].astype(np.float64)
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
