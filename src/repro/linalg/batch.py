"""Batched power iteration: many PageRank-style systems in one pass.

The paper's evaluation protocol — the ``p`` sweep, the α and β grids,
per-seed personalised queries — is *many* stationary solves over one graph.
Systems that share a transition matrix differ only in their teleport vector
(and possibly α), so instead of K independent matvec loops the whole family
can be advanced together as one ``n × K`` dense score block:

.. math::

    X \\leftarrow \\operatorname{diag-free}\\;
        \\alpha_k (P^T X)_{:,k} + (1 - \\alpha_k) t_k

One CSR·dense multiply per sweep replaces K CSR·vector multiplies.  Because
sparse matvec is memory-bound, the batched multiply touches every stored
nonzero once per sweep *for all columns at once*, which is where the
speedup comes from (the ``analytics-sweep`` workload of ``perfbench/``
spends most of its time here).  Columns of *different* transitions over
one adjacency ``M`` — a D2PR ``p`` grid, ``P_k = diag(r_k)·M·diag(c_k)``
— share the multiply too: ``scales=(r, c)`` sweeps
``c_k ⊙ (Mᵀ(r_k ⊙ x))`` per column.

Every sweep runs in float64.  With ``reversible=False`` (the default)
semantics match :func:`repro.linalg.solvers.power_iteration` column by
column (the test-suite pins agreement to 1e-12 across all dangling
strategies).  On a reversible transition — a fact callers take from
:meth:`~repro.methods.base.CentralityMethod.reversible` — the block
loop runs as a Chebyshev semi-iteration (Golub & Varga 1961) on the
real spectrum ``[−α, α]``: a column still certifies and returns the
power step, so ``converged``, ``iterations`` and the L1 certificate
keep their meaning (``residuals`` lists the evaluated sweeps only), but
answers agree with ``power_iteration`` within ``α/(1−α)·tol`` rather
than to round-off.  Either way:

* **per-column convergence masking** — a column whose L1 residual drops
  below ``tol`` is copied out and stops counting sweeps; its lane leaves
  the block at the next compaction, so late stragglers don't force
  converged systems to keep iterating;
* **shared dangling handling** — the dangling-row mask and target are
  computed once for the whole batch; with ``dangling="teleport"`` each
  column redistributes its dangling mass through its *own* teleport vector,
  exactly like the sequential solver;
* **warm starting** — ``warm_start`` seeds the initial block (an ``(n,)``
  guess broadcast to all columns, or a full ``(n, K)`` block, e.g. the
  scores of the previous point of a smooth parameter grid).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from repro.errors import ParameterError
from repro.linalg.operator import LinearOperatorBundle
from repro.linalg.solvers import (
    DANGLING_STRATEGIES,
    PageRankResult,
    _check_budget,
    _unit_mass,
)
from repro.telemetry.trace import record_solver

__all__ = ["BatchResult", "power_iteration_batch"]


@dataclass(frozen=True)
class BatchResult:
    """Outcome of a batched stationary-distribution computation.

    Attributes
    ----------
    scores:
        ``(n, K)`` matrix; column ``k`` is the stationary vector of system
        ``k`` (each column sums to 1).
    iterations:
        ``(K,)`` sweeps performed per column (a converged column stops
        counting at its convergence sweep).
    converged:
        ``(K,)`` boolean convergence flags.
    residuals:
        Per-column L1 residual history (list of K lists), one entry per
        *evaluated* sweep: every sweep of plain power and of the
        α-family path, but on the Chebyshev path only the sweeps whose
        residual could matter (see :func:`_pooled_loop`).  The last
        entry is always the final sweep's.
    method:
        Name of the solver that produced the result.
    """

    scores: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    residuals: list[list[float]] = field(default_factory=list)
    method: str = "power_iteration_batch"

    @property
    def n_queries(self) -> int:
        """Number of systems in the batch (K)."""
        return self.scores.shape[1]

    @property
    def all_converged(self) -> bool:
        """Whether every column reached tolerance."""
        return bool(self.converged.all())

    @property
    def final_residuals(self) -> np.ndarray:
        """Last recorded residual per column (0.0 when none recorded)."""
        return np.array(
            [hist[-1] if hist else 0.0 for hist in self.residuals]
        )

    def column(self, k: int) -> PageRankResult:
        """View column ``k`` as a standalone :class:`PageRankResult`."""
        if not 0 <= k < self.n_queries:
            raise ParameterError(
                f"column index {k} out of range for batch of "
                f"{self.n_queries} queries"
            )
        return PageRankResult(
            scores=self.scores[:, k].copy(),
            iterations=int(self.iterations[k]),
            converged=bool(self.converged[k]),
            residuals=list(self.residuals[k]),
            method=self.method,
        )


def _teleport_block(
    teleports: np.ndarray | Sequence[np.ndarray | None] | None,
    n: int,
    n_queries: int | None,
) -> np.ndarray:
    """Build the normalised ``(n, K)`` teleport block."""
    if teleports is None:
        k = 1 if n_queries is None else n_queries
        return np.full((n, k), 1.0 / n)
    if isinstance(teleports, np.ndarray):
        arr = np.asarray(teleports, dtype=np.float64)
        if arr.ndim == 1:
            col = _unit_mass(arr, n, "teleport column")
            k = 1 if n_queries is None else n_queries
            return np.repeat(col[:, None], k, axis=1)
        if arr.ndim != 2 or arr.shape[0] != n:
            raise ParameterError(
                f"teleports must have shape ({n}, K), got {arr.shape}"
            )
        block = np.empty_like(arr)
        for k in range(arr.shape[1]):
            block[:, k] = _unit_mass(arr[:, k], n, f"teleport column {k}")
        return block
    # Sequence of per-column specs; each entry may be None (uniform).
    cols = list(teleports)
    if not cols:
        raise ParameterError("teleports sequence must be non-empty")
    block = np.full((n, len(cols)), 1.0 / n)
    for k, spec in enumerate(cols):
        if spec is not None:
            block[:, k] = _unit_mass(spec, n, f"teleport column {k}")
    return block


def _alpha_vector(alphas: float | Sequence[float] | np.ndarray, k: int) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(alphas, dtype=np.float64))
    if arr.ndim != 1:
        raise ParameterError(f"alphas must be scalar or 1-D, got shape {arr.shape}")
    if arr.shape[0] == 1:
        arr = np.repeat(arr, k)
    if arr.shape[0] != k:
        raise ParameterError(
            f"alphas length {arr.shape[0]} does not match batch width {k}"
        )
    bad = ~((arr >= 0.0) & (arr < 1.0))
    if bad.any():
        first = int(np.flatnonzero(bad)[0])
        raise ParameterError(
            f"alpha must be in [0, 1), got {arr[first]} (column {first})"
        )
    return arr


def _initial_block(
    warm_start: np.ndarray | None,
    teleport_block: np.ndarray,
) -> np.ndarray | None:
    """The validated ``(n, K)`` warm start; ``None`` for a cold start."""
    n, k = teleport_block.shape
    if warm_start is None:
        return None
    try:
        arr = np.asarray(warm_start, dtype=np.float64)
    except (TypeError, ValueError):
        raise ParameterError(
            f"warm_start must be None or an array, got {warm_start!r}"
        ) from None
    if arr.ndim == 1:
        col = _unit_mass(arr, n, "warm_start")
        return np.repeat(col[:, None], k, axis=1)
    if arr.shape != (n, k):
        raise ParameterError(
            f"warm_start must have shape ({n},) or ({n}, {k}), "
            f"got {arr.shape}"
        )
    block = np.empty_like(arr)
    for j in range(k):
        block[:, j] = _unit_mass(arr[:, j], n, f"warm_start column {j}")
    return block


def _scale_block(
    arr, n: int, k: int, what: str, *, positive: bool
) -> np.ndarray:
    """Validate scale factors: an ``(n, K)`` block or a shared ``(n,)``.

    Two reductions, no temporaries: the minimum catches a negative (or,
    for column scales, zero) entry and NaN, the maximum an infinite one.
    """
    block = np.asarray(arr, dtype=np.float64)
    if block.shape not in ((n,), (n, k)):
        raise ParameterError(
            f"{what} scales must have shape ({n},) or ({n}, {k}), "
            f"got {block.shape}"
        )
    low = block.min()
    in_range = low > 0.0 if positive else low >= 0.0
    if not (in_range and np.isfinite(block.max())):
        sign = "positive" if positive else "non-negative"
        raise ParameterError(f"{what} scales must be finite and {sign}")
    return block


def _columns(block: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``block[:, idx]`` as a C-contiguous array (``idx`` may be a mask).

    ``take`` along axis 1 returns C order, which scipy's sparse·dense
    kernel and the row-wise passes need, at a fraction of the cost of
    copying a fancy-indexed (Fortran-ordered) slice.
    """
    if idx.dtype == bool:
        idx = np.flatnonzero(idx)
    return block.take(idx, axis=1)


#: Column-chunk width for the dense block.  Keeps the sweep loop's hot
#: working set a few score-blocks wide and sits at the measured
#: throughput sweet spot of scipy's sparse·dense kernel from 100k to 1M
#: nodes (wider blocks lose to TLB pressure on the randomly-indexed dense
#: rows, narrower ones amortise the matrix stream less).  Note that the
#: batch's inputs/outputs (teleport block, score matrix) are still full
#: ``(n, K)`` arrays — chunking bounds the per-sweep working set, not the
#: per-call allocation; split very large query sets across calls.
_CHUNK = 16

#: Columns a pool admits past ``_CHUNK`` rather than leave them pending:
#: a left-over column would start once the pool thins and then sweep
#: almost alone, at single-column rate (the 17-point p grid's last
#: point).  One multiply at width 17 costs about as much as 16 + 1.
_OVERHANG = _CHUNK // 8

#: How far (in powers of two) a Chebyshev lane's iterate may drift
#: from its true scale before the loop folds the factor back in.
_FACTOR_OCTAVES = 64

#: A teleport block whose nonzero rows (over all columns) are at most
#: this share of ``n`` is added on those rows only.
_SPARSE_SHARE = 0.25


def _pooled_loop(
    mat_t: sparse.spmatrix,
    dangle_idx: np.ndarray,
    dangling: str,
    teleport_block: np.ndarray,
    alphas: np.ndarray,
    x0: np.ndarray | None,
    tol: float,
    max_iter: int,
    chebyshev: bool = False,
    scales: tuple[np.ndarray, np.ndarray | None] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[list[float]]]:
    """Advance every column of the batch to ``tol`` with a pooled scheduler.

    At most ``_CHUNK`` columns (``_CHUNK + _OVERHANG`` when that is all
    of them) iterate at a time, as one contiguous dense block: one
    sparse·dense multiply plus a few in-place passes per sweep.  A
    column *finishes* when its L1 residual drops below ``tol`` or when
    it exhausts its ``max_iter`` budget; its answer is copied out then,
    and its lane keeps sweeping (without touching the column's
    ``iterations``, ``residuals`` or ``converged``) until the pool is
    rebuilt: once a quarter of the lanes have finished, or when the
    live lanes thin to half of ``_CHUNK`` while columns are pending
    (the **refill**), so the multiply keeps running at an efficient
    width even when convergence times are spread out.  Lanes are
    gathered with ``take``, which returns C order directly.

    With ``scales = (r, c)`` (each ``(n,)``, shared by every column, or
    ``(n, K)``; ``c`` may be ``None`` for unit column scales) column
    ``k`` solves on ``P_k = diag(r_k)·M·diag(c_k)``, where ``mat_t`` is
    ``Mᵀ``, so a whole parameter grid over one adjacency streams ``M``
    once per sweep.  A shared ``c`` (one key: a cohort) is absorbed by
    iterating on ``z = x / c``: the step is ``z' = Mᵀ(α·r·c ⊙ z)`` plus
    the teleport and dangling terms over ``c``, and when the input scale
    ``α·r·c`` is shared too it is folded into a copy of ``Mᵀ``, so the
    multiply is the sweep's only pass over the input.  Per-column ``c``
    (a p grid) is one scale pass after the multiply.  The teleport term
    is added on the union of the block's teleport rows when that is at
    most ``_SPARSE_SHARE`` of ``n`` (seeded columns), as one broadcast
    row when every column is uniform (in ``x``), and as a dense pass
    otherwise.  Column sums are one BLAS ``c @ block``.

    Pool composition never affects a column's values.  With plain power
    every sweep is normalised and evaluated, and results agree with
    ``power_iteration`` to round-off (pinned at 1e-12 by the
    equivalence suite).

    With ``chebyshev`` (reversible transitions only: the spectrum of
    ``α·Pᵀ`` is real and lies in ``[−α, α]``) the residual and the
    returned iterate are those of the normalised power step
    ``y = G(x_k)``, but the next iterate is the Chebyshev semi-iterate
    ``x_{k+1} = max(ω_k·(y − x_{k−1}) + x_{k−1}, 0)`` with
    ``ω_1 = 1``, ``ω_2 = 2/(2−α²)``, ``ω_{k+1} = 1/(1 − α²ω_k/4)``
    per column, contracting at ``ρ = α/(1+√(1−α²))`` instead of ``α``
    per sweep.  The clip keeps every iterate non-negative; it moves each
    entry toward the non-negative fixed point, so it never increases
    any component's error, but it adds mass, so ``y`` is still
    normalised every sweep.  Each iterate is kept as ``g·z`` with a
    per-column factor ``g``: the normalisation and ``ω`` ride on ``g``
    instead of a scale pass, so the update is three passes.  The
    residual ``res`` is evaluated only when it can matter: after one,
    the next ``⌊log(res/tol)/log(1/ρ)⌋ − 1`` sweeps skip the residual
    passes, and a column's ``max_iter``-th sweep is always evaluated; a
    block sweep is evaluated when any live column is due, and then
    every live column records its residual.
    """
    n, k = teleport_block.shape
    scores = np.empty((n, k))
    iterations = np.zeros(k, dtype=np.int64)
    converged = np.zeros(k, dtype=bool)
    residuals: list[list[float]] = [[] for _ in range(k)]
    has_dangling = dangle_idx.size > 0

    # Full-width sources the pool gathers its lanes from: (K,) rows and
    # (n, K) blocks, or None.
    row, col = (None, None) if scales is None else scales
    out_full = None  # per-column c, applied after the multiply
    if col is not None and col.ndim == 2 and col.shape[1] > 1:
        out_full, col = col, None
    # The shared c of z = x / c (1 when unscaled or per-column).
    c = np.ones(n) if col is None else col.reshape(n)
    # α·r·c, the multiply's input scale; α alone when unscaled.
    alpha = alphas[0] if (alphas == alphas[0]).all() else alphas
    w_full = alpha
    if row is not None:
        w_full = (row if row.ndim == 2 else row[:, None]) * c[:, None] * alpha
    if np.ndim(w_full) == 0 or w_full.shape == (n, 1):
        # One scale for every column (one key, one α): fold it into
        # the columns of a copy of Mᵀ.
        per_entry = w_full if np.ndim(w_full) == 0 else np.repeat(
            w_full[:, 0], np.diff(mat_t.indptr)
        )
        mat_t = sparse.csc_matrix(
            (mat_t.data * per_entry, mat_t.indices, mat_t.indptr),
            shape=mat_t.shape,
        )
        w_full = None
    c_dangle = c[dangle_idx]
    # The teleport term t/c, on its row support when that is small
    # (teleports are non-negative: a row's maximum is 0 off the support).
    support = np.flatnonzero(teleport_block.max(axis=1))
    tele_rows = None
    if support.size <= _SPARSE_SHARE * n:
        tele_rows = support
        tele_full = teleport_block[support] / c[support, None]
    elif col is None and (teleport_block == teleport_block[0]).all():
        tele_full = teleport_block[0]  # one value per column: a row
    else:
        tele_full = teleport_block / c[:, None]
    # z = x / c, cold-started from the teleports.
    z_full = (teleport_block if x0 is None else x0) / c[:, None]
    # Chebyshev's a-priori rate per column; α = 0 gives ρ = 0.
    rho = alphas / (1.0 + np.sqrt(1.0 - alphas * alphas))

    def pick(src, idx):
        if np.ndim(src) == 0 or idx.size == src.shape[-1]:
            return src  # None or shared, or every column in order
        return src.take(idx, axis=-1)

    def gather(idx):
        return (
            alphas[idx],
            rho[idx],
            pick(w_full, idx),
            pick(tele_full, idx),
            pick(out_full, idx),
        )

    def lanes(block, keep, new):
        kept = _columns(block, keep)
        if not new.size:
            return kept
        return np.concatenate([kept, _columns(z_full, new)], axis=1)

    width = k if k <= _CHUNK + _OVERHANG else _CHUNK
    next_fill = width
    cols = np.arange(width)
    z = z_full if width == k else z_full[:, :width].copy()
    al, rh, w, tele, co = gather(cols)
    live = np.ones(width, dtype=bool)
    it = np.zeros(width, dtype=np.int64)  # sweeps per lane's column
    due = np.ones(width, dtype=np.int64)  # sweep of the next evaluation
    g = np.ones(width)  # the iterate is g·z, per lane
    buf = np.empty_like(z)
    if chebyshev:
        # x_{k−1} = gp·zp (zeroed: unread on a column's first sweep,
        # where ω = 1) and per column ω (0 before the first sweep).
        zp = np.zeros_like(z)
        gp = np.ones(width)
        om = np.zeros(width)

    while cols.size:
        it += live
        evaluate = not chebyshev or bool(
            (live & ((it >= due) | (it >= max_iter))).any()
        )
        # y is the power step of x_k = g·z, over c and g.
        if w is None:
            y = mat_t @ z
        else:
            np.multiply(z, w, out=buf)
            y = mat_t @ buf
        if co is not None:
            y *= co
        coef = (1.0 - al) / g  # the teleport's weight in the step
        if has_dangling:
            zd = z[dangle_idx]
            if dangling == "self":
                y[dangle_idx] += al * zd
            else:
                mass = c_dangle @ zd  # Σ of x/g over the dangling rows
                if dangling == "teleport":
                    # (1−α)·t + α·m·t = (1 − α + α·m)·t
                    coef += al * mass
                elif col is None:  # "uniform"
                    y += al * mass / n
                else:
                    y += np.multiply.outer(1.0 / (n * c), al * mass)
        if tele_rows is not None:
            y[tele_rows] += tele * coef
        elif tele.ndim == 1:
            y += tele * coef
        else:
            np.multiply(tele, coef, out=buf)
            y += buf
        # The normalised power step is h·y: the normalisation kills
        # round-off drift and, under Chebyshev, the mass the clip added.
        h = 1.0 / (c @ y)
        if not chebyshev:
            y *= h
            h = g  # ones: y is now the power step itself
        if evaluate:
            # res = ‖x_k − h·y‖₁, the certificate of the power step.
            if chebyshev:
                np.multiply(z, g / h, out=buf)
                buf -= y
            else:
                np.subtract(z, y, out=buf)
            np.abs(buf, out=buf)
            res = h * (c @ buf)
            for lane in np.flatnonzero(live):
                residuals[cols[lane]].append(float(res[lane]))
            done = live & ((res < tol) | (it >= max_iter))
            if done.any():
                finished = cols[done]
                iterations[finished] = it[done]
                converged[finished] = res[done] < tol
                # A finished column returns the power step it certified.
                out = _columns(y, done)
                out *= h[done]
                out *= c[:, None]
                scores[:, finished] = out
                live &= ~done
            if chebyshev:
                with np.errstate(divide="ignore", invalid="ignore"):
                    gap = np.log(res / tol) / -np.log(rh)
                skip = np.fmax(1.0, np.floor(gap)).astype(np.int64)
                due = np.where(live, it + skip, due)
        if chebyshev:
            # ω: 0 → 1 → 2/(2−α²) → 1/(1 − α²ω/4); only ω_1 equals 1.
            om = 1.0 / (1.0 - al * al * om * np.where(om == 1.0, 0.5, 0.25))
            # x_{k+1} = max(ω·h·y + (1−ω)·x_{k−1}, 0)
            #         = ω·h · max(y + (1−ω)·gp/(ω·h) · zp, 0),
            # written into x_{k−1}'s buffer: three passes, and the
            # factor ω·h rides along instead of a scale pass.
            zp *= (1.0 - om) * gp / (om * h)
            zp += y
            np.maximum(zp, 0.0, out=zp)
            z, zp, g, gp = zp, z, om * h, g
            # Each sweep shrinks z by about ω; fold g back in before
            # small entries could underflow.
            if (np.abs(np.log2(g)) > _FACTOR_OCTAVES).any():
                z *= g
                g = np.ones(g.size)
        else:
            # The previous iterate's buffer becomes the next scratch.
            z, buf = y, z
        if not evaluate:
            continue
        n_live = int(live.sum())
        refill = next_fill < k and n_live <= _CHUNK // 2
        if refill or 4 * (cols.size - n_live) >= cols.size:
            # Rebuild the pool: the live lanes in place order, then the
            # refilled columns (a short tail joins rather than waits).
            keep = np.flatnonzero(live)
            new = np.arange(0)
            if refill:
                take = k - next_fill
                if take > _CHUNK - n_live + _OVERHANG:
                    take = _CHUNK - n_live
                new = np.arange(next_fill, next_fill + take)
                next_fill += take
            cols = np.concatenate([cols[keep], new])
            z = lanes(z, keep, new)
            al, rh, w, tele, co = gather(cols)
            fresh = np.ones(new.size)
            live = np.ones(cols.size, dtype=bool)
            it = np.concatenate([it[keep], np.zeros(new.size, np.int64)])
            due = np.concatenate([due[keep], np.ones(new.size, np.int64)])
            g = np.concatenate([g[keep], fresh])
            buf = np.empty_like(z)
            if chebyshev:
                zp = lanes(zp, keep, new)
                gp = np.concatenate([gp[keep], fresh])
                om = np.concatenate([om[keep], np.zeros(new.size)])
    return scores, iterations, converged, residuals


def _alpha_family(
    mat_t: sparse.spmatrix,
    dangle_idx: np.ndarray,
    dangling: str,
    teleport: np.ndarray,
    alphas: np.ndarray,
    tol: float,
    max_iter: int,
    scales: tuple[np.ndarray, np.ndarray | None] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[list[float]]]:
    """Solve a whole α-family against one teleport with one matvec per sweep.

    Power iteration started from ``t`` is exactly the truncated Neumann
    series: ``x_K(α) = (1−α)·Σ_{k<K} α^k v_k + α^K v_K`` with
    ``v_k = M̂^k t`` — the same vector sequence for *every* α.  So when a
    batch's columns share their teleport vector (an α grid, the shape of
    every parameter sweep), the matrix needs to be streamed **once per
    sweep for the whole family**: advance ``v`` with a single sparse
    matvec and update every α's iterate by
    ``x_{K+1} − x_K = α^{K+1}·(v_{K+1} − v_K)``, one rank-one pass.  The
    power-iteration residual is then ``α^{K+1}·‖v_{K+1} − v_K‖₁``: one
    vector norm for the whole family.  Per-column residuals, convergence
    masking and iteration counts keep the exact power-iteration
    semantics (the iterate *is* the power-iteration iterate, so results
    match the sequential solver to round-off).  ``scales = (r, c)`` are
    the shared factors of ``P = diag(r)·M·diag(c)`` as in
    :func:`_pooled_loop`.
    """
    n = teleport.shape[0]
    k = alphas.shape[0]
    scores = np.empty((n, k))
    iterations = np.zeros(k, dtype=np.int64)
    converged = np.zeros(k, dtype=bool)
    residuals: list[list[float]] = [[] for _ in range(k)]
    has_dangling = dangle_idx.size > 0
    row, col = (None, None) if scales is None else scales
    ones = np.ones(n)

    cols = np.arange(k)
    al = alphas.copy()
    alpha_pow = np.ones(k)  # α^{sweep-1} per active column
    v = teleport.copy()  # v_{sweep-1}
    x = np.repeat(teleport[:, None], k, axis=1)  # x_0(α) = t
    buf = np.empty_like(x)

    for sweep in range(1, max_iter + 1):
        w = mat_t @ (v if row is None else row * v)
        if col is not None:
            w *= col
        if has_dangling:
            if dangling == "self":
                w[dangle_idx] += v[dangle_idx]
            else:
                mass = float(v[dangle_idx].sum())
                if dangling == "teleport":
                    w += mass * teleport
                else:  # "uniform"
                    w += mass / n
        # v is mass-preserving analytically; renormalise for round-off.
        w /= w.sum()
        np.subtract(w, v, out=v)
        alpha_pow = alpha_pow * al
        np.multiply.outer(v, alpha_pow, out=buf)
        x += buf
        res = alpha_pow * np.abs(v).sum()
        v = w
        iterations[cols] += 1
        for c, value in zip(cols, res):
            residuals[c].append(float(value))
        done = (res < tol) | (iterations[cols] >= max_iter)
        if done.any():
            finished = cols[done]
            converged[finished] = res[done] < tol
            # Every update carries zero mass; normalise once for the
            # round-off the sweeps accumulated.
            out = x[:, done]
            scores[:, finished] = out / (ones @ out)
            keep = ~done
            cols = cols[keep]
            if cols.size == 0:
                break
            x = _columns(x, keep)
            buf = np.empty_like(x)
            al = al[keep]
            alpha_pow = alpha_pow[keep]
    return scores, iterations, converged, residuals


def power_iteration_batch(
    transition: sparse.spmatrix,
    teleports: np.ndarray | Sequence[np.ndarray | None] | None = None,
    *,
    alphas: float | Sequence[float] | np.ndarray = 0.85,
    n_queries: int | None = None,
    tol: float = 1e-10,
    max_iter: int = 1000,
    dangling: str = "teleport",
    warm_start: np.ndarray | None = None,
    operator: LinearOperatorBundle | None = None,
    reversible: bool = False,
    scales: tuple[np.ndarray, np.ndarray | None] | None = None,
) -> BatchResult:
    """Solve ``r_k = α_k·P.T·r_k + (1−α_k)·t_k`` for all columns at once.

    Parameters
    ----------
    transition:
        Row-stochastic matrix ``P`` shared by every system in the batch.
    teleports:
        Teleport specification per system: ``None`` (uniform for all
        columns), an ``(n,)`` vector (broadcast), an ``(n, K)`` matrix, or
        a sequence of per-column vectors where individual entries may be
        ``None`` (uniform).  Columns are normalised independently.
    alphas:
        Residual probability, a scalar (broadcast) or one value per column.
    n_queries:
        Batch width when neither ``teleports`` nor ``alphas`` determines it
        (e.g. many uniform-teleport solves at one α).
    tol, max_iter:
        L1 convergence tolerance and iteration budget, applied per column.
    dangling:
        One of ``"teleport"`` (default), ``"uniform"``, ``"self"`` — shared
        by the whole batch; ``"teleport"`` uses each column's own vector.
    warm_start:
        ``None`` (cold start from each column's teleport vector) or an
        ``(n,)`` or ``(n, K)`` initial guess.
    operator:
        Pre-built :class:`~repro.linalg.operator.LinearOperatorBundle` of
        ``transition``; when omitted the memoised bundle of the matrix
        object is used (shared with the single-query solvers), so the
        canonical CSR is derived once per matrix, not per call.
    reversible:
        Whether ``transition`` is a reversible chain (an undirected graph
        with symmetric conductances), so that ``α·Pᵀ`` has a real
        spectrum in ``[−α, α]``.  A fact about the input, like
        ``dangling``: callers pass
        :meth:`~repro.methods.base.CentralityMethod.reversible`.  When
        true, the block loop runs as a Chebyshev
        semi-iteration: the same certificate, fewer sweeps, residuals
        recorded only on the sweeps where they can matter, and answers
        that agree with power iteration within the certificate rather
        than to round-off.  The α-family path
        ignores it.
    scales:
        ``None`` (each column solves on ``transition``) or the factors
        ``(r, c)`` of a pooled parameter grid, each an ``(n, K)`` block
        or an ``(n,)`` vector shared by every column; ``c`` may be
        ``None`` for unit column scales, and is positive.  Column ``k``
        then solves on ``diag(r_k)·M·diag(c_k)`` with
        ``M = transition`` — a non-negative matrix whose empty rows are
        the dangling nodes — so columns of different transitions over
        one adjacency share every sweep.  Callers pass the factors a
        method returns
        (:meth:`~repro.methods.base.CentralityMethod.pooled_factors`).

    Returns
    -------
    BatchResult
    """
    bundle = LinearOperatorBundle.resolve(transition, operator)
    n = bundle.n
    _check_budget(tol, max_iter)
    if dangling not in DANGLING_STRATEGIES:
        raise ParameterError(
            f"unknown dangling strategy {dangling!r}; "
            f"expected one of {DANGLING_STRATEGIES}"
        )
    if n_queries is not None and n_queries < 1:
        raise ParameterError(f"n_queries must be >= 1, got {n_queries}")

    # Infer the batch width K from whichever argument pins it: an explicit
    # n_queries, a 2-D / per-column teleports spec, or a vector of alphas.
    if teleports is not None and not isinstance(teleports, np.ndarray):
        teleports = list(teleports)
    t_width: int | None = None
    if isinstance(teleports, np.ndarray) and teleports.ndim == 2:
        t_width = teleports.shape[1]
    elif isinstance(teleports, list):
        t_width = len(teleports)
    alpha_arr = np.atleast_1d(np.asarray(alphas, dtype=np.float64))
    a_width = alpha_arr.shape[0] if alpha_arr.shape[0] > 1 else None
    k = n_queries or t_width or a_width or 1
    if t_width is not None and t_width != k:
        raise ParameterError(
            f"teleports imply batch width {t_width}, but the batch is {k} wide"
        )
    teleport_block = _teleport_block(teleports, n, k)
    alphas_vec = _alpha_vector(alphas, k)

    dangle_idx = bundle.dangle_idx
    # P.T as a free CSC view: scipy multiplies CSC·dense directly, so the
    # batch never pays a CSR transpose conversion (the per-call cost the
    # sequential solvers now amortise through the same operator bundle).
    mat_t = bundle.t_csc

    if scales is not None:
        row, col = scales
        # z = x / c needs every column scale positive.
        scales = (
            _scale_block(row, n, k, "row", positive=False),
            None if col is None
            else _scale_block(col, n, k, "column", positive=True),
        )

    def shared(block: np.ndarray | None) -> bool:
        # The first row rejects most blocks without a full pass.
        return block is None or block.ndim == 1 or bool(
            (block[0] == block[0, 0]).all() and (block == block[:, :1]).all()
        )

    def first(block: np.ndarray | None) -> np.ndarray | None:
        return block if block is None or block.ndim == 1 else block[:, 0]

    family = (
        warm_start is None
        and k >= 2
        and shared(teleport_block)
        and (scales is None or (shared(scales[0]) and shared(scales[1])))
    )
    if family:
        # Every column shares its teleport and transition (an α grid):
        # one shared power sequence reconstructs all columns at
        # single-matvec cost.
        scores, iterations, converged, residuals = _alpha_family(
            mat_t,
            dangle_idx,
            dangling,
            teleport_block[:, 0].copy(),
            alphas_vec,
            tol,
            max_iter,
            scales=None if scales is None else (
                first(scales[0]), first(scales[1])
            ),
        )
    else:
        x0 = _initial_block(warm_start, teleport_block)
        scores, iterations, converged, residuals = _pooled_loop(
            mat_t,
            dangle_idx,
            dangling,
            teleport_block,
            alphas_vec,
            x0,
            tol,
            max_iter,
            chebyshev=reversible,
            scales=scales,
        )

    method = "power_iteration_batch"
    if family:
        method += "_family"
    elif reversible:
        method += "_chebyshev"
    finals = [r[-1] for r in residuals if r]
    record_solver(
        method,
        columns=int(k),
        iterations=int(iterations.max(initial=0)),
        residual=float(max(finals)) if finals else None,
        converged=bool(converged.all()),
        converged_columns=int(converged.sum()),
    )
    return BatchResult(
        scores=scores,
        iterations=iterations,
        converged=converged,
        residuals=residuals,
        method=method,
    )
