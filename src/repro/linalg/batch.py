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
spends most of its time here).

Semantics match :func:`repro.linalg.solvers.power_iteration` column by
column (the test-suite pins agreement to 1e-12 across all dangling
strategies):

* **per-column convergence masking** — a column whose L1 residual drops
  below ``tol`` freezes and leaves the active block, so late stragglers
  don't force converged systems to keep iterating;
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

from repro.errors import ConvergenceError, ParameterError
from repro.linalg.operator import LinearOperatorBundle
from repro.linalg.solvers import (
    DANGLING_STRATEGIES,
    PageRankResult,
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
        Per-column L1 residual history (list of K lists).
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


def _normalize_column(vec: np.ndarray, n: int, what: str) -> np.ndarray:
    vec = np.asarray(vec, dtype=np.float64)
    if vec.shape != (n,):
        raise ParameterError(
            f"{what} must have shape ({n},), got {vec.shape}"
        )
    if (vec < 0).any():
        raise ParameterError(f"{what} entries must be non-negative")
    total = vec.sum()
    if total <= 0.0:
        raise ParameterError(f"{what} must have positive mass")
    return vec / total


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
            col = _normalize_column(arr, n, "teleport column")
            k = 1 if n_queries is None else n_queries
            return np.repeat(col[:, None], k, axis=1)
        if arr.ndim != 2 or arr.shape[0] != n:
            raise ParameterError(
                f"teleports must have shape ({n}, K), got {arr.shape}"
            )
        block = np.empty_like(arr)
        for k in range(arr.shape[1]):
            block[:, k] = _normalize_column(
                arr[:, k], n, f"teleport column {k}"
            )
        return block
    # Sequence of per-column specs; each entry may be None (uniform).
    cols = list(teleports)
    if not cols:
        raise ParameterError("teleports sequence must be non-empty")
    block = np.empty((n, len(cols)))
    uniform = np.full(n, 1.0 / n)
    for k, spec in enumerate(cols):
        if spec is None:
            block[:, k] = uniform
        else:
            block[:, k] = _normalize_column(
                np.asarray(spec), n, f"teleport column {k}"
            )
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
) -> np.ndarray:
    n, k = teleport_block.shape
    if warm_start is None:
        return teleport_block.copy()
    try:
        arr = np.asarray(warm_start, dtype=np.float64)
    except (TypeError, ValueError):
        raise ParameterError(
            f"warm_start must be None or an array, got {warm_start!r}"
        ) from None
    if arr.ndim == 1:
        col = _normalize_column(arr, n, "warm_start")
        return np.repeat(col[:, None], k, axis=1)
    if arr.shape != (n, k):
        raise ParameterError(
            f"warm_start must have shape ({n},) or ({n}, {k}), "
            f"got {arr.shape}"
        )
    block = np.empty_like(arr)
    for j in range(k):
        block[:, j] = _normalize_column(arr[:, j], n, f"warm_start column {j}")
    return block


#: Column-chunk width for the dense block.  Keeps the sweep loop's hot
#: working set a few score-blocks wide and sits at the measured
#: throughput sweet spot of scipy's sparse·dense kernel from 100k to 1M
#: nodes (wider blocks lose to TLB pressure on the randomly-indexed dense
#: rows, narrower ones amortise the matrix stream less).  Note that the
#: batch's inputs/outputs (teleport block, score matrix) are still full
#: ``(n, K)`` arrays — chunking bounds the per-sweep working set, not the
#: per-call allocation; split very large query sets across calls.
_CHUNK = 16

#: L1 residual at which the mixed-precision path hands a column from the
#: float32 phase to the float64 polish.  Above the float32 rounding floor
#: of the L1 residual with margin, so columns don't bounce on float32
#: noise just short of the switch; the stall guard in
#: :func:`_pooled_loop` promotes a column early if its float32 residual
#: bottoms out sooner anyway.
_MIXED_SWITCH_TOL = 1e-6


def _pooled_loop(
    mat_t: sparse.spmatrix,
    dangle_idx: np.ndarray,
    dangling: str,
    x_full: np.ndarray,
    ta_full: np.ndarray,
    tb_full: np.ndarray,
    al_full: np.ndarray,
    tol: float,
    max_iter: int,
    residuals: list[list[float]],
    iterations: np.ndarray,
    scores: np.ndarray,
    converged: np.ndarray | None,
    stall_factor: float | None = None,
    chunk_size: int = _CHUNK,
) -> None:
    """Advance every column of the batch to ``tol`` with a pooled scheduler.

    At most ``chunk_size`` columns iterate at a time (one contiguous dense
    block: one sparse·dense multiply plus a few in-place passes per
    sweep).  A column leaves the pool when its L1 residual drops below
    ``tol`` — or, when ``stall_factor`` is set (the float32 phase), when
    its residual stops improving by that factor (the float32 rounding
    floor) — or when it exhausts its ``max_iter`` budget.  Finished
    columns are compacted out and **pending columns are refilled in**
    once the pool thins below half width, so the sparse·dense multiply
    keeps running at an efficient block width even when per-column
    convergence times are spread out (the tail would otherwise iterate at
    near-matvec rates).

    The per-column arithmetic matches ``power_iteration`` operation for
    operation — pool composition never affects a column's values — so
    full-precision results agree with the sequential solver to round-off
    (pinned at 1e-12 by the equivalence suite).  ``iterations``
    accumulates sweeps per column across calls (phases).
    """
    n, k = x_full.shape
    if k == 0:
        return
    has_dangling = dangle_idx.size > 0
    dtype = x_full.dtype

    next_fill = min(k, chunk_size)
    cols = np.arange(next_fill)
    xa = np.ascontiguousarray(x_full[:, :next_fill])
    ta = np.ascontiguousarray(ta_full[:, :next_fill])
    tb = np.ascontiguousarray(tb_full[:, :next_fill])
    al = al_full[:next_fill].copy()
    prev_res = np.full(cols.shape[0], np.inf)

    while cols.size:
        spread = mat_t @ xa
        if has_dangling:
            if dangling == "self":
                spread[dangle_idx] += xa[dangle_idx]
            else:
                mass = (
                    xa[dangle_idx]
                    .sum(axis=0, dtype=np.float64)
                    .astype(dtype, copy=False)
                )
                if dangling == "teleport":
                    spread += ta * mass
                else:  # "uniform"
                    spread += (mass / n).astype(dtype, copy=False)
        spread *= al
        spread += tb
        # Normalise each column to kill accumulated round-off drift.  All
        # reductions accumulate in float64 even during the float32 phase:
        # a float32 sum over 10^6 entries drifts at ~1e-4 relative, which
        # would inject a scale error along the teleport direction that the
        # float64 polish then burns α-rate sweeps to remove.
        spread /= spread.sum(axis=0, dtype=np.float64).astype(
            dtype, copy=False
        )
        # Residual pass reuses the previous iterate's buffer in place.
        np.subtract(xa, spread, out=xa)
        np.abs(xa, out=xa)
        res = xa.sum(axis=0, dtype=np.float64)
        iterations[cols] += 1
        for col, value in zip(cols, res):
            residuals[col].append(float(value))
        xa = spread
        done = res < tol
        if stall_factor is not None:
            done |= res > prev_res * stall_factor  # hit the fp32 floor
        done |= iterations[cols] >= max_iter  # budget exhausted
        refill = (
            next_fill < k
            and (cols.size - int(done.sum())) <= chunk_size // 2
        )
        if done.any() or refill:
            if done.any():
                finished = cols[done]
                if converged is not None:
                    converged[finished] = res[done] < tol
                scores[:, finished] = xa[:, done]
                keep = ~done
                cols = cols[keep]
                # Boolean fancy indexing along axis 1 compacts into fresh
                # contiguous arrays.
                xa = xa[:, keep]
                ta = ta[:, keep]
                tb = tb[:, keep]
                al = al[keep]
                res = res[keep]
            if refill:
                take = min(chunk_size - cols.size, k - next_fill)
                new = np.arange(next_fill, next_fill + take)
                next_fill += take
                cols = np.concatenate([cols, new])
                xa = np.concatenate([xa, x_full[:, new]], axis=1)
                ta = np.concatenate([ta, ta_full[:, new]], axis=1)
                tb = np.concatenate([tb, tb_full[:, new]], axis=1)
                al = np.concatenate([al, al_full[new]])
                res = np.concatenate(
                    [res, np.full(take, np.inf, dtype=res.dtype)]
                )
        prev_res = res


def _alpha_family(
    mat_t: sparse.spmatrix,
    dangle_idx: np.ndarray,
    dangling: str,
    teleport: np.ndarray,
    alphas: np.ndarray,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[list[float]]]:
    """Solve a whole α-family against one teleport with one matvec per sweep.

    Power iteration started from ``t`` is exactly the truncated Neumann
    series: ``x_K(α) = (1−α)·Σ_{k<K} α^k v_k + α^K v_K`` with
    ``v_k = M̂^k t`` — the same vector sequence for *every* α.  So when a
    batch's columns share their teleport vector (an α grid, the shape of
    every parameter sweep), the matrix needs to be streamed **once per
    sweep for the whole family**: advance ``v`` with a single sparse
    matvec and reconstruct each α's iterate with a few vector passes.
    Per-column residuals, convergence masking and iteration counts keep
    the exact power-iteration semantics (the reconstruction *is* the
    power-iteration iterate, so results match the sequential solver to
    round-off).
    """
    n = teleport.shape[0]
    k = alphas.shape[0]
    scores = np.empty((n, k))
    iterations = np.zeros(k, dtype=np.int64)
    converged = np.zeros(k, dtype=bool)
    residuals: list[list[float]] = [[] for _ in range(k)]
    has_dangling = dangle_idx.size > 0

    cols = np.arange(k)
    al = alphas.copy()
    alpha_pow = np.ones(k)  # α^{sweep-1} per active column
    v = teleport.copy()  # v_{sweep-1}
    series = np.zeros((n, k))  # Σ_{j<sweep-1} α^j v_j per active column
    x_prev = np.repeat(teleport[:, None], k, axis=1)  # x_0(α) = t

    for sweep in range(1, max_iter + 1):
        w = mat_t @ v
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
        series += v[:, None] * alpha_pow
        alpha_pow = alpha_pow * al
        v = w
        x_new = (1.0 - al) * series + v[:, None] * alpha_pow
        x_new /= x_new.sum(axis=0)
        res = np.abs(x_new - x_prev).sum(axis=0)
        iterations[cols] += 1
        for col, value in zip(cols, res):
            residuals[col].append(float(value))
        x_prev = x_new
        done = (res < tol) | (iterations[cols] >= max_iter)
        if done.any():
            finished = cols[done]
            converged[finished] = res[done] < tol
            scores[:, finished] = x_new[:, done]
            keep = ~done
            cols = cols[keep]
            if cols.size == 0:
                break
            series = series[:, keep]
            x_prev = x_prev[:, keep]
            al = al[keep]
            alpha_pow = alpha_pow[keep]
    return scores, iterations, converged, residuals


def _iterate_block(
    mat_t: sparse.spmatrix,
    mat_t32: sparse.spmatrix | None,
    dangle_idx: np.ndarray,
    dangling: str,
    teleport_block: np.ndarray,
    alphas: np.ndarray,
    x0: np.ndarray,
    tol: float,
    max_iter: int,
    chunk_size: int = _CHUNK,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[list[float]]]:
    """Solve the whole batch via the pooled scheduler (one or two phases).

    When ``mat_t32`` is given (``precision="mixed"``) the batch first
    iterates in float32 — halving both the matrix stream and the dense
    block traffic — until each column reaches the float32 switch
    tolerance (or its rounding floor), then finishes with standard
    float64 sweeps against the full-precision matrix until the true L1
    residual drops below ``tol``.  Convergence is therefore always
    certified in float64 at the requested tolerance; the shared
    ``max_iter`` budget spans both phases.
    """
    n, k = teleport_block.shape
    scores = np.empty((n, k))
    iterations = np.zeros(k, dtype=np.int64)
    converged = np.zeros(k, dtype=bool)
    residuals: list[list[float]] = [[] for _ in range(k)]

    ta_full = np.ascontiguousarray(teleport_block)
    al_full = alphas.copy()
    # (1 − α)·t is constant across sweeps: precompute it once per batch.
    tb_full = ta_full * (1.0 - al_full)
    x_full = np.ascontiguousarray(x0)

    if mat_t32 is not None and tol < _MIXED_SWITCH_TOL:
        # The float32 phase writes its final iterates into `f32_scores`;
        # every column then re-enters the float64 loop from that iterate.
        f32_scores = np.empty((n, k), dtype=np.float32)
        _pooled_loop(
            mat_t32, dangle_idx, dangling,
            x_full.astype(np.float32),
            ta_full.astype(np.float32),
            tb_full.astype(np.float32),
            al_full.astype(np.float32),
            _MIXED_SWITCH_TOL, max_iter, residuals, iterations,
            f32_scores, None, stall_factor=0.95, chunk_size=chunk_size,
        )
        x_full = np.ascontiguousarray(f32_scores.astype(np.float64))
        # Column sums drifted at float32 scale: renormalise before the
        # float64 polish (power_iteration renormalises every sweep anyway).
        x_full /= x_full.sum(axis=0)

    _pooled_loop(
        mat_t, dangle_idx, dangling,
        x_full, ta_full, tb_full, al_full,
        tol, max_iter, residuals, iterations,
        scores, converged, chunk_size=chunk_size,
    )
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
    precision: str = "double",
    raise_on_failure: bool = False,
    operator: LinearOperatorBundle | None = None,
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
    precision:
        ``"double"`` (default) iterates entirely in float64 and matches
        :func:`~repro.linalg.solvers.power_iteration` column-by-column to
        1e-12.  ``"mixed"`` runs the bulk of the sweeps in float32 —
        halving the matrix stream and the dense-block traffic — then
        polishes each column with float64 sweeps against the
        full-precision matrix until the true L1 residual is below
        ``tol``; results stay within tolerance-level distance of the
        double-precision answer, at lower latency and higher peak memory
        (``docs/performance.md`` § Mechanism verdicts).
    raise_on_failure:
        Raise :class:`ConvergenceError` if any column fails to converge.
    operator:
        Pre-built :class:`~repro.linalg.operator.LinearOperatorBundle` of
        ``transition``; when omitted the memoised bundle of the matrix
        object is used (shared with the single-query solvers), so the
        canonical CSR — and the float32 copy in mixed mode — is derived
        once per matrix, not per call.

    Returns
    -------
    BatchResult
    """
    bundle = LinearOperatorBundle.resolve(transition, operator)
    mat = bundle.mat
    n = bundle.n
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

    if precision not in ("double", "mixed"):
        raise ParameterError(
            f"precision must be 'double' or 'mixed', got {precision!r}"
        )
    dangle_idx = bundle.dangle_idx
    # P.T as a free CSC view: scipy multiplies CSC·dense directly, so the
    # batch never pays a CSR transpose conversion (the per-call cost the
    # sequential solvers now amortise through the same operator bundle).
    mat_t = bundle.t_csc

    family = (
        warm_start is None
        and k >= 2
        and bool((teleport_block == teleport_block[:, :1]).all())
    )
    # The float32 matrix copy only pays for the block path with a tight
    # enough tolerance; the family path is single-matvec-dominated and a
    # loose tolerance converges before the float32 phase would hand off,
    # so both run in float64 throughout (and are labelled accordingly).
    use_mixed = (
        precision == "mixed" and not family and tol < _MIXED_SWITCH_TOL
    )
    mat_t32 = bundle.mat_f32.T if use_mixed else None
    if family:
        # Every column shares its teleport (an α grid): one shared power
        # sequence reconstructs all columns at single-matvec cost.
        scores, iterations, converged, residuals = _alpha_family(
            mat_t,
            dangle_idx,
            dangling,
            np.ascontiguousarray(teleport_block[:, 0]),
            alphas_vec,
            tol,
            max_iter,
        )
    else:
        x0 = _initial_block(warm_start, teleport_block)
        scores, iterations, converged, residuals = _iterate_block(
            mat_t,
            mat_t32,
            dangle_idx,
            dangling,
            teleport_block,
            alphas_vec,
            x0,
            tol,
            max_iter,
        )

    if raise_on_failure and not converged.all():
        failed = np.flatnonzero(~converged)
        worst = max(residuals[int(j)][-1] for j in failed)
        raise ConvergenceError(
            f"{failed.size} of {k} batched systems did not reach tol={tol} "
            f"within {max_iter} iterations (worst residual={worst:.3e})",
            iterations=int(iterations.max()),
            residual=float(worst),
        )
    method = "power_iteration_batch"
    if family:
        method += "_family"
    elif use_mixed:
        method += "_mixed"
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
