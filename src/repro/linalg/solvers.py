"""Stationary-distribution solvers for PageRank-style systems.

All solvers compute the fixed point of

.. math::

    \\vec r = \\alpha T \\vec r + (1 - \\alpha) \\vec t

where ``T`` is column-stochastic.  Internally the library stores the
row-stochastic transpose ``P`` (``T = P.T``), so the iteration multiplies by
``P.T``.

Three interchangeable solvers are provided; they agree on the fixed point
(cross-checked by the test-suite and ``bench_ablation_solvers``):

* :func:`power_iteration` — the production path: O(nnz) per sweep, handles
  dangling nodes without densifying, tracks residual history.
* :func:`gauss_seidel` — in-place sweeps on the linear system
  ``(I − αT) r = (1−α) t``; each sweep is Python-loop bound, so it is kept
  as an independent verification path for small graphs.
* :func:`direct_solve` — sparse LU on the same linear system; exact up to
  round-off, cubic-ish memory growth, small graphs only.

Dangling nodes
--------------
Rows of ``P`` with no out-edges would leak probability mass.  The standard
fix (and our default, ``dangling="teleport"``) redistributes the dangling
mass through the teleportation vector every step.  ``dangling="uniform"``
spreads it evenly over all nodes and ``dangling="self"`` keeps the surfer in
place; both alternatives exist for the ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from repro.errors import ConvergenceError, ParameterError
from repro.linalg.operator import (
    DANGLING_STRATEGIES,
    LinearOperatorBundle,
    patch_dangling,
)

__all__ = [
    "PageRankResult",
    "power_iteration",
    "extrapolated_power_iteration",
    "gauss_seidel",
    "direct_solve",
    "patch_dangling",
    "validate_stochastic_rows",
    "DANGLING_STRATEGIES",
]


@dataclass(frozen=True)
class PageRankResult:
    """Outcome of a stationary-distribution computation.

    Attributes
    ----------
    scores:
        The stationary probability vector (sums to 1).
    iterations:
        Number of sweeps performed (0 for the direct solver).
    converged:
        Whether the residual dropped below tolerance.
    residuals:
        L1 residual after each sweep (empty for the direct solver).
    method:
        Name of the solver that produced the result.
    """

    scores: np.ndarray
    iterations: int
    converged: bool
    residuals: list[float] = field(default_factory=list)
    method: str = "power_iteration"

    @property
    def final_residual(self) -> float:
        """Last recorded residual, or 0.0 when none were recorded."""
        return self.residuals[-1] if self.residuals else 0.0

    def ranking(self) -> np.ndarray:
        """Node indices sorted by decreasing score (ties by index)."""
        # numpy's stable mergesort keeps index order within equal scores.
        return np.argsort(-self.scores, kind="stable")


def _validate_common(
    transition: sparse.spmatrix | None,
    alpha: float,
    teleport: np.ndarray | None,
    operator: LinearOperatorBundle | None = None,
) -> tuple[LinearOperatorBundle, np.ndarray]:
    """Resolve the cached operator bundle and the normalised teleport.

    ``operator`` short-circuits matrix canonicalisation entirely; otherwise
    the bundle is looked up on (or attached to) ``transition`` via
    :meth:`LinearOperatorBundle.of`, so repeated solves against the same
    matrix object — what the graph matrix cache hands out — share one
    bundle and never re-derive transpose/dangling views.
    """
    bundle = LinearOperatorBundle.resolve(transition, operator)
    n = bundle.n
    if not 0.0 <= alpha < 1.0:
        raise ParameterError(f"alpha must be in [0, 1), got {alpha}")
    if teleport is None:
        t = np.full(n, 1.0 / n)
    else:
        t = np.asarray(teleport, dtype=np.float64)
        if t.shape != (n,):
            raise ParameterError(
                f"teleport must have shape ({n},), got {t.shape}"
            )
        if (t < 0).any():
            raise ParameterError("teleport entries must be non-negative")
        total = t.sum()
        if total <= 0.0:
            raise ParameterError("teleport vector must have positive mass")
        t = t / total
    return bundle, t


def _normalise_x0(x0: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Validate and unit-normalise a warm-start iterate (shared by solvers)."""
    x = np.asarray(x0, dtype=np.float64)
    if x.shape != t.shape:
        raise ParameterError(f"x0 must have shape {t.shape}, got {x.shape}")
    total = x.sum()
    if not total > 0.0 or (x < 0).any():
        raise ParameterError(
            "x0 must be a non-negative vector with positive mass"
        )
    return x / total


def validate_stochastic_rows(
    transition: sparse.spmatrix, *, atol: float = 1e-9
) -> None:
    """Raise :class:`ParameterError` unless each row sums to 1 or 0.

    Rows summing to 0 are dangling nodes, which the solvers handle; any
    other row sum means the caller built a broken transition matrix.
    """
    mat = sparse.csr_matrix(transition)
    sums = np.asarray(mat.sum(axis=1)).ravel()
    bad = ~(np.isclose(sums, 1.0, atol=atol) | np.isclose(sums, 0.0, atol=atol))
    if bad.any():
        first = int(np.flatnonzero(bad)[0])
        raise ParameterError(
            f"row {first} of transition sums to {sums[first]!r}; "
            "expected 1.0 (stochastic) or 0.0 (dangling)"
        )


def power_iteration(
    transition: sparse.spmatrix | None,
    *,
    alpha: float = 0.85,
    teleport: np.ndarray | None = None,
    tol: float = 1e-10,
    max_iter: int = 1000,
    dangling: str = "teleport",
    raise_on_failure: bool = False,
    operator: LinearOperatorBundle | None = None,
    x0: np.ndarray | None = None,
) -> PageRankResult:
    """Solve ``r = α·P.T·r + (1−α)·t`` by power iteration.

    Parameters
    ----------
    transition:
        Row-stochastic matrix ``P`` (``P[i, j]`` = probability i→j).
    alpha:
        Residual probability (the paper's α; ``1 − α`` is the teleportation
        probability).
    teleport:
        Teleportation distribution ``t``; defaults to uniform.  Normalised
        automatically.
    tol:
        L1 convergence tolerance between successive iterates.
    max_iter:
        Iteration budget.
    dangling:
        One of ``"teleport"`` (default), ``"uniform"``, ``"self"``.
    raise_on_failure:
        When ``True``, raise :class:`ConvergenceError` instead of returning
        a result flagged ``converged=False``.
    operator:
        Pre-built :class:`~repro.linalg.operator.LinearOperatorBundle` of
        ``transition``; when omitted the memoised bundle of the matrix
        object is used, so repeated calls against a cached matrix never
        re-derive the ``P.T`` CSR conversion or the dangling mask.  The
        memoisation assumes ``transition`` is never mutated *in place*
        between calls (the contract of every cached matrix in this
        library); build a fresh matrix instead of editing ``.data``.
    x0:
        Optional warm-start iterate (normalised automatically); defaults
        to the teleport vector.  A warm-started solve converges to the
        same fixed point but stops at the first iterate within ``tol``.

    Returns
    -------
    PageRankResult
    """
    bundle, t = _validate_common(transition, alpha, teleport, operator)
    dangle_mask = bundle.dangle_mask
    has_dangling = bundle.has_dangling
    dangle_target = bundle.dangling_target(dangling, t)

    mat_t = bundle.t_csr  # we repeatedly need P.T @ x
    x = t.copy() if x0 is None else _normalise_x0(x0, t)
    residuals: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        spread = mat_t @ x
        if has_dangling:
            mass = float(x[dangle_mask].sum())
            if mass > 0.0:
                if dangle_target is None:  # "self": mass stays in place
                    spread = spread + np.where(dangle_mask, x, 0.0)
                else:
                    spread = spread + mass * dangle_target
        x_new = alpha * spread + (1.0 - alpha) * t
        # Normalise to kill accumulated round-off drift.
        x_new /= x_new.sum()
        residual = float(np.abs(x_new - x).sum())
        residuals.append(residual)
        x = x_new
        if residual < tol:
            converged = True
            break

    if not converged and raise_on_failure:
        raise ConvergenceError(
            f"power iteration did not reach tol={tol} "
            f"within {max_iter} iterations (residual={residuals[-1]:.3e})",
            iterations=iterations,
            residual=residuals[-1],
        )
    return PageRankResult(
        scores=x,
        iterations=iterations,
        converged=converged,
        residuals=residuals,
        method="power_iteration",
    )


def extrapolated_power_iteration(
    transition: sparse.spmatrix | None,
    *,
    alpha: float = 0.85,
    teleport: np.ndarray | None = None,
    tol: float = 1e-10,
    max_iter: int = 1000,
    dangling: str = "teleport",
    extrapolate_every: int = 10,
    raise_on_failure: bool = False,
    operator: LinearOperatorBundle | None = None,
) -> PageRankResult:
    """Power iteration with periodic Aitken Δ² extrapolation.

    Every ``extrapolate_every`` sweeps the last three iterates are combined
    component-wise via Aitken's Δ² formula, which cancels the dominant
    geometric error term (ratio ≈ α).  Component-wise Aitken is known to
    be erratic, so each accelerated guess is *trial-evaluated*: one power
    step is applied and the guess is accepted only when its residual beats
    the current one (costing one extra matvec per attempt).  The solver
    therefore never converges slower than plain power iteration by more
    than the trial overhead, and wins on slow-mixing graphs at large α
    (``bench_ablation_extrapolation`` measures both regimes).
    """
    if extrapolate_every < 3:
        raise ParameterError(
            f"extrapolate_every must be >= 3, got {extrapolate_every}"
        )
    bundle, t = _validate_common(transition, alpha, teleport, operator)
    dangle_mask = bundle.dangle_mask
    has_dangling = bundle.has_dangling
    dangle_target = bundle.dangling_target(dangling, t)

    mat_t = bundle.t_csr

    def step(vec: np.ndarray) -> np.ndarray:
        spread = mat_t @ vec
        if has_dangling:
            mass = float(vec[dangle_mask].sum())
            if mass > 0.0:
                if dangle_target is None:
                    spread = spread + np.where(dangle_mask, vec, 0.0)
                else:
                    spread = spread + mass * dangle_target
        out = alpha * spread + (1.0 - alpha) * t
        return out / out.sum()

    x = t.copy()
    history: list[np.ndarray] = [x]
    residuals: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        x_new = step(x)
        residual = float(np.abs(x_new - x).sum())
        residuals.append(residual)
        x = x_new
        history.append(x)
        if len(history) > 3:
            history.pop(0)
        if residual < tol:
            converged = True
            break
        if iterations % extrapolate_every == 0 and len(history) == 3:
            x0, x1, x2 = history
            d1 = x1 - x0
            d2 = x2 - 2.0 * x1 + x0
            # Component-wise Aitken; guard divisions by ~0 curvature.
            safe = np.abs(d2) > 1e-300
            accel = x2.copy()
            accel[safe] = x0[safe] - d1[safe] * d1[safe] / d2[safe]
            if np.isfinite(accel).all() and (accel > 0).all():
                accel_sum = accel.sum()
                if accel_sum > 0:
                    accel /= accel_sum
                    # Trial step: accept only if it beats the current
                    # residual (keeps the erratic Aitken guess safe).
                    trial = step(accel)
                    trial_residual = float(np.abs(trial - accel).sum())
                    if trial_residual < residual:
                        x = trial
                        residuals.append(trial_residual)
                        history = [x]
                        if trial_residual < tol:
                            converged = True
                            break

    if not converged and raise_on_failure:
        raise ConvergenceError(
            f"extrapolated power iteration did not reach tol={tol} "
            f"within {max_iter} iterations",
            iterations=iterations,
            residual=residuals[-1],
        )
    return PageRankResult(
        scores=x,
        iterations=iterations,
        converged=converged,
        residuals=residuals,
        method="extrapolated_power_iteration",
    )


def gauss_seidel(
    transition: sparse.spmatrix | None,
    *,
    alpha: float = 0.85,
    teleport: np.ndarray | None = None,
    tol: float = 1e-10,
    max_iter: int = 200,
    dangling: str = "teleport",
    raise_on_failure: bool = False,
    operator: LinearOperatorBundle | None = None,
) -> PageRankResult:
    """Solve ``(I − α·P.T) r = (1−α) t`` with forward Gauss–Seidel sweeps.

    Dangling rows of ``P`` are patched first (see :func:`patch_dangling`).
    Each sweep updates ``r[j]`` in place using the freshest values.  Sweeps
    are Python-loop bound, so this solver exists as an independent
    verification path for small/medium graphs, not as the production path.
    """
    bundle, t = _validate_common(transition, alpha, teleport, operator)
    n = bundle.n
    # Row j of the system matrix involves column j of P: iterate on the
    # bundle's memoised patched-CSC view (dangling rows densified once per
    # (strategy, teleport) instead of per call).
    csc = bundle.patched_csc(dangling, t)
    x = t.copy()
    b = (1.0 - alpha) * t
    residuals: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        delta = 0.0
        for j in range(n):
            start, end = csc.indptr[j], csc.indptr[j + 1]
            rows = csc.indices[start:end]
            vals = csc.data[start:end]
            acc = 0.0
            diag = 0.0
            for r_idx, v in zip(rows, vals):
                if r_idx == j:
                    diag = v
                else:
                    acc += v * x[r_idx]
            new_val = (b[j] + alpha * acc) / (1.0 - alpha * diag)
            delta += abs(new_val - x[j])
            x[j] = new_val
        residuals.append(delta)
        if delta < tol:
            converged = True
            break

    x = x / x.sum()
    if not converged and raise_on_failure:
        raise ConvergenceError(
            f"Gauss-Seidel did not reach tol={tol} within {max_iter} sweeps",
            iterations=iterations,
            residual=residuals[-1],
        )
    return PageRankResult(
        scores=x,
        iterations=iterations,
        converged=converged,
        residuals=residuals,
        method="gauss_seidel",
    )


def direct_solve(
    transition: sparse.spmatrix | None,
    *,
    alpha: float = 0.85,
    teleport: np.ndarray | None = None,
    dangling: str = "teleport",
    operator: LinearOperatorBundle | None = None,
) -> PageRankResult:
    """Solve ``(I − α·P.T) r = (1−α) t`` with a sparse LU factorisation.

    Exact (up to round-off); memory-hungry on large graphs because of fill-in
    during factorisation.  Used as the ground-truth oracle in tests and the
    solver ablation.
    """
    bundle, t = _validate_common(transition, alpha, teleport, operator)
    n = bundle.n
    # The patched matrix comes from the bundle's memo; its transpose is the
    # free CSC view of the patched CSR, so no conversion happens per call.
    patched = bundle.patched(dangling, t)
    system = sparse.identity(n, format="csc") - alpha * patched.T
    rhs = (1.0 - alpha) * t
    x = sparse_linalg.spsolve(system, rhs)
    x = np.asarray(x, dtype=np.float64)
    x = x / x.sum()
    return PageRankResult(
        scores=x,
        iterations=0,
        converged=True,
        residuals=[],
        method="direct_solve",
    )
