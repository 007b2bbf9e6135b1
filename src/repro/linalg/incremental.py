"""Incremental rank maintenance: residual-correction updates after deltas.

A converged score vector ``x`` of the old system becomes, after a graph
delta replaces the transition ``P`` with ``P'``, an *approximate* solution
of the new system

.. math::

    \\vec r = \\alpha \\hat P'^T \\vec r + (1 - \\alpha) \\vec t

(``\\hat P'`` the dangling-augmented transition).  Its defect is the
residual

.. math::

    \\vec b = (1-\\alpha)\\vec t + \\alpha \\hat P'^T \\vec x - \\vec x
            = \\alpha (\\hat P' - \\hat P)^T \\vec x + O(tol),

which is supported only on the out-neighbourhood of the rows the delta
touched — for a small delta, a sparse vector.  The correction
``e = x' - x`` solves the *linear* system ``e = α·P̂'ᵀ·e + b``, so it can
be computed by the same Gauss–Southwell residual propagation as
:func:`~repro.linalg.push.forward_push` — the very same epoch loop,
generalised to **signed** residual mass: pushing node ``u`` settles
``res[u]`` into the correction and forwards ``α·res[u]`` along row ``u``
of ``P'`` — no transpose view is ever needed, which also means an update
never pays the ``P.T.tocsr()`` rebuild a cold solve does.

Cost: evaluating the starting residual (one matvec through the CSC view)
and assembling the returned vector are O(nnz) and O(n), once per call.
Each push epoch then costs O(stored entries of the active rows +
residual support): the correction lives on per-call slots of the nodes
that ever held residual, never on all n nodes.  A dense teleport under
``dangling="teleport"`` is the exception — the first dangling push gives
every teleport node a slot.  The loop's local finish applies unchanged
to the signed correction: after a few epochs one sparse LU on the
support's out-closure settles it, leaving only the leaked mass as
residual (see :mod:`repro.linalg.push`).  Under a global teleport a
dangling row in the support would send mass outside it, so there the
solve is refused and the epochs finish the correction.

Certificate: because each push removes ``|res[u]|`` and re-injects at most
``α·|res[u]|``, the remaining signed mass ``Σ|res|`` bounds the L1 error
of ``x + q + res`` by ``Σ|res|·α/(1−α)``.  The solver stops at
``Σ|res| ≤ tol`` over the *pushable* residual; the dense background
inherited from the previous solve's own truncation error is frozen as
"dust" (the exact old-system residual, mass ≤ ~``tol``, plus the
``tol/n``-floor split, mass ≤ ``tol``) rather than chased around the
whole graph, so the certified L1 distance from the exact new fixed point
is ``≤ 3·tol·α/(1−α)`` — the same O(tol) class as a cold power
iteration's ``tol·α/(1−α)`` guarantee at the same tolerance (see the
inline notes in :func:`incremental_update`).

When the correction de-localises (large scattered deltas, tiny α,
``dangling="uniform"`` spraying mass), the solver falls back to
warm-started power iteration through the same operator bundle, exactly
like forward push — callers always converge; the win degrades gracefully
toward the warm-start-only speedup.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.errors import ConvergenceError, ParameterError
from repro.linalg.operator import DANGLING_STRATEGIES, LinearOperatorBundle
from repro.linalg.push import _fallback, _push_epochs
from repro.linalg.solvers import PageRankResult, _validate_common
from repro.telemetry.trace import record_result

__all__ = ["incremental_update", "residual_vector"]


def residual_vector(
    bundle: LinearOperatorBundle,
    x: np.ndarray,
    teleport: np.ndarray,
    alpha: float,
    dangling: str,
) -> np.ndarray:
    """Defect of ``x`` in the system defined by ``bundle``.

    ``(1−α)t + α·(P̂ᵀx) − x`` with the standard dangling-mass handling;
    zero (up to the old solve's tolerance) iff ``x`` is the fixed point.
    Computed through the **free CSC transpose view** — evaluating the
    residual never triggers the CSR transpose conversion.
    """
    spread = bundle.t_csc @ x
    if bundle.has_dangling:
        mass = float(x[bundle.dangle_mask].sum())
        if mass > 0.0:
            target = bundle.dangling_target(dangling, teleport)
            if target is None:  # "self": mass stays in place
                spread = spread + np.where(bundle.dangle_mask, x, 0.0)
            else:
                spread = spread + mass * target
    return alpha * spread + (1.0 - alpha) * teleport - x


def _finish(
    estimate: np.ndarray,
    x: np.ndarray,
    *,
    steps: int,
    converged: bool,
    history: list[float],
    method: str,
    **facts,
) -> PageRankResult:
    """Clip and renormalise ``estimate`` (``x`` + correction) into scores."""
    scores = np.maximum(estimate, 0.0)
    total = scores.sum()
    if total > 0.0:
        scores = scores / total
    else:  # pragma: no cover - degenerate correction
        scores = x.copy()
    return record_result(
        PageRankResult(
            scores=scores,
            iterations=steps,
            converged=converged,
            residuals=history,
            method=method,
        ),
        **facts,
    )


def incremental_update(
    transition: sparse.spmatrix | None,
    previous: np.ndarray,
    *,
    alpha: float = 0.85,
    teleport: np.ndarray | None = None,
    dangling: str = "teleport",
    tol: float = 1e-10,
    max_iter: int = 1000,
    frontier_cap: float = 0.2,
    operator: LinearOperatorBundle | None = None,
    baseline_residual: np.ndarray | None = None,
    raise_on_failure: bool = False,
) -> PageRankResult:
    """Update ``previous`` scores to the fixed point of a new transition.

    Parameters
    ----------
    transition:
        The **new** (post-delta) row-stochastic matrix ``P'`` (may be
        ``None`` when ``operator`` is given — e.g. a graph-cached bundle
        refreshed by :meth:`~repro.graph.base.BaseGraph.apply_delta`).
    previous:
        The converged scores of the pre-delta system, solved with the
        same ``(alpha, teleport, dangling)``.  Any non-negative vector
        with positive mass is accepted; the closer it is to the new
        fixed point, the less work the update does.
    alpha, teleport, dangling, tol, max_iter:
        The query parameters — identical semantics (and identical
        fixed point) to :func:`~repro.linalg.solvers.power_iteration`.
    frontier_cap:
        Fraction of the matrix's stored entries one push epoch may
        stream (the nnz of the active frontier's rows) before the
        solver concludes the delta's influence is global — an epoch
        that streams a sweep's worth of entries contracts no faster
        than a power sweep — and falls back to warm-started power
        iteration.  ``0`` forces the fallback immediately.
    operator:
        Pre-built bundle of the new transition.
    baseline_residual:
        The residual of ``previous`` on the **old** (pre-delta) system,
        i.e. ``residual_vector(old_bundle, previous, t, alpha,
        dangling)`` — :func:`repro.core.engine.update_scores` computes
        it from the still-cached old bundle before applying the delta.
        When given, this dense inherited background (total mass ≤ the
        old solve's tolerance) is frozen wholesale and subtracted from
        the working residual, leaving exactly the delta-induced part —
        sparse by construction, for *any* dangling configuration — so
        the push never mistakes the old solve's truncation dust for
        correction work.  Without it, only the per-entry ``tol/n`` floor
        separates background from signal, which is enough for strongly
        localized deltas but floods the frontier near convergence when
        the background mass is comparable to ``tol``.
    raise_on_failure:
        Raise :class:`ConvergenceError` instead of returning an
        unconverged result.

    Returns
    -------
    PageRankResult
        ``method`` is ``"incremental_push"`` (localized convergence,
        certified L1 distance ≤ ``3·tol·α/(1−α)``, see the module
        notes) or ``"incremental_fallback"``
        (finished by warm-started power iteration); ``iterations``
        counts push epochs and local solves (plus fallback sweeps) and
        ``residuals`` the remaining signed residual mass after each.
    """
    bundle, t = _validate_common(transition, alpha, teleport, operator)
    n = bundle.n
    if dangling not in DANGLING_STRATEGIES:
        raise ParameterError(
            f"unknown dangling strategy {dangling!r}; "
            f"expected one of {DANGLING_STRATEGIES}"
        )
    if not 0.0 <= frontier_cap <= 1.0:
        raise ParameterError(
            f"frontier_cap must be in [0, 1], got {frontier_cap}"
        )
    x = np.asarray(previous, dtype=np.float64)
    if x.shape != (n,):
        raise ParameterError(
            f"previous scores must have shape ({n},), got {x.shape}"
        )
    total = x.sum()
    if total <= 0.0 or (x < 0).any():
        raise ParameterError(
            "previous scores must be non-negative with positive mass"
        )
    x = x / total

    res = residual_vector(bundle, x, t, alpha, dangling)
    # The previous solve was itself only tol-accurate, so ``res`` carries
    # a *dense* inherited background (total mass ≲ tol, per-entry ≲
    # tol/n) on top of the (sparse) delta-induced defect.  Chasing that
    # background would mean re-polishing the whole graph — exactly the
    # work the incremental path exists to avoid — so it is split off as
    # frozen "dust": never pushed, never counted against the stopping
    # rule, added back into the final estimate unchanged.  The split is
    # exact when the caller supplies the old system's residual
    # (``baseline_residual``; the difference is the pure delta-induced
    # part) and magnitude-based otherwise (entries ≤ tol/n can never sum
    # past tol).  Dust mass is ≤ ~2·tol either way, so with the push
    # stopping at Σ|res| ≤ tol the final certified L1 distance from the
    # exact fixed point is ≤ 3·tol·α/(1−α) — the same O(tol) class as a
    # cold power iteration's tol·α/(1−α) certificate at the same tol.
    if baseline_residual is not None:
        base = np.asarray(baseline_residual, dtype=np.float64)
        if base.shape != (n,):
            raise ParameterError(
                f"baseline_residual must have shape ({n},), "
                f"got {base.shape}"
            )
        res = res - base
    else:
        base = None
    floor = tol / n
    small = np.abs(res) <= floor
    dust = np.where(small, res, 0.0)
    res = res - dust
    if base is not None:
        dust = dust + base
    sum_abs = float(np.abs(res).sum())
    history: list[float] = [sum_abs]
    if sum_abs <= tol:
        return _finish(
            x + res + dust, x,
            steps=0, converged=True, history=history,
            method="incremental_push",
        )

    if dangling == "uniform" and bundle.has_dangling:
        # One dangling push densifies the correction; go straight to the
        # solver the frontier check would fall back to anyway.
        return _fallback(
            bundle, t, np.maximum(x + res + dust, 0.0),
            alpha=alpha, tol=tol, max_iter=max(max_iter, 1),
            dangling=dangling, raise_on_failure=raise_on_failure, front=None,
            history=history, method="incremental_fallback",
            fallback="uniform_dangling",
        )

    # Fall back when one epoch would stream more than frontier_cap of the
    # stored entries: at that point a push epoch costs a comparable
    # matrix stream to a full power sweep while contracting no faster,
    # so warm-started power iteration wins.  (A *row-count* cap would
    # misfire: a wide frontier of low-degree rows is still far cheaper
    # than a sweep.)  The push settles a correction, not a score: each
    # pushed residual settles whole (settle=1).
    support = np.flatnonzero(res)
    t_idx = np.flatnonzero(t)
    front = _push_epochs(
        bundle, support, res[support],
        alpha=alpha, tol=tol, max_iter=max_iter, dangling=dangling,
        settle=1.0, target=(t_idx, t[t_idx]),
        row_limit=np.inf, entry_limit=frontier_cap * bundle.mat.nnz,
        history=history,
    )
    estimate = x + front.dense(front.q + front.res) + dust
    if front.capped:
        return _fallback(
            bundle, t, np.maximum(estimate, 0.0),
            alpha=alpha, tol=tol, max_iter=max(max_iter - front.steps, 1),
            dangling=dangling, raise_on_failure=raise_on_failure,
            front=front, history=history,
            method="incremental_fallback", fallback="frontier_cap",
        )
    if not front.converged and raise_on_failure:
        raise ConvergenceError(
            f"incremental update did not reach tol={tol} within "
            f"{max_iter} steps (remaining residual mass={front.mass:.3e})",
            iterations=front.steps,
            residual=front.mass,
        )
    return _finish(
        estimate, x,
        steps=front.steps, converged=front.converged, history=history,
        method="incremental_push", **front.facts(),
    )
