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

**On the factors.**  Every D2PR-family transition is
``P = diag(r)·M·diag(c)`` (paper Eq. 1), and the solver reads it as
:class:`~repro.linalg.operator.Factors`: the push scales ``M``'s entries
itself (see :mod:`repro.linalg.push`) and the residual is
``c ⊙ Mᵀ(r ⊙ x)`` plus the dangling term, so a correction builds no
transition.  The old system enters only through the split below: its
residual is ``full − delta``, where ``delta = α·(P̂′ − P̂)ᵀx``
(:func:`delta_residual`) is nonzero only through the *changed rows*
``C`` — the rows the delta touched, the rows whose ``r`` moved and the
in-neighbours (in ``M`` and ``M′``) of the nodes whose ``c`` moved — and
is computed on those rows alone.  When ``C``'s rows store more than half
of the entries (say, a fatigue ``θ_max`` shift moves every ``c``) or an
operator is unfactored, the old residual is computed in full instead.

Cost: the one full residual on the new system (one SpMV over ``M``),
the changed rows' entries, O(n) comparisons of ``r`` and ``c``, and
assembling the returned vector, once per call.  Each push epoch then
costs O(stored entries of the active rows +
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
warm-started power iteration on the materialised transition, exactly
like forward push — callers always converge; the win degrades gracefully
toward the warm-start-only speedup.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.errors import ParameterError
from repro.linalg.operator import (
    DANGLING_STRATEGIES,
    Factors,
    LinearOperatorBundle,
)
from repro.linalg.push import _fallback, _positions, _push_epochs
from repro.linalg.solvers import PageRankResult, _unit_mass, _validate_common
from repro.telemetry.trace import record_result

__all__ = ["delta_residual", "incremental_update", "residual_vector"]


def residual_vector(
    operator: Factors | LinearOperatorBundle,
    x: np.ndarray,
    teleport: np.ndarray,
    alpha: float,
    dangling: str,
) -> np.ndarray:
    """Defect of ``x`` in the system defined by ``operator``.

    ``(1−α)t + α·(P̂ᵀx) − x`` with the standard dangling-mass handling;
    zero (up to the old solve's tolerance) iff ``x`` is the fixed point.
    One SpMV: on factors ``Pᵀx = c ⊙ Mᵀ(r ⊙ x)``, through ``M`` itself
    when it is symmetric; on a bundle (or through an unsymmetric ``M``)
    the **free CSC transpose view** — evaluating the residual never
    triggers the CSR transpose conversion.
    """
    factors = Factors.resolve(None, operator)
    bundle = factors.mat
    if factors.row is None:
        spread = bundle.t_csc @ x
    else:
        mat = bundle.mat if bundle.symmetric else bundle.t_csc
        spread = mat @ (factors.row * x)
        if factors.col is not None:
            spread *= factors.col
    if bundle.has_dangling:
        mass = float(x[bundle.dangle_mask].sum())
        if mass > 0.0:
            target = bundle.dangling_target(dangling, teleport)
            if target is None:  # "self": mass stays in place
                spread = spread + np.where(bundle.dangle_mask, x, 0.0)
            else:
                spread = spread + mass * target
    return alpha * spread + (1.0 - alpha) * teleport - x


def _changed_rows(
    before: Factors, after: Factors, touched: np.ndarray
) -> np.ndarray | None:
    """Rows ``C`` where ``P̂`` and ``P̂′`` may differ, or ``None``.

    With ``P = diag(r)·M·diag(c)`` a row changes only when its row of
    ``M`` does (a ``touched`` node), when its ``r`` does, or when it
    points, in ``M`` or ``M′``, at a node whose ``c`` changed.  A
    dangling row's ``P̂`` row is the dangling target, the same before
    and after, and a row whose dangling status flips is touched.
    ``None`` when either side is unfactored: the changed rows are not
    known.
    """
    if before.row is None or after.row is None:
        return None
    old, new = before.mat.mat, after.mat.mat
    n = new.shape[0]
    if old.shape != new.shape:
        return None
    mark = np.zeros(n, dtype=bool)
    mark[touched] = True
    mark |= before.row != after.row
    if before.col is not None or after.col is not None:
        if before.col is None or after.col is None:
            moved = np.ones(n, dtype=bool)
        else:
            moved = before.col != after.col
        if moved.any():
            for mat, bundle in ((old, before.mat), (new, after.mat)):
                if bundle.symmetric:
                    # In-neighbours are out-neighbours: gather the
                    # moved nodes' rows.
                    idx = np.flatnonzero(moved)
                    starts = mat.indptr[idx]
                    lengths = mat.indptr[idx + 1] - starts
                    mark[mat.indices.take(_positions(starts, lengths))] = True
                else:
                    # One boolean pass over M.indices.
                    hits = np.flatnonzero(moved[mat.indices])
                    owners = np.searchsorted(mat.indptr, hits, side="right")
                    mark[owners - 1] = True
    return np.flatnonzero(mark)


def _row_flow(
    factors: Factors, rows: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(columns, values, sinks)`` of ``x_i·P_i`` over ``rows``.

    Each ``P_ij`` is rounded as the materialised transition rounds it
    (:func:`~repro.linalg.operator.scaled_transition`); ``sinks`` are
    the empty rows among ``rows``.
    """
    mat = factors.mat.mat
    starts = mat.indptr[rows]
    lengths = mat.indptr[rows + 1] - starts
    pos = _positions(starts, lengths)
    cols = mat.indices.take(pos)
    vals = np.repeat(factors.row.take(rows), lengths)
    if factors.col is not None:
        vals *= factors.col.take(cols)
    if not factors.mat.unit:
        vals *= mat.data.take(pos)
    vals *= np.repeat(x.take(rows), lengths)
    return cols, vals, rows[lengths == 0]


def delta_residual(
    before: Factors | LinearOperatorBundle,
    after: Factors | LinearOperatorBundle,
    x: np.ndarray,
    touched: np.ndarray,
    teleport: np.ndarray,
    alpha: float,
    dangling: str,
) -> np.ndarray | None:
    """``α·(P̂′ − P̂)ᵀx``, computed on the changed rows only.

    ``before``/``after`` are the transition before and after a delta
    (or a chain of them) as factors, and ``touched`` every node whose
    adjacency row changed.  It equals ``residual_vector(after, …) −
    residual_vector(before, …)`` up to round-off, at the cost of the
    changed rows' entries plus O(n) comparisons of ``r`` and ``c``
    (and one boolean pass over ``M.indices`` on a directed graph whose
    ``c`` moved).  ``None`` when the changed rows are unknown (see
    :func:`_changed_rows`) or store more than half of the entries of
    ``M`` and ``M′``.
    """
    before = Factors.resolve(None, before)
    after = Factors.resolve(None, after)
    rows = _changed_rows(before, after, np.asarray(touched, dtype=np.int64))
    if rows is None:
        return None
    old, new = before.mat.mat, after.mat.mat
    entries = (old.indptr[rows + 1] - old.indptr[rows]).sum() + (
        new.indptr[rows + 1] - new.indptr[rows]
    ).sum()
    if 2 * int(entries) > old.nnz + new.nnz:
        # A full SpMV is cheaper.
        return None
    return _local_delta(before, after, rows, x, teleport, alpha, dangling)


def _local_delta(
    before: Factors,
    after: Factors,
    rows: np.ndarray,
    x: np.ndarray,
    teleport: np.ndarray,
    alpha: float,
    dangling: str,
) -> np.ndarray:
    """``α·(P̂′ − P̂)ᵀx`` over ``rows``, a superset of the changed rows."""
    cols_new, vals_new, sinks_new = _row_flow(after, rows, x)
    cols_old, vals_old, sinks_old = _row_flow(before, rows, x)
    delta = np.bincount(
        np.concatenate((cols_new, cols_old)),
        weights=np.concatenate((vals_new, -vals_old)),
        minlength=after.n,
    )
    if sinks_new.size or sinks_old.size:
        target = after.mat.dangling_target(dangling, teleport)
        if target is None:  # "self": a dangling row keeps its mass
            delta[sinks_new] += x[sinks_new]
            delta[sinks_old] -= x[sinks_old]
        else:
            delta += (x[sinks_new].sum() - x[sinks_old].sum()) * target
    return alpha * delta


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
    operator: Factors | LinearOperatorBundle | None = None,
    before: Factors | LinearOperatorBundle | None = None,
    touched: np.ndarray | None = None,
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
        The new transition as :class:`~repro.linalg.operator.Factors`
        (corrected without materialising it) or a pre-built bundle.
    before, touched:
        The **old** (pre-delta) transition ``previous`` was certified
        on, as factors or a bundle, and the nodes whose adjacency rows
        the delta (or chain of deltas) changed, e.g.
        :meth:`~repro.graph.delta.GraphDelta.endpoints`;
        :func:`repro.core.engine.update_scores` captures the factors
        before applying the delta, the serving layer at delta time.
        With them the residual of ``previous`` on the old system — a
        dense inherited background of total mass ≤ the old solve's
        tolerance — is frozen wholesale, leaving exactly the
        delta-induced part, sparse by construction for *any* dangling
        configuration, so the push never mistakes the old solve's
        truncation dust for correction work.  On factors that baseline
        is ``full − delta``: the one full residual on the new system
        minus :func:`delta_residual` on the changed rows.  When those
        rows are unknown (a bundle) or store more than half of the
        entries, the old residual is computed in full instead.
        ``touched`` is required with factored ``before``.  Without
        ``before``, only the per-entry ``tol/n`` floor separates
        background from signal, which is enough for strongly localized
        deltas but floods the frontier near convergence when the
        background mass is comparable to ``tol``.

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
    factors = Factors.resolve(transition, operator)
    _, t = _validate_common(
        None, alpha, teleport, factors.mat, tol=tol, max_iter=max_iter
    )
    n = factors.n
    if dangling not in DANGLING_STRATEGIES:
        raise ParameterError(
            f"unknown dangling strategy {dangling!r}; "
            f"expected one of {DANGLING_STRATEGIES}"
        )
    if not 0.0 <= frontier_cap <= 1.0:
        raise ParameterError(
            f"frontier_cap must be in [0, 1], got {frontier_cap}"
        )
    x = _unit_mass(previous, n, "previous scores")
    if before is not None:
        before = Factors.resolve(None, before)
        if before.n != n:
            raise ParameterError(
                f"before has {before.n} nodes, the new operator {n}"
            )
        if before.row is not None and touched is None:
            raise ParameterError("touched is required with factored before")

    res = residual_vector(factors, x, t, alpha, dangling)
    # The previous solve was itself only tol-accurate, so ``res`` carries
    # a *dense* inherited background (total mass ≲ tol, per-entry ≲
    # tol/n) on top of the (sparse) delta-induced defect.  Chasing that
    # background would mean re-polishing the whole graph — exactly the
    # work the incremental path exists to avoid — so it is split off as
    # frozen "dust": never pushed, never counted against the stopping
    # rule, added back into the final estimate unchanged.  The split is
    # exact when the caller supplies the old system (``before``; the
    # old residual is then the baseline and the difference is the pure
    # delta-induced part) and magnitude-based otherwise (entries ≤ tol/n
    # can never sum past tol).  Dust mass is ≤ ~2·tol either way, so with the push
    # stopping at Σ|res| ≤ tol the final certified L1 distance from the
    # exact fixed point is ≤ 3·tol·α/(1−α) — the same O(tol) class as a
    # cold power iteration's tol·α/(1−α) certificate at the same tol.
    base = None
    if before is not None:
        delta = None
        if touched is not None:
            delta = delta_residual(
                before, factors, x, touched, t, alpha, dangling
            )
        if delta is None:
            base = residual_vector(before, x, t, alpha, dangling)
            res = res - base
        else:
            # The full residual minus its delta part is the old one.
            res, base = delta, res - delta
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

    if dangling == "uniform" and factors.mat.has_dangling:
        # One dangling push densifies the correction; go straight to the
        # solver the frontier check would fall back to anyway.
        return _fallback(
            factors, t, np.maximum(x + res + dust, 0.0),
            alpha=alpha, tol=tol, max_iter=max(max_iter, 1),
            dangling=dangling, front=None,
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
        factors, support, res[support],
        alpha=alpha, tol=tol, max_iter=max_iter, dangling=dangling,
        settle=1.0, target=(t_idx, t[t_idx]),
        row_limit=np.inf, entry_limit=frontier_cap * factors.mat.mat.nnz,
        history=history,
    )
    estimate = x + front.dense(front.q + front.res) + dust
    if front.capped:
        return _fallback(
            factors, t, np.maximum(estimate, 0.0),
            alpha=alpha, tol=tol, max_iter=max(max_iter - front.steps, 1),
            dangling=dangling, front=front, history=history,
            method="incremental_fallback", fallback="frontier_cap",
        )
    return _finish(
        estimate, x,
        steps=front.steps, converged=front.converged, history=history,
        method="incremental_push", **front.facts(),
    )
