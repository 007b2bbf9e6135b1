"""Block-relaxation PageRank over a :class:`ShardedOperator`.

:func:`sharded_solve` converges the same fixed point as
:func:`~repro.linalg.solvers.power_iteration` —

.. math::

    \\vec x = \\alpha P^T \\vec x + (1 - \\alpha) \\vec t

— by outer **rounds** over the shards.  Within a round each shard runs
``inner_sweeps`` relaxation sweeps against its small diagonal block
``A_ss`` while the coupling term ``α · A_s· x`` (plus off-shard dangling
mass) stays frozen.  Shards are swept in order against the *live*
iterate, so shard ``s`` already sees this round's values of shards
``< s`` — multiplicative Schwarz / block Gauss–Seidel, in the calling
process.

Aggregation/disaggregation (the single-core speed-up)
-----------------------------------------------------

Plain block relaxation cannot beat the monolithic α-rate: each inner
sweep contracts the error by ~α just like a power sweep, so rounds ×
sweeps ≈ power iterations and the only win is bandwidth (cache-resident
blocks).  What *does* beat it on a
community-partitioned graph is the classical iterative
aggregation/disaggregation correction for nearly-uncoupled Markov
chains (Simon–Ando; Koury–McAllister–Stewart): a shard's diagonal block
is fast-mixing, so after a few sweeps the remaining error is nearly
proportional to the block's local stationary mode — per shard a *single
unknown*, the shard's total mass.  Each round therefore ends by solving
the k×k coarse balance system

.. math::

    (I - \\alpha \\hat C)\\, \\vec m = (1 - \\alpha)\\, \\hat t

where ``Ĉ[s, q]`` is the mass the current *within-shard* distribution of
shard ``q`` sends into shard ``s`` (cross-shard flows via the coupling
blocks' precomputed column sums — see
:attr:`~repro.shard.operator.ShardedOperator.coarse_ctx` — the diagonal
by column stochasticity, dangling flows via the strategy target), and
rescaling every shard to its balanced mass ``m_q``.  The composite
iteration converges at the *coupling* rate instead of the α-rate —
a handful of rounds when the partitioner finds real structure — while
the fixed point is untouched: at ``x = x*`` the coarse solve returns
exactly the current shard masses.  The correction is an accelerator,
not a correctness assumption: if the certificate residual ever rises
for consecutive rounds the solve drops back to plain block relaxation
(a regular splitting of the M-matrix ``I − αPᵀ``, hence provably
convergent) for the remaining rounds.

The reported residuals are successive-iterate L1 differences of the
normalised iterate — the same certificate the monolithic power path
stops on.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.errors import ConvergenceError, ParameterError
from repro.linalg.operator import (
    DANGLING_STRATEGIES,
    LinearOperatorBundle,
)
from repro.linalg.solvers import (
    PageRankResult,
    _validate_common,
    power_iteration,
)
from repro.shard.operator import DEFAULT_SIZE_FLOOR, ShardedOperator
from repro.telemetry.trace import record_result

__all__ = ["sharded_solve"]

#: Default inner relaxation sweeps per shard per round.  Sweeps are the
#: aggregation step's smoother: enough to damp the fast in-shard modes so
#: the coarse solve sees an almost rank-one per-shard error, few enough
#: that rounds stay cheap.
_DEFAULT_INNER_SWEEPS = 3

#: Rounds of rising residual tolerated before the aggregation
#: correction is disabled for the rest of the solve.
_AGG_PATIENCE = 2


def _segment_sums(x: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Per-shard sums of a node-aligned vector (empty-shard safe)."""
    cs = np.concatenate(([0.0], np.cumsum(x)))
    return cs[bounds[1:]] - cs[bounds[:-1]]


def _shard_round(
    op: ShardedOperator,
    x: np.ndarray,
    t: np.ndarray,
    target: np.ndarray | None,
    dmass: np.ndarray,
    *,
    alpha: float,
    inner_sweeps: int,
    self_dangling: bool,
) -> None:
    """One Gauss–Seidel round over all shards, in place on ``x``.

    Each shard iterates ``y ← α · (A_ss y + dangling(y)) + g`` for
    ``inner_sweeps`` sweeps with the coupling term ``g`` frozen.
    ``dangling(y)`` is the *local* dangling contribution: mass of the
    shard's own dangling rows redistributed through the global target
    restricted to this shard (**not** renormalised — the escaping
    remainder is other shards' coupling), or kept in place under
    ``self_dangling``.  Refreshes the per-shard dangling-mass
    accumulator ``dmass`` as it goes, so later shards see earlier
    shards' fresh dangling mass.
    """
    plan = op.plan
    one_minus_alpha = 1.0 - alpha
    for s in range(plan.n_shards):
        lo, hi = int(plan.bounds[s]), int(plan.bounds[s + 1])
        if hi == lo:
            continue
        intra = op.intra[s]
        ld = op.local_dangle[s]
        # Coupling terms frozen for this shard's inner sweeps: boundary
        # matvec (fresh values for shards < s — the Gauss–Seidel gain)
        # plus the off-shard dangling mass under mass-moving strategies.
        g = alpha * (op.ext[s] @ x)
        g += one_minus_alpha * t[lo:hi]
        target_slice = target[lo:hi] if target is not None else None
        if target_slice is not None:
            m_ext = float(dmass.sum() - dmass[s])
            if m_ext > 0.0:
                g += (alpha * m_ext) * target_slice
        y = x[lo:hi].copy()
        for _ in range(inner_sweeps):
            z = intra @ y
            if ld.size:
                if self_dangling:
                    z[ld] += y[ld]
                elif target_slice is not None:
                    m_loc = float(y[ld].sum())
                    if m_loc > 0.0:
                        z += m_loc * target_slice
            y = alpha * z + g
        x[lo:hi] = y
        if ld.size:
            dmass[s] = float(y[ld].sum())


def _aggregate(
    op: ShardedOperator,
    x: np.ndarray,
    masses: np.ndarray,
    dmass: np.ndarray,
    t_hat: np.ndarray,
    target_hat: np.ndarray | None,
    *,
    alpha: float,
    self_dangling: bool,
) -> None:
    """One aggregation/disaggregation correction, in place on ``x``.

    Builds the coarse column-stochastic flow matrix ``Ĉ`` from the
    coupling blocks' static column sums evaluated at the current iterate,
    solves the k×k balance system and rescales each shard to its balanced
    mass.  ``masses`` and ``dmass`` are updated to match.  Shards with no
    mass yet (e.g. far from a personalised seed) are left untouched —
    relaxation rounds populate them through the coupling terms first.
    """
    k = op.plan.n_shards
    bounds = op.plan.bounds
    C = np.zeros((k, k))
    for s, (js, vs, qs) in enumerate(op.coarse_ctx):
        if js.size:
            C[s] = np.bincount(qs, weights=vs * x[js], minlength=k)
    live = masses > 0.0
    if not live.any():
        return
    C[:, live] /= masses[live]
    C[:, ~live] = 0.0
    d = np.zeros(k)
    d[live] = dmass[live] / masses[live]
    # coarse_ctx only carries cross-shard flows; the diagonal (mass a
    # shard keeps) follows from column stochasticity of A: each unit of
    # φ_q emits 1 − (its dangling mass) through stored edges in total.
    np.fill_diagonal(C, 0.0)
    self_flow = np.zeros(k)
    self_flow[live] = np.maximum(1.0 - d[live] - C.sum(axis=0)[live], 0.0)
    np.fill_diagonal(C, self_flow)
    if self_dangling:
        C[np.arange(k), np.arange(k)] += d
    elif target_hat is not None:
        C += target_hat[:, None] * d[None, :]
    try:
        m = np.linalg.solve(np.eye(k) - alpha * C, (1.0 - alpha) * t_hat)
    except np.linalg.LinAlgError:  # pragma: no cover - defensive
        return
    np.clip(m, 0.0, None, out=m)
    for s in np.flatnonzero(live):
        scale = m[s] / masses[s]
        x[bounds[s] : bounds[s + 1]] *= scale
        masses[s] = m[s]
        dmass[s] *= scale


def sharded_solve(
    transition=None,
    *,
    alpha: float = 0.85,
    teleport: np.ndarray | None = None,
    dangling: str = "teleport",
    tol: float = 1e-10,
    max_iter: int = 500,
    operator: LinearOperatorBundle | None = None,
    sharded: ShardedOperator | None = None,
    n_shards: int = 8,
    inner_sweeps: int = _DEFAULT_INNER_SWEEPS,
    aggregate: bool = True,
    size_floor: int = DEFAULT_SIZE_FLOOR,
) -> PageRankResult:
    """Solve the PageRank fixed point by sharded block relaxation.

    Parameters mirror :func:`~repro.linalg.solvers.power_iteration` where
    they overlap; the sharding-specific ones are:

    sharded:
        A pre-built (typically graph-cached) :class:`ShardedOperator`.
        When omitted one is built from the resolved monolithic bundle
        with ``n_shards`` blocked shards — unless the graph is below
        ``size_floor`` nodes, in which case the solve **falls back
        transparently** to monolithic power iteration (``method``
        reports ``"sharded_fallback_power"``), so tiny-graph callers
        never pay shard setup.
    inner_sweeps:
        Relaxation sweeps per shard per round (the outer ``max_iter``
        counts rounds).
    aggregate:
        Apply the per-round aggregation/disaggregation coarse correction
        (see the module docstring).  On by default; ``False`` leaves the
        plain — provably convergent but α-rate — block relaxation.
    size_floor:
        Node count below which a solve without ``sharded`` falls back
        to power iteration instead of building a :class:`ShardedOperator`.

    Returns
    -------
    PageRankResult
        ``method`` is ``"sharded_block_gs"`` or
        ``"sharded_fallback_power"``; ``residuals`` holds the per-round
        successive-iterate L1 differences of the normalised iterate —
        the same certificate quantity the monolithic power path reports.
    """
    if inner_sweeps < 1:
        raise ParameterError(
            f"inner_sweeps must be >= 1, got {inner_sweeps}"
        )
    if dangling not in DANGLING_STRATEGIES:
        raise ParameterError(
            f"unknown dangling strategy {dangling!r}; "
            f"expected one of {DANGLING_STRATEGIES}"
        )
    if sharded is not None:
        operator = sharded.bundle
    bundle, t = _validate_common(
        transition, alpha, teleport, operator, tol=tol, max_iter=max_iter
    )

    if sharded is None:
        if bundle.n < size_floor:
            result = power_iteration(
                None,
                alpha=alpha,
                teleport=t,
                tol=tol,
                max_iter=max_iter * inner_sweeps,
                dangling=dangling,
                operator=bundle,
            )
            return record_result(
                replace(result, method="sharded_fallback_power"),
                fallback="size_floor",
            )
        sharded = ShardedOperator(bundle, n_shards=n_shards)
    elif sharded.n != bundle.n:
        raise ParameterError(
            f"sharded operator covers {sharded.n} nodes but the "
            f"transition has {bundle.n}"
        )

    plan = sharded.plan
    bounds = plan.bounds
    target = bundle.dangling_target(dangling, t)  # None for "self"
    # A fresh copy: the rounds update x in place while t stays the
    # teleport term of every round.
    x = np.array(t, dtype=np.float64)

    dangle_idx = bundle.dangle_idx
    has_dangling = dangle_idx.size > 0
    self_dangling = has_dangling and target is None
    if has_dangling:
        dmass = np.bincount(
            sharded.dangle_shard,
            weights=x[dangle_idx],
            minlength=plan.n_shards,
        )
    else:
        dmass = np.zeros(plan.n_shards)
    # "self" keeps dangling mass in place — no cross-shard mass term.
    target_term = target if has_dangling else None
    t_hat = _segment_sums(t, bounds)
    target_hat = (
        _segment_sums(target, bounds) if target is not None else None
    )
    aggregate_on = aggregate and plan.n_shards > 1

    residuals: list[float] = []
    converged = False
    rounds = 0
    prev_diff = np.inf
    agg_bad = 0
    x_prev = np.empty_like(x)
    for rounds in range(1, max_iter + 1):
        x_prev[:] = x
        _shard_round(
            sharded,
            x,
            t,
            target_term,
            dmass,
            alpha=alpha,
            inner_sweeps=inner_sweeps,
            self_dangling=self_dangling,
        )
        masses = _segment_sums(x, bounds)
        if aggregate_on:
            _aggregate(
                sharded, x, masses, dmass, t_hat, target_hat,
                alpha=alpha, self_dangling=self_dangling,
            )
        total = float(masses.sum())
        if not np.isfinite(total) or total <= 0.0:
            raise ConvergenceError(
                "sharded solve produced a non-normalisable iterate "
                f"(sum={total!r})",
                iterations=rounds,
                residual=float("nan"),
            )
        x *= 1.0 / total
        dmass *= 1.0 / total
        # The certificate: L1 change between successive normalised
        # iterates — exactly what the monolithic power path stops on.
        diff = float(np.abs(x - x_prev).sum())
        residuals.append(diff)
        if aggregate_on:
            # Safety valve: aggregation is an accelerator with strong
            # empirical behaviour but no global guarantee — if the
            # residual rises for consecutive rounds, finish with the
            # provably convergent plain relaxation.
            agg_bad = agg_bad + 1 if diff > prev_diff else 0
            if agg_bad >= _AGG_PATIENCE:
                aggregate_on = False
        prev_diff = diff
        if diff < tol:
            converged = True
            break

    scores = x / x.sum()
    # Per-round geometric contraction rate of the residual — the shard
    # coupling statistic: ~alpha for well-mixed partitions, drifting
    # toward 1 when cross-shard mass slows the sweep down.
    contraction = None
    if len(residuals) >= 2 and residuals[0] > 0.0 and residuals[-1] > 0.0:
        contraction = float(
            (residuals[-1] / residuals[0]) ** (1.0 / (len(residuals) - 1))
        )
    return record_result(
        PageRankResult(
            scores=scores,
            iterations=rounds,
            converged=converged,
            residuals=residuals,
            method="sharded_block_gs",
        ),
        n_shards=int(plan.n_shards),
        aggregation=bool(aggregate_on),
        contraction=contraction,
    )
