"""Gauss–Southwell forward push: localized single-seed PageRank/D2PR.

Power iteration touches every stored nonzero of the transition on every
sweep, regardless of where the probability mass actually lives.  For a
*personalised* query — teleport concentrated on one seed (or a handful) —
most of the stationary mass sits within a few hops of the seeds, clustered
around high-degree nodes (exactly the localisation regime the PageRank
tail literature describes, cf. Volkovich et al.), so the full matrix
stream is mostly wasted work.

:func:`forward_push` solves the same fixed point

.. math::

    \\vec r = \\alpha P^T \\vec r + (1 - \\alpha) \\vec t

by *residual propagation* instead: maintain a settled estimate ``q`` and a
residual vector ``res`` with the invariant ``r = q + solve(res)``.
Initially ``q = 0, res = t``; *pushing* a node ``u`` settles
``(1−α)·res[u]`` into ``q[u]`` and forwards ``α·res[u]`` along ``u``'s
out-edges (row ``u`` of ``P`` — the push direction needs **no transpose at
all**).  Because ``solve`` preserves L1 mass, the total remaining residual
``Σ res`` *is* the exact L1 distance to the true solution — a built-in
certificate: the solver stops when ``Σ res ≤ tol``.

This implementation pushes **epoch-wise and vectorised** (a batched
Gauss–Southwell): each epoch selects every node whose residual exceeds an
adaptive threshold (a fraction of the mean active residual) and propagates
them in one scatter over just those rows.  The mass argument guarantees
each epoch shrinks ``Σ res`` by at least ``(1−c)(1−α)`` relative (``c``
the threshold fraction), so epochs are bounded by the same α-rate as power
iteration.

An epoch costs O(stored entries of the active rows + residual support),
never O(n).  Each node gets a *slot* the first time it holds residual and
``q``/``res`` live only on those slots (:func:`_push_epochs`); the active
rows are gathered straight from the CSR ``indptr``/``indices``/``data``
arrays and scattered back with one ``np.bincount`` over the slots.  The
only O(n) work left in a call is the per-call slot map, the dense
returned score vector and, when it triggers, the power-iteration
fallback — so the win grows with graph size for localized queries
(``docs/performance.md`` § Forward push; the ``serve-local`` workload).

When the premise fails — the frontier stops being sparse (uniform-ish
teleports, very small α, ``dangling="uniform"`` spraying mass everywhere)
— the solver *falls back* to :func:`~repro.linalg.solvers.power_iteration`
through the same cached operator bundle, warm-started from ``q + res``, so
callers always get a correctly-converged result.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import replace

import numpy as np
from scipy import sparse

from repro.errors import ConvergenceError, ParameterError
from repro.linalg.operator import DANGLING_STRATEGIES, LinearOperatorBundle
from repro.linalg.solvers import PageRankResult, power_iteration
from repro.telemetry.trace import record_result

__all__ = ["forward_push"]

#: Fraction of the mean active residual used as the per-epoch push
#: threshold.  Mass below the threshold is < c·Σres, so every epoch pushes
#: at least (1−c) of the residual mass and Σres contracts by a factor of at
#: most α + c·(1−α) — α-rate epochs with a sparse frontier.
_THETA_FRACTION = 0.25


def _seed_arrays(
    seeds: "int | np.ndarray | Mapping[int, float] | Sequence[int] | tuple",
    n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Normalise a seed spec into ``(indices, weights)`` with Σweights = 1.

    Accepts a single index, a sequence of indices (equal weights,
    duplicates accumulate), a ``{index: weight}`` mapping, an
    ``(indices, weights)`` pair of arrays, or a dense ``(n,)`` teleport
    vector (sparsified on its nonzero support).
    """
    def as_index_array(values) -> np.ndarray:
        arr = np.asarray(values)
        if arr.size and not np.issubdtype(arr.dtype, np.integer):
            raise ParameterError(
                "seed indices must have integer dtype, "
                f"got {arr.dtype}"
            )
        return arr.astype(np.int64).ravel()

    if isinstance(seeds, (int, np.integer)):
        idx = np.array([int(seeds)], dtype=np.int64)
        w = np.array([1.0])
    elif isinstance(seeds, Mapping):
        idx = as_index_array(list(seeds.keys()))
        w = np.fromiter(
            (float(v) for v in seeds.values()), dtype=np.float64,
            count=len(seeds),
        )
    elif (
        isinstance(seeds, tuple)
        and len(seeds) == 2
        and (np.ndim(seeds[0]) > 0 or np.ndim(seeds[1]) > 0)
    ):
        # An explicit (indices, weights) pair; a plain tuple of scalar
        # indices like (3, 5) falls through to the sequence branch.
        idx = as_index_array(seeds[0])
        w = np.asarray(seeds[1], dtype=np.float64).ravel()
        if idx.shape != w.shape:
            raise ParameterError(
                "seed (indices, weights) arrays must have equal length, "
                f"got {idx.shape} and {w.shape}"
            )
    else:
        arr = np.asarray(seeds)
        if arr.ndim == 1 and arr.shape == (n,):
            if np.issubdtype(arr.dtype, np.integer):
                # Could be n seed indices or an integer one-hot teleport —
                # guessing silently produces wrong scores, so refuse.
                raise ParameterError(
                    f"a length-{n} integer seed array is ambiguous on a "
                    f"{n}-node graph: pass a float teleport vector, an "
                    "(indices, weights) pair, or a {index: weight} mapping"
                )
            # A dense teleport vector: push on its support.
            idx = np.flatnonzero(arr)
            w = np.asarray(arr, dtype=np.float64)[idx]
        else:
            if arr.size and not np.issubdtype(arr.dtype, np.integer):
                # Catches wrong-length dense teleports (and float "index"
                # lists) instead of silently truncating them to indices.
                raise ParameterError(
                    "seed index arrays must have integer dtype; a dense "
                    f"teleport vector must have length {n}, got a "
                    f"{arr.dtype} array of shape {arr.shape}"
                )
            idx = arr.astype(np.int64).ravel()
            w = np.ones(idx.shape[0])
    if idx.size == 0:
        raise ParameterError("at least one seed node is required")
    if (idx < 0).any() or (idx >= n).any():
        bad = int(idx[(idx < 0) | (idx >= n)][0])
        raise ParameterError(f"seed index {bad} out of range for n={n}")
    if (w < 0).any():
        raise ParameterError("seed weights must be non-negative")
    # Accumulate duplicates (in input order, O(seeds) not O(n)), then
    # drop zero-weight seeds.
    idx, inverse = np.unique(idx, return_inverse=True)
    w = np.bincount(inverse, weights=w, minlength=idx.size)
    keep = w != 0.0
    idx = idx[keep]
    w = w[keep]
    total = w.sum()
    if total <= 0.0:
        raise ParameterError("seed weights must have positive total mass")
    return idx, w / total


class _Frontier:
    """Per-call push state stored on *slots*, not on all n nodes.

    A node gets a slot the first time it holds residual; ``nodes`` maps
    slot → node, ``q`` and ``res`` hold the settled estimate and the
    residual per slot, and ``slot_of`` (node → slot, ``-1`` for none) is
    the one O(n) array of the call.  Every instance is private to one
    solver call, so concurrent pushes on a shared bundle never share
    scratch state.
    """

    def __init__(self, n: int, nodes: np.ndarray, res: np.ndarray) -> None:
        self.slot_of = np.full(n, -1, dtype=np.int64)
        self.slot_of[nodes] = np.arange(nodes.size)
        self.nodes = nodes
        self.res = res
        self.q = np.zeros(nodes.size)
        self.epochs = 0
        self.converged = False
        self.capped = False
        self.frontier_peak = 0
        self.mass = float(np.abs(res).sum())

    @property
    def support(self) -> int:
        """Number of nodes that ever held residual."""
        return int(self.nodes.size)

    def slots(self, nodes: np.ndarray) -> np.ndarray:
        """Slots of ``nodes``, allocating one for each first-time node."""
        slots = self.slot_of.take(nodes)
        fresh = slots < 0
        if fresh.any():
            new = np.unique(nodes[fresh])
            self.slot_of[new] = np.arange(
                self.nodes.size, self.nodes.size + new.size
            )
            self.nodes = np.concatenate((self.nodes, new))
            self.q = np.concatenate((self.q, np.zeros(new.size)))
            self.res = np.concatenate((self.res, np.zeros(new.size)))
            slots = self.slot_of.take(nodes)
        return slots

    def dense(self, values: np.ndarray) -> np.ndarray:
        """Scatter per-slot ``values`` into a dense length-n vector."""
        out = np.zeros(self.slot_of.size)
        out[self.nodes] = values
        return out


def _push_epochs(
    bundle: LinearOperatorBundle,
    nodes: np.ndarray,
    res: np.ndarray,
    *,
    alpha: float,
    tol: float,
    max_iter: int,
    dangling: str,
    settle: float,
    target: tuple[np.ndarray, np.ndarray],
    row_limit: float,
    entry_limit: float,
    history: list[float],
) -> _Frontier:
    """Run Gauss–Southwell push epochs on the signed residual ``res``.

    ``nodes``/``res`` are the initial residual support (distinct node
    indices) and its values.  Pushing slot ``u`` settles
    ``settle·res[u]`` into ``q[u]`` and forwards ``α·res[u]`` along row
    ``u`` of the bundle's matrix; a ``dangling="self"`` row settles its
    whole geometric series ``settle·res[u]/(1−α)`` at once, and under
    ``dangling="teleport"`` a dangling row's forwarded mass goes to the
    sparse ``target`` ``(indices, weights)``.  Each epoch appends
    ``Σ|res|`` to ``history``; the run stops once it is ``≤ tol``, after
    ``max_iter`` epochs, or — with ``capped`` set and the state left as
    it was before that epoch — when the active frontier has more than
    ``row_limit`` rows or its rows store more than ``entry_limit``
    entries.  One epoch costs O(active rows' entries + support).
    """
    mat = bundle.mat
    indptr, indices, data = mat.indptr, mat.indices, mat.data
    dangle_mask = bundle.dangle_mask
    has_dangling = bundle.has_dangling
    self_settle = settle / (1.0 - alpha)
    front = _Frontier(bundle.n, nodes, res)
    while front.epochs < max_iter:
        # Adaptive Gauss–Southwell threshold: push everything holding at
        # least _THETA_FRACTION of the mean active residual.  The mean is
        # ≤ the max, so the active set is never empty while mass remains.
        res = front.res
        live = np.count_nonzero(res)
        if live == 0:
            front.converged = True
            break
        theta = _THETA_FRACTION * front.mass / live
        active = np.flatnonzero(np.abs(res) >= theta)
        act_nodes = front.nodes[active]
        starts = indptr[act_nodes]
        lengths = indptr[act_nodes + 1] - starts
        entries = int(lengths.sum())
        if active.size > row_limit or entries > entry_limit:
            front.capped = True
            break
        front.frontier_peak = max(front.frontier_peak, int(active.size))
        front.epochs += 1

        if dangling == "self" and has_dangling:
            # Closed form: a dangling node keeps its walk mass in place,
            # so its residual settles geometrically into its own slot —
            # Σ_k settle·α^k·res = settle·res/(1−α).  Settle it in one
            # step; its row stores no entries, so the push below skips it.
            done = active[dangle_mask[act_nodes]]
            front.q[done] += res[done] * self_settle
            res[done] = 0.0

        r_act = res[active]
        res[active] = 0.0
        front.q[active] += settle * r_act
        # Gather the active rows' entries straight from the CSR arrays
        # and scatter res += α · Σ_u r_u · P[u, :] over the slots.
        if entries:
            pos = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
            pos += np.arange(entries)
            weights = data.take(pos)
            weights *= np.repeat(r_act, lengths)
            flow = np.bincount(
                front.slots(indices.take(pos)),
                weights=weights,
                minlength=front.nodes.size,
            )
            front.res += alpha * flow
        if dangling == "teleport" and has_dangling:
            d_mass = float(r_act[dangle_mask[act_nodes]].sum())
            if d_mass != 0.0:
                t_idx, t_w = target
                t_slots = front.slots(t_idx)
                front.res[t_slots] += alpha * d_mass * t_w
        front.mass = float(np.abs(front.res).sum())
        history.append(front.mass)
        if front.mass <= tol:
            front.converged = True
            break
    return front


def _fallback(
    bundle: LinearOperatorBundle,
    teleport: np.ndarray,
    guess: np.ndarray,
    *,
    alpha: float,
    tol: float,
    max_iter: int,
    dangling: str,
    raise_on_failure: bool,
    epochs: int,
    history: list[float],
    method: str,
    **facts,
) -> PageRankResult:
    """Finish by power iteration on the same bundle from ``guess``."""
    result = power_iteration(
        None,
        alpha=alpha,
        teleport=teleport,
        tol=tol,
        max_iter=max_iter,
        dangling=dangling,
        raise_on_failure=raise_on_failure,
        operator=bundle,
        x0=guess if guess.sum() > 0.0 else None,
    )
    return record_result(
        replace(
            result,
            iterations=epochs + result.iterations,
            residuals=history + result.residuals,
            method=method,
        ),
        push_epochs=epochs,
        **facts,
    )


def forward_push(

    transition: sparse.spmatrix | None,
    seeds,
    *,
    alpha: float = 0.85,
    tol: float = 1e-8,
    max_iter: int = 1000,
    dangling: str = "teleport",
    frontier_cap: float = 0.2,
    operator: LinearOperatorBundle | None = None,
    raise_on_failure: bool = False,
) -> PageRankResult:
    """Personalised PageRank/D2PR via vectorised Gauss–Southwell push.

    Parameters
    ----------
    transition:
        Row-stochastic matrix ``P`` (may be ``None`` when ``operator`` is
        given).
    seeds:
        Teleport support: a node index, a sequence of indices, a
        ``{index: weight}`` mapping, an ``(indices, weights)`` pair, or a
        dense ``(n,)`` teleport vector (sparsified).  The normalised seed
        distribution is both the teleport vector and — under the default
        ``dangling="teleport"`` — the dangling redistribution target.
    alpha:
        Residual probability.
    tol:
        L1 accuracy: on convergence the *unnormalised* estimate is within
        ``tol`` of the true solution in L1 (the remaining residual mass is
        the exact error — a certificate, not a heuristic); the returned
        scores are renormalised to sum to 1, adding at most ~``tol``
        relative distortion.
    max_iter:
        Epoch budget (one epoch = one batched push of the active frontier).
    dangling:
        ``"teleport"`` (default) and ``"self"`` stay sparse and are handled
        natively (``"self"`` in closed form: a self-looping dangling node's
        residual settles entirely into its own score).  ``"uniform"``
        sprays dangling mass over all nodes, which destroys frontier
        sparsity, so graphs with dangling rows fall back to power
        iteration under it.
    frontier_cap:
        Fraction of ``n`` the active frontier may reach before the solver
        concludes the query is not localized and falls back to
        warm-started power iteration.  ``0`` forces the fallback
        immediately (useful for testing).
    operator:
        Pre-built :class:`~repro.linalg.operator.LinearOperatorBundle`;
        when omitted the memoised bundle of ``transition`` is used.
    raise_on_failure:
        Raise :class:`ConvergenceError` instead of returning an
        unconverged result.

    Returns
    -------
    PageRankResult
        ``method`` is ``"forward_push"`` (native convergence) or
        ``"forward_push_fallback"`` (finished by power iteration);
        ``iterations`` counts epochs (plus fallback sweeps),
        ``residuals`` the per-epoch remaining residual mass.
    """
    bundle = LinearOperatorBundle.resolve(transition, operator)
    n = bundle.n
    if not 0.0 <= alpha < 1.0:
        raise ParameterError(f"alpha must be in [0, 1), got {alpha}")
    if dangling not in DANGLING_STRATEGIES:
        raise ParameterError(
            f"unknown dangling strategy {dangling!r}; "
            f"expected one of {DANGLING_STRATEGIES}"
        )
    if not 0.0 <= frontier_cap <= 1.0:
        raise ParameterError(
            f"frontier_cap must be in [0, 1], got {frontier_cap}"
        )
    seed_idx, seed_w = _seed_arrays(seeds, n)

    def teleport() -> np.ndarray:
        vec = np.zeros(n)
        vec[seed_idx] = seed_w
        return vec

    history: list[float] = []
    if dangling == "uniform" and bundle.has_dangling:
        # Dangling mass sprayed uniformly densifies the residual in one
        # step: push has no advantage, go straight to the solver it would
        # fall back to anyway.
        t = teleport()
        return _fallback(
            bundle, t, t,
            alpha=alpha, tol=tol, max_iter=max_iter, dangling=dangling,
            raise_on_failure=raise_on_failure, epochs=0, history=history,
            method="forward_push_fallback", fallback="uniform_dangling",
        )

    front = _push_epochs(
        bundle, seed_idx, seed_w.copy(),
        alpha=alpha, tol=tol, max_iter=max_iter, dangling=dangling,
        settle=1.0 - alpha, target=(seed_idx, seed_w),
        row_limit=frontier_cap * n, entry_limit=np.inf, history=history,
    )
    if front.capped:
        return _fallback(
            bundle, teleport(), front.dense(front.q + front.res),
            alpha=alpha, tol=tol, max_iter=max_iter - front.epochs,
            dangling=dangling, raise_on_failure=raise_on_failure,
            epochs=front.epochs, history=history,
            method="forward_push_fallback", fallback="frontier_cap",
            frontier_peak=front.frontier_peak, support=front.support,
        )
    if not front.converged and raise_on_failure:
        raise ConvergenceError(
            f"forward push did not reach tol={tol} within {max_iter} "
            f"epochs (remaining residual mass={front.mass:.3e})",
            iterations=front.epochs,
            residual=front.mass,
        )
    total = front.q.sum()
    scores = front.dense(front.q / total) if total > 0.0 else teleport()
    return record_result(
        PageRankResult(
            scores=scores,
            iterations=front.epochs,
            converged=front.converged,
            residuals=history,
            method="forward_push",
        ),
        frontier_peak=front.frontier_peak,
        support=front.support,
    )
