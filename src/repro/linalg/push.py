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

**On the factors.**  Every transition of the D2PR family is
``P = diag(r)·M·diag(c)`` (paper Eq. 1) over one cached adjacency ``M``.
The loop reads it as :class:`~repro.linalg.operator.Factors` and scales
each gathered entry of ``M`` by ``r_u`` and ``c_v`` itself, so a push
builds no transition and a graph delta leaves nothing to rebuild but
``r`` and ``c``.  The dangling rows are ``M``'s empty rows.  A bundle is
the unfactored form (unit scales).

**Local finish.**  Epochs find *where* the answer lives; they are a slow
way to settle it there (about 118 epochs at ``tol=1e-8``, α = 0.85).  So
after ``_LOCAL_EPOCHS`` epochs the loop closes the support over
``_LOCAL_HOPS`` out-hops into a node set ``S``, factors the
support-sized sparse system ``A = I − α·P̂_SSᵀ`` once
(:func:`_local_solve`, ``splu`` in node order) and solves
``A·y = res_S``: ``settle·y`` goes into ``q``, the residual on ``S``
becomes the round-off ``res_S − A·y`` and only the mass leaking out of
``S``, ``α·(P_{S,Sᶜ})ᵀ·y``, stays to be pushed.  Push's invariant
``x = q + settle·(I − αP̂ᵀ)⁻¹·res`` holds after every solve, so the
``Σ|res|`` certificate and stopping rule are unchanged; the loop
re-closes ``S`` over the leaked support and solves again until
``Σ|res| ≤ tol``, typically twice.  A solve is refused — the epochs then
carry on as before — when ``S`` exceeds the frontier limits, when a
``dangling="teleport"`` row in ``S`` would send mass to a target outside
``S``, or when the LU could fill more than ``_LOCAL_FILL`` times the
system's entries (an expander-like support).

When the premise fails — the frontier stops being sparse (uniform-ish
teleports, very small α, ``dangling="uniform"`` spraying mass everywhere)
— the solver *falls back* to :func:`~repro.linalg.solvers.power_iteration`
on the materialised transition, warm-started from ``q + res``, so callers
always get a correctly-converged result.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import replace

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from repro.errors import ParameterError
from repro.linalg.operator import (
    DANGLING_STRATEGIES,
    Factors,
    LinearOperatorBundle,
)
from repro.linalg.solvers import (
    PageRankResult,
    _check_budget,
    power_iteration,
)
from repro.telemetry.trace import record_result

__all__ = ["forward_push"]

#: Fraction of the mean active residual used as the per-epoch push
#: threshold.  Mass below the threshold is < c·Σres, so every epoch pushes
#: at least (1−c) of the residual mass and Σres contracts by a factor of at
#: most α + c·(1−α) — α-rate epochs with a sparse frontier.
_THETA_FRACTION = 0.25

#: Push epochs run before the first local solve: enough for the residual
#: support to find the nodes the answer lives on.
_LOCAL_EPOCHS = 8

#: Out-hops the residual support is closed over before a local solve, so
#: the mass leaking out of the solved set starts two hops downstream.
_LOCAL_HOPS = 2

#: A local solve is refused when its LU could fill more than this many
#: times the local system's entries.  A support-sized block of a
#: community graph fills about 3x; an expander-like one fills densely
#: (a 4000-node random block of out-degree 12 took 6 s and 131 MB on a
#: 2-core host), and push epochs are far cheaper there.
_LOCAL_FILL = 8


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
    if not np.isfinite(w).all():
        raise ParameterError("seed weights must be finite")
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
        self.local_solves = 0
        self.converged = False
        self.capped = False
        self.frontier_peak = 0
        self.mass = float(np.abs(res).sum())

    @property
    def support(self) -> int:
        """Number of nodes that ever held residual or settled mass."""
        return int(self.nodes.size)

    @property
    def steps(self) -> int:
        """Push epochs plus local solves: the call's iteration count."""
        return self.epochs + self.local_solves

    def facts(self) -> dict[str, int]:
        """The call's solver-record fields."""
        return {
            "frontier_peak": self.frontier_peak,
            "support": self.support,
            "local_solves": self.local_solves,
        }

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

    def truncate(self, count: int) -> None:
        """Drop every slot from ``count`` on (they hold no mass)."""
        self.slot_of[self.nodes[count:]] = -1
        self.nodes = self.nodes[:count]
        self.q = self.q[:count]
        self.res = self.res[:count]

    def dense(self, values: np.ndarray) -> np.ndarray:
        """Scatter per-slot ``values`` into a dense length-n vector."""
        out = np.zeros(self.slot_of.size)
        out[self.nodes] = values
        return out


def _positions(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Positions in the CSR arrays of the rows ``starts``/``lengths``."""
    pos = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    pos += np.arange(pos.size)
    return pos


def _close(
    front: _Frontier, indptr: np.ndarray, indices: np.ndarray, row_limit: float
) -> None:
    """Give every node ``_LOCAL_HOPS`` out-hops from a slot a slot.

    Each hop gathers only the rows of the nodes the previous hop added;
    the closure stops early once there are more than ``row_limit`` slots.
    """
    new = front.nodes
    for _ in range(_LOCAL_HOPS):
        count = front.nodes.size
        starts = indptr[new]
        front.slots(indices.take(_positions(starts, indptr[new + 1] - starts)))
        new = front.nodes[count:]
        if new.size == 0 or front.nodes.size > row_limit:
            break


def _local_solve(
    front: _Frontier,
    factors: Factors,
    *,
    alpha: float,
    dangling: str,
    settle: float,
    target: tuple[np.ndarray, np.ndarray],
    row_limit: float,
    entry_limit: float,
) -> bool:
    """Settle all residual on the support's out-closure by one sparse LU.

    With ``S`` the slots' nodes closed over ``_LOCAL_HOPS`` out-hops, in
    node order, and ``A = I − α·P̂_SSᵀ`` (``P̂`` the dangling-augmented
    transition), solve ``A·y = res_S``, settle ``settle·y`` into ``q``
    and replace the residual by the recomputed round-off
    ``res_S − A·y`` on ``S`` plus the leaked mass ``α·(P_{S,Sᶜ})ᵀ·y``
    outside it.  That keeps push's invariant
    ``x = q + settle·(I − αP̂ᵀ)⁻¹·res``, so ``Σ|res|`` stays the
    certificate.  A ``dangling="self"`` row of ``S`` is the diagonal
    entry ``1 − α``; under ``"teleport"`` the dangling rows of ``S`` add
    the rank-one block ``α·t_S·d_Sᵀ``, so the target must lie inside
    ``S``.  Returns ``False``, changing nothing, when it does not, when
    ``S`` has more than ``row_limit`` rows or its rows store more than
    ``entry_limit`` entries, or when the LU could fill more than
    ``_LOCAL_FILL`` times the system's entries.  ``P_SS`` is assembled
    from ``M_SS``, ``r_S`` and ``c_S``, each entry rounded as the
    materialised transition rounds it
    (:func:`~repro.linalg.operator.scaled_transition`).
    """
    mat = factors.mat.mat
    indptr, indices, data = mat.indptr, mat.indices, mat.data
    before = front.nodes.size
    _close(front, indptr, indices, row_limit)
    m = front.nodes.size
    if m > row_limit:
        front.truncate(before)
        return False
    order = np.argsort(front.nodes)
    closed = front.nodes[order]
    starts = indptr[closed]
    lengths = indptr[closed + 1] - starts
    sinks = np.flatnonzero(lengths == 0)
    teleported = sinks.size > 0 and dangling != "self"
    if teleported:
        t_idx, t_w = target
        t_slots = front.slot_of.take(t_idx)
    if int(lengths.sum()) > entry_limit or (
        teleported and not (t_slots >= 0).all()
    ):
        front.truncate(before)
        return False
    pos = _positions(starts, lengths)
    cols = indices.take(pos)
    if factors.row is None:
        vals = data.take(pos)
    else:
        # (r_i·c_j)·M_ij, rounded as scaled_transition rounds it.
        vals = np.repeat(factors.row.take(closed), lengths)
        if factors.col is not None:
            vals *= factors.col.take(cols)
        if not factors.mat.unit:
            vals *= data.take(pos)
    owner = np.repeat(np.arange(m), lengths)
    # Slots for every node S's rows reach, then slot → local index (-1
    # outside S): a support-sized map, no search per entry.
    col_slots = front.slots(cols)
    local_of = np.full(front.nodes.size, -1, dtype=np.int64)
    local_of[order] = np.arange(m)
    col_local = local_of.take(col_slots)
    inside = col_local >= 0

    # A = I − α·P̂_SSᵀ in CSC: column j is row closed[j] of P̂ (its inside
    # entries, grouped by row) and the diagonal, then under "teleport" a
    # dangling row's target entries.  When M's rows are sorted, so are
    # the inside entries (S is in node order), and the diagonal goes in
    # its sorted place; otherwise it goes last.
    ordered = mat.has_sorted_indices
    own = owner[inside]
    col_in = col_local[inside]
    in_count = np.bincount(own, minlength=m)
    past = (col_in > own) if ordered else np.zeros(own.size, dtype=bool)
    counts = in_count + 1
    if teleported:
        counts[sinks] += t_idx.size
    a_ptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counts, out=a_ptr[1:])
    a_val = np.empty(a_ptr[-1])
    a_idx = np.empty(a_ptr[-1], dtype=np.int64)
    shift = a_ptr[:-1] - (np.cumsum(in_count) - in_count)
    dest = np.arange(in_count.sum()) + shift[own] + past
    a_val[dest] = -alpha * vals[inside]
    a_idx[dest] = col_in
    diag_at = a_ptr[:-1] + in_count - np.bincount(own[past], minlength=m)
    a_val[diag_at] = 1.0
    a_idx[diag_at] = np.arange(m)
    if sinks.size and not teleported:
        a_val[diag_at[sinks]] = 1.0 - alpha
    elif teleported:
        t_at = (diag_at[sinks] + 1)[:, None] + np.arange(t_idx.size)
        a_val[t_at] = -alpha * t_w
        a_idx[t_at] = local_of.take(t_slots)
    # A is strictly column diagonally dominant, so the LU in node order
    # keeps the diagonal pivots and L + U fill at most A's envelope:
    # from each column's top entry and each row's leftmost entry to the
    # diagonal.
    top = np.minimum.reduceat(a_idx, a_ptr[:-1])
    left = np.arange(m)
    np.minimum.at(left, a_idx, np.repeat(np.arange(m), counts))
    envelope = int((2 * np.arange(m) - top - left).sum()) + m
    if envelope > _LOCAL_FILL * a_ptr[-1]:
        front.truncate(before)
        return False
    local = sparse.csc_matrix((a_val, a_idx, a_ptr), shape=(m, m))
    # Sorted and duplicate-free unless a target block follows a diagonal,
    # so splu need not sort it.
    local.has_canonical_format = ordered and not teleported

    r_local = front.res[order]
    y = splu(local, permc_spec="NATURAL").solve(r_local)
    front.q[order] += settle * y
    front.res[order] = r_local - local @ y
    outside = ~inside
    front.res += alpha * np.bincount(
        col_slots[outside],
        weights=vals[outside] * y[owner[outside]],
        minlength=front.nodes.size,
    )
    front.local_solves += 1
    return True


def _push_epochs(
    factors: Factors,
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
    """Run Gauss–Southwell push epochs on the signed residual ``res``,
    then finish with local solves.

    ``nodes``/``res`` are the initial residual support (distinct node
    indices) and its values.  Pushing slot ``u`` settles
    ``settle·res[u]`` into ``q[u]`` and forwards ``α·res[u]`` along row
    ``u`` of ``P = diag(r)·M·diag(c)``, that is ``α·res[u]·r_u·M[u, :]``
    scaled by ``c`` entry by entry; a ``dangling="self"`` row settles its
    whole geometric series ``settle·res[u]/(1−α)`` at once, and under
    ``dangling="teleport"`` a dangling row's forwarded mass goes to the
    sparse ``target`` ``(indices, weights)``.  After ``_LOCAL_EPOCHS``
    epochs each step is a :func:`_local_solve` on the support's
    out-closure instead, until one is refused or stops shrinking
    ``Σ|res|``; then the epochs resume.  Each step appends ``Σ|res|`` to
    ``history``; the run stops once it is ``≤ tol``, after ``max_iter``
    steps, or — with ``capped`` set and the state left as it was before
    that epoch — when the active frontier has more than ``row_limit``
    rows or its rows store more than ``entry_limit`` entries.  One epoch
    costs O(active rows' entries + support), one local solve the sparse
    LU of a support-sized system.
    """
    mat = factors.mat.mat
    indptr, indices, data = mat.indptr, mat.indices, mat.data
    row, col = factors.row, factors.col
    # A 0/1 pattern's values need no gather: the scales are the weights.
    unit = row is not None and factors.mat.unit
    dangle_mask = factors.mat.dangle_mask
    has_dangling = factors.mat.has_dangling
    self_settle = settle / (1.0 - alpha)
    front = _Frontier(factors.n, nodes, res)
    local = True
    while front.steps < max_iter:
        if local and front.epochs >= _LOCAL_EPOCHS:
            before = front.mass
            local = _local_solve(
                front, factors,
                alpha=alpha, dangling=dangling, settle=settle, target=target,
                row_limit=row_limit, entry_limit=entry_limit,
            )
            if local:
                front.mass = float(np.abs(front.res).sum())
                history.append(front.mass)
                if front.mass <= tol:
                    front.converged = True
                    break
                local = front.mass < before
                continue
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
        # Gather the active rows' entries straight from M's CSR arrays
        # and scatter res += α · Σ_u res_u · r_u · M[u, :] ⊙ c over the
        # slots.
        if entries:
            pos = _positions(starts, lengths)
            cols = indices.take(pos)
            scale = r_act if row is None else r_act * row.take(act_nodes)
            weights = np.repeat(scale, lengths)
            if not unit:
                weights *= data.take(pos)
            if col is not None:
                weights *= col.take(cols)
            flow = np.bincount(
                front.slots(cols),
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
    factors: Factors,
    teleport: np.ndarray,
    guess: np.ndarray,
    *,
    alpha: float,
    tol: float,
    max_iter: int,
    dangling: str,
    front: _Frontier | None,
    history: list[float],
    method: str,
    fallback: str,
) -> PageRankResult:
    """Finish by power iteration on the materialised transition.

    Starts from ``guess``; ``front`` is the push that ran first, or
    ``None`` when none did.  Factors are materialised here, uncached.
    """
    steps = front.steps if front is not None else 0
    facts = front.facts() if front is not None else {}
    result = power_iteration(
        None,
        alpha=alpha,
        teleport=teleport,
        tol=tol,
        max_iter=max_iter,
        dangling=dangling,
        operator=factors.bundle(),
        x0=guess if guess.sum() > 0.0 else None,
    )
    return record_result(
        replace(
            result,
            iterations=steps + result.iterations,
            residuals=history + result.residuals,
            method=method,
        ),
        fallback=fallback,
        push_epochs=front.epochs if front is not None else 0,
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
    operator: Factors | LinearOperatorBundle | None = None,
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
        Step budget (one step = one batched push of the active frontier
        or one local solve).
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
        The transition as :class:`~repro.linalg.operator.Factors`
        (pushed without materialising it) or a pre-built
        :class:`~repro.linalg.operator.LinearOperatorBundle`; when
        omitted the memoised bundle of ``transition`` is used.

    Returns
    -------
    PageRankResult
        ``method`` is ``"forward_push"`` (native convergence, local
        solves included) or ``"forward_push_fallback"`` (finished by
        power iteration); ``iterations`` counts epochs and local solves
        (plus fallback sweeps), ``residuals`` the remaining residual mass
        after each of them.
    """
    factors = Factors.resolve(transition, operator)
    n = factors.n
    if not 0.0 <= alpha < 1.0:
        raise ParameterError(f"alpha must be in [0, 1), got {alpha}")
    _check_budget(tol, max_iter)
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
    if dangling == "uniform" and factors.mat.has_dangling:
        # Dangling mass sprayed uniformly densifies the residual in one
        # step: push has no advantage, go straight to the solver it would
        # fall back to anyway.
        t = teleport()
        return _fallback(
            factors, t, t,
            alpha=alpha, tol=tol, max_iter=max_iter, dangling=dangling,
            front=None, history=history,
            method="forward_push_fallback", fallback="uniform_dangling",
        )

    front = _push_epochs(
        factors, seed_idx, seed_w.copy(),
        alpha=alpha, tol=tol, max_iter=max_iter, dangling=dangling,
        settle=1.0 - alpha, target=(seed_idx, seed_w),
        row_limit=frontier_cap * n, entry_limit=np.inf, history=history,
    )
    if front.capped:
        return _fallback(
            factors, teleport(), front.dense(front.q + front.res),
            alpha=alpha, tol=tol, max_iter=max(max_iter - front.steps, 1),
            dangling=dangling, front=front, history=history,
            method="forward_push_fallback", fallback="frontier_cap",
        )
    total = front.q.sum()
    scores = front.dense(front.q / total) if total > 0.0 else teleport()
    return record_result(
        PageRankResult(
            scores=scores,
            iterations=front.steps,
            converged=front.converged,
            residuals=history,
            method="forward_push",
        ),
        **front.facts(),
    )
