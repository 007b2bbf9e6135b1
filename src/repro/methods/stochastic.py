"""Stochastic (PageRank-shaped) centrality methods.

These methods solve the teleport fixed point ``x = α·Tᵀx + (1−α)·t``
against a *row-stochastic* transition ``T``, which is what makes the
entire solver arsenal apply verbatim: batched power iteration, forward
push, incremental residual correction after deltas and the sharded
block solver all assume exactly that shape, and the successive-L1
residual is a certified error bound at contraction rate α.

* ``pagerank`` / ``d2pr`` — one family: conventional PageRank is the
  ``p = 0`` point of the degree-de-coupled transition (paper Eq. 1),
  and on weighted graphs also the ``β = 1`` point of the §3.2.3 blend,
  so both names share the ``"d2pr"`` family tag, operator caches,
  microbatch windows and cache digests.
* ``fatigued`` — fatigued PageRank (PAPERS.md): high-degree nodes
  "tire" and forward less of their mass.  Per-node fatigue
  ``φ_j = γ·θ_j/θ_max`` (γ = the request's ``fatigue`` parameter,
  θ = the paper's degree/out-weight vector) down-weights *entering*
  node ``j`` by ``1−φ_j``; re-normalising rows keeps the transition
  stochastic, so the method is a diagonal rescale of the D2PR
  transition and reuses every solver and certificate unchanged.
  ``γ < 1`` strictly, so no surviving entry hits zero and the dangling
  set is exactly the base transition's.

Every builder here is a diagonal scaling of one adjacency,
``T = diag(r)·M·diag(c)``: ``M`` is the 0/1 pattern (β = 0) or the
weighted adjacency (β = 1), ``c = θ^{-p}`` (times ``1 − φ`` for
fatigued) and ``r = 1/(M c)`` on non-empty rows.
:meth:`PageRankMethod.factors` hands those factors to the coalescer, so
a whole ``p`` grid solves as one block over ``M`` without materialising
a transition, and :meth:`PageRankMethod.transition` materialises the
same factors, so a bundle depends on the graph only through the cached
adjacency and θ.  A blend ``0 < β < 1`` is a sum of two such scalings
and does not factor; it keeps the log-space softmax builders.

This module owns the transition builders themselves;
:mod:`repro.core.d2pr` and :mod:`repro.core.pagerank` are thin wrappers
over :func:`~repro.methods.registry.operator_for`.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.errors import ParameterError
from repro.linalg.operator import LinearOperatorBundle
from repro.linalg.transition import (
    blended_transition,
    degree_decoupled_transition,
)
from repro.methods.base import CentralityMethod, Factors, MethodParams
from repro.methods.registry import family_method, operator_for, register

__all__ = [
    "D2PRMethod",
    "FatiguedMethod",
    "PageRankMethod",
    "adjacency_and_theta",
    "d2pr_transition",
    "fatigued_transition",
]


def adjacency_and_theta(
    graph, *, weighted: bool
) -> tuple[sparse.csr_matrix, np.ndarray]:
    """Return the adjacency matrix and the paper's ``theta`` vector.

    ``theta`` is the per-node quantity whose power ``-p`` weights incoming
    transitions (Equation 1 and §3.2.2–3.2.3 of the paper):

    * undirected unweighted — node degree;
    * directed unweighted   — node out-degree;
    * weighted (either)     — total out-weight ``Θ(v) = Σ_h w(v→h)``.

    The adjacency is the graph's cached ``("csr", weighted)`` export and
    ``theta`` is memoised beside it under ``("theta", weighted)``, so
    repeated solves and parameter sweeps reuse one of each per graph
    version.
    """
    graph.require_nonempty()
    adjacency = graph.to_csr(weighted=weighted)

    def build() -> np.ndarray:
        if weighted:
            theta = np.asarray(adjacency.sum(axis=1)).ravel()
        else:
            # Degree for undirected graphs, out-degree for DiGraph: the
            # CSR's row lengths, with no COO export.
            theta = np.diff(adjacency.indptr).astype(np.float64)
        # Shared and unfingerprinted: a write would silently move every
        # later build on this graph.
        theta.flags.writeable = False
        return theta

    return adjacency, graph.cached(("theta", bool(weighted)), build)


def _theta_floor(theta: np.ndarray, weighted: bool) -> float:
    """The clamp every D2PR build applies to ``θ`` before ``θ^{-p}``.

    1.0 on unweighted graphs (sinks count as degree-1 nodes) and the
    smallest positive ``Θ`` on weighted ones, which keeps the weighted
    walk invariant under scaling all weights.
    """
    if not weighted:
        return 1.0
    positive = theta[theta > 0]
    return float(positive.min()) if positive.size else 1.0


def _fatigue_keep(theta: np.ndarray, fatigue: float) -> np.ndarray:
    """Fatigued PageRank's column factor ``1 − φ = 1 − γ·θ/θ_max``."""
    theta_max = float(theta.max()) if theta.size else 0.0
    if theta_max > 0.0:
        return 1.0 - float(fatigue) * (theta / theta_max)
    return np.ones_like(theta, dtype=np.float64)


#: ``ln 2`` split so that ``k·_LN2_HI`` is exact for any ``|k| < 2³²``
#: (its low 32 mantissa bits are zero) and ``_LN2_HI + _LN2_LO`` is
#: ``ln 2`` to well beyond float64.
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10

#: Widest spread of ``log₂ c`` a factored key may have.  It keeps every
#: ``c``, every ``r = 1/(M c)`` and every sum of a sweep a normal
#: float64 number (``c ≥ 2⁻⁹⁰¹``, and ``≥ 2⁻⁹⁵⁴`` after fatigue's
#: ``1 − φ ≥ 2⁻⁵³``); a wider key, ``|p|·log(θ_max/θ_min) ≳ 624``,
#: stays materialised.
_MAX_OCTAVES = 900


def _exp_shifted(log_c: np.ndarray) -> np.ndarray | None:
    """``exp(log_c)`` rescaled by one power of two (max entry ≈ 1).

    The shift is a whole number of octaves: ``log_c = k·ln 2 + f`` with
    the Cody–Waite split, ``exp(f)`` is taken on ``|f| ≤ ln 2 / 2`` and
    ``ldexp`` applies ``2^(k − k_max)`` exactly, so each entry keeps
    ``exp``'s own accuracy however wide the spread — a plain
    ``exp(log_c − max)`` would lose ``|log_c − max|`` ulps to the
    subtraction.  ``None`` when the spread exceeds ``_MAX_OCTAVES``.
    """
    octaves = np.rint(log_c * (1.0 / np.log(2.0)))
    top = octaves.max()
    if top - octaves.min() > _MAX_OCTAVES:
        return None
    frac = (log_c - octaves * _LN2_HI) - octaves * _LN2_LO
    return np.ldexp(np.exp(frac), (octaves - top).astype(np.int64))


def d2pr_transition(
    graph,
    p: float,
    *,
    beta: float = 0.0,
    weighted: bool = False,
):
    """Build the (row-stochastic) D2PR transition matrix for ``graph``.

    ``theta`` is clamped from below before weighting: at 1.0 on
    unweighted graphs (sinks count as degree-1 nodes, see DESIGN.md
    §5.3) and at the smallest *positive* ``Θ`` on weighted graphs —
    clamping weighted thetas at a fixed 1.0 would break the
    scale-invariance of the formulation (multiplying all edge weights by
    a constant must not change the scores).

    Parameters
    ----------
    graph:
        Undirected or directed graph.
    p:
        Degree de-coupling weight.
    beta:
        Connection-strength blend for weighted graphs; must be 0 when
        ``weighted=False`` because the paper only defines the blend for
        weighted graphs (an unweighted ``T_conn`` is just ``p = 0``).
    weighted:
        Use stored edge weights.  ``theta`` becomes the total out-weight.

    Returns
    -------
    scipy.sparse.csr_matrix
        Rows are sources; each non-dangling row sums to 1.  It is the
        ``.mat`` of the graph-cached ``("operator", "d2pr", p, beta,
        weighted)`` bundle, so sweeps and repeated solves with the same
        ``(p, beta, weighted)`` reuse one matrix per graph version.
    """
    key = ("d2pr", float(p), float(beta), bool(weighted), "teleport")
    return operator_for(graph, key).mat


def fatigued_transition(
    graph,
    p: float,
    *,
    fatigue: float,
    beta: float = 0.0,
    weighted: bool = False,
):
    """Row-stochastic fatigued transition, memoised on the graph cache.

    The D2PR transition with its columns scaled by ``1 − φ`` (φ =
    per-node fatigue, γ·θ/θ_max) and its rows re-normalised: built as
    ``diag(r)·M·diag(c·(1 − φ))`` from the cached adjacency and θ, or,
    for a blend or a too-wide key, as that rescale of the cached D2PR
    transition.  γ < 1 keeps every surviving entry positive, so zero
    rows — and hence the dangling mask — are exactly those of the base
    transition.  It is the ``.mat`` of the graph-cached ``("operator",
    "fatigued", p, fatigue, beta, weighted)`` bundle; a
    :class:`GraphDelta` drops that bundle like every other, and the
    next solve rebuilds it from the refreshed adjacency and θ.
    """
    key = (
        "fatigued",
        float(p),
        float(fatigue),
        float(beta),
        bool(weighted),
        "teleport",
    )
    return operator_for(graph, key).mat


class _StochasticMethod(CentralityMethod):
    """Shared capability surface of the row-stochastic family."""

    certificate = "l1"
    batchable = True
    supports_push = True
    supports_incremental = True
    supports_sharding = True
    supports_seeds = True

    def matrix_key(self, group_key: tuple) -> tuple:
        # The trailing dangling strategy is a per-solve choice: every
        # strategy solves on the same matrix.
        return group_key[:-1]

    def reversible(self, graph, group_key: tuple) -> bool:
        # On an undirected graph every builder here re-weights the
        # columns of a symmetric adjacency, P_ij ∝ A_ij·w_j, so the
        # conductances A_ij·w_i·w_j are symmetric.  A blended β ∈ (0, 1)
        # mixes two chains with different stationary laws.  β sits third
        # from the end of every group key of this family.
        return not graph.directed and group_key[-3] in (0.0, 1.0)


class PageRankMethod(_StochasticMethod):
    """Conventional PageRank — the ``p = 0`` point of the D2PR family.

    Shares the ``"d2pr"`` family (and therefore transitions, cache
    digests and microbatch windows) with :class:`D2PRMethod`.  The
    vocabulary pins the request's ``p`` and ``beta`` at their defaults
    so a request cannot ask for de-coupling under the conventional
    name; weighted requests solve on the connection-strength walk
    (``β = 1``, paper §3.2.3), exactly like
    ``repro.pagerank(graph, weighted=True)``.
    """

    name = "pagerank"
    family = "d2pr"
    vocabulary = frozenset({"alpha", "dangling"})

    def group_key(self, params: MethodParams) -> tuple:
        weighted = bool(params.weighted)
        beta = 1.0 if weighted else 0.0
        return ("d2pr", 0.0, beta, weighted, params.dangling)

    def sort_key(self, group_key: tuple) -> tuple:
        _, p, beta, weighted, dangling = group_key
        return ("d2pr", weighted, dangling, beta, p)

    def transition(self, graph, group_key: tuple):
        return self.build_operator(graph, group_key).mat

    def build_operator(self, graph, group_key: tuple):
        # Every β ∈ {0, 1} key is diag(r)·M·diag(c), materialised from
        # the memoised factors (on an undirected graph its transpose is
        # built from them too, see Factors.bundle); a blend or a
        # too-wide key keeps its own builder.
        factored = self._factors_of(graph, group_key)
        if factored is None:
            return LinearOperatorBundle.of(
                self._unfactored_transition(graph, group_key)
            )
        return factored.bundle()

    def _unfactored_transition(self, graph, group_key: tuple):
        _, p, beta, weighted, _dangling = group_key
        if not weighted and beta != 0.0:
            raise ParameterError(
                "beta is only meaningful for weighted graphs "
                "(the paper defines the blend in §3.2.3); pass weighted=True"
            )
        adjacency, theta = adjacency_and_theta(graph, weighted=weighted)
        floor = _theta_floor(theta, weighted)
        if weighted:
            return blended_transition(
                adjacency, p, beta, theta=theta, clamp_min=floor
            )
        return degree_decoupled_transition(
            adjacency, p, theta=theta, clamp_min=floor
        )

    def pool_key(self, group_key: tuple) -> tuple:
        # M is the 0/1 pattern at β = 0 and the weighted adjacency at
        # β = 1 (weighted keys only); a blend keeps its own transition.
        # β and the weighted flag sit just before the dangling strategy.
        beta, weighted, dangling = group_key[-3:]
        if beta != 0.0 and not (weighted and beta == 1.0):
            return group_key
        return ("csr", beta == 1.0, dangling)

    def factors(self, graph, group_key: tuple) -> Factors:
        factored = self._factors_of(graph, group_key)
        if factored is None:
            return super().factors(graph, group_key)
        return factored

    def _factors_of(self, graph, group_key: tuple) -> Factors | None:
        """The memoised factors of a factorable key, else ``None``.

        Cached under ``("factors", *group_key)``: a delta drops the
        entry like every operator bundle, and the rebuild costs O(n)
        plus one ``M·c`` multiply over the refreshed adjacency.
        """
        if self.pool_key(group_key) == group_key:
            return None
        return graph.cached(
            ("factors", *group_key),
            lambda: self._factored(graph, group_key),
        )

    def pooled_factors(self, graph, group_keys: list[tuple]):
        from repro.methods.spectral import adjacency_bundle

        pools: dict[tuple, list[tuple]] = {}
        for key in group_keys:
            pools.setdefault(self.pool_key(key), []).append(key)
        out = []
        for pool, keys in pools.items():
            if pool != keys[0]:
                _, row, col, factored = self._factor_pool(graph, pool, keys)
                if factored:
                    bundle = adjacency_bundle(graph, weighted=pool[1])
                    out.append((factored, Factors(pool, bundle, row, col)))
                keys = [key for key in keys if key not in factored]
            for key in keys:
                out.append(([key], family_method(key).factors(graph, key)))
        return out

    def _factored(self, graph, group_key: tuple) -> Factors | None:
        """Uncached factors of a poolable key; ``None`` if too wide.

        The one-key case of :meth:`_factor_pool`.
        """
        from repro.methods.spectral import adjacency_bundle

        pool = self.pool_key(group_key)
        _, row, col, factored = self._factor_pool(graph, pool, [group_key])
        if not factored:
            return None
        if row.ndim == 2:
            row = row[:, 0]
        bundle = adjacency_bundle(graph, weighted=pool[1])
        return Factors(pool, bundle, row, None if col is None else col[:, 0])

    def _factor_pool(self, graph, pool: tuple, group_keys: list[tuple]):
        """``(M, R, C, keys)``: the factors of one pool's factorable keys.

        ``M`` is the cached ``("csr", β == 1)`` adjacency.  Column ``g``
        of ``C`` is key ``keys[g]``'s :meth:`_column_scale` (``C`` is
        ``None`` when every key has unit scales), and ``R = 1/(M C)`` on
        non-empty rows (0 on dangling ones) comes from one multiply; it
        is one ``(n,)`` vector when ``C`` is ``None``.  ``log θ`` is taken
        once per weighted flag.  Keys too wide to factor are left out of
        ``keys``.
        """
        graph.require_nonempty()
        logs: dict[bool, tuple[np.ndarray, np.ndarray]] = {}

        def log_theta(weighted: bool):
            if weighted not in logs:
                _, theta = adjacency_and_theta(graph, weighted=weighted)
                floor = _theta_floor(theta, weighted)
                logs[weighted] = (theta, np.log(np.maximum(theta, floor)))
            return logs[weighted]

        keys, cols = [], []
        for key in group_keys:
            # A fatigued key may share a d2pr key's pool: each key's own
            # method gives its column scale.
            col = family_method(key)._column_scale(key, log_theta)
            if col is not False:
                keys.append(key)
                cols.append(col)
        mat = graph.to_csr(weighted=pool[1])
        n = mat.shape[0]
        if all(col is None for col in cols):
            block = None
            mass = mat @ np.ones(n)
        else:
            block = np.column_stack(
                [np.ones(n) if col is None else col for col in cols]
            )
            mass = mat @ block
        row = np.divide(1.0, mass, out=np.zeros_like(mass), where=mass > 0.0)
        return mat, row, block, keys

    def _column_scale(self, group_key: tuple, log_theta):
        """``c`` of a poolable key: an array, ``None`` (unit) or ``False``.

        ``False`` when the key's spread is too wide to factor.
        ``log_theta(weighted)`` gives ``(θ, log max(θ, floor))``.
        """
        _, p, beta, weighted, _ = group_key
        if p == 0.0 or beta == 1.0:
            return None
        # −p·log θ exactly as the builder's per-entry log weights.
        col = _exp_shifted(-p * log_theta(weighted)[1])
        return False if col is None else col


class D2PRMethod(PageRankMethod):
    """Degree de-coupled PageRank (paper Eq. 1) — the full vocabulary."""

    name = "d2pr"
    family = "d2pr"
    vocabulary = frozenset({"p", "alpha", "beta", "dangling"})

    def group_key(self, params: MethodParams) -> tuple:
        return (
            "d2pr",
            float(params.p),
            float(params.beta),
            bool(params.weighted),
            params.dangling,
        )


class FatiguedMethod(PageRankMethod):
    """Fatigued PageRank: degree-proportional damping, re-normalised."""

    name = "fatigued"
    family = "fatigued"
    vocabulary = frozenset({"p", "alpha", "beta", "dangling", "fatigue"})

    def group_key(self, params: MethodParams) -> tuple:
        return (
            "fatigued",
            float(params.p),
            float(params.fatigue),
            float(params.beta),
            bool(params.weighted),
            params.dangling,
        )

    def sort_key(self, group_key: tuple) -> tuple:
        _, p, fatigue, beta, weighted, dangling = group_key
        return ("fatigued", weighted, dangling, beta, fatigue, p)

    def _unfactored_transition(self, graph, group_key: tuple):
        # A rescale of the cached D2PR matrix (see fatigued_transition).
        _, p, fatigue, beta, weighted, _dangling = group_key
        base = d2pr_transition(graph, p, beta=beta, weighted=weighted)
        _, theta = adjacency_and_theta(graph, weighted=weighted)
        keep = _fatigue_keep(theta, fatigue)
        mat = base.multiply(keep[np.newaxis, :]).tocsr()
        row_mass = np.asarray(mat.sum(axis=1)).ravel()
        inv = np.zeros_like(row_mass)
        nonzero = row_mass > 0.0
        inv[nonzero] = 1.0 / row_mass[nonzero]
        mat = sparse.diags(inv).dot(mat).tocsr()
        mat.sort_indices()
        return mat

    def _column_scale(self, group_key: tuple, log_theta):
        # The d2pr key's c times 1 − φ: 1 − φ ≥ 1 − γ ≥ 2⁻⁵³ adds at
        # most 53 octaves to the spread _MAX_OCTAVES leaves room for.
        _, p, fatigue, beta, weighted, dangling = group_key
        base = ("d2pr", p, beta, weighted, dangling)
        col = super()._column_scale(base, log_theta)
        if col is False or fatigue == 0.0:
            return col
        keep = _fatigue_keep(log_theta(weighted)[0], fatigue)
        return keep if col is None else col * keep


register(PageRankMethod())
register(D2PRMethod())
register(FatiguedMethod())
