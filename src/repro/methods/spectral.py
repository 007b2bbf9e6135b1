"""Spectral centrality methods: Katz, eigenvector centrality, HITS.

"Spectral centrality measures in complex networks" (PAPERS.md) unifies
these as power methods on the *adjacency* operator rather than a
stochastic transition — which is exactly the shape of the repo's
:class:`~repro.linalg.operator.LinearOperatorBundle`: the bundle caches
the CSR adjacency and its transpose per graph version, and each method
here iterates those views directly.  Because the operator is not
row-stochastic, these methods are not poolable through
``power_iteration_batch`` (``batchable = False``); the planner routes
them to the dedicated ``"spectral"`` strategy, which calls
:meth:`CentralityMethod.solve` and still caches the answer under the
method's certificate.

Certificates:

* ``eigenvector`` / ``hits`` — the **eigen certificate**: the
  normalised eigen-residual ``‖Aᵀx − λx‖₁ / λ`` with the L1 Rayleigh
  quotient ``λ = ‖Aᵀx‖₁`` (exact for non-negative iterates).  For an
  L1-normalised power method this equals the successive iterate
  difference, so the recorded residual history *is* the certificate.
* ``katz`` — the **L1 certificate**: Katz is solved as the fixed point
  ``x = (α/λ̂)·Aᵀx + (1−α)·t`` (λ̂ = cached spectral-radius estimate
  of the adjacency), a contraction whose asymptotic rate is α — the
  same successive-L1 semantics as the stochastic family.

Every loop starts from one cached vector, :func:`_perron_start`.  On an
undirected graph ``Aᵀ`` is symmetric, so one Lanczos call
(``scipy.sparse.linalg.eigsh``, a fixed uniform ``v0`` for determinism)
returns the Perron pair in a few dozen SpMVs; its sign-fixed, clipped,
L1-normalised vector already meets the eigen certificate, so
eigenvector and HITS stop after one step and the Perron-root estimate
behind Katz after two.  Directed graphs (and edgeless graphs, ``n < 3``
and a Lanczos run that does not converge) start from the uniform
vector.

A diagonal shift of ``0.25·max column mass`` keeps the power method
aperiodic (bipartite adjacencies oscillate with period 2); the shift
leaves eigenvectors unchanged and is subtracted back out of the
reported eigenvalue and residual.  It matters only on directed graphs:
on a hub-dominated graph it dwarfs λ₁ (6369 against 466 on the
analytics-sweep graph), which pushes the shifted power ratio towards 1,
but an undirected solve starts at the fixed point and never iterates on
it.

Every solve reports iterations, convergence and its final residual into
the ambient trace span (:func:`~repro.telemetry.trace.record_result`);
for eigenvector and HITS that residual is the Rayleigh residual of the
returned vector.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from repro.linalg.operator import LinearOperatorBundle
from repro.linalg.solvers import PageRankResult
from repro.methods.base import CentralityMethod, MethodParams
from repro.methods.registry import register
from repro.telemetry.trace import active_span, record_result

__all__ = [
    "EigenvectorMethod",
    "HitsMethod",
    "KatzMethod",
    "adjacency_bundle",
    "spectral_radius",
]


def adjacency_bundle(graph, *, weighted: bool = False):
    """Cached adjacency-operator bundle, one per graph version.

    The bundle is a view cache, not a stochastic-matrix contract: it
    memoises the CSR adjacency and its transpose per graph version, so
    Katz, eigenvector centrality, HITS and the graph's own predecessor
    reads (:meth:`~repro.graph.base.DiGraph.predecessors`) all iterate
    one export.  This is the only construction site of that bundle.  On
    an undirected graph the adjacency is symmetric and is its own
    transpose.
    """
    return graph.cached(
        ("operator", "adjacency", bool(weighted)),
        lambda: LinearOperatorBundle.of(
            graph.to_csr(weighted=weighted), symmetric=not graph.directed
        ),
    )


#: Stopping rule of :func:`spectral_radius`: relative change of the
#: Rayleigh quotient between two steps, and the step budget.
RADIUS_TOL = 1e-8
RADIUS_MAX_ITER = 200


def _perron_start(graph, *, weighted: bool) -> np.ndarray:
    """Start vector of every spectral loop, memoised per graph version.

    On an undirected graph with at least one edge and ``n >= 3`` this is
    the Perron vector of the symmetric ``Aᵀ`` from one Lanczos call,
    sign-fixed, clipped at 0 and L1-normalised; otherwise (directed,
    edgeless, tiny, or Lanczos did not converge) it is the uniform
    vector.  Stored under ``("perron", weighted)``, which
    :meth:`~repro.graph.base.BaseGraph.apply_delta` drops like any entry
    it cannot patch.  The array is shared and read-only: callers copy.
    """

    def build() -> np.ndarray:
        at = adjacency_bundle(graph, weighted=weighted).t_csr
        n = at.shape[0]
        start = np.full(n, 1.0 / n)
        if not graph.directed and at.nnz > 0 and n >= 3:
            try:
                _, vecs = eigsh(at, k=1, which="LA", v0=np.full(n, 1.0))
            except ArpackNoConvergence:
                vecs = None
            if vecs is not None:
                vec = vecs[:, 0]
                if vec.sum() < 0.0:
                    vec = -vec
                vec = np.maximum(vec, 0.0)
                total = float(vec.sum())
                if total > 0.0:
                    start = vec / total
        start.flags.writeable = False
        return start

    return graph.cached(("perron", bool(weighted)), build)


def spectral_radius(graph, *, weighted: bool = False) -> float:
    """Perron-root estimate of the adjacency, memoised per graph version.

    Runs a diagonally shifted L1 power method on ``Aᵀ`` from
    :func:`_perron_start` until the Rayleigh quotient moves by at most
    ``RADIUS_TOL`` (relative) or ``RADIUS_MAX_ITER`` steps; on an
    undirected graph that is two steps to the Lanczos root.  Katz
    divides its attenuation by this estimate so that ``alpha`` is a
    *spectral* attenuation fraction (``alpha → 1`` approaches the
    eigenvector limit) independent of the graph's degree scale.
    """

    def build() -> float:
        bundle = adjacency_bundle(graph, weighted=weighted)
        at = bundle.t_csr
        if at.nnz == 0:
            return 0.0
        col_mass = np.asarray(at.sum(axis=0)).ravel()
        shift = 0.25 * float(col_mass.max())
        x = _perron_start(graph, weighted=weighted).copy()
        lam = 0.0
        for _ in range(RADIUS_MAX_ITER):
            y = at @ x
            lam_new = float(y.sum())  # L1 Rayleigh quotient, x >= 0
            y += shift * x
            total = float(y.sum())
            x_new = y / total
            if abs(lam_new - lam) <= RADIUS_TOL * max(1.0, abs(lam_new)):
                lam = lam_new
                break
            lam = lam_new
            x = x_new
        return lam

    return graph.cached(("spectral_radius", bool(weighted)), build)


def _reported(result: PageRankResult, apply=None) -> PageRankResult:
    """Report a spectral solve into the ambient span; return it unchanged.

    ``apply`` is the operator ``M`` whose dominant eigenvector the
    scores are (eigenvector, HITS).  The reported residual is then the
    Rayleigh residual ``‖Mx − λx‖₁ / λ`` with ``λ = ‖Mx‖₁`` of the
    returned L1-unit vector — the eigen certificate of Perra &
    Fortunato's spectral-centrality survey — computed only when a trace
    span is active.
    """
    if apply is None or active_span() is None:
        return record_result(result)
    x = result.scores
    y = apply(x)
    lam = float(y.sum())
    residual = float(np.abs(y - lam * x).sum()) / lam if lam > 0.0 else 0.0
    return record_result(result, residual=residual)


class _SpectralMethod(CentralityMethod):
    """Shared capability surface: direct solves, no pooling/push/deltas."""

    certificate = "eigen"
    batchable = False
    supports_push = False
    supports_incremental = False
    supports_sharding = False
    supports_seeds = False

    def group_key(self, params: MethodParams) -> tuple:
        return (self.family, bool(params.weighted))

    def operator(self, graph, group_key: tuple):
        return adjacency_bundle(graph, weighted=group_key[-1])

    @staticmethod
    def _teleport(n: int, teleport) -> np.ndarray:
        if teleport is None:
            return np.full(n, 1.0 / n)
        vec = np.asarray(teleport, dtype=np.float64)
        return vec / vec.sum()


class KatzMethod(_SpectralMethod):
    """Katz centrality: ``x = (α/λ̂)·Aᵀx + (1−α)·t``.

    Follows the spectral-attenuation convention: the raw Katz
    attenuation is ``α/λ̂``, always inside the convergence radius, so
    ``alpha`` carries its PageRank meaning of "fraction of score that
    flows through edges" and the L1 certificate contracts at rate α.
    Seeds personalise ``t`` exactly as they do for PageRank.
    """

    name = "katz"
    family = "katz"
    certificate = "l1"
    supports_seeds = True
    vocabulary = frozenset({"alpha"})

    def solve(
        self,
        graph,
        group_key: tuple,
        *,
        alpha: float = 0.85,
        teleport=None,
        tol: float = 1e-10,
        max_iter: int = 1000,
    ) -> PageRankResult:
        at = self.operator(graph, group_key).t_csr
        n = at.shape[0]
        t = self._teleport(n, teleport)
        lam = spectral_radius(graph, weighted=group_key[-1])
        if lam <= 0.0:  # edgeless: score is the teleport itself
            return _reported(PageRankResult(
                scores=t, iterations=0, converged=True,
                residuals=[0.0], method="katz",
            ))
        scale = float(alpha) / lam
        base = (1.0 - float(alpha)) * t
        x = t.copy()
        residuals: list[float] = []
        converged = False
        iterations = 0
        for iterations in range(1, max_iter + 1):
            x_new = scale * (at @ x) + base
            residual = float(np.abs(x_new - x).sum())
            residuals.append(residual)
            x = x_new
            if residual < tol:
                converged = True
                break
        return _reported(PageRankResult(
            scores=x / x.sum(), iterations=iterations, converged=converged,
            residuals=residuals, method="katz",
        ))


class EigenvectorMethod(_SpectralMethod):
    """Eigenvector centrality: dominant eigenvector of ``Aᵀ``.

    L1-normalised power method with a diagonal shift for aperiodicity;
    the recorded residuals are the normalised eigen-residual
    ``‖Aᵀx − λx‖₁ / λ`` of the *unshifted* operator.
    """

    name = "eigenvector"
    family = "eigenvector"
    vocabulary = frozenset()

    def solve(
        self,
        graph,
        group_key: tuple,
        *,
        alpha: float = 0.85,
        teleport=None,
        tol: float = 1e-10,
        max_iter: int = 1000,
    ) -> PageRankResult:
        at = self.operator(graph, group_key).t_csr
        n = at.shape[0]
        if at.nnz == 0:  # edgeless: every node is equally (in)significant
            return _reported(PageRankResult(
                scores=np.full(n, 1.0 / n), iterations=0, converged=True,
                residuals=[0.0], method="eigenvector",
            ))
        col_mass = np.asarray(at.sum(axis=0)).ravel()
        shift = 0.25 * float(col_mass.max())
        x = _perron_start(graph, weighted=group_key[-1]).copy()
        residuals: list[float] = []
        converged = False
        iterations = 0
        for iterations in range(1, max_iter + 1):
            ax = at @ x
            lam = float(ax.sum())  # L1 Rayleigh quotient, x >= 0
            if lam <= 0.0:
                # Unreachable: x carries mass on an endpoint of an edge
                # (uniform, or the Perron vector), and the shifted step
                # keeps it there; guard against pathological numerics.
                break
            residual = float(np.abs(ax - lam * x).sum()) / lam
            residuals.append(residual)
            y = ax + shift * x
            x = y / float(y.sum())
            if residual < tol:
                converged = True
                break
        return _reported(
            PageRankResult(
                scores=x, iterations=iterations, converged=converged,
                residuals=residuals, method="eigenvector",
            ),
            lambda v: at @ v,
        )


class HitsMethod(_SpectralMethod):
    """HITS authorities: dominant eigenvector of ``AᵀA``.

    Alternating L1-normalised iteration (authorities ← Aᵀ·hubs,
    hubs ← A·authorities); the residual is the successive L1 change of
    the authority vector, i.e. the eigen certificate for ``AᵀA``.
    Hub scores are recovered from authorities by one adjacency apply
    (:func:`repro.core.hits.hits` does exactly that), so one method
    descriptor serves both sides.
    """

    name = "hits"
    family = "hits"
    vocabulary = frozenset()

    def solve(
        self,
        graph,
        group_key: tuple,
        *,
        alpha: float = 0.85,
        teleport=None,
        tol: float = 1e-10,
        max_iter: int = 1000,
    ) -> PageRankResult:
        bundle = self.operator(graph, group_key)
        adjacency = bundle.mat
        adjacency_t = bundle.t_csr
        n = adjacency.shape[0]
        authorities = _perron_start(graph, weighted=group_key[-1]).copy()
        hubs_vec = authorities.copy()
        residuals: list[float] = []
        converged = False
        iterations = 0
        for iterations in range(1, max_iter + 1):
            new_auth = adjacency_t @ hubs_vec
            total = new_auth.sum()
            if total == 0.0:  # graph with no edges
                new_auth = np.full(n, 1.0 / n)
            else:
                new_auth /= total
            new_hubs = adjacency @ new_auth
            total = new_hubs.sum()
            if total == 0.0:
                new_hubs = np.full(n, 1.0 / n)
            else:
                new_hubs /= total
            residual = float(np.abs(new_auth - authorities).sum())
            residuals.append(residual)
            authorities, hubs_vec = new_auth, new_hubs
            if residual < tol:
                converged = True
                break
        return _reported(
            PageRankResult(
                scores=authorities, iterations=iterations,
                converged=converged, residuals=residuals, method="hits",
            ),
            lambda v: adjacency_t @ (adjacency @ v),
        )


register(KatzMethod())
register(EigenvectorMethod())
register(HitsMethod())
