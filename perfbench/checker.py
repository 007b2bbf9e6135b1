"""Independent answer checker.

Re-verifies a served answer from the graph's edge list alone: the
transition is rebuilt here with numpy/scipy from ``graph.edge_arrays()``
(never the service's cached operator), and one sparse product gives the
residual of the answer's defining equation.

* ``l1`` stochastic family (``pagerank``/``d2pr``/``fatigued``): the
  fixed-point residual ``‖x − αPᵀx − α·d(x)·t − (1−α)t‖₁``, where
  ``d(x)`` is the dangling mass, which follows the teleport ``t``.  A
  certified answer lies within ``tol·α/(1−α)`` of the fixed point in L1,
  so its residual is at most ``(1+α)`` times that.
* ``katz``: the residual of ``x = (α/λ̂)Aᵀx + (1−α)t`` with the
  attenuation and scale fitted to the answer, whose λ̂ must agree with
  the Perron root computed here by Lanczos (see :meth:`Checker._katz`).
* ``eigen`` (``eigenvector``/``hits``): the normalised eigen-residual
  ``‖Mx − λx‖₁/λ`` with ``λ = ‖Mx‖₁`` for ``M = Aᵀ`` (eigenvector) or
  ``AᵀA`` (HITS authorities).

It verifies the request shapes the workloads issue (seed lists, the
default ``dangling="teleport"``, ``beta=0``) and reports any other shape
as a failure rather than passing it.  :func:`self_test` shows that a
perturbed answer is rejected.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import eigsh

#: Slack on the eigen certificate: the returned iterate is one shifted
#: power step past the certified one, so its residual is normally below
#: ``tol``; the factor absorbs the step that certified it.
EIGEN_SLACK = 2.0
#: Floating-point floor added to every bound (sums over ~1e5 terms).
FLOOR = 1e-12
#: How far the Perron-root estimate behind a Katz answer may sit from
#: the Lanczos root (the library stops its estimate after 200 shifted
#: power steps; 4e-5 off was seen on the analytics graph).
KATZ_LAMBDA_RTOL = 1e-3


class Checker:
    """Verify answers; memoises rebuilt matrices per graph version."""

    def __init__(self) -> None:
        self._memo: dict[tuple, object] = {}
        self.checked = 0

    def reset(self) -> None:
        self._memo.clear()

    def _memoised(self, graph, key: tuple, build):
        full = (id(graph), graph.mutation_count, *key)
        value = self._memo.get(full)
        if value is None:
            value = build()
            self._memo[full] = value
        return value

    def adjacency(self, graph, weighted: bool) -> sparse.csr_matrix:
        def build():
            n = graph.number_of_nodes
            rows, cols, w = graph.edge_arrays()
            if not weighted:
                w = np.ones_like(w)
            if not graph.directed:
                rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
                w = np.concatenate([w, w])
            return sparse.csr_matrix((w, (rows, cols)), shape=(n, n))

        return self._memoised(graph, ("adj", weighted), build)

    def _transition(self, graph, request):
        """Row-stochastic transition of a stochastic-family request.

        Paper Eq. 1: from node ``i`` the walk moves to neighbour ``j`` with
        probability ∝ ``θ_j^-p`` (θ = degree, or total out-weight when
        weighted, clamped below at 1 / the smallest positive θ); the
        fatigued variant scales column ``j`` by ``1 − γ·θ_j/θ_max``.
        """
        method = request.method
        p = 0.0 if method == "pagerank" else float(request.p)
        fatigue = float(request.fatigue) if method == "fatigued" else 0.0
        weighted = bool(request.weighted)

        def build():
            adj = self.adjacency(graph, weighted)
            theta = np.asarray(adj.sum(axis=1)).ravel()
            if weighted:
                positive = theta[theta > 0]
                floor = float(positive.min()) if positive.size else 1.0
            else:
                floor = 1.0
            col_w = np.maximum(theta, floor) ** (-p)
            if fatigue:
                col_w = col_w * (1.0 - fatigue * theta / theta.max())
            pattern = adj.copy()
            pattern.data = np.ones_like(pattern.data)
            mat = _row_normalise(pattern @ sparse.diags(col_w))
            dangling = np.diff(mat.indptr) == 0
            return mat.T.tocsr(), dangling

        return self._memoised(graph, ("P", method, p, fatigue, weighted), build)

    @staticmethod
    def _teleport(graph, request) -> np.ndarray:
        n = graph.number_of_nodes
        seeds = request.seeds
        if seeds is None:
            return np.full(n, 1.0 / n)
        t = np.zeros(n)
        for node in seeds:
            t[graph.index_of(node)] += 1.0
        return t / t.sum()

    # ------------------------------------------------------------------
    def residual(self, graph, request, x: np.ndarray) -> tuple[float, float]:
        """``(residual, bound)`` of answer vector ``x`` to ``request``."""
        method = request.method
        tol = float(request.tol)
        alpha = float(request.alpha)
        if method in ("eigenvector", "hits"):
            adj = self.adjacency(graph, bool(request.weighted))
            y = adj.T @ x
            if method == "hits":
                y = adj.T @ (adj @ x)
            lam = float(np.abs(y).sum())
            return float(np.abs(y - lam * x).sum()) / lam, EIGEN_SLACK * tol + FLOOR
        t = self._teleport(graph, request)
        bound = (1.0 + alpha) * alpha / (1.0 - alpha) * tol + FLOOR
        if method == "katz":
            return self._katz(graph, request, x, t)
        pt, dangling = self._transition(graph, request)
        # Dangling mass follows the teleport (the requests' default).
        y = alpha * (pt @ x) + (alpha * float(x[dangling].sum()) + 1.0 - alpha) * t
        return float(np.abs(x - y).sum()), bound

    def _katz(self, graph, request, x, t) -> tuple[float, float]:
        """Katz residual with the attenuation and scale fitted to ``x``.

        The library attenuates by its own Perron-root *estimate* λ̂, and
        the answer is L1-normalised, so ``x ≈ a·Aᵀx + b·t`` is fitted for
        ``a = α/λ̂`` and ``b = (1−α)/sum(raw x)`` by least squares.  The
        fit must put λ̂ within ``KATZ_LAMBDA_RTOL`` of the Lanczos root,
        and the residual must meet what the library's stopping rule
        (successive L1 change below ``tol``) implies: one step of
        ``(α/λ̂)·Aᵀ`` on that change, ``α·‖A‖₁/λ̂·tol``, rescaled by
        ``1/sum(raw x) = b/(1−α)``.
        """
        alpha, tol = float(request.alpha), float(request.tol)
        adj = self.adjacency(graph, bool(request.weighted))
        lam = self._memoised(
            graph, ("lambda", bool(request.weighted)),
            lambda: float(eigsh(adj, k=1, which="LA", tol=1e-12)[0][0]),
        )
        ax = adj.T @ x
        (a, b), *_ = np.linalg.lstsq(np.column_stack([ax, t]), x, rcond=None)
        if not (a > 0 and b > 0) or abs(alpha / a / lam - 1.0) > KATZ_LAMBDA_RTOL:
            return float("inf"), 0.0
        residual = float(np.abs(x - a * ax - b * t).sum())
        norm = float(np.abs(adj).sum(axis=1).max())
        return residual, a * norm * tol * b / (1.0 - alpha) + FLOOR

    def check(self, graph, request, x: np.ndarray) -> str | None:
        """``None`` when ``x`` passes, else a one-line rejection reason."""
        self.checked += 1
        x = np.asarray(x, dtype=np.float64)
        reason = None
        if request.beta or request.dangling != "teleport" or isinstance(request.seeds, dict):
            reason = "request outside what the checker verifies"
        elif x.shape != (graph.number_of_nodes,) or not np.isfinite(x).all():
            reason = "malformed score vector"
        elif abs(x.sum() - 1.0) > 1e-6:
            reason = f"scores sum to {x.sum():.9f}, not 1"
        else:
            res, bound = self.residual(graph, request, x)
            if not res <= bound:
                reason = f"{request.method} residual {res:.3e} > bound {bound:.3e}"
        return reason


def _row_normalise(mat) -> sparse.csr_matrix:
    mat = sparse.csr_matrix(mat)
    sums = np.asarray(mat.sum(axis=1)).ravel()
    inv = np.zeros_like(sums)
    inv[sums > 0] = 1.0 / sums[sums > 0]
    return sparse.csr_matrix(sparse.diags(inv) @ mat)


def perturbed(x: np.ndarray, mass: float = 1e-4) -> np.ndarray:
    """``x`` with ``mass`` moved from its top node to its bottom node."""
    y = np.array(x, dtype=np.float64)
    top, low = int(np.argmax(y)), int(np.argmin(y))
    moved = min(mass, y[top])
    y[top] -= moved
    y[low] += moved
    return y


def self_test() -> list[str]:
    """Check exact answers pass and perturbed ones fail on a small graph.

    Builds a 60-node weighted graph, solves PageRank, D2PR and
    eigenvector centrality densely with numpy, and returns the list of
    failures (empty when the checker behaves).
    """
    from repro.graph.base import Graph
    from repro.serving.planner import RankRequest

    rng = np.random.default_rng(7)
    n = 60
    rows = rng.integers(0, n, 400)
    cols = rng.integers(0, n, 400)
    keep = rows != cols
    weights = rng.integers(1, 6, keep.sum()).astype(np.float64)
    graph = Graph.from_arrays(rows[keep], cols[keep], weights, num_nodes=n)
    checker = Checker()
    failures = []
    cases = [
        RankRequest(method="pagerank", tol=1e-10),
        RankRequest(method="d2pr", p=1.5, weighted=True, seeds=[3, 9], tol=1e-10),
        RankRequest(method="eigenvector", weighted=True, tol=1e-10),
        RankRequest(method="katz", weighted=True, tol=1e-10),
    ]
    for request in cases:
        exact = _dense_solution(checker, graph, request)
        if checker.check(graph, request, exact) is not None:
            failures.append(f"exact {request.method} answer rejected")
        if checker.check(graph, request, perturbed(exact)) is None:
            failures.append(f"perturbed {request.method} answer accepted")
    return failures


def _dense_solution(checker: Checker, graph, request) -> np.ndarray:
    n = graph.number_of_nodes
    t = checker._teleport(graph, request)
    alpha = float(request.alpha)
    if request.method in ("eigenvector", "katz"):
        adj = checker.adjacency(graph, bool(request.weighted)).toarray()
        vals, vecs = np.linalg.eigh(adj)
        if request.method == "katz":
            a = alpha / vals.max()
            x = np.linalg.solve(np.eye(n) - a * adj.T, (1.0 - alpha) * t)
        else:
            x = np.abs(vecs[:, np.argmax(vals)])
        return x / x.sum()
    pt, dangling = checker._transition(graph, request)
    m = pt.toarray() + np.outer(t, dangling.astype(np.float64))
    x = np.linalg.solve(np.eye(n) - alpha * m, (1.0 - alpha) * t)
    return x / x.sum()
