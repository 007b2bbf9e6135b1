"""Parameter sweeps shared by the figure experiments.

The paper's evaluation protocol (§4.1): sweep the de-coupling weight
``p ∈ [−4, 4]`` in steps of 0.5; vary the residual probability
``α ∈ {0.5, 0.7, 0.75, 0.9}`` (default 0.85); vary the weighted-graph blend
``β ∈ {0, 0.25, 0.5, 0.75, 1}`` (default 0).  Every sweep point computes
D2PR scores and their Spearman correlation with the application
significance.

Every sweep is many stationary solves over one graph, so all of them run
through the batched engine (:func:`repro.core.engine.solve_many`): points
sharing a transition matrix (same ``p``/``β``) are advanced together as one
``n × K`` block — e.g. :func:`alpha_sweep` solves all four α values per
``p`` in a single sparse·dense pass — and consecutive ``p`` grid points
warm-start from each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.engine import RankQuery, solve_many
from repro.datasets.base import DataGraph
from repro.datasets.registry import load
from repro.metrics.correlation import spearman

__all__ = [
    "P_GRID",
    "ALPHA_GRID",
    "BETA_GRID",
    "DEFAULT_ALPHA",
    "CorrelationCurve",
    "correlation_curve",
    "alpha_sweep",
    "beta_sweep",
    "get_data_graph",
]

#: The paper's p grid (§4.1): −4 to 4 in steps of 0.5.
P_GRID: tuple[float, ...] = tuple(np.arange(-4.0, 4.01, 0.5))

#: Residual probabilities studied in Figures 6–8.
ALPHA_GRID: tuple[float, ...] = (0.5, 0.7, 0.75, 0.9)

#: Connection-strength blends studied in Figures 9–11.
BETA_GRID: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)

#: The paper's default residual probability.
DEFAULT_ALPHA: float = 0.85

#: Solver tolerance for experiment runs: loose enough to be fast, far below
#: the correlation differences the experiments measure.
_TOL = 1e-9


@lru_cache(maxsize=32)
def get_data_graph(name: str, scale: float) -> DataGraph:
    """Memoised dataset loader (datasets are deterministic per scale).

    **Sharing contract**: the returned :class:`DataGraph` — including its
    ``graph`` — is a single cached instance shared by every caller with the
    same ``(name, scale)``.  To keep one caller's mutations from silently
    corrupting everyone else's results, the graph is **frozen** before it
    is handed out: any structural mutation (``add_edge``,
    ``set_node_attr``, ...) raises
    :class:`~repro.errors.FrozenGraphError`.  Callers that need to modify
    the graph must take a private copy first (``dg.graph.copy()`` returns
    an unfrozen deep copy;
    :func:`repro.datasets.perturb.perturbed_copy` wraps a whole
    ``DataGraph``), or load a fresh instance via
    :func:`repro.datasets.registry.load`.
    """
    data_graph = load(name, scale=scale)
    data_graph.graph.freeze()
    return data_graph


@dataclass(frozen=True)
class CorrelationCurve:
    """Spearman correlation of D2PR ranks vs significance along a p grid."""

    ps: tuple[float, ...]
    correlations: tuple[float, ...]

    @property
    def peak_p(self) -> float:
        """The p with the highest correlation."""
        return self.ps[int(np.argmax(self.correlations))]

    @property
    def peak_correlation(self) -> float:
        """The highest correlation along the grid."""
        return float(np.max(self.correlations))

    def at(self, p: float) -> float:
        """Correlation at grid point ``p``.

        Grid points are matched with :func:`math.isclose` (relative
        tolerance 1e-9), so ``curve.at(1.5)`` finds the point even when
        the grid came from ``np.arange`` and carries float noise like
        ``1.5000000000000004``.

        Raises
        ------
        KeyError
            If ``p`` is not on the grid.
        """
        for grid_p, corr in zip(self.ps, self.correlations):
            if math.isclose(grid_p, p, rel_tol=1e-9, abs_tol=1e-12):
                return corr
        raise KeyError(f"p={p} not on the sweep grid")


def _batched_curves(
    data_graph: DataGraph,
    ps: tuple[float, ...],
    alphas: tuple[float, ...],
    betas: tuple[float, ...],
    weighted: bool,
) -> dict[tuple[float, float], CorrelationCurve]:
    """Solve the full ``(p × α × β)`` grid batched; key curves by (α, β).

    All queries go to :func:`solve_many` in one call: every distinct
    ``(p, β)`` pair is one transition matrix, all α values against that
    matrix form one batched column block, and consecutive matrices along
    the sorted grid warm-start from each other.
    """
    significance = data_graph.significance_vector()
    queries = []
    layout = []  # (alpha, beta, p) per query, aligned with results
    for beta in betas:
        for p in ps:
            for alpha in alphas:
                queries.append(
                    RankQuery(
                        p=float(p),
                        alpha=float(alpha),
                        beta=float(beta) if weighted else 0.0,
                        weighted=weighted,
                    )
                )
                layout.append((float(alpha), float(beta), float(p)))
    results = solve_many(data_graph.graph, queries, tol=_TOL)
    correlations = {
        key: spearman(scores.values, significance)
        for key, scores in zip(layout, results)
    }
    curves: dict[tuple[float, float], CorrelationCurve] = {}
    for beta in betas:
        for alpha in alphas:
            curves[(float(alpha), float(beta))] = CorrelationCurve(
                ps=tuple(ps),
                correlations=tuple(
                    correlations[(float(alpha), float(beta), float(p))]
                    for p in ps
                ),
            )
    return curves


def correlation_curve(
    data_graph: DataGraph,
    *,
    ps: tuple[float, ...] = P_GRID,
    alpha: float = DEFAULT_ALPHA,
    beta: float = 0.0,
    weighted: bool = False,
) -> CorrelationCurve:
    """Sweep ``p`` and correlate D2PR scores with node significance.

    The whole grid runs as one batched, warm-started
    :func:`~repro.core.engine.solve_many` call.
    """
    curves = _batched_curves(
        data_graph, tuple(ps), (float(alpha),), (float(beta),), weighted
    )
    return curves[(float(alpha), float(beta))]


def alpha_sweep(
    data_graph: DataGraph,
    *,
    ps: tuple[float, ...] = P_GRID,
    alphas: tuple[float, ...] = ALPHA_GRID,
    weighted: bool = False,
    beta: float = 0.0,
) -> dict[float, CorrelationCurve]:
    """Correlation curves for several residual probabilities (Figs 6–8).

    All α values share each ``p``'s transition matrix, so every grid point
    of the α dimension is one extra *column* in the batched solve, not one
    extra solve.
    """
    curves = _batched_curves(
        data_graph,
        tuple(ps),
        tuple(float(a) for a in alphas),
        (float(beta),),
        weighted,
    )
    return {
        float(alpha): curves[(float(alpha), float(beta))] for alpha in alphas
    }


def beta_sweep(
    data_graph: DataGraph,
    *,
    ps: tuple[float, ...] = P_GRID,
    betas: tuple[float, ...] = BETA_GRID,
    alpha: float = DEFAULT_ALPHA,
) -> dict[float, CorrelationCurve]:
    """Correlation curves for several blends on weighted graphs (Figs 9–11).

    Each ``(p, β)`` pair is its own transition matrix, but the whole grid
    still goes through one :func:`~repro.core.engine.solve_many` call so
    consecutive matrices warm-start from each other.
    """
    curves = _batched_curves(
        data_graph,
        tuple(ps),
        (float(alpha),),
        tuple(float(b) for b in betas),
        True,
    )
    return {float(beta): curves[(float(alpha), float(beta))] for beta in betas}
