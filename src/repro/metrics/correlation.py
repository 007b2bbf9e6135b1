"""Correlation measures implemented from first principles.

The paper's entire evaluation is built on **Spearman's rank correlation**
between D2PR ranks and application-specific significances (§4.2):

.. math::

    \\rho = \\frac{\\sum_i (x_i - \\bar x)(y_i - \\bar y)}
                 {\\sqrt{\\sum_i (x_i - \\bar x)^2 \\sum_i (y_i - \\bar y)^2}}

computed on the *rank-transformed* vectors with average-tie handling.  We
implement the rank transform and the correlation ourselves (numpy only) and
cross-check against ``scipy.stats`` in the test-suite.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError

__all__ = [
    "rank_data",
    "pearson",
    "spearman",
    "kendall",
]


def _validate_pair(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ParameterError(
            f"inputs must have equal length, got {x.shape[0]} and {y.shape[0]}"
        )
    if x.shape[0] < 2:
        raise ParameterError("correlation requires at least 2 observations")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ParameterError("correlation inputs must be finite")
    return x, y


def rank_data(values: np.ndarray) -> np.ndarray:
    """Average ranks of ``values`` (1 = smallest), ties share their mean rank.

    Equivalent to ``scipy.stats.rankdata(values, method="average")`` but
    self-contained; the paper's Spearman correlation is Pearson on these.

    Examples
    --------
    >>> rank_data(np.array([10.0, 20.0, 20.0, 30.0]))
    array([1. , 2.5, 2.5, 4. ])
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    n = values.shape[0]
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    # Runs of equal values in sorted order span positions
    # [start, end); each gets the average of the 1-based positions.
    breaks = np.flatnonzero(sorted_vals[1:] != sorted_vals[:-1]) + 1
    starts = np.concatenate(([0], breaks))
    ends = np.concatenate((breaks, [n]))
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat((starts + ends - 1) / 2.0 + 1.0, ends - starts)
    return ranks


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson product-moment correlation of two vectors.

    Returns 0.0 when either input has zero variance (a constant vector
    carries no ordering information — the convention that keeps parameter
    sweeps well-defined on degenerate graphs).
    """
    x, y = _validate_pair(x, y)
    # Pearson is scale-invariant; normalise by the max magnitude *before*
    # centring so subnormal inputs do not lose precision in the mean, and
    # again afterwards so squaring cannot underflow.
    raw_mx = np.max(np.abs(x))
    raw_my = np.max(np.abs(y))
    if raw_mx > 0.0:
        x = x / raw_mx
    if raw_my > 0.0:
        y = y / raw_my
    xc = x - x.mean()
    yc = y - y.mean()
    mx = np.max(np.abs(xc))
    my = np.max(np.abs(yc))
    if mx == 0.0 or my == 0.0:
        return 0.0
    xn = xc / mx
    yn = yc / my
    denom = np.sqrt((xn * xn).sum() * (yn * yn).sum())
    if denom == 0.0:
        return 0.0
    return float((xn * yn).sum() / denom)


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation — Pearson on average-tie ranks.

    This is the agreement measure used throughout the paper's §4: ``x`` is
    typically a score vector from :mod:`repro.core` and ``y`` the
    application-specific significance.

    Examples
    --------
    >>> spearman(np.array([1.0, 2.0, 3.0]), np.array([10.0, 20.0, 30.0]))
    1.0
    >>> spearman(np.array([1.0, 2.0, 3.0]), np.array([30.0, 20.0, 10.0]))
    -1.0
    """
    x, y = _validate_pair(x, y)
    return pearson(rank_data(x), rank_data(y))


def kendall(x: np.ndarray, y: np.ndarray) -> float:
    """Kendall's tau-b rank correlation (tie-corrected).

    ``tau_b = (C − D) / sqrt((n0 − n1)(n0 − n2))`` where ``C``/``D`` count
    concordant/discordant pairs, ``n0 = n(n−1)/2`` and ``n1``/``n2`` count
    tied pairs in each input.  O(n²) implementation — adequate for the
    graph sizes in the experiments, and a useful second opinion next to
    Spearman in the robustness tests.
    """
    x, y = _validate_pair(x, y)
    n = x.shape[0]
    concordant = 0
    discordant = 0
    ties_x = 0
    ties_y = 0
    for i in range(n - 1):
        dx = x[i + 1 :] - x[i]
        dy = y[i + 1 :] - y[i]
        sign = np.sign(dx) * np.sign(dy)
        concordant += int((sign > 0).sum())
        discordant += int((sign < 0).sum())
        ties_x += int(((dx == 0) & (dy != 0)).sum())
        ties_y += int(((dy == 0) & (dx != 0)).sum())
        both = int(((dx == 0) & (dy == 0)).sum())
        ties_x += both
        ties_y += both
    n0 = n * (n - 1) // 2
    denom = np.sqrt(float(n0 - ties_x) * float(n0 - ties_y))
    if denom == 0.0:
        return 0.0
    return float((concordant - discordant) / denom)
