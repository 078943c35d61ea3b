"""Per-asset features and rank targets for the learner-driven strategies.

A feature row for day t stacks four blocks of length n (feature-major,
asset-minor) over the window of days before t: the last daily return,
trailing return volatility, trailing Sharpe, and the rank correlation of
price against time. Targets are the next day's cross-sectional return ranks
(ascending, 1 = worst) to a power, or the raw returns in ``return`` mode.
Both come for all of a run's days from stacked passes.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

FEATURES_PER_ASSET = 4

# Below this sum, clipped scores are considered all-zero and weights fall
# back to uniform; also the floor for standardization divisors.
EPS = 1e-12

# Cells in the largest temporary of a stacked pass: the features' (rows, m,
# m, n) rank comparison, a knn prediction's (rows, lookback, d) differences.
_STACK_CELLS = 1 << 18

RankPower = int | str


def window_features(prices: np.ndarray, window: int,
                    trend: str = "price") -> np.ndarray:
    """(count, 4n) feature rows of the ``window``-day blocks (window >= 2) of
    a (days, n) price array: row i from ``prices[i: i + window]``. ``trend``
    selects the series of the rank-correlation block: prices or returns.

    Each chunk of rows is reduced as a contiguous (rows, window - 1, n) stack
    that adds each row in a lone window's order, so a row has its window's
    own bytes. Centred on their mean, average ranks are (#less - #greater) / 2
    from one (rows, m, m, n) comparison: exact half-integers, so the trend
    block's sums are exact.
    """
    n = prices.shape[1]
    rets = sliding_window_view(prices[1:] / prices[:-1] - 1.0,
                               (window - 1, n))[:, 0]
    basis = (rets if trend == "return"
             else sliding_window_view(prices, (window, n))[:, 0])
    m = basis.shape[1]
    ic = np.arange(m) - 0.5 * (m - 1)  # the centred time index
    out = np.zeros((rets.shape[0], FEATURES_PER_ASSET * n))
    last, vol, sharpe, corr = np.split(out, FEATURES_PER_ASSET, axis=1)
    step = max(1, _STACK_CELLS // (m * m * n))
    for a in range(0, out.shape[0], step):
        rows = slice(a, a + step)
        r = np.ascontiguousarray(rets[rows])
        mean = r.mean(axis=1)
        last[rows] = r[:, -1]
        if window > 2:
            vol[rows] = np.sqrt(((r - mean[:, None]) ** 2).sum(axis=1)
                                / (window - 2))
        np.divide(mean, vol[rows], out=sharpe[rows], where=vol[rows] > 0)
        # below[r, i, k, j]: column j is lower on day k than on day i
        below = basis[rows, None] < basis[rows, :, None]
        rc = 0.5 * (below.sum(axis=2) - below.sum(axis=1))
        denom = np.sqrt((rc * rc).sum(axis=1) * float(ic @ ic))
        np.divide(ic @ rc, denom, out=corr[rows], where=denom != 0.0)
    return out


def rank_transform(returns: np.ndarray, power: RankPower) -> np.ndarray:
    """Cross-sectional return ranks (ascending, ties by asset index) to a
    power, along the last axis: one vector, or one row per day.

    ``power = "return"`` skips ranking and returns the raw returns.
    """
    r = np.asarray(returns, dtype=np.float64)
    if isinstance(power, str):  # "return"
        return r.copy()
    ranks = np.empty_like(r)
    np.put_along_axis(ranks, np.argsort(r, axis=-1, kind="stable"),
                      np.arange(1.0, r.shape[-1] + 1.0), axis=-1)
    return ranks ** power


def scores_to_weights(scores: np.ndarray) -> np.ndarray:
    """Clip negatives to zero and normalize each row (the last axis); a row
    whose scores all clip away gets uniform weights."""
    if scores.size == 0 or not np.isfinite(scores).all():
        raise ValueError("scores must be non-empty and finite")
    clipped = np.maximum(scores, 0.0)
    total = clipped.sum(axis=-1, keepdims=True)
    weights = np.full(scores.shape, 1.0 / scores.shape[-1])
    np.divide(clipped, total, out=weights, where=total >= EPS)
    return weights
