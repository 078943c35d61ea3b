"""Per-asset features and rank targets for the learner-driven strategies.

A feature row for day t stacks four blocks of length n (feature-major,
asset-minor) over the window of days before t: the last daily return,
trailing return volatility, trailing Sharpe, and the rank correlation of
price against time. Targets are the next day's cross-sectional return ranks
(ascending, 1 = worst) to a power, or the raw returns in ``return`` mode.
Both come for all of a run's days from stacked passes; the trend block
ranks each window's days from prefix counts, in O(m) work per day.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import optim

FEATURES_PER_ASSET = 4

# Below this sum, clipped scores are considered all-zero and weights fall
# back to uniform; also the floor for standardization divisors.
EPS = 1e-12

RankPower = int | str


def window_features(prices: np.ndarray, window: int,
                    trend: str = "price") -> np.ndarray:
    """(count, 4n) feature rows of the ``window``-day blocks (window >= 2) of
    a (days, n) price array: row i from ``prices[i: i + window]``. ``trend``
    selects the series of the rank-correlation block: prices or returns.

    Each chunk of rows is reduced as a contiguous (rows, window - 1, n) stack
    that adds each row in a lone window's order, so a row has its window's
    own bytes. Centred on their mean, a window's average ranks are
    (#less - #greater) / 2: exact half-integers, so the trend block's sums
    are exact. Each day of an m-day trend window is compared once with its
    2m - 2 neighbours, and the window's count for each of its days is the
    difference of two prefix sums of those signs over the offsets: O(m n)
    work per window, not a comparison of every pair of its days.
    """
    n = prices.shape[1]
    returns = prices[1:] / prices[:-1] - 1.0
    rets = sliding_window_view(returns, (window - 1, n))[:, 0]
    series = returns if trend == "return" else prices
    m = window - (trend == "return")  # days of a trend window
    u = np.arange(m)
    ic = u - 0.5 * (m - 1)  # the centred time index
    out = np.zeros((rets.shape[0], FEATURES_PER_ASSET * n))
    last, vol, sharpe, corr = np.split(out, FEATURES_PER_ASSET, axis=1)
    # rows per chunk: it holds about 8 (rows, m, n) arrays at once (the
    # return stack and its deviations, the signs and their prefix sums, the
    # gathered counts and the ranks), and at least m rows, so the days it
    # shares with the next chunk cost at most 2x
    step = max(m, optim.SCRATCH_FLOATS // 8 // (m * n))
    for a in range(0, out.shape[0], step):
        rows = slice(a, a + step)
        r = np.ascontiguousarray(rets[rows])
        mean = r.mean(axis=1)
        last[rows] = r[:, -1]
        if window > 2:
            vol[rows] = np.sqrt(((r - mean[:, None]) ** 2).sum(axis=1)
                                / (window - 2))
        np.divide(mean, vol[rows], out=sharpe[rows], where=vol[rows] > 0)
        s = series[a: a + step + m - 1]  # the days of the chunk's windows
        pad = np.full((s.shape[0] + 2 * m - 1, n), np.nan)
        pad[m: m + s.shape[0]] = s
        # sign[p, e]: 1 where day p is above day p + e - m, -1 where below,
        # 0 for a tie, a NaN or the padding
        near = sliding_window_view(pad, (2 * m, n))[:, 0]
        sign = np.greater(s[:, None], near).view(np.int8)
        sign -= s[:, None] < near
        prefix = np.cumsum(sign, axis=1, dtype=np.min_scalar_type(-2 * m))
        # day u of window r is day p = r + u; its window-mates sit at
        # offsets -u .. m - 1 - u, one run of prefix sums
        p = np.arange(s.shape[0] - m + 1)[:, None] + u
        rc = 0.5 * np.subtract(prefix[p, 2 * m - 1 - u],
                               prefix[p, m - 1 - u], dtype=float)
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
