"""Per-asset features, rank targets, and training-set assembly for the
learner-driven strategies.

A feature vector for day t stacks four blocks of length n (feature-major,
asset-minor): the last daily return, trailing return volatility, trailing
Sharpe, and the rank correlation of price against time over the trailing
window. Targets are the next day's cross-sectional return ranks (ascending,
1 = worst) raised to a power, or the raw returns in ``return`` mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEATURES_PER_ASSET = 4

# Below this sum, clipped scores are considered all-zero and weights fall
# back to uniform; also the floor for standardization divisors.
EPS = 1e-12

RankPower = int | str


def _trend_correlations(basis: np.ndarray) -> np.ndarray:
    """Spearman correlation of each column of ``basis`` against the time
    index; 0 for a flat column or a single row.

    Average ranks come from one (m, m, n) comparison over the window:
    #less + (#equal + 1) / 2 = (#less + #less-or-equal + 1) / 2. They are
    half-integers, so every sum and dot product below is exact and the
    result does not depend on summation order.
    """
    m, n = basis.shape
    if m < 2:
        return np.zeros(n)
    # below[i, k, j]: column j is lower on day k than on day i
    below = basis[None, :, :] < basis[:, None, :]
    at_or_below = basis[None, :, :] <= basis[:, None, :]
    ranks = 0.5 * (below.sum(axis=1) + at_or_below.sum(axis=1) + 1)
    rc = ranks - ranks.mean(axis=0)
    idx = np.arange(1.0, m + 1.0)
    ic = idx - idx.mean()
    denom = np.sqrt((rc * rc).sum(axis=0) * float(ic @ ic))
    corr = np.zeros(n)
    np.divide(ic @ rc, denom, out=corr, where=denom != 0.0)
    return corr


def features_from_window(window: np.ndarray, trend: str = "price") -> np.ndarray:
    """Length-4n feature vector from a (window_days >= 2, n) price block.

    ``trend`` selects the series for the rank-correlation block: the raw
    price level (default) or the daily returns within the window.
    """
    window = np.asarray(window, dtype=np.float64)
    rets = window[1:] / window[:-1] - 1.0
    n = window.shape[1]

    last = rets[-1]
    mean = rets.mean(axis=0)
    if rets.shape[0] >= 2:
        vol = np.sqrt(((rets - mean) ** 2).sum(axis=0) / (rets.shape[0] - 1))
    else:
        vol = np.zeros(n)
    sharpe = np.zeros(n)
    np.divide(mean, vol, out=sharpe, where=vol > 0)

    trend_corr = _trend_correlations(window if trend == "price" else rets)
    return np.concatenate([last, vol, sharpe, trend_corr])


def rank_transform(returns: np.ndarray, power: RankPower) -> np.ndarray:
    """Cross-sectional return ranks (ascending, ties by asset index) to a power.

    ``power = "return"`` skips ranking and returns the raw returns.
    """
    r = np.asarray(returns, dtype=np.float64)
    if isinstance(power, str):  # "return"
        return r.copy()
    order = np.argsort(r, kind="stable")
    ranks = np.empty(r.size, dtype=np.float64)
    ranks[order] = np.arange(1.0, r.size + 1.0)
    return ranks ** power


def check_history(t: int, lookback: int, feature_window: int) -> None:
    """Raise unless a t-day history prefix holds a ``lookback``-row
    training set over ``feature_window``-day feature windows."""
    needed = lookback + feature_window + 1
    if t < needed:
        raise ValueError(
            f"insufficient history: day {t} < lookback + feature_window + 1 = {needed}"
        )


def training_set(prices: np.ndarray, lookback: int, power: RankPower,
                 feature_window: int, trend: str = "price"):
    """Feature matrix and targets from the trailing ``lookback`` days.

    ``prices`` is the full history prefix up to the current day t (its row
    count). Row i pairs the features of day s = t - lookback + i with the
    rank-transformed returns realized from day s to s + 1, so every quantity
    is observable by day t.
    """
    prices = np.asarray(prices, dtype=np.float64)
    t, n = prices.shape
    check_history(t, lookback, feature_window)
    feats = np.empty((lookback, FEATURES_PER_ASSET * n))
    targets = np.empty((lookback, n))
    for i, s in enumerate(range(t - lookback, t)):
        feats[i] = features_from_window(prices[s - feature_window: s], trend)
        next_ret = prices[s] / prices[s - 1] - 1.0
        targets[i] = rank_transform(next_ret, power)
    return feats, targets


@dataclass(frozen=True)
class Normalizer:
    """Per-dimension z-score transform with std floored at EPS."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, features: np.ndarray) -> "Normalizer":
        f = np.asarray(features, dtype=np.float64)
        return cls(mean=f.mean(axis=0), std=np.maximum(f.std(axis=0), EPS))

    def transform(self, features: np.ndarray) -> np.ndarray:
        return (np.asarray(features, dtype=np.float64) - self.mean) / self.std


def scores_to_weights(scores: np.ndarray) -> np.ndarray:
    """Clip negatives to zero and normalize; uniform if everything clips away."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("scores must be a non-empty vector")
    if not np.isfinite(s).all():
        raise ValueError("scores contain non-finite values")
    clipped = np.maximum(s, 0.0)
    total = clipped.sum()
    if total < EPS:
        return np.full(s.size, 1.0 / s.size)
    return clipped / total
