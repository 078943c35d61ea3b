"""Performance metrics over daily return series.

``compute_report`` is the one entry point: it checks a 1-d series of daily
simple returns, and an aligned benchmark, once and returns every figure as
a ``MetricsReport``. Annualization uses a configurable trading-day count
(default 250).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DAYS_PER_YEAR = 250

# Column order of serialized metric rows.
CSV_COLUMNS = (
    "profit_factor",
    "sharpe",
    "information_ratio",
    "annualized_return_pct",
    "max_drawdown_pct",
    "winning_pct",
    "annualized_volatility_pct",
)


def _as_series(values) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError("return series must be 1-d")
    if v.size == 0:
        raise ValueError("empty return series")
    if not np.isfinite(v).all():
        raise ValueError("return series contains non-finite values")
    return v


def _annualized_volatility(v: np.ndarray, days_per_year: int) -> float:
    if v.max() == v.min():  # constant: exactly 0, not a roundoff std
        return 0.0
    return math.sqrt(days_per_year) * float(v.std(ddof=0))


def _profit_factor(v: np.ndarray) -> float:
    gains = float(v[v >= 0].sum())
    losses = float(v[v < 0].sum())
    if losses == 0.0:
        return math.inf
    return gains / abs(losses)


def _information_ratio(v: np.ndarray, b: np.ndarray,
                       days_per_year: int) -> float | None:
    if v.size != b.size:
        raise ValueError(
            f"series length {v.size} does not match benchmark length {b.size}"
        )
    excess = v - b
    sd = float(excess.std(ddof=0))
    if sd == 0.0:
        return None
    return math.sqrt(days_per_year) * float(excess.mean()) / sd


def _max_drawdown(v: np.ndarray) -> float:
    if (v <= -1.0).any():
        raise ValueError("return <= -100% makes wealth non-positive")
    wealth = np.cumprod(1.0 + v)
    peaks = np.maximum.accumulate(wealth)
    # the starting wealth of 1 counts as the first peak
    peaks = np.maximum(peaks, 1.0)
    return float(((peaks - wealth) / peaks).max())


@dataclass(frozen=True)
class MetricsReport:
    """One row of performance numbers for a return series.

    The annualized return is ``days_per_year * mean`` and the volatility
    ``sqrt(days_per_year)`` times the population std (divisor T); the
    information ratio is their ratio for the excess over the benchmark.
    ``winning_pct`` counts strictly positive days, ``profit_factor`` is
    gains over losses (+inf when no day lost), and ``max_drawdown`` is the
    largest loss from a peak of wealth, which starts at 1. The information
    ratio is None without a benchmark or for excess returns with zero
    spread, and ``sharpe`` is None at zero volatility.
    """

    annualized_return: float
    annualized_volatility: float
    sharpe: float | None
    winning_pct: float
    profit_factor: float
    max_drawdown: float
    information_ratio: float | None = None

    def csv_values(self) -> dict[str, float | None]:
        """Raw values keyed by CSV_COLUMNS; percent columns scaled by 100."""
        return {
            "profit_factor": self.profit_factor,
            "sharpe": self.sharpe,
            "information_ratio": self.information_ratio,
            "annualized_return_pct": 100.0 * self.annualized_return,
            "max_drawdown_pct": 100.0 * self.max_drawdown,
            "winning_pct": 100.0 * self.winning_pct,
            "annualized_volatility_pct": 100.0 * self.annualized_volatility,
        }


def compute_report(values, benchmark=None,
                   days_per_year: int = DAYS_PER_YEAR) -> MetricsReport:
    """The figures of ``values``, with the information ratio against
    ``benchmark`` if one is given; a ratio is None where it is undefined
    (see MetricsReport). Raises ValueError for a series or benchmark that
    is empty, not 1-d or not finite, a benchmark of another length, or a
    day that loses 100% or more."""
    v = _as_series(values)
    ir = None if benchmark is None else _information_ratio(
        v, _as_series(benchmark), days_per_year)
    ret = days_per_year * float(v.mean())
    vol = _annualized_volatility(v, days_per_year)
    return MetricsReport(
        annualized_return=ret,
        annualized_volatility=vol,
        sharpe=ret / vol if vol > 0 else None,
        winning_pct=float(np.count_nonzero(v > 0)) / v.size,
        profit_factor=_profit_factor(v),
        max_drawdown=_max_drawdown(v),
        information_ratio=ir,
    )
