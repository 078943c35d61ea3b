"""Performance metrics over daily return series.

All functions take a 1-d series of daily simple returns. Annualization uses a
configurable trading-day count (default 250). Annualized return is
``days_per_year * mean(returns)``.
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


def annualized_return(values, days_per_year: int = DAYS_PER_YEAR) -> float:
    return days_per_year * float(_as_series(values).mean())


def annualized_volatility(values, days_per_year: int = DAYS_PER_YEAR) -> float:
    """sqrt(days_per_year) times the population std (divisor T) of the series."""
    v = _as_series(values)
    if v.max() == v.min():  # constant: exactly 0, not a roundoff std
        return 0.0
    return math.sqrt(days_per_year) * float(v.std(ddof=0))


def sharpe_ratio(values, days_per_year: int = DAYS_PER_YEAR) -> float:
    vol = annualized_volatility(values, days_per_year)
    if vol == 0.0:
        raise ValueError("zero volatility, Sharpe undefined")
    return annualized_return(values, days_per_year) / vol


def winning_pct(values) -> float:
    """Fraction of strictly positive days. Zero-return days do not count as wins."""
    v = _as_series(values)
    return float(np.count_nonzero(v > 0)) / v.size


def profit_factor(values) -> float:
    """Sum of gains over absolute sum of losses; +inf when no day lost."""
    v = _as_series(values)
    gains = float(v[v >= 0].sum())
    losses = float(v[v < 0].sum())
    if losses == 0.0:
        return math.inf
    return gains / abs(losses)


def information_ratio(values, benchmark, days_per_year: int = DAYS_PER_YEAR) -> float:
    """Annualized mean/std of daily excess returns over an aligned benchmark."""
    v = _as_series(values)
    b = _as_series(benchmark)
    if v.size != b.size:
        raise ValueError(
            f"series length {v.size} does not match benchmark length {b.size}"
        )
    excess = v - b
    sd = float(excess.std(ddof=0))
    if sd == 0.0:
        raise ValueError("degenerate excess returns, information ratio undefined")
    return math.sqrt(days_per_year) * float(excess.mean()) / sd


def max_drawdown(values) -> float:
    """Largest peak-to-trough loss fraction of compounded wealth (start wealth 1)."""
    v = _as_series(values)
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

    ``information_ratio`` is None without a benchmark or for a degenerate
    excess series, ``sharpe`` is None at zero volatility, and
    ``profit_factor`` may be +inf (no losing day).
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
    """Assemble a MetricsReport; IR and Sharpe are None where undefined."""
    ir: float | None = None
    if benchmark is not None:
        try:
            ir = information_ratio(values, benchmark, days_per_year)
        except ValueError as exc:
            if "degenerate" not in str(exc):
                raise
    vol = annualized_volatility(values, days_per_year)
    return MetricsReport(
        annualized_return=annualized_return(values, days_per_year),
        annualized_volatility=vol,
        sharpe=sharpe_ratio(values, days_per_year) if vol > 0 else None,
        winning_pct=winning_pct(values),
        profit_factor=profit_factor(values),
        max_drawdown=max_drawdown(values),
        information_ratio=ir,
    )
