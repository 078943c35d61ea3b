"""rankfolio: daily-rebalanced portfolio backtests on close prices.

Classic online strategies (bah, ucrp, bcrp, up, eg, anticor, pamr, cwmr,
olmar, rmr, bnn, corn) plus rank-forecast strategies that train a small MLP
or a kNN regressor on trailing per-asset features and turn the predicted
cross-sectional ranks into next-day weights.
"""

__version__ = "0.1.0"

from .data import PriceMatrix, load_csv, write_csv
from .engine import (BacktestConfig, BacktestResult, reprice, resolve_window,
                     run_backtest)
from .metrics import MetricsReport, compute_report

__all__ = [
    "__version__",
    "PriceMatrix",
    "load_csv",
    "write_csv",
    "BacktestConfig",
    "BacktestResult",
    "run_backtest",
    "reprice",
    "resolve_window",
    "MetricsReport",
    "compute_report",
]
