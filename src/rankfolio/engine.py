"""Backtest engine: strategy dispatch, weight decay, and accounting.

Day indices are 1-based (day t is price row t-1). One ``Strategy.run`` call
per backtest, on a fresh strategy, gives the weights of every trading day. It
sees prices up to the last trading day only, and its row for day t depends
only on prices for days 1..t: recursions replay from day 1, while
buy-and-hold and the learners' refit schedule anchor at the first trading
day. Each row is then optionally smoothed by an exponential decay over the
run's own recent outputs. Once every day's weights are known, ``account``
realizes each day's return from day t to t+1 and its cost in a few array
operations. Costs are proportional to the L1 distance between the new
weights and the previous day's weights after drifting with the market; the
first day pays for the full move out of cash.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from datetime import date

import numpy as np

from .data import PriceMatrix
from .features import RankPower
from .learners import KnnLearner, MlpLearner, RankForecastStrategy
from .metrics import MetricsReport, compute_report
from .strategies import (CLASSIC_NAMES, Anticor, Bnn, BuyAndHold, Corn, Cwmr,
                         ExponentiatedGradient, FixedWeights, Olmar, Pamr,
                         Rmr, Strategy, UniformCRP, UniversalSampler,
                         bcrp_hindsight)

ML_NAMES = ("mlp", "knn")

# Default proportional fee grid for sensitivity sweeps.
FEE_GRID = (0.0, 0.00025, 0.0005, 0.00075, 0.001, 0.00125, 0.0015)

# Daily turnover |new - held|_1 is at most 2, so a fee rate below 1/2 keeps
# each day's cost under 100% of wealth.
MAX_FEE_RATE = 0.5


def check_fee_rate(fee_rate: float) -> None:
    """Reject a fee rate outside [0, MAX_FEE_RATE), including NaN."""
    if not 0.0 <= fee_rate < MAX_FEE_RATE:
        raise ValueError(
            f"fee rate must be in [0, {MAX_FEE_RATE}), got {fee_rate!r}")


@dataclass
class BacktestConfig:
    """Run parameters; defaults match the headline experimental setup."""

    lookback: int = 80            # training days per refit
    refit_interval: int = 10      # trading days between refits
    decay_alpha: float = 0.7      # weight-decay base
    decay_len: int = 1            # decay memory length
    fee_rate: float = 0.0         # proportional cost per unit turnover
    rank_power: RankPower = 2     # target transform: 1..k or "return"
    seed: int = 10
    feature_window: int = 20
    start: date | None = None     # first trading date (default: earliest feasible)
    end: date | None = None       # last trading date (default: last usable day)
    days_per_year: int = 250
    trend_feature: str = "price"  # basis of the trend feature
    decay_classic: bool = False   # smooth classic strategies too
    benchmark: str = "ucrp"       # information-ratio benchmark strategy

    mlp_hidden: tuple[int, ...] = (20, 20)
    mlp_epochs: int = 200
    mlp_learning_rate: float = 1e-3
    mlp_batch_size: int = 0       # 0 = full batch
    knn_k: int = 15

    eg_eta: float = 0.05
    anticor_window: int = 5
    pamr_eps: float = 0.5
    cwmr_confidence: float = 0.95
    cwmr_eps: float = 0.5
    olmar_window: int = 5
    olmar_eps: float = 10.0
    rmr_window: int = 5
    rmr_eps: float = 5.0
    bnn_neighbors: int = 10
    bnn_window: int = 5
    corn_rho: float = 0.1
    corn_window: int = 5
    up_samples: int = 10_000

    def __post_init__(self):
        if self.lookback < 1:
            raise ValueError("lookback must be >= 1")
        if self.refit_interval < 1:
            raise ValueError("refit_interval must be >= 1")
        if not 0.0 <= self.decay_alpha < 1.0:
            raise ValueError("decay_alpha must be in [0, 1)")
        if self.decay_len < 0:
            raise ValueError("decay_len must be >= 0")
        check_fee_rate(self.fee_rate)
        if self.feature_window < 2:
            raise ValueError("feature_window must be >= 2")
        if self.days_per_year < 1:
            raise ValueError("days_per_year must be >= 1")
        if self.trend_feature not in ("price", "return"):
            raise ValueError("trend_feature must be 'price' or 'return'")
        if isinstance(self.rank_power, str) and self.rank_power != "return":
            raise ValueError("rank_power must be an integer >= 1 or 'return'")
        if not isinstance(self.rank_power, str) and self.rank_power < 1:
            raise ValueError("rank_power must be an integer >= 1 or 'return'")
        if self.mlp_epochs < 1:
            raise ValueError("mlp_epochs must be >= 1")
        if any(units < 1 for units in self.mlp_hidden):
            raise ValueError("mlp_hidden layer sizes must be >= 1")
        if self.mlp_batch_size < 0:
            raise ValueError("mlp_batch_size must be >= 0 (0 = full batch)")
        if not 0.0 < self.mlp_learning_rate < np.inf:
            raise ValueError("mlp_learning_rate must be finite and > 0")
        if self.knn_k < 1:  # knn_k <= lookback is checked where knn is built
            raise ValueError(f"knn_k must be in 1..lookback ({self.lookback})")
        # constructor messages start with the parameter: prefixing names the key
        for name in CLASSIC_NAMES:
            try:
                if name != "bcrp":
                    build_strategy(name, self)
            except ValueError as exc:
                raise ValueError(f"{name}_{exc}") from None


def apply_decay(previous: list[np.ndarray], predicted: np.ndarray,
                alpha: float, length: int) -> np.ndarray:
    """Exponentially decayed blend of the prediction with recent outputs.

    ``previous`` holds earlier smoothed weights, most recent first; during
    warm-up fewer than ``length`` entries exist and the divisor shrinks to
    match, keeping the result a convex combination.
    """
    smoothed = np.asarray(predicted, dtype=np.float64).copy()
    denom = 1.0
    for i in range(1, min(length, len(previous)) + 1):
        coef = alpha ** i
        smoothed += coef * previous[i - 1]
        denom += coef
    return smoothed / denom


def account(weights: np.ndarray, prices: np.ndarray,
            fee_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Daily gross returns and costs of a run held at ``weights``.

    Row i of ``weights`` is held from price row i to row i + 1, so ``prices``
    has one row more than ``weights``. Before its trade a day holds the
    previous day's weights drifted with the market, w (1 + r) renormalized,
    and the first day holds cash (zeros). Raises ValueError when a day's
    drifted holdings are worth nothing.
    """
    returns = prices[1:] / prices[:-1] - 1.0
    # one BLAS dot per row, the same bytes as weights[i] @ returns[i]
    gross = np.matmul(weights[:, None, :], returns[:, :, None])[:, 0, 0]
    drifted = weights * (1.0 + returns)
    totals = drifted.sum(axis=1)
    if (totals <= 0).any():
        raise ValueError("portfolio wiped out, cannot drift weights")
    held = np.zeros_like(weights)
    held[1:] = drifted[:-1] / totals[:-1, None]
    return gross, fee_rate * np.abs(weights - held).sum(axis=1)


@dataclass
class BacktestResult:
    """Per-day record of one run; all arrays share the trading-day axis."""

    strategy: str
    assets: tuple[str, ...]
    dates: tuple[date, ...]       # decision dates (day t of each trade)
    raw_weights: np.ndarray       # strategy output before decay
    weights: np.ndarray           # weights actually held (post decay)
    gross: np.ndarray
    cost: np.ndarray
    net: np.ndarray
    wealth: np.ndarray            # cumprod(1 + net), start wealth 1
    start_day: int                # 1-based day index of the first trade
    end_day: int
    config: BacktestConfig = field(repr=False)

    @property
    def num_days(self) -> int:
        return self.net.size

    def report(self, basis: str = "net",
               benchmark: np.ndarray | None = None) -> MetricsReport:
        if basis not in ("net", "gross"):
            raise ValueError("basis must be 'net' or 'gross'")
        series = self.net if basis == "net" else self.gross
        return compute_report(series, benchmark,
                              days_per_year=self.config.days_per_year)


def parse_strategy(strategy_id: str) -> tuple[str, RankPower | None]:
    """Split "mlp:2" / "knn:return" style ids into (name, rank power)."""
    name, sep, power = strategy_id.partition(":")
    name = name.strip().lower()
    if not sep:
        return name, None
    power = power.strip().lower()
    if name not in ML_NAMES:
        raise ValueError(f"strategy {name!r} does not take a rank power")
    if power == "return":
        return name, "return"
    try:
        return name, int(power)
    except ValueError:
        raise ValueError(f"bad rank power {power!r} in {strategy_id!r}") from None


def known_strategy(strategy_id: str) -> bool:
    try:
        name, _ = parse_strategy(strategy_id)
    except ValueError:
        return False
    return name in CLASSIC_NAMES or name in ML_NAMES


def build_strategy(name: str, config: BacktestConfig,
                   rank_power: RankPower | None = None) -> Strategy:
    """Instantiate a registered strategy from config (bcrp is handled by
    run_backtest, which must solve it on the trading window)."""
    power = config.rank_power if rank_power is None else rank_power
    if name == "mlp":
        learner = MlpLearner(hidden=config.mlp_hidden,
                             epochs=config.mlp_epochs,
                             learning_rate=config.mlp_learning_rate,
                             batch_size=config.mlp_batch_size,
                             seed=config.seed)
    elif name == "knn":
        if config.knn_k > config.lookback:
            raise ValueError(
                f"knn_k must be in 1..lookback ({config.lookback})")
        learner = KnnLearner(k=config.knn_k)
    else:
        factories = {
            "bah": BuyAndHold,
            "ucrp": UniformCRP,
            "up": lambda: UniversalSampler(config.up_samples, config.seed),
            "eg": lambda: ExponentiatedGradient(config.eg_eta),
            "anticor": lambda: Anticor(config.anticor_window),
            "pamr": lambda: Pamr(config.pamr_eps),
            "cwmr": lambda: Cwmr(config.cwmr_confidence, config.cwmr_eps),
            "olmar": lambda: Olmar(config.olmar_window, config.olmar_eps),
            "rmr": lambda: Rmr(config.rmr_window, config.rmr_eps),
            "bnn": lambda: Bnn(config.bnn_neighbors, config.bnn_window),
            "corn": lambda: Corn(config.corn_rho, config.corn_window),
        }
        if name not in factories:
            raise ValueError(f"unknown strategy {name!r}")
        return factories[name]()
    return RankForecastStrategy(
        learner, lookback=config.lookback,
        refit_interval=config.refit_interval, rank_power=power,
        feature_window=config.feature_window, trend=config.trend_feature,
    )


def min_start_day(config: BacktestConfig, is_ml: bool) -> int:
    """Earliest 1-based trading day with enough history for the strategy."""
    return config.lookback + config.feature_window + 1 if is_ml else 1


def resolve_window(matrix: PriceMatrix, config: BacktestConfig,
                   is_ml: bool) -> tuple[int, int]:
    """(first, last) 1-based trading day indices for a run."""
    total = matrix.num_days
    if total < 2:
        raise ValueError("need at least 2 days of prices to trade")
    floor_day = min_start_day(config, is_ml)
    if config.start is None:
        t_first = floor_day
    else:
        later = [i for i, d in enumerate(matrix.dates) if d >= config.start]
        if not later:
            raise ValueError(f"start {config.start.isoformat()} is after the data ends")
        t_first = later[0] + 1
        if t_first < floor_day:
            raise ValueError(
                f"trading start day {t_first} needs lookback + feature_window "
                f"+ 1 = {floor_day} days of history"
            )
    if config.end is None:
        t_last = total - 1
    else:
        earlier = [i for i, d in enumerate(matrix.dates) if d <= config.end]
        if not earlier:
            raise ValueError(f"end {config.end.isoformat()} is before the data begins")
        t_last = min(earlier[-1] + 1, total - 1)
    if t_first > t_last:
        raise ValueError(
            f"empty trading window (days {t_first}..{t_last} of {total})"
        )
    return t_first, t_last


def run_backtest(matrix: PriceMatrix, strategy_id: str,
                 config: BacktestConfig | None = None) -> BacktestResult:
    """Backtest one strategy over the trading window implied by config."""
    config = config if config is not None else BacktestConfig()
    name, power = parse_strategy(strategy_id)
    is_ml = name in ML_NAMES
    t_first, t_last = resolve_window(matrix, config, is_ml)
    prices = matrix.prices

    if name == "bcrp":
        window_relatives = prices[t_first: t_last + 1] / prices[t_first - 1: t_last]
        strategy: Strategy = FixedWeights(bcrp_hindsight(window_relatives))
    else:
        strategy = build_strategy(name, config, power)

    raw = strategy.run(prices[:t_last], t_first, t_last)
    held_weights = raw.copy()
    if (is_ml or config.decay_classic) and config.decay_len > 0:
        recent: list[np.ndarray] = []  # most recent smoothed weights first
        for i, predicted in enumerate(raw):
            smoothed = apply_decay(recent, predicted, config.decay_alpha,
                                   config.decay_len)
            recent.insert(0, smoothed)
            del recent[config.decay_len:]
            held_weights[i] = smoothed

    gross, cost = account(held_weights, prices[t_first - 1: t_last + 1],
                          config.fee_rate)
    net = gross - cost
    wealth = np.cumprod(1.0 + net)
    return BacktestResult(
        strategy=strategy_id, assets=matrix.assets,
        dates=tuple(matrix.dates[t_first - 1: t_last]),
        raw_weights=raw, weights=held_weights, gross=gross, cost=cost,
        net=net, wealth=wealth, start_day=t_first, end_day=t_last,
        config=config,
    )


def reprice(matrix: PriceMatrix, result: BacktestResult,
            fee_rate: float) -> BacktestResult:
    """Re-cost a finished run at a different fee.

    Weights never depend on fees in this engine, so the trajectory is reused
    and only costs, net returns, and wealth are recomputed. A rerun costs its
    weights with the same ``account`` call, so the output is bit-identical to
    a full rerun at that fee.
    """
    check_fee_rate(fee_rate)
    _, cost = account(result.weights,
                      matrix.prices[result.start_day - 1: result.end_day + 1],
                      fee_rate)
    net = result.gross - cost
    return replace(
        result,
        cost=cost, net=net, wealth=np.cumprod(1.0 + net),
        config=replace(result.config, fee_rate=fee_rate),
    )


def config_as_dict(config: BacktestConfig) -> dict:
    """JSON-friendly view of a config (dates to ISO strings, tuples to lists)."""
    out = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, date):
            value = value.isoformat()
        elif isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out
