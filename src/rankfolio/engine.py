"""Backtest engine: the strategy catalogue, weight decay, and accounting.

``_read_id`` is the one place a strategy id is read, for ``make_strategy``
and the ``benchmark`` bound. An id is a classic name or ``mlp``/``knn`` with
an optional ``:power`` suffix that replaces ``rank_power`` and is parsed and
bounded as that field is (so ``mlp:0`` is rejected); case and surrounding
spaces do not matter.

Day indices are 1-based (day t is price row t-1); the trading window starts
no earlier than the strategy's ``first_day``. One ``Strategy.run`` call per
backtest, on a fresh strategy, gives the weights of every trading day. It
sees prices up to the last trading day only (bcrp, the ``hindsight``
reference, one day more), and its row for day t depends only on prices for
days 1..t: ``Strategy.run`` replays a recursion's ``_replay`` generator
from day 1 (OLMAR, RMR and PAMR get targets in blocks of windows), while
buy-and-hold and the learners' refit schedule anchor at the first trading
day. A row that is not finite fails the run. Each row is then optionally
smoothed by an exponential decay over the run's own recent outputs (a
``decays`` strategy's by default). Once every day's weights are known,
``account`` realizes each day's return from day t to t+1 and its turnover,
the L1 distance between the new weights and the previous day's weights
after drifting with the market, in a few array operations; the first day
turns over the full move out of cash. ``turnover_cost`` prices the turnover
at the run's fee, and ``reprice`` at another. Both runs and reprices
compound the net returns into wealth with ``compound``, which fails a run
whose wealth is not finite.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import Field, dataclass, field, fields, replace
from datetime import date, datetime
from numbers import Integral
from typing import Any

import numpy as np

from .data import PriceMatrix
from .features import RankPower
from .learners import KnnLearner, MlpLearner, RankForecastStrategy
from .metrics import MetricsReport, compute_report
from .strategies import (CLASSIC_NAMES, Anticor, BestCRP, Bnn, BuyAndHold,
                         Corn, Cwmr, ExponentiatedGradient, Olmar, Pamr, Rmr,
                         Strategy, UniformCRP, UniversalSampler)

ML_NAMES = ("mlp", "knn")

# Default proportional fee grid for sensitivity sweeps.
FEE_GRID = (0.0, 0.00025, 0.0005, 0.00075, 0.001, 0.00125, 0.0015)

# Daily turnover |new - held|_1 is at most 2, so a fee rate below 1/2 keeps
# each day's cost under 100% of wealth.
MAX_FEE_RATE = 0.5


def _passes(test: Callable[[Any], bool], value) -> bool:
    """Whether ``value`` passes ``test``; a comparison that a non-number
    cannot make (``TypeError``) fails it."""
    try:
        return bool(test(value))
    except TypeError:
        return False


def check_fee_rate(fee_rate: float) -> float:
    """Reject a fee rate outside [0, MAX_FEE_RATE), including NaN and
    non-numbers, and return it with a zero as +0.0: -0.0 passes the bound
    but would be written out as "-0.0"."""
    if not _passes(lambda rate: 0.0 <= rate < MAX_FEE_RATE, fee_rate):
        raise ValueError(
            f"fee rate must be in [0, {MAX_FEE_RATE}), got {fee_rate!r}")
    return fee_rate + 0.0


def _bound(test: Callable[[Any], bool], text: str):
    """A field's bound: a value that fails ``test`` (as NaN fails every
    comparison, and a non-number any comparison it cannot make) is rejected
    as '<field> <text>', where ``text`` may name other fields in braces."""
    def check(config: BacktestConfig, name: str) -> None:
        if not _passes(test, getattr(config, name)):
            raise ValueError(f"{name} {text.format_map(vars(config))}")
    return check


def _integer(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def _at_least(low: int):
    return _bound(lambda value: _integer(value) and value >= low,
                  f"must be >= {low} and an integer")


_FINITE = _bound(lambda value: -np.inf < value < np.inf, "must be finite")


# a datetime is a date, but does not compare with the data's dates
_DATE = _bound(lambda day: day is None or (isinstance(day, date) and
                                           not isinstance(day, datetime)),
               "must be a date")


def _end_bound(config: BacktestConfig, name: str) -> None:
    """``end`` is a date or None, and not before a given ``start``."""
    _DATE(config, name)
    if None not in (config.start, config.end) and config.end < config.start:
        raise ValueError(f"end {config.end.isoformat()} is before start "
                         f"{config.start.isoformat()}")


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _rank_power_from(text: str) -> RankPower:
    return "return" if text.lower() == "return" else int(text)


def _is_rank_power(power) -> bool:
    return power == "return" or (_integer(power) and power >= 1)


def _read_id(strategy_id: str, config: BacktestConfig) -> tuple[str, RankPower]:
    """The strategy name an id names and the rank power it trains to under
    ``config``; ValueError for an unknown id, a bad ``:power`` suffix, or
    ``knn_k`` above ``lookback``. It builds no config, so the benchmark's
    bound can call it."""
    name, sep, power = str(strategy_id).partition(":")
    name = name.strip().lower()
    if name not in ML_NAMES and (sep or name not in CLASSIC_NAMES):
        raise ValueError(
            f"unknown strategy {strategy_id!r} "
            f"(choose from {', '.join(CLASSIC_NAMES + ML_NAMES)}; "
            f"ml strategies accept a :power suffix)")
    rank_power = config.rank_power
    if sep:
        try:  # the config's own parser and bound judge the power
            rank_power = _rank_power_from(power.strip())
        except ValueError:
            rank_power = None
        if not _is_rank_power(rank_power):
            raise ValueError(f"bad rank power in {strategy_id!r}: "
                             f"it must be an integer >= 1 or 'return'")
    if name == "knn" and not _passes(lambda k: k <= config.lookback,
                                     config.knn_k):
        raise ValueError(f"knn_k must be in 1..lookback ({config.lookback})")
    return name, rank_power


def _param(default, bound=None, *, parse=None, flag=None, help=None):
    """A config field that declares its own bound (a check of the config
    and the field's name, such as ``_bound`` makes), its parser of stripped
    text where the default's type cannot parse it (``parse_field``), and
    its run flag with that flag's help."""
    metadata = {"bound": bound, "parse": parse, "flag": flag, "help": help}
    return field(default=default, metadata={
        key: value for key, value in metadata.items() if value is not None})


def parse_field(config_field: Field, text: str):
    """A config field's value from stripped text: the field's own parser,
    else the type of its default."""
    return config_field.metadata.get("parse", type(config_field.default))(text)


@dataclass
class BacktestConfig:
    """Run parameters; defaults match the headline experimental setup.

    Every field declares its bound, and some a parser and a run flag (see
    ``_param``); ``__post_init__`` checks the bounds, so the strategies and
    learners built from a config do not check their settings again. ``end``
    is not before ``start``, and ``benchmark`` is an id ``make_strategy``
    can build from the config. ``knn_k <= lookback`` ties two fields and is
    checked where knn is built (``make_strategy``).
    """

    lookback: int = _param(80, _at_least(1), flag="--lookback",
                           help="training days per refit")
    refit_interval: int = _param(10, _at_least(1), flag="--refit",
                                 help="trading days between refits")
    decay_alpha: float = _param(
        0.7, _bound(lambda alpha: 0.0 <= alpha < 1.0, "must be in [0, 1)"),
        flag="--decay-alpha", help="weight decay base in [0, 1)")
    decay_len: int = _param(1, _at_least(0), flag="--decay-len",
                            help="weight decay memory length")
    # the fee bound is shared with reprice and sweep-fees' --fees
    fee_rate: float = _param(
        0.0, lambda config, _: check_fee_rate(config.fee_rate),
        flag="--fee", help="proportional fee per unit turnover")
    rank_power: RankPower = _param(
        2, _bound(_is_rank_power, "must be an integer >= 1 or 'return'"),
        parse=_rank_power_from, flag="--rank-power",
        help="rank target transform for ml strategies: an integer >= 1 or "
             "return")
    seed: int = _param(10, _at_least(0), flag="--seed",
                       help="seed for sampling and weight init")
    feature_window: int = _param(20, _at_least(2), flag="--feature-window",
                                 help="trailing days per feature block")
    start: date | None = _param(   # default: earliest feasible
        None, _DATE, parse=date.fromisoformat, flag="--start",
        help="first trading date (ISO)")
    end: date | None = _param(     # default: last usable day
        None, _end_bound, parse=date.fromisoformat, flag="--end",
        help="last trading date (ISO)")
    days_per_year: int = _param(250, _at_least(1))
    trend_feature: str = _param(  # basis of the trend feature
        "price", _bound(lambda basis: basis in ("price", "return"),
                        "must be 'price' or 'return'"), parse=str.lower)
    decay_classic: bool = _param(  # smooth classic strategies too
        False, _bound(lambda flag: isinstance(flag, (bool, np.bool_)),
                      "must be a boolean"), parse=_parse_bool)
    benchmark: str = _param(
        "ucrp", lambda config, _: _read_id(config.benchmark, config),
        flag="--benchmark", help="information-ratio benchmark strategy")

    mlp_hidden: tuple[int, ...] = _param(
        (20, 20), _bound(lambda sizes: all(_integer(units) and units >= 1
                                           for units in sizes),
                         "layer sizes must be >= 1 and integers"),
        parse=lambda text: tuple(int(part) for part in text.split(",")
                                 if part.strip()))
    mlp_epochs: int = _param(200, _at_least(1))
    mlp_learning_rate: float = _param(
        1e-3, _bound(lambda rate: 0.0 < rate < np.inf,
                     "must be finite and > 0"))
    mlp_batch_size: int = _param(0, _at_least(0))  # 0 = full batch
    # knn_k <= lookback is checked where knn is built
    knn_k: int = _param(15, _bound(lambda k: _integer(k) and k >= 1,
                                   "must be in 1..lookback ({lookback})"))

    eg_eta: float = _param(
        0.05, _bound(lambda eta: 0.0 <= eta < np.inf,
                     "must be >= 0 and finite"))
    anticor_window: int = _param(5, _at_least(2))
    pamr_eps: float = _param(0.5, _FINITE)
    cwmr_confidence: float = _param(
        0.95, _bound(lambda confidence: 0.5 <= confidence < 1.0,
                     "must be in [0.5, 1)"))
    cwmr_eps: float = _param(0.5, _FINITE)
    olmar_window: int = _param(5, _at_least(1))
    olmar_eps: float = _param(10.0, _FINITE)
    rmr_window: int = _param(5, _at_least(1))
    rmr_eps: float = _param(5.0, _FINITE)
    bnn_neighbors: int = _param(10, _at_least(1))
    bnn_window: int = _param(5, _at_least(1))
    corn_rho: float = _param(
        0.1, _bound(lambda rho: -1.0 <= rho <= 1.0, "must be in [-1, 1]"))
    corn_window: int = _param(5, _at_least(1))
    up_samples: int = _param(10_000, _at_least(1))

    def __post_init__(self):
        for f in fields(self):
            if "bound" in f.metadata:
                f.metadata["bound"](self, f.name)
        self.fee_rate += 0.0  # -0.0 passes its bound; keep it as +0.0


def apply_decay(previous: list[np.ndarray] | np.ndarray, predicted: np.ndarray,
                alpha: float, length: int) -> np.ndarray:
    """Exponentially decayed blend of the prediction with recent outputs.

    ``previous`` holds earlier smoothed weights, most recent first (a list,
    or a run's rows); during warm-up fewer than ``length`` entries exist and
    the divisor shrinks to match, keeping the result a convex combination.
    """
    smoothed = np.asarray(predicted, dtype=np.float64).copy()
    denom = 1.0
    for i in range(1, min(length, len(previous)) + 1):
        coef = alpha ** i
        smoothed += coef * previous[i - 1]
        denom += coef
    return smoothed / denom


def account(weights: np.ndarray,
            prices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Daily gross returns and turnovers of a run held at ``weights``; no
    fee enters, so a run is accounted once for every fee (``turnover_cost``).

    Row i of ``weights`` is held from price row i to row i + 1, so ``prices``
    has one row more than ``weights``. Before its trade a day holds the
    previous day's weights drifted with the market, w (1 + r) renormalized,
    and the first day holds cash (zeros); its turnover is the L1 distance
    from those holdings to its weights. Raises ValueError when a day's
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
    return gross, np.abs(weights - held).sum(axis=1)


def turnover_cost(gross: np.ndarray, turnover: np.ndarray,
                  fee_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Daily costs and net returns of an accounted run at ``fee_rate``.

    Raises ValueError when a day's net return is <= -100%.
    """
    cost = fee_rate * turnover
    net = gross - cost
    ruined = np.flatnonzero(net <= -1.0)  # wealth would reach <= 0
    if ruined.size:
        raise ValueError(f"net return <= -100% on day {ruined[0] + 1} of the run")
    return cost, net


def compound(net: np.ndarray) -> np.ndarray:
    """Wealth after each day of a run from net returns, cumprod(1 + net)
    from a start of 1.

    Raises ValueError on the first day that wealth is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        wealth = np.cumprod(1.0 + net)
    finite = np.isfinite(wealth)
    if not finite.all():
        raise ValueError(f"wealth is not finite on day "
                         f"{int(np.argmin(finite)) + 1} of the run")
    return wealth


@contextmanager
def _naming_the_run(strategy_id: str, config: BacktestConfig):
    """Name the strategy, and whether it is the benchmark, in its error."""
    try:
        yield
    except ValueError as exc:
        role = " (the benchmark)" if strategy_id == config.benchmark else ""
        raise ValueError(f"strategy {strategy_id!r}{role}: {exc}") from None


@dataclass
class BacktestResult:
    """Per-day record of one run; all arrays share the trading-day axis."""

    strategy: str
    assets: tuple[str, ...]
    dates: tuple[date, ...]       # decision dates (day t of each trade)
    raw_weights: np.ndarray       # strategy output before decay
    weights: np.ndarray           # weights actually held (post decay)
    gross: np.ndarray
    turnover: np.ndarray          # |weights - drifted holdings|_1 a day
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


def make_strategy(strategy_id: str, config: BacktestConfig) -> Strategy:
    """The strategy an id names, built from ``config``; ValueError for an
    unknown id, a bad ``:power`` suffix, or ``knn_k`` above ``lookback``."""
    name, rank_power = _read_id(strategy_id, config)
    classics = {
        "bah": BuyAndHold,
        "ucrp": UniformCRP,
        "bcrp": BestCRP,
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
    if name in classics:
        return classics[name]()
    if name == "knn":
        learner = KnnLearner(k=config.knn_k)
    else:
        learner = MlpLearner(hidden=config.mlp_hidden,
                             epochs=config.mlp_epochs,
                             learning_rate=config.mlp_learning_rate,
                             batch_size=config.mlp_batch_size,
                             seed=config.seed)
    return RankForecastStrategy(
        learner, lookback=config.lookback,
        refit_interval=config.refit_interval, rank_power=rank_power,
        feature_window=config.feature_window, trend=config.trend_feature,
    )


def resolve_window(matrix: PriceMatrix, config: BacktestConfig,
                   first_day: int) -> tuple[int, int]:
    """(first, last) 1-based trading day indices for a run that may start no
    earlier than ``first_day`` (the largest ``first_day`` of the strategies
    that trade the window, the benchmark among them)."""
    total = matrix.num_days
    if total < 2:
        raise ValueError("need at least 2 days of prices to trade")
    if config.start is None:
        t_first = first_day
    else:
        t_first = bisect_left(matrix.dates, config.start) + 1
        if t_first > total:
            raise ValueError(f"start {config.start.isoformat()} is after the data ends")
        if t_first < first_day:
            raise ValueError(
                f"trading start day {t_first} is before day {first_day}, the "
                f"first day that every strategy and the benchmark of the run "
                f"can trade (lookback + feature_window + 1 for the learners)"
            )
    if config.end is None:
        t_last = total - 1
    else:
        t_last = bisect_right(matrix.dates, config.end)
        if t_last == 0:
            raise ValueError(f"end {config.end.isoformat()} is before the data begins")
        t_last = min(t_last, total - 1)
    if t_first > t_last:
        raise ValueError(
            f"empty trading window (days {t_first}..{t_last} of {total})"
        )
    return t_first, t_last


def run_backtest(matrix: PriceMatrix, strategy_id: str,
                 config: BacktestConfig | None = None) -> BacktestResult:
    """Backtest one strategy over the trading window implied by config."""
    config = config if config is not None else BacktestConfig()
    strategy = make_strategy(strategy_id, config)
    t_first, t_last = resolve_window(matrix, config, strategy.first_day)
    prices = matrix.prices
    raw = strategy.run(prices, t_first, t_last)
    finite = np.isfinite(raw).all(axis=1)
    if not finite.all():
        day = matrix.dates[t_first - 1 + int(np.argmin(finite))]
        raise ValueError(f"strategy {strategy_id!r} gave non-finite weights "
                         f"on {day.isoformat()}")
    held_weights = raw.copy()
    if (strategy.decays or config.decay_classic) and config.decay_len > 0:
        for i, predicted in enumerate(raw):  # recent rows, most recent first
            recent = held_weights[max(0, i - config.decay_len):i][::-1]
            held_weights[i] = apply_decay(recent, predicted, config.decay_alpha,
                                          config.decay_len)

    with _naming_the_run(strategy_id, config):
        gross, turnover = account(held_weights, prices[t_first - 1: t_last + 1])
        cost, net = turnover_cost(gross, turnover, config.fee_rate)
        return BacktestResult(
            strategy=strategy_id, assets=matrix.assets,
            dates=tuple(matrix.dates[t_first - 1: t_last]),
            raw_weights=raw, weights=held_weights, gross=gross,
            turnover=turnover, cost=cost, net=net, wealth=compound(net),
            start_day=t_first, end_day=t_last, config=config,
        )


def reprice(matrix: PriceMatrix, result: BacktestResult,
            fee_rate: float) -> BacktestResult:
    """Re-cost a finished run at a different fee, bit-identical to a rerun.

    Weights do not depend on fees, so the run's gross returns and turnovers
    are reused and costed with the same ``turnover_cost`` call as a rerun's;
    ``matrix`` is not read.
    """
    fee_rate = check_fee_rate(fee_rate)
    with _naming_the_run(result.strategy, result.config):
        cost, net = turnover_cost(result.gross, result.turnover, fee_rate)
        return replace(result, cost=cost, net=net, wealth=compound(net),
                       config=replace(result.config, fee_rate=fee_rate))
