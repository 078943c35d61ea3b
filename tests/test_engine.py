"""Engine accounting, decay, windows, repricing, and no-lookahead."""

import inspect
from dataclasses import fields, replace
from datetime import date, datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankfolio.data import PriceMatrix
from rankfolio.engine import (FEE_GRID, ML_NAMES, BacktestConfig, account,
                              apply_decay, compound, make_strategy, reprice,
                              resolve_window, run_backtest, spell_id,
                              turnover_cost)
from rankfolio.learners import KnnLearner, MlpLearner, RankForecastStrategy
from rankfolio.optim import log_optimal_portfolio
from rankfolio.strategies import CLASSIC_NAMES, BestCRP, Olmar

import oracles
from conftest import make_prices

FAST_ML = dict(lookback=20, feature_window=10, mlp_epochs=5, mlp_hidden=(6,),
               knn_k=5)


# --- decay, drift, cost -------------------------------------------------------

def test_apply_decay_single_previous():
    prev = [np.array([1.0, 0.0])]
    out = apply_decay(prev, np.array([0.0, 1.0]), alpha=0.7, length=1)
    np.testing.assert_allclose(out, [0.7 / 1.7, 1.0 / 1.7], atol=1e-15)


def test_apply_decay_warmup_passthrough():
    out = apply_decay([], np.array([0.2, 0.8]), alpha=0.7, length=3)
    np.testing.assert_array_equal(out, [0.2, 0.8])


def test_apply_decay_two_terms_hand_computed():
    prev = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]  # most recent first
    out = apply_decay(prev, np.array([0.5, 0.5]), alpha=0.5, length=2)
    # (pred + 0.5*prev1 + 0.25*prev2) / 1.75
    np.testing.assert_allclose(out, [(0.5 + 0.5) / 1.75, (0.5 + 0.25) / 1.75])


def test_apply_decay_uses_only_length_terms():
    prev = [np.array([1.0, 0.0])] * 5
    short = apply_decay(prev[:1], np.array([0.0, 1.0]), 0.7, 1)
    capped = apply_decay(prev, np.array([0.0, 1.0]), 0.7, 1)
    np.testing.assert_array_equal(short, capped)


def test_apply_decay_keeps_simplex():
    rng = np.random.default_rng(2)
    prev = [rng.dirichlet(np.ones(4)) for _ in range(3)]
    out = apply_decay(prev, rng.dirichlet(np.ones(4)), 0.6, 3)
    assert out.min() >= 0
    assert out.sum() == pytest.approx(1.0)


def test_drift_weights_hand_case():
    # day 1 holds [0.5, 0.5] through +10% / -10%, so day 2 starts at
    # [0.55, 0.45]: keeping those weights trades nothing
    prices = np.array([[1.0, 1.0], [1.1, 0.9], [1.21, 0.99]])
    stay = np.array([[0.5, 0.5], [0.55, 0.45]])
    gross, turnover = account(stay, prices)
    np.testing.assert_allclose(gross, [0.0, 0.1], atol=1e-15)
    assert turnover[1] == pytest.approx(0.0, abs=1e-15)
    _, turnover = account(np.array([[0.5, 0.5], [0.6, 0.4]]), prices)
    assert turnover[1] == pytest.approx(0.1)
    # a day whose drifted holdings are worth nothing cannot be carried on
    with pytest.raises(ValueError, match="wiped out"):
        account(stay[:1], np.array([[1.0, 1.0], [0.0, 0.0]]))


def test_turnover_cost_hand_case():
    # flat prices: day 2 holds day 1's [0.5, 0.5] and moves to [0.6, 0.4]
    prices = np.ones((3, 2))
    weights = np.array([[0.5, 0.5], [0.6, 0.4]])
    gross, turnover = account(weights, prices)
    cost, net = turnover_cost(gross, turnover, 0.001)
    assert cost[1] == pytest.approx(0.0002)
    assert net.tobytes() == (gross - cost).tobytes()
    assert turnover_cost(gross, turnover, 0.0)[0].tolist() == [0.0, 0.0]
    # from all cash, turnover is the full unit
    assert turnover[0] == 1.0
    assert cost[0] == pytest.approx(0.001)


# --- config and window resolution ----------------------------------------------

def test_config_validation():
    for kwargs in (dict(lookback=0), dict(refit_interval=0),
                   dict(decay_alpha=1.0), dict(decay_alpha=-0.1),
                   dict(decay_len=-1), dict(fee_rate=-0.001),
                   dict(feature_window=1), dict(trend_feature="x"),
                   dict(rank_power=0), dict(rank_power="x"),
                   dict(days_per_year=0)):
        with pytest.raises(ValueError):
            BacktestConfig(**kwargs)


@pytest.mark.parametrize("kwargs, message", [
    (dict(seed=-1), "seed must be >= 0"),
    (dict(knn_k=0, lookback=30), r"knn_k must be in 1\.\.lookback \(30\)"),
    # "false" is truthy: it used to build and smooth the classics
    (dict(decay_classic="false"), "decay_classic must be a boolean"),
    # non-numbers from library callers used to raise TypeError from the
    # bound's comparison
    (dict(decay_alpha="x"), r"decay_alpha must be in \[0, 1\)"),
    (dict(pamr_eps="x"), "pamr_eps must be finite"),
    (dict(fee_rate=None), r"fee rate must be in \[0, 0\.5\), got None"),
    (dict(corn_rho=[1]), r"corn_rho must be in \[-1, 1\]"),
    # the benchmark is judged by make_strategy's rule and message
    (dict(benchmark="nope"), r"unknown strategy 'nope' \(choose from"),
    (dict(benchmark="ucrp:2"), "unknown strategy 'ucrp:2'"),
    (dict(benchmark=None), "unknown strategy None"),
    (dict(benchmark="mlp:0"), "bad rank power in 'mlp:0'"),
    (dict(benchmark="knn", lookback=10), r"knn_k must be in 1\.\.lookback \(10\)"),
])
def test_bound_messages_name_the_key(kwargs, message):
    with pytest.raises(ValueError, match=message):
        BacktestConfig(**kwargs)


@pytest.mark.parametrize("kwargs, message", [
    (dict(lookback=20.5), "lookback must be >= 1 and an integer"),
    (dict(seed=1.0), "seed must be >= 0 and an integer"),
    (dict(refit_interval=True), "refit_interval must be >= 1 and an integer"),
    (dict(mlp_batch_size=2.5), "mlp_batch_size must be >= 0 and an integer"),
    (dict(rank_power=1.5), "rank_power must be an integer >= 1 or 'return'"),
    (dict(rank_power=True), "rank_power must be an integer >= 1 or 'return'"),
    (dict(knn_k=2.5), r"knn_k must be in 1\.\.lookback \(80\)"),
    (dict(mlp_hidden=(4.5,)), "mlp_hidden layer sizes must be >= 1"),
    (dict(anticor_window=2.5), "anticor_window must be >= 2 and an integer"),
    (dict(olmar_window=2.5), "olmar_window must be >= 1 and an integer"),
    (dict(rmr_window=2.5), "rmr_window must be >= 1 and an integer"),
    (dict(bnn_neighbors=2.5), "bnn_neighbors must be >= 1 and an integer"),
    (dict(bnn_window=2.5), "bnn_window must be >= 1 and an integer"),
    (dict(corn_window=2.5), "corn_window must be >= 1 and an integer"),
    (dict(up_samples=10.5), "up_samples must be >= 1 and an integer"),
])
def test_integer_fields_reject_non_integers(kwargs, message):
    # they used to build and then fail mid-run (or, for rank_power, run)
    with pytest.raises(ValueError, match=message):
        BacktestConfig(**kwargs)


def test_integer_fields_take_numpy_integers():
    config = BacktestConfig(lookback=np.int64(30), rank_power=np.int32(3),
                            decay_classic=np.True_)
    assert config.lookback == 30 and config.rank_power == 3
    assert config.decay_classic


def test_every_setting_declares_its_bound():
    # every field, the dates and the benchmark among them, is bounded where
    # it is declared
    unbounded = {f.name for f in fields(BacktestConfig)
                 if "bound" not in f.metadata}
    assert unbounded == set()


def test_benchmark_takes_every_id_make_strategy_builds():
    # a :power suffix is judged without building a config, whose bounds
    # would judge the benchmark again; the id is stored spelled
    for strategy_id in CLASSIC_NAMES + ML_NAMES + ("mlp:3", " KNN:return "):
        assert (BacktestConfig(benchmark=strategy_id).benchmark
                == spell_id(strategy_id))
    spelled = BacktestConfig(benchmark=" K nn : Return ").benchmark
    assert spelled == "knn:return"


@pytest.mark.parametrize("kwargs, message", [
    (dict(start="2023-01-05"), "start must be a date"),
    (dict(end=20230105), "end must be a date"),
    (dict(start=datetime(2023, 1, 5)), "start must be a date"),
    (dict(start=date(2023, 1, 20), end=date(2023, 1, 10)),
     "end 2023-01-10 is before start 2023-01-20"),
])
def test_bad_dates_rejected_when_the_config_is_built(kwargs, message):
    # a string start used to build, then fail inside resolve_window with a
    # TypeError; an end before the start, as an empty trading window
    with pytest.raises(ValueError, match=message):
        BacktestConfig(**kwargs)


@pytest.mark.parametrize("fee", [float("nan"), 0.5, 2.0, float("inf")])
def test_fee_rate_that_can_exhaust_wealth_rejected(fee):
    # turnover reaches 2, so a fee of 1/2 can cost a whole day's wealth
    with pytest.raises(ValueError, match="fee rate"):
        BacktestConfig(fee_rate=fee)
    pm = make_prices(40, 2, seed=3)
    base = run_backtest(pm, "ucrp")
    with pytest.raises(ValueError, match="fee rate"):
        reprice(pm, base, fee)


def test_fee_rate_just_below_bound_accepted():
    assert BacktestConfig(fee_rate=0.4999).fee_rate == 0.4999


@pytest.mark.parametrize("kwargs, message", [
    (dict(mlp_epochs=0), "mlp_epochs"),
    (dict(mlp_hidden=(0,)), "mlp_hidden"),
    (dict(mlp_hidden=(20, -1)), "mlp_hidden"),
    (dict(mlp_batch_size=-1), "mlp_batch_size"),
    (dict(mlp_learning_rate=float("nan")), "mlp_learning_rate"),
    (dict(mlp_learning_rate=float("inf")), "mlp_learning_rate"),
    (dict(mlp_learning_rate=0.0), "mlp_learning_rate"),
    (dict(mlp_learning_rate=-1.0), "mlp_learning_rate"),
    (dict(knn_k=0), "knn_k"),
])
def test_bad_learner_settings_rejected_at_construction(kwargs, message):
    with pytest.raises(ValueError, match=message):
        BacktestConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(knn_k=81), dict(knn_k=500),
    dict(lookback=10),  # the default knn_k of 15 needs 15 rows
], ids=["knn_k=81", "knn_k=500", "lookback=10"])
def test_knn_k_above_lookback_rejected_where_knn_is_built(kwargs):
    cfg = BacktestConfig(**kwargs)  # no other strategy reads knn_k
    with pytest.raises(ValueError, match=r"knn_k must be in 1\.\.lookback"):
        make_strategy("knn", cfg)
    make_strategy("mlp", cfg)
    result = run_backtest(make_prices(40, 3, seed=3), "ucrp", cfg)
    assert np.isfinite(result.wealth).all()


@pytest.mark.parametrize("kwargs, message", [
    (dict(eg_eta=-0.01), "eg_eta must be >= 0"),
    (dict(eg_eta=float("nan")), "eg_eta must be >= 0"),
    (dict(anticor_window=1), "anticor_window must be >= 2"),
    (dict(olmar_window=0), "olmar_window must be >= 1"),
    (dict(rmr_window=0), "rmr_window must be >= 1"),
    (dict(bnn_neighbors=0), "bnn_neighbors must be >= 1"),
    (dict(bnn_window=0), "bnn_window must be >= 1"),
    (dict(corn_window=0), "corn_window must be >= 1"),
    (dict(corn_rho=2.0), r"corn_rho must be in \[-1, 1\]"),
    (dict(corn_rho=-1.5), r"corn_rho must be in \[-1, 1\]"),
    (dict(corn_rho=float("nan")), r"corn_rho must be in \[-1, 1\]"),
    (dict(cwmr_confidence=0.2), r"cwmr_confidence must be in \[0.5, 1\)"),
    (dict(cwmr_confidence=1.0), r"cwmr_confidence must be in \[0.5, 1\)"),
    (dict(up_samples=0), "up_samples must be >= 1"),
    (dict(pamr_eps=float("nan")), "pamr_eps must be finite"),
    (dict(pamr_eps=float("inf")), "pamr_eps must be finite"),
    (dict(olmar_eps=float("nan")), "olmar_eps must be finite"),
    (dict(olmar_eps=float("inf")), "olmar_eps must be finite"),
    (dict(rmr_eps=float("nan")), "rmr_eps must be finite"),
    (dict(rmr_eps=float("-inf")), "rmr_eps must be finite"),
    (dict(cwmr_eps=float("nan")), "cwmr_eps must be finite"),
    (dict(eg_eta=float("inf")), "eg_eta must be >= 0 and finite"),
])
def test_bad_classic_settings_rejected_at_construction(kwargs, message):
    with pytest.raises(ValueError, match=message):
        BacktestConfig(**kwargs)


def test_classic_settings_at_their_bounds_run(prices_small):
    cfg = BacktestConfig(eg_eta=0.0, anticor_window=2, olmar_window=1,
                         rmr_window=1, bnn_neighbors=1, bnn_window=1,
                         corn_window=1, corn_rho=-1.0, cwmr_confidence=0.5,
                         up_samples=1)
    for strategy in ("eg", "anticor", "olmar", "rmr", "bnn", "corn", "cwmr",
                     "up"):
        assert np.isfinite(run_backtest(prices_small, strategy, cfg).wealth).all()
    assert BacktestConfig(corn_rho=1.0).corn_rho == 1.0


def test_learner_settings_at_their_bounds_run(prices_small):
    BacktestConfig(mlp_hidden=(1,), mlp_learning_rate=1e-300, lookback=1,
                   knn_k=1, seed=0)
    # k equal to lookback uses every training row; a linear net (no hidden
    # layer) with one epoch and minibatches of one row still trains
    cfg = BacktestConfig(**{**FAST_ML, "knn_k": FAST_ML["lookback"],
                            "mlp_hidden": (), "mlp_epochs": 1,
                            "mlp_batch_size": 1})
    for strategy in ("knn", "mlp"):
        result = run_backtest(prices_small, strategy, cfg)
        assert np.isfinite(result.wealth).all()


def test_parse_strategy():
    # case and spaces do not matter; a suffix replaces the config's power
    cfg = BacktestConfig(rank_power=4)
    assert isinstance(make_strategy("olmar", cfg), Olmar)
    assert isinstance(make_strategy(" BCRP ", cfg), BestCRP)
    for strategy_id, learner, power in [
            ("mlp", MlpLearner, 4), ("mlp:3", MlpLearner, 3),
            ("knn:return", KnnLearner, "return"), ("MLP:2", MlpLearner, 2),
            (" Knn : RETURN ", KnnLearner, "return"), ("knn:1", KnnLearner, 1)]:
        strategy = make_strategy(strategy_id, cfg)
        assert isinstance(strategy, RankForecastStrategy), strategy_id
        assert isinstance(strategy.learner, learner), strategy_id
        assert strategy.rank_power == power, strategy_id
    with pytest.raises(ValueError, match="unknown strategy 'olmar:2'"):
        make_strategy("olmar:2", cfg)
    # the suffix obeys the rank_power rule: an integer >= 1 or "return"
    for strategy_id in ("mlp:x", "mlp:0", "knn:-2", "mlp:", "knn:2.5",
                        "mlp:returns"):
        with pytest.raises(ValueError,
                           match=f"bad rank power in '{strategy_id}'"):
            make_strategy(strategy_id, cfg)


def test_strategy_constructors_take_no_defaults():
    # BacktestConfig holds every default, and make_strategy passes each one
    for name in CLASSIC_NAMES + ML_NAMES:
        built = [make_strategy(name, BacktestConfig())]
        if name in ML_NAMES:
            built.append(built[0].learner)
        for cls in map(type, built):
            params = inspect.signature(cls).parameters.values()
            assert all(p.default is p.empty for p in params), cls.__name__


def test_known_strategy():
    cfg = BacktestConfig()
    for strategy_id in CLASSIC_NAMES + ML_NAMES + ("mlp:4", "knn:return"):
        make_strategy(strategy_id, cfg)
    for strategy_id in ("nope", "olmar:2", "bcrp:1", "", ":2", "mlp knn"):
        with pytest.raises(ValueError, match=(
                rf"unknown strategy '{strategy_id}' \(choose from bah, .*, "
                r"knn; ml strategies accept a :power suffix\)")):
            make_strategy(strategy_id, cfg)
    with pytest.raises(ValueError, match="bad rank power"):
        make_strategy("mlp:bogus", cfg)


def test_min_start_day():
    # a strategy's first feasible day, and whether it sees past t_last
    cfg = BacktestConfig(lookback=80, feature_window=20)
    for name in CLASSIC_NAMES:
        strategy = make_strategy(name, cfg)
        assert strategy.first_day == 1, name
        assert strategy.hindsight == (name == "bcrp"), name
    for strategy_id in ("mlp", "knn", "mlp:return"):
        strategy = make_strategy(strategy_id, cfg)
        assert strategy.first_day == 101, strategy_id
        assert not strategy.hindsight, strategy_id


def test_bad_rank_power_suffix_rejected_before_the_run(prices_small,
                                                       monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a strategy ran")

    monkeypatch.setattr(RankForecastStrategy, "run", no_run)
    for strategy_id in ("mlp:0", "knn:-2"):
        with pytest.raises(ValueError, match="bad rank power"):
            run_backtest(prices_small, strategy_id, BacktestConfig(**FAST_ML))


def test_resolve_window_defaults():
    pm = make_prices(50, 3, seed=1)
    cfg = BacktestConfig(lookback=20, feature_window=10)
    assert resolve_window(pm, cfg, first_day=1) == (1, 49)
    assert resolve_window(pm, cfg, first_day=31) == (31, 49)
    # the default start is the strategy's own first day
    knn_first = make_strategy("knn", cfg).first_day
    assert resolve_window(pm, cfg, knn_first) == (31, 49)


def test_resolve_window_start_end_dates():
    pm = make_prices(50, 3, seed=1)
    cfg = BacktestConfig(start=pm.dates[9], end=pm.dates[39])
    assert resolve_window(pm, cfg, first_day=1) == (10, 40)
    # end beyond the data clamps to the last tradable day
    cfg2 = BacktestConfig(end=date(2030, 1, 1))
    assert resolve_window(pm, cfg2, first_day=1) == (1, 49)
    cfg3 = BacktestConfig(start=date(2030, 1, 1))
    with pytest.raises(ValueError, match="after the data"):
        resolve_window(pm, cfg3, first_day=1)
    cfg4 = BacktestConfig(end=date(2000, 1, 1))
    with pytest.raises(ValueError, match="before the data"):
        resolve_window(pm, cfg4, first_day=1)
    # an end before the start is a bad config (see
    # test_bad_dates_rejected_when_the_config_is_built); a start on the
    # last date leaves no day to trade, since its return is never realized
    with pytest.raises(ValueError, match="end .* is before start"):
        BacktestConfig(start=pm.dates[30], end=pm.dates[10])
    cfg5 = BacktestConfig(start=pm.dates[-1])
    with pytest.raises(ValueError, match="empty trading window"):
        resolve_window(pm, cfg5, first_day=1)


def test_resolve_window_dates_between_rows():
    # rows every other day: a start between two rows takes the later row and
    # an end the earlier one, as a scan of every date does
    walk = make_prices(10, 2, seed=1)
    dates = tuple(date(2023, 1, 1) + timedelta(days=2 * i) for i in range(10))
    pm = PriceMatrix(dates=dates, assets=walk.assets, prices=walk.prices)
    for offset in range(-1, 21):
        day = dates[0] + timedelta(days=offset)
        later = [i for i, d in enumerate(dates) if d >= day]
        earlier = [i for i, d in enumerate(dates) if d <= day]
        if later and later[0] < 9:  # else no day is left to trade
            assert resolve_window(pm, BacktestConfig(start=day), 1) \
                == (later[0] + 1, 9), day
        if earlier:
            assert resolve_window(pm, BacktestConfig(end=day), 1) \
                == (1, min(earlier[-1] + 1, 9)), day


def test_resolve_window_ml_floor_enforced():
    pm = make_prices(60, 3, seed=1)
    cfg = BacktestConfig(lookback=20, feature_window=10, start=pm.dates[5])
    with pytest.raises(ValueError, match="start day 6 is before day 31, the "
                       "first day that every strategy and the benchmark"):
        resolve_window(pm, cfg, first_day=31)
    with pytest.raises(ValueError, match="before day 31"):
        run_backtest(pm, "mlp", replace(cfg, mlp_epochs=1))
    # the same start is fine for a classic strategy
    assert resolve_window(pm, cfg, first_day=1)[0] == 6


def test_resolve_window_two_days_is_one_trade():
    pm = make_prices(2, 2, seed=1)
    assert resolve_window(pm, BacktestConfig(), first_day=1) == (1, 1)


def test_resolve_window_one_day_errors():
    from rankfolio.data import PriceMatrix
    pm = PriceMatrix(dates=(date(2024, 1, 1),), assets=("X",),
                     prices=np.array([[1.0]]))
    with pytest.raises(ValueError, match="at least 2 days"):
        resolve_window(pm, BacktestConfig(), first_day=1)


# --- accounting ----------------------------------------------------------------

def accounting_oracle(prices, weights, t_first, fee):
    """Recompute gross/turnover/cost/net/wealth from held weights, scalar
    style."""
    n = prices.shape[1]
    held = np.zeros(n)
    gross, turnover, cost = [], [], []
    for i in range(weights.shape[0]):
        t = t_first + i
        r = prices[t] / prices[t - 1] - 1.0
        w = weights[i]
        gross.append(float(w @ r))
        turnover.append(float(np.abs(w - held).sum()))
        cost.append(fee * turnover[-1])
        held = w * (1.0 + r)
        held /= held.sum()
    gross, turnover, cost = np.array(gross), np.array(turnover), np.array(cost)
    net = gross - cost
    return gross, turnover, cost, net, np.cumprod(1.0 + net)


def assert_oracle_bytes(pm, result, fee):
    want = accounting_oracle(pm.prices, result.weights, result.start_day, fee)
    got = (result.gross, result.turnover, result.cost, result.net,
           result.wealth)
    for column, g, w in zip(("gross", "turnover", "cost", "net", "wealth"),
                            got, want):
        assert g.tobytes() == w.tobytes(), column


@pytest.mark.parametrize("strategy", ["ucrp", "eg", "olmar", "bah", "knn"])
def test_accounting_matches_oracle(strategy):
    pm = make_prices(60, 4, seed=23)
    cfg = BacktestConfig(fee_rate=0.001, **FAST_ML)  # knn decays by default
    assert_oracle_bytes(pm, run_backtest(pm, strategy, cfg), 0.001)


@pytest.mark.parametrize("strategy", ["olmar", "knn"])
def test_accounting_matches_oracle_50_assets(strategy):
    pm = make_prices(90, 50, seed=35)
    cfg = BacktestConfig(fee_rate=0.0015, decay_classic=True, **FAST_ML)
    assert_oracle_bytes(pm, run_backtest(pm, strategy, cfg), 0.0015)


@st.composite
def held_runs(draw):
    """Simplex weight rows (zeros allowed), positive prices and a fee."""
    days = draw(st.integers(1, 30))
    assets = draw(st.integers(1, 12))
    cells = days * assets
    raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=cells,
                                 max_size=cells))).reshape(days, assets)
    raw[raw.sum(axis=1) == 0.0] = 1.0
    moves = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=cells,
                                   max_size=cells))).reshape(days, assets)
    prices = 100.0 * np.vstack([np.ones(assets), np.cumprod(moves, axis=0)])
    return raw / raw.sum(axis=1, keepdims=True), prices, draw(st.floats(0.0, 0.49))


@given(held_runs())
@settings(max_examples=200, deadline=None)
def test_property_account_matches_oracle(run):
    weights, prices, fee = run
    want_gross, want_turnover, want_cost, want_net, _ = accounting_oracle(
        prices, weights, 1, fee)
    gross, turnover = account(weights, prices)
    assert gross.tobytes() == want_gross.tobytes()
    assert turnover.tobytes() == want_turnover.tobytes()
    assert (fee * turnover).tobytes() == want_cost.tobytes()
    ruined = np.flatnonzero(want_net <= -1.0)
    if ruined.size:  # a fee on top of a fall can take all the wealth
        with pytest.raises(ValueError, match=f"on day {ruined[0] + 1} of"):
            turnover_cost(gross, turnover, fee)
        return
    cost, net = turnover_cost(gross, turnover, fee)
    assert cost.tobytes() == want_cost.tobytes()
    assert net.tobytes() == want_net.tobytes()


# a fall to 1e-7 of the price plus the first day's fee costs over 100%
RUIN = PriceMatrix(dates=(date(2024, 1, 1), date(2024, 1, 2), date(2024, 1, 3)),
                   assets=("A", "B"),
                   prices=np.array([[1.0, 1.0], [1e-7, 1e-7], [1e-7, 1e-7]]))


def test_run_that_loses_all_wealth_raises():
    # it used to return net [-1.45, 0] and wealth [-0.45, -0.45]
    with pytest.raises(ValueError, match="net return <= -100% on day 1 "):
        run_backtest(RUIN, "ucrp", BacktestConfig(fee_rate=0.45))
    base = run_backtest(RUIN, "ucrp")
    assert (base.wealth > 0).all()
    with pytest.raises(ValueError, match="net return <= -100% on day 1 "):
        reprice(RUIN, base, 0.45)


def test_wealth_that_is_not_finite_raises():
    np.testing.assert_array_equal(compound(np.array([0.5, -0.5])), [1.5, 0.75])
    with pytest.raises(ValueError,
                       match="wealth is not finite on day 3 of the run"):
        compound(np.array([0.5, 1e300, 1e300, 0.1]))
    with pytest.raises(ValueError,
                       match="wealth is not finite on day 1 of the run"):
        compound(np.array([np.inf]))


def test_first_day_pays_full_move_from_cash():
    pm = make_prices(30, 4, seed=24)
    result = run_backtest(pm, "ucrp", BacktestConfig(fee_rate=0.002))
    assert result.cost[0] == pytest.approx(0.002)


def test_gross_uses_decision_day_relative():
    pm = make_prices(40, 3, seed=25)
    result = run_backtest(pm, "eg", BacktestConfig())
    t = result.start_day + 7
    r = pm.prices[t] / pm.prices[t - 1] - 1.0
    assert result.gross[7] == pytest.approx(float(result.weights[7] @ r))


def test_result_dates_are_decision_days():
    pm = make_prices(40, 3, seed=26)
    result = run_backtest(pm, "ucrp",
                          BacktestConfig(start=pm.dates[4], end=pm.dates[20]))
    assert result.dates[0] == pm.dates[4]
    assert result.dates[-1] == pm.dates[20]
    assert result.num_days == 17


# --- decay wiring ----------------------------------------------------------------

def test_decay_off_for_classic_by_default():
    pm = make_prices(50, 3, seed=27)
    result = run_backtest(pm, "eg", BacktestConfig())
    np.testing.assert_array_equal(result.weights, result.raw_weights)


def test_decay_classic_flag_smooths_weights():
    pm = make_prices(50, 3, seed=27)
    cfg = BacktestConfig(decay_classic=True, decay_alpha=0.7, decay_len=1)
    result = run_backtest(pm, "eg", cfg)
    raw = result.raw_weights
    expected = np.empty_like(raw)
    expected[0] = raw[0]
    for i in range(1, raw.shape[0]):
        expected[i] = (raw[i] + 0.7 * expected[i - 1]) / 1.7
    np.testing.assert_allclose(result.weights, expected, atol=1e-15)


def test_decay_on_for_ml_by_default():
    pm = make_prices(70, 3, seed=28)
    cfg = BacktestConfig(**FAST_ML)
    result = run_backtest(pm, "knn", cfg)
    assert not np.array_equal(result.weights, result.raw_weights)
    expected = np.empty_like(result.raw_weights)
    expected[0] = result.raw_weights[0]
    for i in range(1, expected.shape[0]):
        expected[i] = (result.raw_weights[i] + 0.7 * expected[i - 1]) / 1.7
    np.testing.assert_allclose(result.weights, expected, atol=1e-15)


def test_decays_attribute_picks_the_smoothed_strategies(monkeypatch):
    cfg = BacktestConfig(**FAST_ML)
    assert [make_strategy(name, cfg).decays for name in ML_NAMES] == [True] * 2
    assert not any(make_strategy(name, cfg).decays for name in CLASSIC_NAMES)

    # the engine reads the attribute, not the strategy's class
    class DecayedOlmar(Olmar):
        decays = True

    monkeypatch.setattr("rankfolio.engine.make_strategy",
                        lambda strategy_id, config: DecayedOlmar(
                            config.olmar_window, config.olmar_eps))
    result = run_backtest(make_prices(50, 3, seed=27), "olmar", cfg)
    expected = np.empty_like(result.raw_weights)
    expected[0] = result.raw_weights[0]
    for i in range(1, expected.shape[0]):
        expected[i] = (result.raw_weights[i] + 0.7 * expected[i - 1]) / 1.7
    np.testing.assert_allclose(result.weights, expected, atol=1e-15)


@pytest.mark.parametrize("strategy, decay_classic", [("knn", False),
                                                     ("olmar", True)])
@pytest.mark.parametrize("decay_len", [0, 1, 2, 3, 4, 500])
def test_decay_matches_list_reference(strategy, decay_classic, decay_len):
    # the run smooths its rows in place, and the oracle through apply_decay
    # on a list: both must give the same bytes. decay_len 500 outlasts the
    # run, so every day blends all earlier rows
    pm = make_prices(70, 3, seed=28)
    for alpha in (0.0, *np.random.default_rng(decay_len).uniform(0, 1, 3)):
        cfg = BacktestConfig(decay_alpha=alpha, decay_len=decay_len,
                             decay_classic=decay_classic, **FAST_ML)
        result = run_backtest(pm, strategy, cfg)
        assert result.num_days < 500
        want = oracles.decay_loop(result.raw_weights, alpha, decay_len)
        assert result.weights.tobytes() == want.tobytes()


def test_decay_len_zero_disables_decay():
    pm = make_prices(70, 3, seed=28)
    cfg = BacktestConfig(decay_len=0, **FAST_ML)
    result = run_backtest(pm, "knn", cfg)
    np.testing.assert_array_equal(result.weights, result.raw_weights)


def test_non_finite_weights_raise_naming_strategy_and_day():
    # on day 2 eta * x overflows, so EG's weights of days 2 and 3 are NaN;
    # the run used to return wealth [1.5, nan, nan] without an error
    pm = PriceMatrix(dates=tuple(date(2024, 1, d) for d in range(1, 5)),
                     assets=("A", "B"),
                     prices=np.array([[1.0, 1.0], [2.0, 1.0], [1.0, 2.0],
                                      [1.0, 1.0]]))
    with pytest.warns(RuntimeWarning), pytest.raises(
            ValueError, match="strategy 'eg' gave non-finite weights "
                              "on 2024-01-02"):
        run_backtest(pm, "eg", BacktestConfig(eg_eta=1e308))


# --- bcrp, the hindsight strategy ------------------------------------------------

def test_bcrp_constant_weights_solved_on_window():
    pm = make_prices(60, 3, seed=29)
    cfg = BacktestConfig(start=pm.dates[19], end=pm.dates[49])
    result = run_backtest(pm, "bcrp", cfg)
    rels = pm.prices[20:51] / pm.prices[19:50]
    target = log_optimal_portfolio(rels)
    for row in result.weights:
        np.testing.assert_array_equal(row, target)
    # moving the window moves the solution
    other = run_backtest(pm, "bcrp", BacktestConfig(end=pm.dates[29]))
    assert not np.array_equal(other.weights[0], target)
    # its run needs the price after t_last, which realizes day t_last
    assert BestCRP().run(pm.prices[:51], 20, 50).tobytes() == \
        result.raw_weights.tobytes()
    with pytest.raises(ValueError):
        BestCRP().run(pm.prices[:50], 20, 50)


# --- reprice and fees -------------------------------------------------------------

@pytest.mark.parametrize("strategy", CLASSIC_NAMES + ML_NAMES)
def test_reprice_bit_identical_to_rerun(strategy):
    pm = make_prices(70, 3, seed=30)
    cfg = BacktestConfig(**FAST_ML)
    base = run_backtest(pm, strategy, cfg)
    for fee in (0.0, 0.0005, 0.0015):
        buyout = reprice(pm, base, fee)
        rerun = run_backtest(pm, strategy, replace(cfg, fee_rate=fee))
        assert buyout.turnover.tobytes() == rerun.turnover.tobytes()
        assert buyout.cost.tobytes() == rerun.cost.tobytes()
        assert buyout.net.tobytes() == rerun.net.tobytes()
        assert buyout.wealth.tobytes() == rerun.wealth.tobytes()
        assert buyout.config.fee_rate == fee
    with pytest.raises(ValueError):
        reprice(pm, base, -0.1)


def test_zero_fee_net_equals_gross_bitwise():
    pm = make_prices(60, 4, seed=31)
    result = run_backtest(pm, "olmar", BacktestConfig(fee_rate=0.0))
    assert result.net.tobytes() == result.gross.tobytes()
    assert (result.cost == 0.0).all()


def test_fees_strictly_reduce_net_when_turnover_exists():
    pm = make_prices(60, 4, seed=32)
    base = run_backtest(pm, "pamr", BacktestConfig())
    wealth = [reprice(pm, base, fee).wealth[-1] for fee in FEE_GRID]
    assert all(a > b for a, b in zip(wealth, wealth[1:]))
    # net wealth sits strictly below gross wealth on every day after a trade
    priced = reprice(pm, base, 0.001)
    gross_wealth = np.cumprod(1.0 + priced.gross)
    assert (np.cumprod(1.0 + priced.net) < gross_wealth).all()


# --- windows, lookahead, determinism -----------------------------------------------

@pytest.mark.parametrize("strategy", ["bah", "ucrp", "eg", "pamr", "olmar",
                                      "knn", "mlp"])
def test_no_lookahead_truncation(strategy):
    pm = make_prices(80, 3, seed=33)
    cfg = BacktestConfig(**FAST_ML)
    full = run_backtest(pm, strategy, cfg)
    for cut in (3, 10, 25):
        if cut >= full.num_days:
            continue
        end = full.dates[cut]
        short = run_backtest(pm, strategy, replace(cfg, end=end))
        k = short.num_days
        assert short.weights.tobytes() == full.weights[:k].tobytes()
        assert short.net.tobytes() == full.net[:k].tobytes()


@pytest.mark.parametrize("assets", [10, 50])
@pytest.mark.parametrize("strategy", [s for s in CLASSIC_NAMES if s != "bcrp"]
                         + ["mlp", "knn"])
def test_later_prices_never_move_earlier_rows(strategy, assets):
    # bcrp is left out: it is solved in hindsight over the whole window
    pm = make_prices(90, assets, seed=assets)
    cfg = BacktestConfig(**FAST_ML)
    base = run_backtest(pm, strategy, cfg)
    rng = np.random.default_rng(assets)
    for t in (base.start_day + 2, 55, base.end_day - 3):
        # scale every price after day t (row t - 1) by its own random factor
        prices = pm.prices.copy()
        prices[t:] *= rng.uniform(0.5, 2.0, size=prices[t:].shape)
        moved = run_backtest(replace(pm, prices=prices), strategy, cfg)
        k = t - base.start_day + 1  # rows of days start_day..t
        for field in ("raw_weights", "weights"):
            assert (getattr(moved, field)[:k].tobytes()
                    == getattr(base, field)[:k].tobytes()), (field, t)
        # the net return of day t is realized at day t + 1's price
        assert moved.net[:k - 1].tobytes() == base.net[:k - 1].tobytes(), t
        assert moved.net[k - 1:].tobytes() != base.net[k - 1:].tobytes()


def test_two_runs_identical(prices_mid):
    cfg = BacktestConfig(**FAST_ML)
    a = run_backtest(prices_mid, "mlp", cfg)
    b = run_backtest(prices_mid, "mlp", cfg)
    assert a.weights.tobytes() == b.weights.tobytes()
    assert a.net.tobytes() == b.net.tobytes()


def test_unknown_strategy_rejected(prices_small):
    with pytest.raises(ValueError, match="unknown strategy"):
        run_backtest(prices_small, "nope", BacktestConfig())


def test_report_and_basis(prices_mid):
    result = run_backtest(prices_mid, "eg", BacktestConfig(fee_rate=0.001))
    bench = run_backtest(prices_mid, "ucrp", BacktestConfig(fee_rate=0.001))
    report = result.report("net", bench.net)
    assert report.information_ratio is not None
    gross_report = result.report("gross")
    assert gross_report.annualized_return > report.annualized_return
    with pytest.raises(ValueError):
        result.report("weird")
