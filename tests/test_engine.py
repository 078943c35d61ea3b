"""Engine accounting, decay, windows, repricing, and no-lookahead."""

from dataclasses import replace
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankfolio.engine import (FEE_GRID, BacktestConfig, account, apply_decay,
                              build_strategy, config_as_dict, known_strategy,
                              min_start_day, parse_strategy, reprice,
                              resolve_window, run_backtest)
from rankfolio.strategies import CLASSIC_NAMES, bcrp_hindsight

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
    gross, cost = account(stay, prices, 0.001)
    np.testing.assert_allclose(gross, [0.0, 0.1], atol=1e-15)
    assert cost[1] == pytest.approx(0.0, abs=1e-18)
    _, cost = account(np.array([[0.5, 0.5], [0.6, 0.4]]), prices, 0.001)
    assert cost[1] == pytest.approx(0.001 * 0.1)
    # a day whose drifted holdings are worth nothing cannot be carried on
    with pytest.raises(ValueError, match="wiped out"):
        account(stay[:1], np.array([[1.0, 1.0], [0.0, 0.0]]), 0.001)


def test_turnover_cost_hand_case():
    # flat prices: day 2 holds day 1's [0.5, 0.5] and moves to [0.6, 0.4]
    prices = np.ones((3, 2))
    weights = np.array([[0.5, 0.5], [0.6, 0.4]])
    _, cost = account(weights, prices, 0.001)
    assert cost[1] == pytest.approx(0.0002)
    assert account(weights, prices, 0.0)[1].tolist() == [0.0, 0.0]
    # from all cash, turnover is the full unit
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
        build_strategy("knn", cfg)
    build_strategy("mlp", cfg)
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
                   knn_k=1)
    # k equal to lookback uses every training row; a linear net (no hidden
    # layer) with one epoch and minibatches of one row still trains
    cfg = BacktestConfig(**{**FAST_ML, "knn_k": FAST_ML["lookback"],
                            "mlp_hidden": (), "mlp_epochs": 1,
                            "mlp_batch_size": 1})
    for strategy in ("knn", "mlp"):
        result = run_backtest(prices_small, strategy, cfg)
        assert np.isfinite(result.wealth).all()


def test_parse_strategy():
    assert parse_strategy("olmar") == ("olmar", None)
    assert parse_strategy("mlp") == ("mlp", None)
    assert parse_strategy("mlp:3") == ("mlp", 3)
    assert parse_strategy("knn:return") == ("knn", "return")
    assert parse_strategy("MLP:2") == ("mlp", 2)
    with pytest.raises(ValueError, match="does not take"):
        parse_strategy("olmar:2")
    with pytest.raises(ValueError, match="bad rank power"):
        parse_strategy("mlp:x")


def test_known_strategy():
    assert known_strategy("bah")
    assert known_strategy("mlp:4")
    assert known_strategy("knn:return")
    assert not known_strategy("nope")
    assert not known_strategy("olmar:2")
    assert not known_strategy("mlp:bogus")


def test_min_start_day():
    cfg = BacktestConfig(lookback=80, feature_window=20)
    assert min_start_day(cfg, is_ml=False) == 1
    assert min_start_day(cfg, is_ml=True) == 101


def test_resolve_window_defaults():
    pm = make_prices(50, 3, seed=1)
    cfg = BacktestConfig(lookback=20, feature_window=10)
    assert resolve_window(pm, cfg, is_ml=False) == (1, 49)
    assert resolve_window(pm, cfg, is_ml=True) == (31, 49)


def test_resolve_window_start_end_dates():
    pm = make_prices(50, 3, seed=1)
    cfg = BacktestConfig(start=pm.dates[9], end=pm.dates[39])
    assert resolve_window(pm, cfg, is_ml=False) == (10, 40)
    # end beyond the data clamps to the last tradable day
    cfg2 = BacktestConfig(end=date(2030, 1, 1))
    assert resolve_window(pm, cfg2, is_ml=False) == (1, 49)
    cfg3 = BacktestConfig(start=date(2030, 1, 1))
    with pytest.raises(ValueError, match="after the data"):
        resolve_window(pm, cfg3, is_ml=False)
    cfg4 = BacktestConfig(end=date(2000, 1, 1))
    with pytest.raises(ValueError, match="before the data"):
        resolve_window(pm, cfg4, is_ml=False)
    cfg5 = BacktestConfig(start=pm.dates[30], end=pm.dates[10])
    with pytest.raises(ValueError, match="empty trading window"):
        resolve_window(pm, cfg5, is_ml=False)


def test_resolve_window_ml_floor_enforced():
    pm = make_prices(60, 3, seed=1)
    cfg = BacktestConfig(lookback=20, feature_window=10, start=pm.dates[5])
    with pytest.raises(ValueError, match="lookback"):
        resolve_window(pm, cfg, is_ml=True)
    # the same start is fine for a classic strategy
    assert resolve_window(pm, cfg, is_ml=False)[0] == 6


def test_resolve_window_two_days_is_one_trade():
    pm = make_prices(2, 2, seed=1)
    assert resolve_window(pm, BacktestConfig(), is_ml=False) == (1, 1)


def test_resolve_window_one_day_errors():
    from rankfolio.data import PriceMatrix
    pm = PriceMatrix(dates=(date(2024, 1, 1),), assets=("X",),
                     prices=np.array([[1.0]]))
    with pytest.raises(ValueError, match="at least 2 days"):
        resolve_window(pm, BacktestConfig(), is_ml=False)


# --- accounting ----------------------------------------------------------------

def accounting_oracle(prices, weights, t_first, fee):
    """Recompute gross/cost/net/wealth from held weights, scalar style."""
    n = prices.shape[1]
    held = np.zeros(n)
    gross, cost = [], []
    for i in range(weights.shape[0]):
        t = t_first + i
        r = prices[t] / prices[t - 1] - 1.0
        w = weights[i]
        gross.append(float(w @ r))
        cost.append(fee * float(np.abs(w - held).sum()))
        held = w * (1.0 + r)
        held /= held.sum()
    gross = np.array(gross)
    cost = np.array(cost)
    net = gross - cost
    return gross, cost, net, np.cumprod(1.0 + net)


def assert_oracle_bytes(pm, result, fee):
    want = accounting_oracle(pm.prices, result.weights, result.start_day, fee)
    got = (result.gross, result.cost, result.net, result.wealth)
    for column, g, w in zip(("gross", "cost", "net", "wealth"), got, want):
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
    gross, cost = account(weights, prices, fee)
    want_gross, want_cost, _, _ = accounting_oracle(prices, weights, 1, fee)
    assert gross.tobytes() == want_gross.tobytes()
    assert cost.tobytes() == want_cost.tobytes()


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


def test_decay_len_zero_disables_decay():
    pm = make_prices(70, 3, seed=28)
    cfg = BacktestConfig(decay_len=0, **FAST_ML)
    result = run_backtest(pm, "knn", cfg)
    np.testing.assert_array_equal(result.weights, result.raw_weights)


# --- bcrp special case -----------------------------------------------------------

def test_bcrp_constant_weights_solved_on_window():
    pm = make_prices(60, 3, seed=29)
    cfg = BacktestConfig(start=pm.dates[19], end=pm.dates[49])
    result = run_backtest(pm, "bcrp", cfg)
    rels = pm.prices[20:51] / pm.prices[19:50]
    target = bcrp_hindsight(rels)
    for row in result.weights:
        np.testing.assert_array_equal(row, target)
    # moving the window moves the solution
    other = run_backtest(pm, "bcrp", BacktestConfig(end=pm.dates[29]))
    assert not np.array_equal(other.weights[0], target)


# --- reprice and fees -------------------------------------------------------------

@pytest.mark.parametrize("strategy", ["eg", "pamr", "knn"])
def test_reprice_bit_identical_to_rerun(strategy):
    pm = make_prices(70, 3, seed=30)
    cfg = BacktestConfig(**FAST_ML)
    base = run_backtest(pm, strategy, cfg)
    for fee in (0.0, 0.0005, 0.0015):
        buyout = reprice(pm, base, fee)
        rerun = run_backtest(pm, strategy, replace(cfg, fee_rate=fee))
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


def test_config_as_dict_serializable():
    import json
    cfg = BacktestConfig(start=date(2024, 1, 2), mlp_hidden=(10, 5))
    d = config_as_dict(cfg)
    assert d["start"] == "2024-01-02"
    assert d["end"] is None
    assert d["mlp_hidden"] == [10, 5]
    json.dumps(d)
