"""Feature blocks, rank targets, and training-set assembly."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from rankfolio import optim
from rankfolio.features import (FEATURES_PER_ASSET, rank_transform,
                                scores_to_weights, window_features)

from conftest import make_prices
from oracles import features_loop, training_set


def window_row(window, trend="price"):
    """The feature row of one window: the stacked pass on a one-window
    stack."""
    rows = window_features(window, window.shape[0], trend)
    assert rows.shape[0] == 1
    return rows[0]


def test_features_hand_computed():
    window = np.array([[100.0, 50.0],
                       [110.0, 45.0],
                       [99.0, 54.0]])
    f = window_row(window)
    rets = np.array([[0.10, -0.10], [-0.10, 0.20]])
    last = rets[-1]
    vol = rets.std(axis=0, ddof=1)
    sharpe = rets.mean(axis=0) / vol
    # price paths: up-down -> rho(100,110,99 vs 1,2,3); down-up for asset 2
    trend = [stats.spearmanr(window[:, j], np.arange(3)).statistic
             for j in range(2)]
    expected = np.concatenate([last, vol, sharpe, trend])
    np.testing.assert_allclose(f, expected, atol=1e-12)


def test_features_layout_is_feature_major():
    # blocks of n per feature, assets in column order inside each block
    window = make_prices(10, 3, seed=1).prices
    f = window_row(window)
    assert f.shape == (FEATURES_PER_ASSET * 3,)
    rets = window[1:] / window[:-1] - 1.0
    np.testing.assert_array_equal(f[:3], rets[-1])
    np.testing.assert_allclose(f[3:6], rets.std(axis=0, ddof=1), atol=1e-12)


def test_features_two_day_window_zero_vol_zero_sharpe():
    window = np.array([[100.0, 50.0], [110.0, 45.0]])
    f = window_row(window)
    np.testing.assert_array_equal(f[2:4], [0.0, 0.0])  # vol block
    np.testing.assert_array_equal(f[4:6], [0.0, 0.0])  # sharpe block


def test_features_flat_asset_zero_sharpe_zero_trend():
    window = np.tile([[100.0]], (6, 1))
    f = window_row(window)
    np.testing.assert_array_equal(f, [0.0, 0.0, 0.0, 0.0])


def test_trend_feature_against_scipy():
    rng = np.random.default_rng(8)
    for _ in range(20):
        series = rng.normal(0, 1, size=12)
        if rng.random() < 0.5:
            series[3] = series[7]  # inject a tie
        window = np.exp(series)[:, None]
        got = window_row(window)[3]
        want = stats.spearmanr(window[:, 0], np.arange(12)).statistic
        assert got == pytest.approx(want, abs=1e-12)


def test_trend_feature_monotone_extremes():
    up = np.arange(1.0, 7.0)[:, None]
    down = up[::-1]
    assert window_row(up)[3] == pytest.approx(1.0)
    assert window_row(down)[3] == pytest.approx(-1.0)


def test_trend_return_mode_differs_only_in_trend_block():
    window = make_prices(15, 2, seed=9).prices
    f_price = window_row(window, trend="price")
    f_ret = window_row(window, trend="return")
    np.testing.assert_array_equal(f_price[:6], f_ret[:6])
    rets = window[1:] / window[:-1] - 1.0
    want = stats.spearmanr(rets[:, 0], np.arange(rets.shape[0])).statistic
    assert f_ret[6] == pytest.approx(want, abs=1e-12)


def test_features_from_window_is_training_set_row_and_bounds():
    # the feature vector of day 20 over a 10-day window is the row that
    # training_set pairs with day 20
    pm = make_prices(30, 3, seed=2)
    feats, _ = training_set(pm.prices[:21], 1, 2, 10)
    np.testing.assert_array_equal(feats[0], window_row(pm.prices[10:20]))
    with pytest.raises(ValueError, match="insufficient history"):
        training_set(pm.prices[:5], 1, 2, 10)       # day 5 < a 10-day window


def test_features_match_loop_reference_on_random_walks():
    prices = make_prices(300, 10, seed=112).prices
    for trend in ("price", "return"):
        for t in range(20, prices.shape[0] + 1):
            window = prices[t - 20: t]
            assert (window_row(window, trend).tobytes()
                    == features_loop(window, trend).tobytes())


@st.composite
def tie_heavy_windows(draw):
    """Prices on a 0.01 grid with few levels, some flat columns and some
    repeated rows."""
    days = draw(st.integers(2, 30))
    assets = draw(st.integers(1, 12))
    levels = draw(st.integers(1, 2000))
    cents = draw(st.lists(st.integers(1, levels), min_size=days * assets,
                          max_size=days * assets))
    window = np.array(cents, dtype=np.float64).reshape(days, assets) / 100.0
    for j in draw(st.sets(st.integers(0, assets - 1))):
        window[:, j] = window[0, j]
    for dst, src in draw(st.lists(st.tuples(st.integers(0, days - 1),
                                            st.integers(0, days - 1)),
                                  max_size=days)):
        window[dst] = window[src]
    return window


@given(tie_heavy_windows(), st.sampled_from(["price", "return"]))
@settings(max_examples=300, deadline=None)
def test_property_features_bit_exact_vs_loop_reference(window, trend):
    assert (window_row(window, trend).tobytes()
            == features_loop(window, trend).tobytes())


@pytest.mark.parametrize("budget", [1, 20_000, 100_000, None])
@pytest.mark.parametrize("trend", ["price", "return"])
def test_stacked_features_match_loop_reference_across_chunks(monkeypatch,
                                                             trend, budget):
    # the 281 windows of a 300-day run at 10 assets, in chunks of m rows
    # (the floor, which budgets of 1 and 20,000 floats fall to), of 62 or
    # 65 rows (100,000 floats at 8 x 1,520-1,600 a row) and of the default
    # budget's 81 or 86; each chunk edge sits between two exact rows
    if budget is not None:
        monkeypatch.setattr(optim, "SCRATCH_FLOATS", budget)
    m = 20 if trend == "price" else 19
    assert 281 > 2 * max(m, optim.SCRATCH_FLOATS // (8 * m * 10))
    prices = make_prices(300, 10, seed=112).prices
    rows = window_features(prices, 20, trend)
    assert rows.shape == (281, FEATURES_PER_ASSET * 10)
    for i, row in enumerate(rows):
        assert row.tobytes() == features_loop(prices[i: i + 20], trend).tobytes()


@given(tie_heavy_windows(), st.data(), st.sampled_from(["price", "return"]),
       st.sampled_from([1, 480, None]))
@settings(max_examples=300, deadline=None)
def test_property_stacked_features_bit_exact_vs_loop_reference(
        prices, data, trend, budget):
    # the windows of a tie-heavy price block, stacked in one pass
    window = data.draw(st.integers(2, prices.shape[0]))
    with mock.patch.object(optim, "SCRATCH_FLOATS",
                           budget or optim.SCRATCH_FLOATS):
        rows = window_features(prices, window, trend)
    assert rows.shape[0] == prices.shape[0] - window + 1
    for i, row in enumerate(rows):
        assert (row.tobytes()
                == features_loop(prices[i: i + window], trend).tobytes())


@pytest.mark.parametrize("window", [60, 150])
@pytest.mark.parametrize("trend", ["price", "return"])
def test_long_windows_match_loop_reference_on_a_tie_heavy_walk(trend, window):
    # a walk rounded to a few price levels: long runs of tied days
    prices = np.round(make_prices(400, 3, seed=31).prices, -1)
    prices[:, 2] = prices[0, 2]  # one flat column
    rows = window_features(prices, window, trend)
    assert rows.shape[0] == 400 - window + 1
    for i, row in enumerate(rows):
        assert (row.tobytes()
                == features_loop(prices[i: i + window], trend).tobytes())


def test_stacked_pass_memory_stays_bounded():
    # the peak of a 1309 x 50, window-20 pass; its output alone is 2.1 MB
    prices = make_prices(1309, 50, seed=112).prices
    tracemalloc.start()
    try:
        window_features(prices, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_rank_transform_stack_ranks_each_row():
    # 40 assets on 3 return levels: ties everywhere, broken by asset index
    rets = np.random.default_rng(4).integers(-1, 2, size=(6, 40)) / 100.0
    for power in (1, 3, "return"):
        got = rank_transform(rets, power)
        for row, want in zip(got, rets):
            assert row.tobytes() == rank_transform(want, power).tobytes()
    for row, want in zip(rank_transform(rets, 1), rets):
        order = sorted(range(40), key=lambda j: (want[j], j))
        np.testing.assert_array_equal(row[order], np.arange(1.0, 41.0))


def test_rank_transform_ascending_with_powers():
    r = np.array([0.05, -0.02, 0.01])
    np.testing.assert_array_equal(rank_transform(r, 1), [3.0, 1.0, 2.0])
    np.testing.assert_array_equal(rank_transform(r, 2), [9.0, 1.0, 4.0])
    np.testing.assert_array_equal(rank_transform(r, 3), [27.0, 1.0, 8.0])


def test_rank_transform_ties_break_by_asset_index():
    r = np.array([0.01, 0.01, -0.01, 0.01])
    np.testing.assert_array_equal(rank_transform(r, 1), [2.0, 3.0, 1.0, 4.0])


def test_rank_transform_return_mode_is_identity_copy():
    r = np.array([0.05, -0.02, 0.01])
    out = rank_transform(r, "return")
    np.testing.assert_array_equal(out, r)
    out[0] = 99.0
    assert r[0] == 0.05


def brute_training_set(prices, lookback, power, feature_window):
    """Row-by-row reference construction."""
    t = prices.shape[0]
    feats, targets = [], []
    for s in range(t - lookback, t):
        feats.append(features_loop(prices[s - feature_window: s]))
        targets.append(rank_transform(prices[s] / prices[s - 1] - 1.0, power))
    return np.array(feats), np.array(targets)


def test_training_set_matches_brute_force():
    prices = make_prices(60, 4, seed=5).prices
    feats, targets = training_set(prices, lookback=20, power=2,
                                  feature_window=10)
    bf, bt = brute_training_set(prices, 20, 2, 10)
    np.testing.assert_array_equal(feats, bf)
    np.testing.assert_array_equal(targets, bt)
    assert feats.shape == (20, 16)
    assert targets.shape == (20, 4)


def test_training_set_uses_only_observable_days():
    # the last target pairs the two most recent prices; nothing later exists
    prices = make_prices(60, 3, seed=6).prices
    feats, targets = training_set(prices, 15, 1, 8)
    np.testing.assert_array_equal(
        targets[-1], rank_transform(prices[-1] / prices[-2] - 1.0, 1))
    # truncating unseen future days never changes the rows
    feats2, targets2 = training_set(prices.copy(), 15, 1, 8)
    np.testing.assert_array_equal(feats, feats2)
    np.testing.assert_array_equal(targets, targets2)


def test_training_set_insufficient_history_message():
    prices = make_prices(25, 3, seed=7).prices
    with pytest.raises(ValueError, match="insufficient history"):
        training_set(prices, lookback=20, power=2, feature_window=10)


def test_training_set_prefix_equivalence():
    # a row depends only on its day: the rows of days 31..50 are the same
    # whether taken at day 50 with a 20-day lookback or at day 60 with 30
    pm = make_prices(80, 3, seed=8)
    a_f, a_t = training_set(pm.prices[:50], 20, 2, 10)
    b_f, b_t = training_set(pm.prices[:60], 30, 2, 10)
    np.testing.assert_array_equal(a_f, b_f[:20])
    np.testing.assert_array_equal(a_t, b_t[:20])
    with pytest.raises(ValueError, match="insufficient history"):
        training_set(pm.prices[:30], 20, 2, 10)


def test_scores_to_weights():
    np.testing.assert_allclose(scores_to_weights(np.array([1.0, 3.0])),
                               [0.25, 0.75])
    np.testing.assert_allclose(scores_to_weights(np.array([-1.0, 2.0, 2.0])),
                               [0.0, 0.5, 0.5])
    # everything clipped away: uniform fallback
    np.testing.assert_allclose(scores_to_weights(np.array([-1.0, -2.0])),
                               [0.5, 0.5])
    np.testing.assert_allclose(scores_to_weights(np.zeros(4)),
                               [0.25, 0.25, 0.25, 0.25])
    with pytest.raises(ValueError):
        scores_to_weights(np.array([np.nan, 1.0]))
    with pytest.raises(ValueError):
        scores_to_weights(np.array([]))


def test_scores_to_weights_stack_falls_back_per_row():
    # the all-clipped middle row falls back to uniform; its neighbours do not
    scores = np.array([[1.0, 3.0, 0.0], [-1.0, -2.0, 0.0], [-1.0, 2.0, 2.0]])
    weights = scores_to_weights(scores)
    np.testing.assert_array_equal(weights, [[0.25, 0.75, 0.0],
                                            [1 / 3, 1 / 3, 1 / 3],
                                            [0.0, 0.5, 0.5]])
    for row, score in zip(weights, scores):
        assert row.tobytes() == scores_to_weights(score).tobytes()
    scores[2, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        scores_to_weights(scores)
