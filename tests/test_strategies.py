"""Classic strategies against independent scalar-loop oracles."""

import tracemalloc
from functools import cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankfolio import optim, strategies
from rankfolio.engine import ML_NAMES, BacktestConfig, make_strategy
from rankfolio.features import scores_to_weights
from rankfolio.optim import log_optimal_portfolio
from rankfolio.strategies import (CLASSIC_NAMES, Anticor, BestCRP, Bnn,
                                  BuyAndHold, Corn, Cwmr,
                                  ExponentiatedGradient, Olmar, Pamr, Rmr,
                                  UniformCRP, UniversalSampler,
                                  _relative_windows, uniform_weights)

import oracles
from conftest import make_prices


def last_day(strategy, prices):
    """Weights of the last day of ``prices``, from a one-day run."""
    t = prices.shape[0]
    return strategy.run(prices, t, t)[0]


def all_days(strategy, prices):
    """Weights of every day of ``prices``, from one run."""
    return strategy.run(prices, 1, prices.shape[0])


@pytest.fixture
def walk():
    return make_prices(70, 4, seed=3).prices


# --- framework behavior -------------------------------------------------------

def test_registry_names():
    assert CLASSIC_NAMES == ("bah", "ucrp", "bcrp", "up", "eg", "anticor",
                             "pamr", "cwmr", "olmar", "rmr", "bnn", "corn")


def test_step_rejects_bad_history():
    # a one-day run on a 1-d or an empty price array
    for name in ("ucrp", "bah", "rmr", "bnn", "corn"):
        strategy = make_strategy(name, BacktestConfig())
        with pytest.raises(ValueError):
            strategy.run(np.array([1.0, 2.0]), 1, 1)
        with pytest.raises(ValueError):
            strategy.run(np.empty((0, 2)), 1, 1)


def test_replay_single_call_equals_daily_stepping(walk):
    # recursion replays from day 1, so a one-day run on the full history
    # must match the last row of a run over every day
    makers = [
        lambda: ExponentiatedGradient(0.05),
        lambda: Pamr(0.5),
        lambda: Cwmr(0.95, 0.5),
        lambda: Olmar(5, 10.0),
        lambda: Rmr(5, 5.0),
        lambda: Anticor(5),
        lambda: UniversalSampler(100, seed=1),
        lambda: Bnn(4, 3),
        lambda: Corn(0.1, 3),
    ]
    for make in makers:
        daily = all_days(make(), walk)[-1]
        oneshot = last_day(make(), walk)
        np.testing.assert_array_equal(daily, oneshot)


def test_replay_is_window_start_independent(walk):
    # a run starting at day 30 must equal the day-30 row of a run starting
    # at day 10 (output depends only on the history prefix)
    for make in (lambda: Pamr(0.5), lambda: Olmar(5, 10.0),
                 lambda: Anticor(5), lambda: ExponentiatedGradient(0.05)):
        at_30 = make().run(walk[:30], 10, 30)[-1]
        late = last_day(make(), walk[:30])
        np.testing.assert_array_equal(at_30, late)


def test_all_outputs_on_simplex(walk):
    config = BacktestConfig(up_samples=50, seed=2)
    for name in CLASSIC_NAMES:
        if name == "bcrp":  # a hindsight run cannot trade the last day
            continue
        for w in all_days(make_strategy(name, config), walk):
            assert w.min() >= -1e-12, name
            assert abs(w.sum() - 1.0) <= 1e-9, name


# --- individual strategies ------------------------------------------------------

def test_bah_drifts_from_uniform(walk):
    rows = all_days(BuyAndHold(), walk)
    np.testing.assert_array_equal(rows[0], uniform_weights(4))
    growth = walk[-1] / walk[0]
    np.testing.assert_allclose(rows[-1], growth / growth.sum(), rtol=1e-12)


def test_bah_anchors_at_first_call(walk):
    # starting later re-anchors the basket: that day becomes the buy day
    w, w2 = BuyAndHold().run(walk[:21], 20, 21)
    np.testing.assert_array_equal(w, uniform_weights(4))
    growth = walk[20] / walk[19]
    np.testing.assert_allclose(w2, growth / growth.sum(), rtol=1e-12)


def test_ucrp_always_uniform(walk):
    rows = all_days(UniformCRP(), walk[:30])
    for t in (1, 2, 30):
        np.testing.assert_array_equal(rows[t - 1], uniform_weights(4))


def test_eg_matches_oracle(walk):
    w = last_day(ExponentiatedGradient(0.05), walk)
    np.testing.assert_allclose(w, oracles.eg_oracle(walk, 0.05), atol=1e-12)


def test_eg_zero_eta_stays_uniform(walk):
    w = last_day(ExponentiatedGradient(0.0), walk)
    np.testing.assert_allclose(w, uniform_weights(4), atol=1e-15)


def test_eg_large_eta_stays_on_simplex():
    # eta * x / (w @ x) reaches about 1000 here: exp of it alone overflows
    prices = make_prices(60, 3, seed=7).prices
    for w in all_days(ExponentiatedGradient(1000.0), prices):
        assert np.isfinite(w).all()
        assert w.min() >= 0.0
        assert w.sum() == pytest.approx(1.0)


def test_pamr_matches_oracle(walk):
    w = last_day(Pamr(0.5), walk)
    np.testing.assert_allclose(w, oracles.pamr_oracle(walk, 0.5), atol=1e-9)


def test_pamr_passive_when_return_below_eps(walk):
    # with a huge eps the update never fires
    w = last_day(Pamr(100.0), walk)
    np.testing.assert_array_equal(w, uniform_weights(4))


def test_olmar_matches_oracle(walk):
    w = last_day(Olmar(5, 10.0), walk)
    np.testing.assert_allclose(w, oracles.olmar_oracle(walk, 5, 10.0),
                               atol=1e-9)


def test_rmr_matches_oracle(walk):
    w = last_day(Rmr(5, 5.0), walk)
    np.testing.assert_allclose(w, oracles.rmr_oracle(walk, 5, 5.0), atol=1e-7)


def test_cwmr_matches_oracle(walk):
    w = last_day(Cwmr(0.95, 0.5), walk)
    np.testing.assert_allclose(w, oracles.cwmr_oracle(walk, 0.95, 0.5),
                               atol=1e-9)


def test_anticor_matches_oracle(walk):
    w = last_day(Anticor(5), walk)
    np.testing.assert_allclose(w, oracles.anticor_oracle(walk, 5), atol=1e-10)


def test_anticor_uniform_until_two_windows(walk):
    rows = all_days(Anticor(5), walk[:11])
    for w in rows[:10]:
        np.testing.assert_array_equal(w, uniform_weights(4))
    assert not np.array_equal(rows[10], uniform_weights(4))


def test_up_matches_oracle(walk):
    w = last_day(UniversalSampler(200, seed=10), walk)
    np.testing.assert_allclose(w, oracles.up_oracle(walk, 200, 10),
                               atol=1e-12)


def test_up_first_day_is_sample_mean(walk):
    w = last_day(UniversalSampler(500, seed=10), walk[:1])
    rng = np.random.default_rng(10)
    crps = rng.dirichlet(np.ones(4), size=500)
    np.testing.assert_allclose(w, crps.mean(axis=0), atol=1e-12)


def test_up_rescale_keeps_weights_invariant():
    # enormous relatives push sample wealth past the rescale trigger; the
    # weighted average must not change because it is scale free
    prices = np.ones((8, 3))
    for t in range(1, 8):
        prices[t] = prices[t - 1] * np.array([1e40, 1e39, 1e41])
    w = last_day(UniversalSampler(50, seed=4), prices)
    rng = np.random.default_rng(4)
    crps = rng.dirichlet(np.ones(3), size=50)
    log_w = np.zeros(50)
    for t in range(1, 8):
        log_w += np.log(crps @ (prices[t] / prices[t - 1]))
    stable = np.exp(log_w - log_w.max())
    expected = (stable @ crps) / stable.sum()
    np.testing.assert_allclose(w, expected, atol=1e-9)
    assert np.isfinite(w).all()


@pytest.mark.parametrize("n", [1, 3, 50])
@pytest.mark.parametrize("samples", [1, 1023, 1024, 1025, 10_000])
def test_up_chunked_samples_equal_one_draw(monkeypatch, n, samples):
    # UP draws its samples in chunks of one budget's rows of n floats,
    # here 1,024 rows at every width, straight into an asset-major array;
    # they are the bytes of one full draw, transposed
    monkeypatch.setattr(optim, "SCRATCH_FLOATS", 1024 * n)
    got = strategies._dirichlet_columns(7, n, samples)
    want = np.random.default_rng(7).dirichlet(np.ones(n), size=samples).T
    assert got.shape == (n, samples) and got.flags.c_contiguous
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()


def test_up_matches_oracle_wide_with_a_partial_chunk():
    # 50 assets and a sample count that leaves a partial last chunk
    samples = 2 * (optim.SCRATCH_FLOATS // 50) + 37
    prices = make_prices(12, 50, seed=8).prices
    w = last_day(UniversalSampler(samples, seed=3), prices)
    np.testing.assert_allclose(w, oracles.up_oracle(prices, samples, 3),
                               atol=1e-12)


@pytest.mark.parametrize("n, samples", [(4, 30_000), (50, 40_000)])
def test_up_rows_do_not_depend_on_where_the_run_ends(n, samples):
    # UP runs the days after the first in blocks of k (4 and 3 here), and
    # both block products take all k rows however few days are left: runs
    # cut at every day of three full blocks and a part keep every row's
    # bytes
    k = strategies._BLOCK_FLOATS // (samples + n)
    assert 2 <= k <= 4
    prices = make_prices(3 * k + 3, n, seed=n).prices
    full = all_days(UniversalSampler(samples, seed=5), prices)
    for t in range(1, len(prices)):
        cut = UniversalSampler(samples, seed=5).run(prices, 1, t)
        assert cut.tobytes() == full[:t].tobytes(), t


def test_up_rescale_inside_a_later_block_keeps_weights_invariant():
    # six flat days, then the first two assets trade relatives of 1e40 and
    # 1e-40 each day: prices stay in range, but sample wealth first passes
    # the rescale trigger on the second day of the third block and would
    # overflow by the end without it
    n, samples = 3, 30_000
    k = strategies._BLOCK_FLOATS // (samples + n)
    rels = np.ones((4 * k + 2, n))
    rels[6::2, :2] = [1e40, 1e-40]
    rels[7::2, :2] = [1e-40, 1e40]
    prices = np.vstack([np.ones(n), np.cumprod(rels, axis=0)])
    crps = np.random.default_rng(4).dirichlet(np.ones(n), size=samples)
    log_w = np.cumsum(np.log(rels @ crps.T), axis=0)
    first = int(np.argmax(log_w.max(axis=1) > np.log(1e150)))
    assert (first // k, first % k) == (2, 1)
    assert log_w[-1].max() > np.log(np.finfo(float).max)
    got = all_days(UniversalSampler(samples, seed=4), prices)
    stable = np.exp(log_w - log_w.max(axis=1, keepdims=True))
    expected = (stable @ crps) / stable.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(got[1:], expected, atol=1e-9)
    assert np.isfinite(got).all()


@pytest.mark.parametrize("samples", [1, strategies._BLOCK_FLOATS + 1])
def test_up_runs_with_one_sample_and_with_one_day_blocks(samples):
    # one sample is its own weighted mean; more samples than a block holds
    # leave blocks of one day (k = 1)
    n = 3
    prices = make_prices(6, n, seed=9).prices
    crps = np.random.default_rng(6).dirichlet(np.ones(n), size=samples)
    wealth = np.vstack([np.ones(samples), np.cumprod(
        (prices[1:] / prices[:-1]) @ crps.T, axis=0)])
    got = all_days(UniversalSampler(samples, seed=6), prices)
    np.testing.assert_allclose(got, (wealth @ crps) / wealth.sum(
        axis=1, keepdims=True), atol=1e-12)
    for t in range(1, len(prices) + 1):
        assert last_day(UniversalSampler(samples, seed=6),
                        prices[:t]).tobytes() == got[t - 1].tobytes()


def test_up_memory_is_one_block_above_samples_and_outputs(monkeypatch):
    # a 1309-day, 50-asset run at 10,000 samples holds its samples and its
    # output, the wealth row carried between blocks and one block of at
    # most _BLOCK_FLOATS floats of sample wealth and relatives; the 64 KB
    # allow for the block's (k, n) means and Python's own objects. The
    # draw's temporaries are numpy's: the peak counts from after it
    real = strategies._dirichlet_columns

    def drawn(*args):
        crps = real(*args)
        tracemalloc.reset_peak()
        return crps

    monkeypatch.setattr(strategies, "_dirichlet_columns", drawn)
    days, n, samples = 1309, 50, 10_000
    prices = make_prices(days, n, seed=112).prices
    tracemalloc.start()
    try:
        UniversalSampler(samples, 10).run(prices, 1, days)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    floats = n * samples + days * n + samples + strategies._BLOCK_FLOATS
    assert peak <= 8 * floats + 65_536


def test_pamr_memory_is_its_output_and_one_block_of_windows():
    # a 1309-day, 50-asset run holds its output and at most three
    # (block, n) arrays: one block's targets and deviations, or its targets
    # and the division's temporary; the previous block's are gone before
    # the next block's targets exist. A block's two-day windows take half
    # the scratch budget (655 windows). The 64 KB allow for Python's own
    # objects
    days, n = 1309, 50
    block = optim.SCRATCH_FLOATS // 2 // (2 * n)
    prices = make_prices(days, n, seed=112).prices
    tracemalloc.start()
    try:
        Pamr(0.5).run(prices, 1, days)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (days * n + 3 * block * n) + 65_536


def test_up_seed_changes_output(walk):
    w_a = last_day(UniversalSampler(100, seed=1), walk)
    w_b = last_day(UniversalSampler(100, seed=2), walk)
    assert not np.array_equal(w_a, w_b)


def test_bnn_neighbor_selection_matches_oracle(walk):
    picked = oracles.bnn_neighbor_indices(walk, neighbors=4, window=3)
    rels = walk[1:] / walk[:-1]
    expected = log_optimal_portfolio(rels[picked])
    got = last_day(Bnn(4, 3), walk)
    np.testing.assert_array_equal(got, expected)


def test_bnn_uniform_until_enough_history(walk):
    rows = all_days(Bnn(10, 5), walk[:16])
    # needs neighbors + window + 1 = 16 days before the first real output
    for w in rows[:15]:
        np.testing.assert_array_equal(w, uniform_weights(4))
    assert not np.array_equal(rows[15], uniform_weights(4))


def test_bnn_tie_break_prefers_earliest_window():
    # period-2 prices make every same-phase window identical: 19 of the 38
    # candidates tie at distance 0. From 17 entries up numpy's default sort
    # reorders ties (to [0 2 6 4 12] here), so only a stable sort picks the
    # earliest windows in order. Tied windows have identical successors, so
    # the chosen indices are checked, not the weights.
    prices = np.array([[1.0, 1.0], [2.0, 1.0]])[np.arange(41) % 2]
    windows, _ = _relative_windows(prices, 2)
    picked = Bnn(5, 2)._matcher(windows)(len(windows) - 1)
    assert picked.tolist() == [0, 2, 4, 6, 8]
    assert (picked + 2).tolist() == oracles.bnn_neighbor_indices(
        prices, neighbors=5, window=2)


def full_scan_neighbors(windows, c, k):
    """The k windows among windows[:c] nearest windows[c], earliest first
    among ties: every distance computed, as the per-day update did."""
    d2 = ((windows[:c] - windows[c]) ** 2).sum(axis=1)
    return np.argsort(d2, kind="stable")[:k].tolist()


@st.composite
def neighbor_windows(draw):
    """Flattened windows of relatives near 1 with exact duplicates, near
    duplicates one ulp apart, constant windows and windows scaled by powers
    of ten from 1e-170 (squares underflow) to 1e140; and a neighbour count
    k in 1..count - 1, so that day c = k keeps every window."""
    count = draw(st.integers(2, 40))
    width = draw(st.integers(1, 12))
    values = draw(st.lists(st.floats(0.5, 2.0), min_size=count * width,
                           max_size=count * width))
    windows = np.array(values).reshape(count, width)
    rows = st.integers(0, count - 1)
    for i in draw(st.sets(rows)):
        windows[i] = windows[i, 0]
    for i, power in draw(st.dictionaries(rows, st.integers(-170, 140),
                                         max_size=3)).items():
        windows[i] *= 10.0 ** power
    for dst, src, ulp in draw(st.lists(st.tuples(rows, rows, st.booleans()),
                                       max_size=count)):
        windows[dst] = np.nextafter(windows[src], np.inf) if ulp else windows[src]
    return windows, draw(st.integers(1, count - 1))


@given(neighbor_windows(), st.sampled_from([1, 64, 16_384]),
       st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_bnn_neighbors_match_a_full_scan(drawn, floats, random):
    # the Gram-form filter only narrows the windows the exact distances are
    # computed for, so every day picks the full scan's windows in its order,
    # whatever the Gram block size (an eighth of the scratch budget) and
    # the order the days are asked in
    windows, k = drawn
    days = list(range(k, len(windows)))
    random.shuffle(days)
    with mock.patch.object(optim, "SCRATCH_FLOATS", 8 * floats):
        nearest = Bnn(k, 1)._matcher(windows)
    for c in days:
        assert nearest(c).tolist() == full_scan_neighbors(windows, c, k), c


def test_bnn_neighbors_fall_back_to_a_full_scan_on_overflowing_norms():
    # squared norms of 1e160-sized windows overflow, so the Gram form would
    # read inf - inf; their differences, and the exact distances, are
    # finite, and every day scans all windows instead
    rng = np.random.default_rng(4)
    windows = 1e160 * (1.0 + 1e-9 * rng.random((40, 6)))
    windows[25] = windows[3]
    nearest = Bnn(4, 1)._matcher(windows)
    for c in range(4, 40):
        assert nearest(c).tolist() == full_scan_neighbors(windows, c, 4), c


def test_corn_match_set_matches_oracle(walk):
    matched = oracles.corn_matched_indices(walk, rho=0.1, window=3)
    rels = walk[1:] / walk[:-1]
    expected = log_optimal_portfolio(rels[matched])
    got = last_day(Corn(0.1, 3), walk)
    np.testing.assert_array_equal(got, expected)


def test_corn_no_match_gives_uniform(walk):
    # rho = 1 + epsilon is impossible to clear except by exact correlation 1
    w = last_day(Corn(1.0, 3), walk[:20])
    matched = oracles.corn_matched_indices(walk[:20], rho=1.0, window=3)
    if not matched:
        np.testing.assert_array_equal(w, uniform_weights(4))


def test_corn_constant_window_correlates_zero():
    # flat price stretch: constant candidate windows carry correlation 0,
    # so they match exactly when rho <= 0
    prices = np.ones((12, 2))
    prices[10] = [1.1, 0.9]
    prices[11] = [1.2, 0.85]
    flat_successors = set(range(2, 10))  # windows 0..7 are all ones
    m_zero = oracles.corn_matched_indices(prices, rho=0.0, window=2)
    m_small = oracles.corn_matched_indices(prices, rho=0.1, window=2)
    assert flat_successors <= set(m_zero)
    assert flat_successors.isdisjoint(m_small)
    rels = prices[1:] / prices[:-1]
    for rho, matched in ((0.0, m_zero), (0.1, m_small)):
        expected = (log_optimal_portfolio(rels[matched]) if matched
                    else uniform_weights(2))
        np.testing.assert_array_equal(last_day(Corn(rho, 2), prices), expected)


def test_bcrp_hindsight_beats_every_asset(walk):
    rels = walk[1:] / walk[:-1]
    w = log_optimal_portfolio(rels)
    best = oracles.log_wealth(rels, w)
    for j in range(rels.shape[1]):
        corner = np.zeros(rels.shape[1])
        corner[j] = 1.0
        assert best >= oracles.log_wealth(rels, corner) - 1e-9


# --- whole-run interface --------------------------------------------------------

RUN_ML = dict(lookback=20, feature_window=10, mlp_epochs=5, mlp_hidden=(6,),
              knn_k=5)
# (t_first, t_last): from day 1 (learners need 31 days of history), and a
# mid-run start
CLASSIC_SPANS = ((1, 299), (150, 270))
LEARNER_SPANS = ((31, 299), (150, 270))


@pytest.fixture(scope="module", params=[10, 50], ids=["10_assets", "50_assets"])
def long_walk(request):
    return make_prices(300, request.param, seed=request.param).prices


def step_days(t_first, t_last, extra=()):
    """The days checked against one-day runs: both ends of the span, the
    days next to them, its middle, and ``extra``."""
    days = {t_first, t_first + 1, (t_first + t_last) // 2, t_last - 1, t_last,
            *extra}
    return sorted(t for t in days if t_first <= t <= t_last)


def step_row(name, config, prices, t, t_first, t_last):
    """Day t from a fresh one-day run on ``prices[:t]``; bah buys at
    t_first, so its run is cut at day t instead, and bcrp holds the
    hindsight solution of the whole span every day."""
    if name == "bcrp":
        return log_optimal_portfolio(prices[t_first: t_last + 1]
                                     / prices[t_first - 1: t_last])
    strategy = make_strategy(name, config)
    if name == "bah":
        return strategy.run(prices[:t], t_first, t)[-1]
    return strategy.run(prices[:t], t, t)[0]


def day_rows(name, config, prices, t_first, t_last):
    """Anticor, OLMAR, PAMR, RMR, BNN and CORN rows from the former per-day
    code in the oracles; learner rows from a per-day loop over ``training_set``
    and a learner refitted afresh on the run's refit days, which scores each
    day's ``features_loop`` row as a stack of one."""
    days = range(t_first, t_last + 1)
    if name == "bnn":
        return np.array([oracles.bnn_day(prices[:t], config.bnn_neighbors,
                                         config.bnn_window) for t in days])
    if name == "corn":
        return np.array([oracles.corn_day(prices[:t], config.corn_rho,
                                          config.corn_window) for t in days])
    rows = []
    if name in ("olmar", "pamr", "rmr", "anticor"):
        w = uniform_weights(prices.shape[1])
        for t in range(1, t_last + 1):
            if name == "olmar":
                w = oracles.olmar_day(prices[:t], w, config.olmar_window,
                                      config.olmar_eps)
            elif name == "pamr":
                w = oracles.pamr_day(prices[:t], w, config.pamr_eps)
            elif name == "rmr":
                w = oracles.rmr_day(prices[:t], w, config.rmr_window,
                                    config.rmr_eps)
            else:
                w = oracles.anticor_day(prices[:t], w, config.anticor_window)
            rows.append(w)
        return np.array(rows[t_first - 1:])
    fw, trend = config.feature_window, config.trend_feature
    for i, t in enumerate(days):
        if i % config.refit_interval == 0:
            learner = make_strategy(name, config).learner
            feats, targets = oracles.training_set(
                prices[:t], config.lookback, config.rank_power, fw, trend)
            learner.fit(oracles.zscore(feats)[None], targets[None])
        row = oracles.features_loop(prices[t - fw: t], trend)
        scores = learner.predict(0, oracles.zscore(feats, row[None]))
        rows.append(scores_to_weights(scores[0]))
    return np.array(rows)


def assert_run_equals_step_loop(name, config, prices, spans, extra_days=()):
    """Each row of a run equals, byte for byte, its day computed on its own:
    a one-day run for the classics, the per-day references for anticor,
    olmar, pamr, rmr, bnn, corn and the learners. A run sees the prices it is
    given by the engine: up to t_last, and one more day for bcrp."""
    for t_first, t_last in spans:
        strategy = make_strategy(name, config)
        got = strategy.run(prices[:t_last + strategy.hindsight], t_first,
                           t_last)
        assert got.shape == (t_last - t_first + 1, prices.shape[1])
        if name in ("anticor", "olmar", "pamr", "rmr", "bnn", "corn", "mlp",
                    "knn"):
            want = day_rows(name, config, prices, t_first, t_last)
            assert got.tobytes() == want.tobytes(), (name, t_first, t_last)
        if name in ("mlp", "knn"):  # their refit days anchor at t_first
            continue
        for t in step_days(t_first, t_last, extra_days):
            want = step_row(name, config, prices, t, t_first, t_last)
            assert got[t - t_first].tobytes() == want.tobytes(), (
                name, t_first, t_last, t)


@pytest.mark.parametrize("name", [s for s in CLASSIC_NAMES + ("mlp", "knn")
                                  if s not in ("rmr", "corn", "bnn")])
def test_run_equals_step_loop(long_walk, name):
    # rmr, corn and bnn run in the window test below, default window included
    learner = name in ("mlp", "knn")
    assert_run_equals_step_loop(
        name, BacktestConfig(**RUN_ML), long_walk,
        LEARNER_SPANS if learner else CLASSIC_SPANS)


@pytest.mark.parametrize("refits", [7, 8, 9, 17])
@pytest.mark.parametrize("name", ["mlp", "knn"])
def test_learner_run_equals_day_rows_across_refit_blocks(walk, name, refits):
    # with a refit every day, runs of 7, 8, 9 and 17 refits end on either
    # side of the edges of the learners' blocks of 8 refits
    config = BacktestConfig(**RUN_ML, refit_interval=1)
    assert_run_equals_step_loop(name, config, walk, ((31, 30 + refits),))


@pytest.mark.parametrize("name, window", [
    (name, window) for name in ("olmar", "rmr", "corn", "bnn", "anticor")
    for window in (1, 2, 5, 30) if (name, window) != ("anticor", 1)])
def test_run_equals_step_loop_windows(long_walk, name, window):
    config = BacktestConfig(**{f"{name}_window": window})
    # OLMAR's and RMR's target blocks hold 256 windows: the last block ends
    # mid-block at t_last = 299 for every window and at 259 for windows
    # <= 3; the other spans end inside the first block, at 259 or after a
    # single window. Days window + 255 and window + 256 sit on either side
    # of the first block edge, and their one-day runs end a block there.
    # Anticor's blocks hold 163 days at 10 assets and 6 at 50, counted from
    # day 2 * window + 1, so the (1, 299) span crosses at least one edge at
    # both widths for every window. BNN's and CORN's solve blocks hold most
    # of a 300-day run or all of it; the test below puts edges inside it.
    assert_run_equals_step_loop(name, config, long_walk,
                                ((1, 299), (100, 259), (1, window)),
                                extra_days=(window + 255, window + 256))


@pytest.mark.parametrize("assets", [3, 50, 130])
@pytest.mark.parametrize("name", ["olmar", "pamr"])
def test_run_equals_step_loop_widths(name, assets):
    # OLMAR takes each block of targets' deviations from their means, and
    # PAMR its run's, as one stack; each row's mean and squared norm keep
    # the bytes of that row's own. Above 128 assets numpy's pairwise sum
    # splits a row, and the spans cross OLMAR's first block edge.
    prices = make_prices(300, assets, seed=assets).prices
    assert_run_equals_step_loop(name, BacktestConfig(), prices,
                                ((1, 299), (100, 259)),
                                extra_days=(260, 261))


@pytest.mark.parametrize("budget", [500, 4_096, 16_384])
@pytest.mark.parametrize("name", ["bnn", "corn"])
def test_run_equals_step_loop_across_solve_blocks(long_walk, name, budget,
                                                  monkeypatch):
    # BNN and CORN solve their days in blocks of at most the scratch
    # budget's floats of relatives, which holds most of a 300-day run or
    # all of it;
    # smaller budgets put block edges inside the run, and at 500 floats
    # some of CORN's days fill a block alone. The days on either side of
    # each edge match the per-day references.
    blocks = []
    real = strategies._blocks

    def recording(matched, width, budget):
        for rows, sets in real(matched, width, budget):
            blocks.append((rows, sum(s.size for s in sets) * width))
            yield rows, sets

    monkeypatch.setattr(optim, "SCRATCH_FLOATS", budget)
    monkeypatch.setattr(strategies, "_blocks", recording)
    config = BacktestConfig()
    got = make_strategy(name, config).run(long_walk, 1, 299)
    assert len(blocks) >= 2
    assert all(floats <= budget or len(rows) == 1 for rows, floats in blocks)
    if name == "corn" and budget == 500:
        assert any(floats > budget for _, floats in blocks)
    edges = {row for rows, _ in blocks for row in (rows[0], rows[-1])}
    days = {row + 1 + step for row in edges for step in (-1, 0, 1)}
    for t in sorted(days & set(range(1, 300))):
        want = day_rows(name, config, long_walk, t, t)[0]
        assert got[t - 1].tobytes() == want.tobytes(), (name, budget, t)


@pytest.mark.parametrize("floats", [1, 4_096])
def test_bnn_neighbors_run_equals_day_rows_across_gram_blocks(
        long_walk, floats, monkeypatch):
    # BNN computes its Gram-form distances in blocks of days of at most an
    # eighth of the scratch budget: the 294 windows of a 300-day run in
    # blocks of 55 days at the default budget, of 13 at 4,096 floats and of
    # one at 1 float, whose budget of 8 floats also leaves one-day solve
    # blocks. Every day's row matches the per-day reference, which scans
    # every window.
    monkeypatch.setattr(optim, "SCRATCH_FLOATS", 8 * floats)
    config = BacktestConfig()
    got = make_strategy("bnn", config).run(long_walk, 1, 299)
    want = day_rows("bnn", config, long_walk, 1, 299)
    assert got.tobytes() == want.tobytes()


def test_corn_one_day_blocks_solve_as_stacks_of_one(long_walk, monkeypatch):
    # at a budget of one float every CORN block holds one day, and
    # log_optimal_stack solves its one problem as a stack; every day's row
    # matches the per-day reference
    stacked = []
    real = optim._Block

    def recording(relatives):
        stacked.append(isinstance(relatives, np.ndarray))
        return real(relatives)

    monkeypatch.setattr(optim, "SCRATCH_FLOATS", 1)
    monkeypatch.setattr(optim, "_Block", recording)
    config = BacktestConfig()
    got = make_strategy("corn", config).run(long_walk, 1, 299)
    assert stacked and all(stacked)
    want = day_rows("corn", config, long_walk, 1, 299)
    assert got.tobytes() == want.tobytes()


def test_run_only_sees_prices_up_to_t_last(walk):
    # the rows of a run do not depend on prices past t_last, or past
    # t_last + 1 for bcrp, the one hindsight strategy
    config = BacktestConfig(**RUN_ML)
    for name in CLASSIC_NAMES + ML_NAMES:
        strategy = make_strategy(name, config)
        assert strategy.hindsight == (name == "bcrp"), name
        t_first = strategy.first_day
        seen = 50 + strategy.hindsight
        cut = strategy.run(walk[:seen], t_first, 50)
        full = make_strategy(name, config).run(walk, t_first, 50)
        assert cut.tobytes() == full.tobytes(), name
        with pytest.raises(ValueError):  # and it needs all of them
            make_strategy(name, config).run(walk[:seen - 1], t_first, 50)


def test_run_twice_gives_the_same_rows(walk):
    # state a run builds (UP's samples, CWMR's belief, a learner's fit) must
    # not leak into the next run on the same strategy
    config = BacktestConfig(**RUN_ML)
    for name in CLASSIC_NAMES + ML_NAMES:
        strategy = make_strategy(name, config)
        t_first = strategy.first_day
        first = strategy.run(walk, t_first, 60)
        assert strategy.run(walk, t_first, 60).tobytes() == first.tobytes(), name


def test_run_leaves_no_state_on_the_strategy(walk):
    # a recursion keeps its state in the locals of its replay, so a run
    # changes no attribute of the classic that ran it
    config = BacktestConfig()
    for name in CLASSIC_NAMES:
        strategy = make_strategy(name, config)
        before = dict(vars(strategy))
        strategy.run(walk, strategy.first_day, 60)
        assert vars(strategy) == before, name


def test_run_rejects_bad_window(walk):
    for t_first, t_last in ((0, 5), (6, 5), (1, walk.shape[0] + 1)):
        for name in ("ucrp", "rmr", "bnn", "corn", "bcrp"):
            strategy = make_strategy(name, BacktestConfig())
            with pytest.raises(ValueError):
                strategy.run(walk, t_first, t_last)


# --- the unit prices are quoted in ----------------------------------------------

UNIT_WALK = make_prices(70, 4, seed=3).prices  # prices between 85 and 126


@cache
def unit_free_weights(name):
    strategy = make_strategy(name, BacktestConfig(**RUN_ML))
    return strategy.run(UNIT_WALK, strategy.first_day, 60)


# every id but rmr: its L1 median runs on raw prices, so its weights depend
# on each asset's unit (ROADMAP item 14 leaves the mend to the owner)
@pytest.mark.parametrize("name", [name for name in CLASSIC_NAMES + ML_NAMES
                                  if name != "rmr"])
@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-900, 900), min_size=4, max_size=4))
def test_property_weights_do_not_depend_on_each_assets_unit(name, exponents):
    # a strategy sees price relatives, which a power-of-two scale of an
    # asset's prices leaves exact while its prices stay normal floats
    scaled = UNIT_WALK * np.exp2(exponents)
    assert np.isfinite(scaled).all() and scaled.min() > np.finfo(float).tiny
    strategy = make_strategy(name, BacktestConfig(**RUN_ML))
    got = strategy.run(scaled, strategy.first_day, 60)
    assert got.tobytes() == unit_free_weights(name).tobytes()
