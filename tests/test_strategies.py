"""Classic strategies against independent scalar-loop oracles."""

import numpy as np
import pytest

from rankfolio.engine import BacktestConfig, build_strategy
from rankfolio.features import (features_from_window, scores_to_weights,
                                training_set)
from rankfolio.optim import log_optimal_portfolio
from rankfolio.strategies import (CLASSIC_NAMES, Anticor, Bnn, BuyAndHold,
                                  Corn, Cwmr, ExponentiatedGradient,
                                  FixedWeights, Olmar, Pamr, Rmr, UniformCRP,
                                  UniversalSampler, _relative_windows,
                                  bcrp_hindsight, uniform_weights)

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
    for make in (UniformCRP, BuyAndHold, Rmr, Bnn, Corn):
        with pytest.raises(ValueError):
            make().run(np.array([1.0, 2.0]), 1, 1)
        with pytest.raises(ValueError):
            make().run(np.empty((0, 2)), 1, 1)


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
    makers = {
        "bah": BuyAndHold, "ucrp": UniformCRP,
        "up": lambda: UniversalSampler(50, seed=2),
        "eg": ExponentiatedGradient, "anticor": Anticor, "pamr": Pamr,
        "cwmr": Cwmr, "olmar": Olmar, "rmr": Rmr, "bnn": Bnn, "corn": Corn,
    }
    for name, make in makers.items():
        for w in all_days(make(), walk):
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


def test_fixed_weights_repeats_target(walk):
    target = np.array([0.7, 0.1, 0.1, 0.1])
    np.testing.assert_array_equal(last_day(FixedWeights(target), walk[:3]),
                                  target)
    with pytest.raises(ValueError, match="match"):
        last_day(FixedWeights(np.array([0.5, 0.5])), walk[:2])


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


def test_eg_rejects_negative_eta():
    with pytest.raises(ValueError):
        ExponentiatedGradient(-0.1)


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
    strat = Rmr(5, 5.0, median_tol=1e-12, median_max_iter=2000)
    w = last_day(strat, walk)
    np.testing.assert_allclose(w, oracles.rmr_oracle(walk, 5, 5.0), atol=1e-7)


def test_cwmr_matches_oracle(walk):
    w = last_day(Cwmr(0.95, 0.5), walk)
    np.testing.assert_allclose(w, oracles.cwmr_oracle(walk, 0.95, 0.5),
                               atol=1e-9)


def test_cwmr_confidence_bounds():
    with pytest.raises(ValueError):
        Cwmr(0.4, 0.5)
    with pytest.raises(ValueError):
        Cwmr(1.0, 0.5)


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


def test_parameter_validation():
    for bad in (lambda: Anticor(1), lambda: Olmar(0), lambda: Rmr(0),
                lambda: Bnn(0, 5), lambda: Bnn(5, 0), lambda: Corn(1.5, 5),
                lambda: Corn(0.1, 0), lambda: UniversalSampler(0),
                lambda: ExponentiatedGradient(float("nan"))):
        with pytest.raises(ValueError):
            bad()


def test_bcrp_hindsight_beats_every_asset(walk):
    rels = walk[1:] / walk[:-1]
    w = bcrp_hindsight(rels)
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


def fresh(name, config, prices, t_first, t_last):
    if name == "bcrp":  # solved on the trading window, as run_backtest does
        rels = prices[t_first: t_last + 1] / prices[t_first - 1: t_last]
        return FixedWeights(bcrp_hindsight(rels))
    return build_strategy(name, config)


def step_days(t_first, t_last, extra=()):
    """The days checked against one-day runs: both ends of the span, the
    days next to them, its middle, and ``extra``."""
    days = {t_first, t_first + 1, (t_first + t_last) // 2, t_last - 1, t_last,
            *extra}
    return sorted(t for t in days if t_first <= t <= t_last)


def step_row(name, config, prices, t, t_first, t_last):
    """Day t from a fresh one-day run on ``prices[:t]``; bah buys at
    t_first, so its run is cut at day t instead."""
    strategy = fresh(name, config, prices, t_first, t_last)
    if name == "bah":
        return strategy.run(prices[:t], t_first, t)[-1]
    return strategy.run(prices[:t], t, t)[0]


def day_rows(name, config, prices, t_first, t_last):
    """RMR, BNN and CORN rows from the former per-day code in the oracles;
    learner rows from a per-day loop over ``training_set`` and a learner
    refitted afresh on the run's refit days."""
    days = range(t_first, t_last + 1)
    if name == "bnn":
        return np.array([oracles.bnn_day(prices[:t], config.bnn_neighbors,
                                         config.bnn_window) for t in days])
    if name == "corn":
        return np.array([oracles.corn_day(prices[:t], config.corn_rho,
                                          config.corn_window) for t in days])
    rows = []
    if name == "rmr":
        w = uniform_weights(prices.shape[1])
        for t in range(1, t_last + 1):
            w = oracles.rmr_day(prices[:t], w, config.rmr_window,
                                config.rmr_eps)
            rows.append(w)
        return np.array(rows[t_first - 1:])
    fw, trend = config.feature_window, config.trend_feature
    for i, t in enumerate(days):
        if i % config.refit_interval == 0:
            learner = build_strategy(name, config).learner
            learner.fit(*training_set(prices[:t], config.lookback,
                                      config.rank_power, fw, trend))
        scores = learner.predict(features_from_window(prices[t - fw: t], trend))
        rows.append(scores_to_weights(scores))
    return np.array(rows)


def assert_run_equals_step_loop(name, config, prices, spans, extra_days=()):
    """Each row of a run equals, byte for byte, its day computed on its own:
    a one-day run for the classics, the per-day references for rmr, bnn,
    corn and the learners."""
    for t_first, t_last in spans:
        got = fresh(name, config, prices, t_first, t_last).run(
            prices[:t_last], t_first, t_last)
        assert got.shape == (t_last - t_first + 1, prices.shape[1])
        if name in ("rmr", "bnn", "corn", "mlp", "knn"):
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


@pytest.mark.parametrize("window", [1, 2, 5, 30])
@pytest.mark.parametrize("name", ["rmr", "corn", "bnn"])
def test_run_equals_step_loop_windows(long_walk, name, window):
    config = BacktestConfig(**{f"{name}_window": window})
    # RMR's median blocks hold 256 windows: its last block ends mid-block at
    # t_last = 299 for every window and at 259 for windows <= 3; the other
    # spans end inside the first block, at 259 or after a single window.
    # Days window + 255 and window + 256 sit on either side of RMR's first
    # block edge, and their one-day runs end a block there.
    assert_run_equals_step_loop(name, config, long_walk,
                                ((1, 299), (100, 259), (1, window)),
                                extra_days=(window + 255, window + 256))


def test_run_only_sees_prices_up_to_t_last(walk):
    # the rows of a run do not depend on prices past t_last
    for name in CLASSIC_NAMES:
        if name == "bcrp":
            continue
        cut = build_strategy(name, BacktestConfig()).run(walk[:50], 10, 50)
        full = build_strategy(name, BacktestConfig()).run(walk, 10, 50)
        assert cut.tobytes() == full.tobytes(), name


def test_run_twice_gives_the_same_rows(walk):
    # state a run builds (UP's samples, CWMR's belief, a learner's fit) must
    # not leak into the next run on the same strategy
    config = BacktestConfig(**RUN_ML)
    for name in CLASSIC_NAMES + ("mlp", "knn"):
        t_first = 31 if name in ("mlp", "knn") else 1
        strategy = fresh(name, config, walk, t_first, 60)
        first = strategy.run(walk, t_first, 60)
        assert strategy.run(walk, t_first, 60).tobytes() == first.tobytes(), name


def test_run_rejects_bad_window(walk):
    for t_first, t_last in ((0, 5), (6, 5), (1, walk.shape[0] + 1)):
        for strategy in (UniformCRP(), Rmr(), Bnn(), Corn()):
            with pytest.raises(ValueError):
                strategy.run(walk, t_first, t_last)
