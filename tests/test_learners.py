"""Learner wrappers and the rank-forecast strategy's refit cadence."""

import numpy as np
import pytest

from rankfolio import optim
from rankfolio.features import FEATURES_PER_ASSET, scores_to_weights
from rankfolio.learners import (KnnLearner, Learner, MlpLearner,
                                RankForecastStrategy, knn_predict)

from conftest import make_prices
from oracles import features_loop, training_set, zscore


def test_base_learner_is_abstract():
    learner = Learner()
    with pytest.raises(NotImplementedError):
        learner.fit(np.zeros((1, 2, 2)), np.zeros((1, 2, 1)))
    with pytest.raises(NotImplementedError):
        learner.predict(0, np.zeros((1, 2)))


def test_knn_learner_averages_each_block_on_its_own():
    rng = np.random.default_rng(41)
    # two blocks: each is searched on its own, on the features it is given
    feats = rng.normal(3.0, 5.0, size=(2, 30, 6))
    feats[1] *= 3.0
    targets = rng.normal(size=(2, 30, 3))
    learner = KnnLearner(k=4)
    learner.fit(feats, targets)
    q = rng.normal(3.0, 5.0, size=(3, 6))
    for block in range(2):
        expected = knn_predict(feats[block], targets[block], q, 4)
        np.testing.assert_array_equal(learner.predict(block, q), expected)


@pytest.mark.parametrize("budget", [1, 500, None])
def test_knn_learner_stacks_rows_in_bounded_chunks(monkeypatch, budget):
    # 30 training rows of 6 features: chunks of one row, of 2 rows, and the
    # default budget's single chunk give the rows of one-query predictions
    if budget is not None:
        monkeypatch.setattr(optim, "SCRATCH_FLOATS", budget)
    rng = np.random.default_rng(43)
    learner = KnnLearner(k=5)
    learner.fit(rng.normal(size=(1, 30, 6)), rng.normal(size=(1, 30, 3)))
    rows = rng.normal(size=(7, 6))
    got = learner.predict(0, rows)
    assert got.shape == (7, 3)
    for row, q in zip(got, rows):
        want = knn_predict(learner._features[0], learner._targets[0], q, 5)
        assert row.tobytes() == want.tobytes()


def test_knn_learner_copies_targets():
    feats = np.random.default_rng(1).normal(size=(5, 2))
    targets = np.ones((5, 2))
    learner = KnnLearner(k=5)
    learner.fit(feats[None], targets[None])
    targets[:] = 99.0
    np.testing.assert_array_equal(learner.predict(0, feats[:1]), [[1.0, 1.0]])


def test_mlp_learner_deterministic_per_block():
    rng = np.random.default_rng(42)
    feats = rng.normal(size=(2, 25, 8))
    targets = rng.normal(size=(2, 25, 2))
    a = MlpLearner(hidden=(5,), epochs=10, learning_rate=1e-3, batch_size=0,
                   seed=3)
    b = MlpLearner(hidden=(5,), epochs=10, learning_rate=1e-3, batch_size=0,
                   seed=3)
    a.fit(feats, targets)
    b.fit(feats, targets)
    q = rng.normal(size=(3, 8))
    for block in range(2):
        np.testing.assert_array_equal(a.predict(block, q), b.predict(block, q))
        # each block's network sees the rows as given, one at a time
        for row, want in zip(a.predict(block, q), q):
            assert row.tobytes() == a.models[block].forward(want).tobytes()
    assert not np.array_equal(a.predict(0, q), a.predict(1, q))


class CountingLearner(Learner):
    """Records refits and fit calls; predicts a fixed positive score vector."""

    def __init__(self, n):
        self.n = n
        self.fits = 0
        self.fit_rows = []
        self.block_sizes = []

    def fit(self, features, targets):
        self.fits += len(features)
        self.fit_rows.extend(f.shape[0] for f in features)
        self.block_sizes.append(len(features))

    def predict(self, block, rows):
        return np.tile(np.arange(1.0, self.n + 1.0), (len(rows), 1))


def test_rank_forecast_refit_cadence():
    pm = make_prices(80, 3, seed=15)
    learner = CountingLearner(3)
    strat = RankForecastStrategy(learner, lookback=30, refit_interval=4,
                                 rank_power=2, feature_window=10,
                                 trend="price")
    strat.run(pm.prices[:60], 41, 60)
    # 20 days, refit on days 41, 45, 49, 53, 57
    assert learner.fits == 5
    assert learner.fit_rows == [30] * 5
    assert learner.block_sizes == [5]


@pytest.mark.parametrize("refits,blocks", [(7, [7]), (8, [8]), (9, [8, 1]),
                                           (17, [8, 8, 1])])
def test_rank_forecast_fits_refits_in_blocks_of_eight(refits, blocks):
    pm = make_prices(70, 3, seed=15)
    learner = CountingLearner(3)
    strat = RankForecastStrategy(learner, lookback=20, refit_interval=2,
                                 rank_power=2, feature_window=10,
                                 trend="price")
    # refits on days 31, 33, ..., one fit call per block of 8
    strat.run(pm.prices, 31, 31 + 2 * refits - 1)
    assert learner.block_sizes == blocks


def test_rank_forecast_weights_from_scores():
    pm = make_prices(60, 3, seed=16)
    learner = CountingLearner(3)
    strat = RankForecastStrategy(learner, lookback=20, refit_interval=10,
                                 rank_power=2, feature_window=10,
                                 trend="price")
    w = strat.run(pm.prices[:31], 31, 31)[0]
    np.testing.assert_allclose(w, scores_to_weights(np.array([1.0, 2.0, 3.0])))


def test_rank_forecast_insufficient_history_surfaces():
    pm = make_prices(30, 3, seed=17)
    strat = RankForecastStrategy(CountingLearner(3), lookback=20,
                                 refit_interval=5, rank_power=2,
                                 feature_window=10, trend="price")
    with pytest.raises(ValueError, match="insufficient history: day 25 "):
        strat.run(pm.prices[:25], 25, 25)
    # the error names the trading start day, not the run's last day
    with pytest.raises(ValueError, match="insufficient history: day 25 "):
        strat.run(pm.prices, 25, 30)


def test_rank_forecast_trains_on_trailing_window():
    # the learner must receive exactly zscore(training_set(history, ...))
    pm = make_prices(70, 3, seed=18)

    class Capture(CountingLearner):
        def fit(self, features, targets):
            super().fit(features, targets)
            self.last = (features[-1].copy(), targets[-1].copy())

    learner = Capture(3)
    strat = RankForecastStrategy(learner, lookback=25, refit_interval=10,
                                 rank_power=3, feature_window=12,
                                 trend="price")
    strat.run(pm.prices[:50], 50, 50)
    want_f, want_t = training_set(pm.prices[:50], 25, 3, 12)
    np.testing.assert_array_equal(learner.last[0], zscore(want_f))
    np.testing.assert_array_equal(learner.last[1], want_t)


def test_rank_forecast_prediction_uses_current_window():
    pm = make_prices(70, 3, seed=19)

    class Echo(CountingLearner):
        def predict(self, block, rows):
            self.seen = rows.copy()
            return np.ones((len(rows), self.n))

    learner = Echo(3)
    strat = RankForecastStrategy(learner, lookback=25, refit_interval=10,
                                 rank_power=2, feature_window=12,
                                 trend="price")
    strat.run(pm.prices[:50], 50, 50)
    # scaled by the statistics of the refit's training block
    train = training_set(pm.prices[:50], 25, 2, 12)[0]
    np.testing.assert_array_equal(
        learner.seen, zscore(train, [features_loop(pm.prices[38:50])]))


class RecordingLearner(CountingLearner):
    """Keeps the bytes of every refit's training block and of every predicted
    row, in call order, with the refit each row is scored by."""

    def __init__(self, n):
        super().__init__(n)
        self.fit_inputs = []
        self.predict_inputs = []

    def fit(self, features, targets):
        super().fit(features, targets)
        self.first_refit = len(self.fit_inputs)
        self.fit_inputs.extend((f.tobytes(), t.tobytes())
                               for f, t in zip(features, targets))

    def predict(self, block, rows):
        self.predict_inputs.extend((self.first_refit + block, row.tobytes())
                                   for row in rows)
        return super().predict(block, rows)


@pytest.mark.parametrize("trend,power", [("price", 2), ("return", "return")])
def test_rank_forecast_cache_matches_stateless_functions(trend, power):
    prices = make_prices(100, 4, seed=21).prices
    learner = RecordingLearner(prices.shape[1])
    RankForecastStrategy(learner, lookback=20, refit_interval=3,
                         feature_window=12, trend=trend,
                         rank_power=power).run(prices, 37, 100)
    # refits on days 37, 40, ..., 100 in blocks of 8; one predicted row per
    # day, from the day's latest refit
    fit_days = range(37, 101, 3)
    assert learner.block_sizes == [8, 8, 6]
    assert len(learner.fit_inputs) == len(fit_days)
    for t, (feats, targets) in zip(fit_days, learner.fit_inputs):
        want_f, want_t = training_set(prices[:t], 20, power, 12, trend)
        assert feats == zscore(want_f).tobytes()
        assert targets == want_t.tobytes()
    assert len(learner.predict_inputs) == 64
    for t, (refit, seen) in zip(range(37, 101), learner.predict_inputs):
        assert refit == (t - 37) // 3
        train = training_set(prices[:fit_days[refit]], 20, power, 12, trend)[0]
        want = zscore(train, features_loop(prices[t - 12: t], trend))
        assert seen == want.tobytes()


class ArrayRecorder(CountingLearner):
    """Keeps every training block and every stack of predicted rows."""

    def __init__(self, n):
        super().__init__(n)
        self.blocks = []
        self.rows = []

    def fit(self, features, targets):
        super().fit(features, targets)
        self.blocks.extend(features.copy())

    def predict(self, block, rows):
        self.rows.append(rows.copy())
        return super().predict(block, rows)


def test_rank_forecast_fits_on_zscored_columns():
    prices = make_prices(100, 4, seed=22).prices
    learner = ArrayRecorder(prices.shape[1])
    RankForecastStrategy(learner, lookback=20, refit_interval=3, rank_power=2,
                         feature_window=12, trend="price").run(prices, 33, 100)
    assert len(learner.blocks) == 23
    for block in learner.blocks:
        np.testing.assert_allclose(block.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(block.std(axis=0), 1.0, atol=1e-12)


def test_rank_forecast_constant_feature_arrives_as_zeros():
    # asset 0 rises every day, so its price-trend feature is 1.0 in every
    # window: its deviation is floored and it arrives as zeros, not NaN
    prices = make_prices(60, 3, seed=23).prices.copy()
    prices[:, 0] = np.linspace(1.0, 2.0, 60)
    learner = ArrayRecorder(prices.shape[1])
    RankForecastStrategy(learner, lookback=20, refit_interval=5, rank_power=2,
                         feature_window=10, trend="price").run(prices, 31, 60)
    trend = (FEATURES_PER_ASSET - 1) * prices.shape[1]  # asset 0's trend
    assert (training_set(prices[:31], 20, 2, 10)[0][:, trend] == 1.0).all()
    assert len(learner.blocks) == len(learner.rows) == 6
    for x in learner.blocks + learner.rows:
        assert np.isfinite(x).all()
        np.testing.assert_array_equal(x[:, trend], 0.0)


def test_rank_forecast_scales_each_day_by_its_own_refit():
    # a daily refit across the edge of a block of 8: each day's row is
    # scaled by the statistics of that day's own training block
    prices = make_prices(60, 3, seed=24).prices
    learner = ArrayRecorder(prices.shape[1])
    RankForecastStrategy(learner, lookback=20, refit_interval=1, rank_power=2,
                         feature_window=10, trend="price").run(prices, 31, 40)
    assert learner.block_sizes == [8, 2]
    assert len(learner.rows) == 10
    for t, seen in zip(range(31, 41), learner.rows):
        train = training_set(prices[:t], 20, 2, 10)[0]
        want = zscore(train, [features_loop(prices[t - 10: t])])
        assert seen.tobytes() == want.tobytes()
