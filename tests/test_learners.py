"""Learner wrappers and the rank-forecast strategy's refit cadence."""

import numpy as np
import pytest

from rankfolio.features import (Normalizer, features_from_window,
                                scores_to_weights, training_set)
from rankfolio.learners import (KnnLearner, Learner, MlpLearner,
                                RankForecastStrategy, knn_predict)

from conftest import make_prices


def test_base_learner_is_abstract():
    learner = Learner()
    with pytest.raises(NotImplementedError):
        learner.fit(np.zeros((2, 2)), np.zeros((2, 1)))
    with pytest.raises(NotImplementedError):
        learner.predict(np.zeros(2))


def test_predict_before_fit_raises():
    with pytest.raises(ValueError, match="before fit"):
        MlpLearner().predict(np.zeros(4))
    with pytest.raises(ValueError, match="before fit"):
        KnnLearner().predict(np.zeros(4))


def test_knn_learner_standardizes_then_averages():
    rng = np.random.default_rng(41)
    feats = rng.normal(3.0, 5.0, size=(30, 6))
    targets = rng.normal(size=(30, 3))
    learner = KnnLearner(k=4)
    learner.fit(feats, targets)
    q = rng.normal(3.0, 5.0, size=6)
    norm = Normalizer.fit(feats)
    expected = knn_predict(norm.transform(feats), targets,
                           norm.transform(q), 4)
    np.testing.assert_array_equal(learner.predict(q), expected)


def test_knn_learner_copies_targets():
    feats = np.random.default_rng(1).normal(size=(5, 2))
    targets = np.ones((5, 2))
    learner = KnnLearner(k=5)
    learner.fit(feats, targets)
    targets[:] = 99.0
    np.testing.assert_array_equal(learner.predict(feats[0]), [1.0, 1.0])


def test_knn_learner_validates_k():
    with pytest.raises(ValueError):
        KnnLearner(k=0)


def test_mlp_learner_deterministic_and_standardized():
    rng = np.random.default_rng(42)
    feats = rng.normal(10.0, 4.0, size=(25, 8))
    targets = rng.normal(size=(25, 2))
    a = MlpLearner(hidden=(5,), epochs=10, seed=3)
    b = MlpLearner(hidden=(5,), epochs=10, seed=3)
    a.fit(feats, targets)
    b.fit(feats, targets)
    q = rng.normal(10.0, 4.0, size=8)
    np.testing.assert_array_equal(a.predict(q), b.predict(q))
    # the network sees z-scored features
    z = a.normalizer.transform(q)
    np.testing.assert_array_equal(a.predict(q), a.model.forward(z))


class CountingLearner(Learner):
    """Records fit calls; predicts a fixed positive score vector."""

    def __init__(self, n):
        self.n = n
        self.fits = 0
        self.fit_rows = []

    def fit(self, features, targets):
        self.fits += 1
        self.fit_rows.append(features.shape[0])

    def predict(self, feature_vec):
        return np.arange(1.0, self.n + 1.0)


def test_rank_forecast_refit_cadence():
    pm = make_prices(80, 3, seed=15)
    learner = CountingLearner(3)
    strat = RankForecastStrategy(learner, lookback=30, refit_interval=4,
                                 feature_window=10)
    strat.run(pm.prices[:60], 41, 60)
    # 20 days, refit on days 41, 45, 49, 53, 57
    assert learner.fits == 5
    assert learner.fit_rows == [30] * 5


def test_rank_forecast_weights_from_scores():
    pm = make_prices(60, 3, seed=16)
    learner = CountingLearner(3)
    strat = RankForecastStrategy(learner, lookback=20, refit_interval=10,
                                 feature_window=10)
    w = strat.run(pm.prices[:31], 31, 31)[0]
    np.testing.assert_allclose(w, scores_to_weights(np.array([1.0, 2.0, 3.0])))


def test_rank_forecast_insufficient_history_surfaces():
    pm = make_prices(30, 3, seed=17)
    strat = RankForecastStrategy(CountingLearner(3), lookback=20,
                                 refit_interval=5, feature_window=10)
    with pytest.raises(ValueError, match="insufficient history: day 25 "):
        strat.run(pm.prices[:25], 25, 25)
    # the error names the trading start day, not the run's last day
    with pytest.raises(ValueError, match="insufficient history: day 25 "):
        strat.run(pm.prices, 25, 30)


def test_rank_forecast_trains_on_trailing_window():
    # the learner must receive exactly training_set(history, ...)
    pm = make_prices(70, 3, seed=18)

    class Capture(CountingLearner):
        def fit(self, features, targets):
            super().fit(features, targets)
            self.last = (features.copy(), targets.copy())

    learner = Capture(3)
    strat = RankForecastStrategy(learner, lookback=25, refit_interval=10,
                                 feature_window=12, rank_power=3)
    strat.run(pm.prices[:50], 50, 50)
    want_f, want_t = training_set(pm.prices[:50], 25, 3, 12)
    np.testing.assert_array_equal(learner.last[0], want_f)
    np.testing.assert_array_equal(learner.last[1], want_t)


def test_rank_forecast_prediction_uses_current_window():
    pm = make_prices(70, 3, seed=19)

    class Echo(CountingLearner):
        def predict(self, feature_vec):
            self.seen = feature_vec.copy()
            return np.ones(self.n)

    learner = Echo(3)
    strat = RankForecastStrategy(learner, lookback=25, refit_interval=10,
                                 feature_window=12)
    strat.run(pm.prices[:50], 50, 50)
    np.testing.assert_array_equal(
        learner.seen, features_from_window(pm.prices[38:50]))


def test_rank_forecast_validates_interval():
    with pytest.raises(ValueError):
        RankForecastStrategy(CountingLearner(2), refit_interval=0)


class RecordingLearner(CountingLearner):
    """Keeps the bytes of every fit and predict input, in call order."""

    def __init__(self, n):
        super().__init__(n)
        self.fit_inputs = []
        self.predict_inputs = []

    def fit(self, features, targets):
        super().fit(features, targets)
        self.fit_inputs.append((features.tobytes(), targets.tobytes()))

    def predict(self, feature_vec):
        self.predict_inputs.append(feature_vec.tobytes())
        return super().predict(feature_vec)


@pytest.mark.parametrize("trend,power", [("price", 2), ("return", "return")])
def test_rank_forecast_cache_matches_stateless_functions(trend, power):
    prices = make_prices(100, 4, seed=21).prices
    learner = RecordingLearner(prices.shape[1])
    RankForecastStrategy(learner, lookback=20, refit_interval=3,
                         feature_window=12, trend=trend,
                         rank_power=power).run(prices, 37, 100)
    # refits on days 37, 40, ..., 100; one prediction per day
    fit_days = range(37, 101, 3)
    assert len(learner.fit_inputs) == len(fit_days)
    for t, (feats, targets) in zip(fit_days, learner.fit_inputs):
        want_f, want_t = training_set(prices[:t], 20, power, 12, trend)
        assert feats == want_f.tobytes()
        assert targets == want_t.tobytes()
    assert len(learner.predict_inputs) == 64
    for t, seen in zip(range(37, 101), learner.predict_inputs):
        want = features_from_window(prices[t - 12: t], trend)
        assert seen == want.tobytes()
