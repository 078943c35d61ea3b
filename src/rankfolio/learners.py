"""Learners (an MLP and brute-force kNN regression) and the rank-forecast
trading strategy they drive.

A learner owns its feature standardization: ``fit`` receives raw features and
targets, ``predict`` one raw feature vector. The interface is deliberately
minimal so other regressors (forests, boosted trees) can slot in later.
"""

from __future__ import annotations

import numpy as np

from .features import (Normalizer, RankPower, check_history,
                       features_from_window, scores_to_weights, training_set)
from .mlp import MlpModel, mlp_predict, mlp_train
from .strategies import Strategy, _run_prices


class Learner:
    """fit(features, targets) then predict(feature_vec) -> score vector."""

    def fit(self, features: np.ndarray, targets: np.ndarray) -> None:
        raise NotImplementedError

    def predict(self, feature_vec: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class MlpLearner(Learner):
    """Fresh fully connected network per fit, seeded for reproducibility."""

    def __init__(self, hidden: tuple[int, ...] = (20, 20), epochs: int = 200,
                 learning_rate: float = 1e-3, batch_size: int = 0,
                 seed: int = 10):
        self.hidden = tuple(hidden)
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.seed = seed
        self.normalizer: Normalizer | None = None
        self.model: MlpModel | None = None

    def fit(self, features, targets):
        self.normalizer = Normalizer.fit(features)
        self.model = mlp_train(
            self.normalizer.transform(features), targets,
            hidden=self.hidden, epochs=self.epochs,
            learning_rate=self.learning_rate, batch_size=self.batch_size,
            seed=self.seed,
        )

    def predict(self, feature_vec):
        if self.model is None or self.normalizer is None:
            raise ValueError("predict before fit")
        return mlp_predict(self.model, feature_vec, self.normalizer)


def knn_predict(train_features: np.ndarray, train_targets: np.ndarray,
                query: np.ndarray, k: int) -> np.ndarray:
    """Mean target over the k training rows nearest the query (Euclidean).

    Distance ties resolve to the earliest training row. Features are expected
    to be standardized consistently by the caller.
    """
    feats = np.asarray(train_features, dtype=np.float64)
    targets = np.asarray(train_targets, dtype=np.float64)
    q = np.asarray(query, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] < 1:
        raise ValueError("need a non-empty 2-d training feature matrix")
    if targets.shape[0] != feats.shape[0]:
        raise ValueError("feature and target row counts differ")
    if q.shape != (feats.shape[1],):
        raise ValueError("query shape does not match training features")
    if not 1 <= k <= feats.shape[0]:
        raise ValueError(f"k={k} out of range 1..{feats.shape[0]}")
    d2 = ((feats - q) ** 2).sum(axis=1)
    order = np.argsort(d2, kind="stable")
    return targets[order[:k]].mean(axis=0)


class KnnLearner(Learner):
    """Stores the standardized training block; predicts by neighbor average."""

    def __init__(self, k: int = 15):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.normalizer: Normalizer | None = None
        self._features: np.ndarray | None = None
        self._targets: np.ndarray | None = None

    def fit(self, features, targets):
        self.normalizer = Normalizer.fit(features)
        self._features = self.normalizer.transform(features)
        self._targets = np.asarray(targets, dtype=np.float64).copy()

    def predict(self, feature_vec):
        if self._features is None:
            raise ValueError("predict before fit")
        return knn_predict(self._features, self._targets,
                           self.normalizer.transform(feature_vec), self.k)


class RankForecastStrategy(Strategy):
    """Daily weights from a learner trained on trailing rank targets.

    Refits on trading days t_first, t_first + ``refit_interval``, ... on the
    trailing ``lookback`` days, then turns predicted scores into long-only
    weights by clipping and normalizing.

    ``run`` featurizes each day once: one ``training_set`` call covers the
    feature rows and targets of every day the run trains on. The block a
    refit on day t sees equals ``training_set(prices[:t], lookback, ...)``,
    so a row depends only on the price prefix and the refit schedule.
    """

    def __init__(self, learner: Learner, lookback: int = 80,
                 refit_interval: int = 10, rank_power: RankPower = 2,
                 feature_window: int = 20, trend: str = "price"):
        if lookback < 1:
            raise ValueError("lookback must be >= 1")
        if refit_interval < 1:
            raise ValueError("refit_interval must be >= 1")
        self.learner = learner
        self.lookback = lookback
        self.refit_interval = refit_interval
        self.rank_power = rank_power
        self.feature_window = feature_window
        self.trend = trend

    def run(self, prices, t_first, t_last):
        prices = _run_prices(prices, t_first, t_last)
        lookback, fw = self.lookback, self.feature_window
        check_history(t_first, lookback, fw)
        days = t_last - t_first + 1
        # row j holds day t_first - lookback + j; day t_last's features
        # have no target yet, so they are appended on their own
        feats, targets = training_set(prices, lookback + days - 1,
                                      self.rank_power, fw, self.trend)
        feats = np.vstack([feats, features_from_window(prices[-fw:], self.trend)])
        out = np.empty((days, prices.shape[1]))
        for i in range(days):
            if i % self.refit_interval == 0:
                self.learner.fit(feats[i: i + lookback],
                                 targets[i: i + lookback])
            out[i] = scores_to_weights(self.learner.predict(feats[i + lookback]))
        return out
