"""Learners (an MLP and brute-force kNN regression) and the rank-forecast
trading strategy they drive.

A learner owns its feature standardization: ``fit`` receives raw features and
targets, ``predict`` one raw feature vector. The interface is deliberately
minimal so other regressors (forests, boosted trees) can slot in later.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .features import (Normalizer, RankPower, check_history,
                       features_from_window, rank_transform, scores_to_weights)
from .mlp import MlpModel, mlp_predict, mlp_train
from .strategies import Strategy


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

    Refits every ``refit_interval`` trading days (counted from the first step
    call) on the trailing ``lookback`` days, then turns predicted scores into
    long-only weights by clipping and normalizing.

    Each day is featurized once per run. After a step on a t-day history the
    caches hold, in ``training_set``'s numbering, the feature rows of days
    t - lookback .. t and the targets of days t - lookback .. t - 1. A row
    depends only on the price prefix, so the refit block equals
    ``training_set(history, ...)`` and outputs stay a pure function of it.
    """

    def __init__(self, learner: Learner, lookback: int = 80,
                 refit_interval: int = 10, rank_power: RankPower = 2,
                 feature_window: int = 20, trend: str = "price"):
        super().__init__()
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
        self._steps = 0
        self._seen = 0  # history length at the previous step
        self._feats: deque[np.ndarray] = deque(maxlen=lookback + 1)
        self._targets: deque[np.ndarray] = deque(maxlen=lookback)

    def step(self, history: np.ndarray) -> np.ndarray:
        history = self._check_growth(history)
        t = history.shape[0]
        fw = self.feature_window
        if self._seen == 0:
            check_history(t, self.lookback, fw)
        first = t - self.lookback  # older days fall out of the caches
        for s in range(max(self._seen + 1, first), t + 1):
            self._feats.append(features_from_window(history[s - fw: s], self.trend))
        for s in range(max(self._seen, first), t):
            self._targets.append(rank_transform(
                history[s] / history[s - 1] - 1.0, self.rank_power))
        self._seen = t
        if self._steps % self.refit_interval == 0:
            self.learner.fit(np.array(self._feats)[:-1], np.array(self._targets))
        self._steps += 1
        return scores_to_weights(self.learner.predict(self._feats[-1].copy()))
