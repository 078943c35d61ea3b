"""Learners (an MLP and brute-force kNN regression) and the rank-forecast
trading strategy they drive.

A learner owns its feature standardization: ``fit`` receives a stack of raw
training blocks (features and targets), ``predict`` the index of a block and
a stack of raw feature rows, which it scores with that block's model. The
interface is deliberately minimal so other regressors can slot in later.
"""

from __future__ import annotations

import numpy as np

from .features import (_STACK_CELLS, Normalizer, RankPower, rank_transform,
                       scores_to_weights, window_features)
from .mlp import mlp_train
from .strategies import Strategy

# The learners fit their refits in stacks of up to this many consecutive
# refits, counted from the run's first refit: the MLP trains each stack in
# lockstep, and its scratch memory stays bounded whatever the run length.
_REFIT_BLOCK = 8


class Learner:
    """fit(features, targets) on a (B, rows, d) / (B, rows, k) stack of
    training blocks, then predict(block, rows) -> the (r, k) scores of an
    (r, d) stack of feature rows under the model fitted on that block."""

    def fit(self, features: np.ndarray, targets: np.ndarray) -> None:
        raise NotImplementedError

    def predict(self, block: int, rows: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class MlpLearner(Learner):
    """Fresh fully connected network per block, seeded for reproducibility;
    the blocks of one fit train in lockstep as one stack. ``predict`` runs
    one forward pass per row: a batched pass differs in the last bits."""

    def __init__(self, hidden: tuple[int, ...] = (20, 20), epochs: int = 200,
                 learning_rate: float = 1e-3, batch_size: int = 0,
                 seed: int = 10):
        self.hidden = tuple(hidden)
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.seed = seed

    def fit(self, features, targets):
        self.normalizers = [Normalizer.fit(f) for f in features]
        self.models = mlp_train(
            np.stack([n.transform(f) for n, f in zip(self.normalizers, features)]),
            targets, hidden=self.hidden, epochs=self.epochs,
            learning_rate=self.learning_rate, batch_size=self.batch_size,
            seed=self.seed,
        ).unstack()

    def predict(self, block, rows):
        model = self.models[block]
        return np.array([model.forward(z) for z in
                         self.normalizers[block].transform(rows)])


def knn_predict(train_features: np.ndarray, train_targets: np.ndarray,
                queries: np.ndarray, k: int) -> np.ndarray:
    """Mean target over the k training rows nearest each query (Euclidean):
    an (r, d) stack of queries gives (r, targets) rows, one query one row.

    Distance ties resolve to the earliest training row. Features are expected
    to be standardized consistently by the caller.
    """
    d2 = ((train_features - queries[..., None, :]) ** 2).sum(axis=-1)
    order = np.argsort(d2, axis=-1, kind="stable")[..., :k]
    return train_targets[order].mean(axis=-2)


class KnnLearner(Learner):
    """Stores each standardized training block; predicts by neighbor average."""

    def __init__(self, k: int = 15):
        self.k = k

    def fit(self, features, targets):
        self.normalizers = [Normalizer.fit(f) for f in features]
        self._features = [n.transform(f) for n, f in zip(self.normalizers, features)]
        self._targets = np.array(targets, dtype=np.float64)

    def predict(self, block, rows):
        x, y = self._features[block], self._targets[block]
        z = self.normalizers[block].transform(rows)
        step = max(1, _STACK_CELLS // x.size)  # query rows per stack
        return np.concatenate([knn_predict(x, y, z[a: a + step], self.k)
                               for a in range(0, len(z), step)])


class RankForecastStrategy(Strategy):
    """Daily weights from a learner trained on trailing rank targets.

    Refits on trading days t_first, t_first + ``refit_interval``, ... on the
    trailing ``lookback`` days, then turns predicted scores into long-only
    weights by clipping and normalizing. The refits of a run are fitted in
    blocks of up to ``_REFIT_BLOCK`` (8) consecutive refits, one ``fit`` call
    per block, so the MLP trains each block's networks in lockstep.

    ``run`` featurizes and ranks every day once, in one stacked pass each.
    The block a refit on day t sees equals the one-refit reference
    ``training_set(prices[:t], ...)`` in ``tests/oracles.py``, so a row
    depends only on the price prefix and the refit schedule. Each
    refit scores the days it serves in one ``predict`` call.
    """

    decays = True

    def __init__(self, learner: Learner, lookback: int = 80,
                 refit_interval: int = 10, rank_power: RankPower = 2,
                 feature_window: int = 20, trend: str = "price"):
        self.learner = learner
        self.lookback = lookback
        self.refit_interval = refit_interval
        self.rank_power = rank_power
        self.feature_window = feature_window
        self.trend = trend
        self.first_day = lookback + feature_window + 1

    def run(self, prices, t_first, t_last):
        prices = self._history(prices, t_first, t_last)
        lookback, fw = self.lookback, self.feature_window
        days = t_last - t_first + 1
        # row j holds day t_first - lookback + j, the last row day t_last;
        # day t_last has no target yet
        first = t_first - lookback
        feats = window_features(prices[first - fw:], fw, self.trend)
        targets = rank_transform(prices[first:] / prices[first - 1: -1] - 1.0,
                                 self.rank_power)
        out = np.empty((days, prices.shape[1]))
        refits = range(0, days, self.refit_interval)
        for s in range(0, len(refits), _REFIT_BLOCK):
            block = refits[s: s + _REFIT_BLOCK]
            self.learner.fit(np.stack([feats[i: i + lookback] for i in block]),
                             np.stack([targets[i: i + lookback] for i in block]))
            for b, i in enumerate(block):
                j = min(i + self.refit_interval, days)
                out[i: j] = scores_to_weights(
                    self.learner.predict(b, feats[i + lookback: j + lookback]))
        return out
