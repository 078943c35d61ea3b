"""Learners (an MLP and brute-force kNN regression) and the rank-forecast
trading strategy they drive, which standardizes every array they see.
"""

from __future__ import annotations

import numpy as np

from . import optim
from .features import (EPS, RankPower, rank_transform, scores_to_weights,
                       window_features)
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

    def __init__(self, hidden: tuple[int, ...], epochs: int,
                 learning_rate: float, batch_size: int, seed: int):
        self.hidden = tuple(hidden)
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.seed = seed

    def fit(self, features, targets):
        self.models = mlp_train(
            features, targets, hidden=self.hidden, epochs=self.epochs,
            learning_rate=self.learning_rate, batch_size=self.batch_size,
            seed=self.seed,
        ).unstack()

    def predict(self, block, rows):
        model = self.models[block]
        return np.array([model.forward(row) for row in rows])


def knn_predict(train_features: np.ndarray, train_targets: np.ndarray,
                queries: np.ndarray, k: int) -> np.ndarray:
    """Mean target over the k training rows nearest each query (Euclidean):
    an (r, d) stack of queries gives (r, targets) rows, one query one row.

    Distance ties resolve to the earliest training row. The differences are
    formed and squared in one (r, rows, d) scratch array: each query
    repeated once per training row, then the training rows subtracted in
    runs of rows x d cells, not one run of d cells per training row as a
    broadcast against the queries makes.
    """
    diff = np.repeat(queries[..., None, :], len(train_features), axis=-2)
    diff = diff.astype(np.result_type(train_features, queries), copy=False)
    np.subtract(train_features, diff, out=diff)
    d2 = np.square(diff, out=diff).sum(axis=-1)
    order = np.argsort(d2, axis=-1, kind="stable")[..., :k]
    return train_targets[order].mean(axis=-2)


class KnnLearner(Learner):
    """Stores the training blocks; predicts by neighbor average."""

    def __init__(self, k: int):
        self.k = k

    def fit(self, features, targets):
        self._features = np.array(features, dtype=np.float64)
        self._targets = np.array(targets, dtype=np.float64)

    def predict(self, block, rows):
        x, y = self._features[block], self._targets[block]
        # query rows per stack: its one (r, rows, d) array fills the budget
        step = max(1, optim.SCRATCH_FLOATS // x.size)
        return np.concatenate([knn_predict(x, y, rows[a: a + step], self.k)
                               for a in range(0, len(rows), step)])


class RankForecastStrategy(Strategy):
    """Daily weights from a learner trained on trailing rank targets.

    Refits on trading days t_first, t_first + ``refit_interval``, ... on the
    trailing ``lookback`` days, then turns predicted scores into long-only
    weights by clipping and normalizing. The refits of a run are fitted in
    blocks of up to ``_REFIT_BLOCK`` (8) consecutive refits, one ``fit`` call
    per block, so the MLP trains each block's networks in lockstep.

    ``run`` featurizes and ranks every day once, in one stacked pass each.
    The block a refit on day t sees is the one-refit reference
    ``training_set(prices[:t], ...)`` in ``tests/oracles.py``, z-scored by
    its own column means and deviations (floored at ``EPS``), so a row
    depends only on the price prefix and the refit schedule. Each refit
    scores the days it serves in one ``predict`` call, on rows scaled by
    the same statistics, and a block's raw scores become weights in one
    ``scores_to_weights`` call, which weights each row alone.
    """

    decays = True

    def __init__(self, learner: Learner, lookback: int, refit_interval: int,
                 rank_power: RankPower, feature_window: int, trend: str):
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
            train = np.stack([feats[i: i + lookback] for i in block])
            mean = train.mean(axis=1)
            std = np.maximum(train.std(axis=1), EPS)
            train -= mean[:, None]
            train /= std[:, None]
            self.learner.fit(train, np.stack([targets[i: i + lookback]
                                              for i in block]))
            for b, i in enumerate(block):
                j = min(i + self.refit_interval, days)
                rows = feats[i + lookback: j + lookback]
                out[i: j] = self.learner.predict(b, (rows - mean[b]) / std[b])
            # j ends the block's last refit
            out[block[0]: j] = scores_to_weights(out[block[0]: j])
        return out
