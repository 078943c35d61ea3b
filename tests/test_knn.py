"""Nearest-neighbor regression against an exhaustive oracle."""

import tracemalloc

import numpy as np
import pytest

from rankfolio.learners import knn_predict

import oracles


def test_matches_exhaustive_oracle_byte_exact():
    rng = np.random.default_rng(17)
    feats = rng.normal(size=(60, 8))
    targets = rng.normal(size=(60, 4))
    for k in (1, 5, 15, 60):
        for _ in range(25):
            q = rng.normal(size=8)
            got = knn_predict(feats, targets, q, k)
            want = oracles.knn_oracle(feats, targets, q, k)
            assert got.tobytes() == want.tobytes()


def test_scoring_a_refit_holds_one_difference_stack():
    # one refit's 10 queries against 80 training rows of 40 features: the
    # differences are squared where they lie, so the peak is one (10, 80,
    # 40) float64 stack and small arrays, not the differences and their
    # squares side by side (2x)
    rng = np.random.default_rng(3)
    train = rng.normal(size=(80, 40))
    targets = rng.normal(size=(80, 10))
    queries = rng.normal(size=(10, 40))
    tracemalloc.start()
    try:
        knn_predict(train, targets, queries, 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * 10 * 80 * 40


def test_k_equals_one_returns_nearest_row():
    feats = np.array([[0.0, 0.0], [5.0, 5.0], [1.0, 1.0]])
    targets = np.array([[10.0], [20.0], [30.0]])
    np.testing.assert_array_equal(
        knn_predict(feats, targets, np.array([0.9, 0.9]), 1), [30.0])


def test_tie_breaks_to_earliest_row():
    # rows 0 and 2 are equidistant from the query; row 0 must win
    feats = np.array([[1.0, 0.0], [9.0, 9.0], [-1.0, 0.0]])
    targets = np.array([[1.0], [2.0], [3.0]])
    np.testing.assert_array_equal(
        knn_predict(feats, targets, np.array([0.0, 0.0]), 1), [1.0])
    # with k = 2 both tied rows enter the average
    np.testing.assert_array_equal(
        knn_predict(feats, targets, np.array([0.0, 0.0]), 2), [2.0])


def test_k_equals_all_rows_is_global_mean():
    rng = np.random.default_rng(18)
    feats = rng.normal(size=(10, 3))
    targets = rng.normal(size=(10, 2))
    got = knn_predict(feats, targets, rng.normal(size=3), 10)
    np.testing.assert_allclose(got, targets.mean(axis=0), atol=1e-15)


@pytest.mark.parametrize("k", [1, 8, 40])
def test_stacked_queries_match_oracle_with_duplicate_rows(k):
    # lookback 40, every training row duplicated at a later index, and some
    # queries on a training row: ties must resolve to the earliest row
    rng = np.random.default_rng(23)
    feats = rng.normal(size=(20, 6))
    feats = np.concatenate([feats, feats[::-1]])
    targets = rng.normal(size=(40, 3))
    queries = np.concatenate([rng.normal(size=(25, 6)), feats[[0, 5, 39]]])
    got = knn_predict(feats, targets, queries, k)
    assert got.shape == (28, 3)
    for row, q in zip(got, queries):
        assert row.tobytes() == oracles.knn_oracle(feats, targets, q, k).tobytes()
        assert row.tobytes() == knn_predict(feats, targets, q, k).tobytes()
