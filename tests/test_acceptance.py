"""Acceptance gate: the headline guarantees of the package.

Each test covers one numbered criterion and prints a single PASS line when
its assertions hold (run with -s or -v to see them). Tolerances are pinned
here on purpose; do not loosen them to make a failure go away.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from rankfolio.cli import main
from rankfolio.data import load_csv, write_csv
from rankfolio.engine import (FEE_GRID, BacktestConfig, apply_decay, reprice,
                              run_backtest)
from rankfolio.features import rank_transform
from rankfolio.learners import knn_predict
from rankfolio.metrics import CSV_COLUMNS
from rankfolio.mlp import MlpModel, loss_and_gradients
from rankfolio.optim import log_optimal_portfolio
from rankfolio.strategies import CLASSIC_NAMES

import oracles
from conftest import make_prices
from test_mlp import numeric_gradients

FAST_ML = dict(lookback=20, feature_window=10, mlp_epochs=5, mlp_hidden=(6,),
               knn_k=5)


def note(num, text):
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def test_c01_sharpe_self_consistency(tmp_path):
    pm = make_prices(120, 4, seed=101)
    data = tmp_path / "p.csv"
    write_csv(pm, data)
    out = tmp_path / "out"
    assert main(["backtest", "--data", str(data), "--strategy", "eg",
                 "--out", str(out)]) == 0

    result = run_backtest(pm, "eg", BacktestConfig())
    report = result.report("net")
    # raw: the stored Sharpe is exactly the stored return over volatility
    assert report.sharpe == report.annualized_return / report.annualized_volatility

    row = (out / "metrics.csv").read_text().splitlines()[1].split(",")
    printed = dict(zip(CSV_COLUMNS, row[1:]))
    shown_sharpe = float(printed["sharpe"])
    ratio = (float(printed["annualized_return_pct"])
             / float(printed["annualized_volatility_pct"]))
    assert abs(shown_sharpe - ratio) <= 0.01
    note(1, "Sharpe equals return/volatility, raw exactly and printed to 0.01")


def test_c02_rank_transform_known_day():
    by_symbol = {
        "XRP": -0.0208, "BNB": -0.0196, "BCH": -0.0151, "EOS": -0.0076,
        "ADA": -0.0056, "BTC": -0.0048, "ETH": -0.0047, "ETC": -0.0025,
        "TRX": 0.0036, "LINK": 0.0863,
    }
    expected_rank = {"XRP": 1, "BNB": 2, "BCH": 3, "EOS": 4, "ADA": 5,
                     "BTC": 6, "ETH": 7, "ETC": 8, "TRX": 9, "LINK": 10}
    listing = ("BTC", "ETH", "XRP", "BCH", "ADA", "EOS", "BNB", "ETC",
               "TRX", "LINK")
    returns = np.array([by_symbol[s] for s in listing])
    ranks = rank_transform(returns, 1)
    squares = rank_transform(returns, 2)
    for i, sym in enumerate(listing):
        assert ranks[i] == expected_rank[sym]
        assert squares[i] == expected_rank[sym] ** 2
    note(2, "worst-to-best return ranks and their squares match exactly")


def test_c03_decay_example():
    out = apply_decay([np.array([1.0, 0.0])], np.array([0.0, 1.0]),
                      alpha=0.7, length=1)
    assert abs(out[0] - 0.7 / 1.7) <= 1e-12
    assert abs(out[1] - 1.0 / 1.7) <= 1e-12
    note(3, "decay blend of (1,0) then (0,1) at alpha 0.7 hits (7/17, 10/17)")


def test_c04_bcrp_dominates_every_asset():
    rng = np.random.default_rng(104)
    started = time.monotonic()
    for _ in range(50):
        relatives = np.exp(rng.normal(0.0, 0.03, size=(100, 5)))
        w = log_optimal_portfolio(relatives)
        achieved = oracles.log_wealth(relatives, w)
        best_single = np.log(relatives).sum(axis=0).max()
        assert achieved >= best_single - 1e-6
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    note(4, f"hindsight CRP beat every single asset on 50 instances "
            f"in {elapsed:.1f}s")


def test_c05_log_optimal_vs_grid_search():
    rng = np.random.default_rng(105)
    for _ in range(20):
        relatives = np.exp(rng.normal(0.0, 0.05, size=(40, 2)))
        w = log_optimal_portfolio(relatives)
        achieved = oracles.log_wealth(relatives, w)
        grid = np.arange(0.0, 1.0 + 5e-5, 1e-4)
        values = np.log(np.outer(relatives[:, 0], grid)
                        + np.outer(relatives[:, 1], 1.0 - grid)).sum(axis=0)
        assert achieved >= float(values.max()) - 1e-6
    note(5, "log-optimal solver matches a 1e-4 grid within 1e-6, 20 instances")


def test_c06_simplex_invariants_all_strategies():
    worst_min, worst_sum = 0.0, 0.0
    cfg = BacktestConfig(**FAST_ML)
    strategies = list(CLASSIC_NAMES) + ["mlp", "knn"]
    for i in range(10):
        pm = make_prices(50, 4, seed=600 + i)
        for strategy in strategies:
            result = run_backtest(pm, strategy, cfg)
            worst_min = min(worst_min, float(result.weights.min()))
            sums = np.abs(result.weights.sum(axis=1) - 1.0)
            worst_sum = max(worst_sum, float(sums.max()))
    assert worst_min >= -1e-12
    assert worst_sum <= 1e-9
    note(6, f"weights stayed on the simplex for {len(strategies)} strategies "
            f"x 10 matrices (min {worst_min:.1e}, sum err {worst_sum:.1e})")


def test_c07_mlp_gradient_check():
    rng = np.random.default_rng(107)
    worst = 0.0
    for draw in range(10):
        model = MlpModel.initialize((4, 3, 3, 2), seed=700 + draw)
        x = rng.normal(size=(6, 4))
        y = rng.normal(size=(6, 2))
        _, w_grads, b_grads = loss_and_gradients(model, x, y)
        nw, nb = numeric_gradients(model, x, y, h=1e-5)
        for analytic, numeric in zip(w_grads + b_grads, nw + nb):
            denom = np.maximum(np.abs(numeric), 1e-8)
            worst = max(worst, float((np.abs(analytic - numeric) / denom).max()))
    assert worst < 1e-4
    note(7, f"backprop matched central differences, worst rel err {worst:.1e}")


def test_c08_knn_byte_equal_oracle():
    rng = np.random.default_rng(108)
    feats = rng.normal(size=(80, 12))
    targets = rng.normal(size=(80, 5))
    for k in (1, 5, 15):
        for _ in range(100):
            q = rng.normal(size=12)
            got = knn_predict(feats, targets, q, k)
            want = oracles.knn_oracle(feats, targets, q, k)
            assert got.tobytes() == want.tobytes()
    note(8, "neighbor averages byte-equal the exhaustive oracle, "
            "300 queries over k in {1, 5, 15}")


def test_c09_fee_monotonicity_mlp():
    pm = make_prices(300, 5, seed=109)
    cfg = BacktestConfig(rank_power=2)
    base = run_backtest(pm, "mlp", cfg)
    assert base.net.tobytes() == base.gross.tobytes()  # fee 0: net is gross
    ars = []
    for fee in FEE_GRID:
        priced = reprice(pm, base, fee)
        ars.append(priced.report("net").annualized_return)
    assert all(a > b for a, b in zip(ars, ars[1:]))
    note(9, "net annualized return fell strictly across the fee grid "
            "and the zero-fee run is cost-free bit for bit")


def test_c10_no_lookahead_cut_points():
    pm = make_prices(120, 4, seed=110)
    cfg = BacktestConfig(**FAST_ML)
    rng = np.random.default_rng(110)
    strategies = [s for s in CLASSIC_NAMES if s != "bcrp"] + ["mlp", "knn"]
    for strategy in strategies:
        full = run_backtest(pm, strategy, cfg)
        cuts = rng.choice(np.arange(2, full.num_days - 1), size=5,
                          replace=False)
        for cut in cuts:
            short = run_backtest(pm, strategy,
                                 replace(cfg, end=full.dates[int(cut)]))
            k = short.num_days
            assert short.weights.tobytes() == full.weights[:k].tobytes()
            assert short.net.tobytes() == full.net[:k].tobytes()
    note(10, f"truncated runs reproduced the full run byte for byte at 5 "
             f"random cut points, {len(strategies)} strategies")


def test_c11_determinism_via_cli(tmp_path):
    data = tmp_path / "p.csv"
    write_csv(make_prices(90, 3, seed=111), data)
    conf = tmp_path / "fast.conf"
    conf.write_text("lookback = 20\nfeature_window = 10\nmlp_epochs = 5\n"
                    "mlp_hidden = 6\n")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["backtest", "--data", str(data), "--strategy", "mlp",
                     "--config", str(conf), "--seed", "10",
                     "--out", str(out)]) == 0
        outs.append(out)
    for fname in ("weights.csv", "returns.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
    note(11, "two seed-10 runs wrote byte-identical weights and returns")


def test_c12_desk_scale_run():
    pm = make_prices(1309, 10, seed=112)
    started = time.monotonic()
    cfg = BacktestConfig()  # headline parameters
    result = run_backtest(pm, "mlp", cfg)
    bench = run_backtest(pm, "ucrp", replace(cfg, start=result.dates[0],
                                             end=result.dates[-1]))
    report = result.report("net", bench.net)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    assert report.information_ratio is not None
    assert np.isfinite(report.information_ratio)
    assert np.isfinite(result.wealth).all()
    note(12, f"1309-day, 10-asset pipeline finished in {elapsed:.1f}s with a "
             f"finite information ratio")
