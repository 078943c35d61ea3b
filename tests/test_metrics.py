"""Metric formulas against hand-computed values and general properties."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankfolio.metrics import (CSV_COLUMNS, MetricsReport, annualized_return,
                               annualized_volatility, compute_report,
                               information_ratio, max_drawdown, profit_factor,
                               sharpe_ratio, winning_pct)

SERIES = [0.01, -0.02, 0.03, 0.0, -0.01]


def test_annualized_return_mean_mode():
    # 250 * mean([0.01, -0.02, 0.03, 0, -0.01]) = 250 * 0.002 = 0.5
    assert annualized_return(SERIES) == pytest.approx(0.5)


def test_annualized_return_sqrt_sum_mode():
    # sqrt(250) * 0.01
    assert annualized_return(SERIES, mode="sqrt-sum") == pytest.approx(
        math.sqrt(250) * 0.01)
    with pytest.raises(ValueError):
        annualized_return(SERIES, mode="bogus")


def test_annualized_volatility_population_std():
    v = np.asarray(SERIES)
    assert annualized_volatility(SERIES) == pytest.approx(
        math.sqrt(250) * v.std(ddof=0))


def test_sharpe_is_return_over_volatility():
    assert sharpe_ratio(SERIES) == pytest.approx(
        annualized_return(SERIES) / annualized_volatility(SERIES))


def test_sharpe_zero_volatility_raises():
    with pytest.raises(ValueError, match="volatility"):
        sharpe_ratio([0.01, 0.01, 0.01])


def test_winning_pct_strict_positive():
    # zero days are not wins: 2 of 5
    assert winning_pct(SERIES) == pytest.approx(0.4)


def test_profit_factor_hand_value():
    # gains 0.04, losses 0.03
    assert profit_factor(SERIES) == pytest.approx(0.04 / 0.03)


def test_profit_factor_no_losses_is_inf():
    assert profit_factor([0.01, 0.0, 0.02]) == math.inf


def test_information_ratio_hand_value():
    strat = np.array([0.02, 0.01, -0.01, 0.03])
    bench = np.array([0.01, 0.02, -0.02, 0.01])
    excess = strat - bench
    expected = math.sqrt(250) * excess.mean() / excess.std(ddof=0)
    assert information_ratio(strat, bench) == pytest.approx(expected)


def test_information_ratio_degenerate_raises():
    with pytest.raises(ValueError, match="degenerate"):
        information_ratio([0.01, 0.02], [0.01, 0.02])
    # constant nonzero excess is equally degenerate (exactly representable)
    with pytest.raises(ValueError, match="degenerate"):
        information_ratio([0.5, 1.0], [0.25, 0.75])


def test_information_ratio_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        information_ratio([0.01, 0.02], [0.01])


def test_max_drawdown_hand_case():
    # wealth: 1.1, 0.99, 1.089; peak 1.1 -> trough 0.99
    rets = [0.10, -0.10, 0.10]
    assert max_drawdown(rets) == pytest.approx(1.0 - 0.99 / 1.1)


def test_max_drawdown_counts_initial_wealth_as_peak():
    # all-losing series: drawdown measured from the starting wealth of 1
    rets = [-0.10, -0.10]
    assert max_drawdown(rets) == pytest.approx(1.0 - 0.9 * 0.9)


def test_max_drawdown_monotone_gains_is_zero():
    assert max_drawdown([0.01, 0.02, 0.03]) == 0.0


def test_max_drawdown_rejects_total_loss():
    with pytest.raises(ValueError):
        max_drawdown([0.5, -1.0])


def test_series_validation():
    for fn in (annualized_return, annualized_volatility, winning_pct,
               profit_factor, max_drawdown):
        with pytest.raises(ValueError):
            fn([])
        with pytest.raises(ValueError):
            fn([0.01, float("nan")])
        with pytest.raises(ValueError):
            fn([[0.01, 0.02]])


def test_csv_column_order_pinned():
    assert CSV_COLUMNS == (
        "profit_factor",
        "sharpe",
        "information_ratio",
        "annualized_return_pct",
        "max_drawdown_pct",
        "winning_pct",
        "annualized_volatility_pct",
    )


def test_csv_values_scaling():
    report = MetricsReport(
        annualized_return=0.25, annualized_volatility=0.5, sharpe=0.5,
        winning_pct=0.6, profit_factor=1.5, max_drawdown=0.3,
        information_ratio=None,
    )
    values = report.csv_values()
    assert values["annualized_return_pct"] == pytest.approx(25.0)
    assert values["annualized_volatility_pct"] == pytest.approx(50.0)
    assert values["max_drawdown_pct"] == pytest.approx(30.0)
    assert values["winning_pct"] == pytest.approx(60.0)
    assert values["sharpe"] == 0.5
    assert values["information_ratio"] is None
    assert set(values) == set(CSV_COLUMNS)


def test_compute_report_full():
    rets = np.array([0.02, -0.01, 0.015, -0.005])
    bench = np.array([0.01, -0.02, 0.01, 0.0])
    report = compute_report(rets, bench)
    assert report.sharpe == pytest.approx(sharpe_ratio(rets))
    assert report.information_ratio == pytest.approx(
        information_ratio(rets, bench))


def test_compute_report_degenerate_benchmark_gives_none():
    rets = np.array([0.02, -0.01, 0.015])
    assert compute_report(rets, rets).information_ratio is None
    assert compute_report(rets).information_ratio is None


def test_compute_report_zero_volatility_gives_none_sharpe():
    # flat prices: the Sharpe ratio is undefined, the rest of the row is not
    report = compute_report(np.zeros(5), np.zeros(5))
    assert report.sharpe is None
    assert report.information_ratio is None
    assert report.annualized_volatility == 0.0
    assert report.csv_values()["sharpe"] is None


def test_constant_nonzero_series_has_zero_volatility():
    # its std(ddof=0) is about 3e-17 of roundoff, not 0
    report = compute_report([0.24157678045100534] * 3)
    assert report.annualized_volatility == 0.0
    assert report.sharpe is None


finite_returns = st.lists(
    st.floats(min_value=-0.5, max_value=0.5, allow_nan=False,
              allow_infinity=False, width=64),
    min_size=2, max_size=60,
)


@given(finite_returns)
def test_property_drawdown_in_unit_interval(rets):
    dd = max_drawdown(rets)
    assert 0.0 <= dd < 1.0


@given(finite_returns)
def test_property_profit_factor_vs_sign_of_sums(rets):
    v = np.asarray(rets)
    pf = profit_factor(v)
    gains = v[v >= 0].sum()
    losses = -v[v < 0].sum()
    if losses == 0:
        assert pf == math.inf
    elif gains > losses:
        assert pf > 1.0
    elif gains < losses:
        assert pf < 1.0


@given(finite_returns, st.floats(min_value=0.1, max_value=3.0))
@example([0.24157678045100534] * 3, 1.5)
@settings(max_examples=50)
def test_property_sharpe_scale_invariant(rets, scale):
    # Sharpe is invariant under positive scaling of the return series. Below
    # this spread, rounding v * scale alone moves it by more than rel=1e-9;
    # below 1e-100 the squared deviations underflow (e.g. [0, 5e-162] * 0.5).
    v = np.asarray(rets)
    if np.ptp(v) <= max(1e-6 * np.abs(v).max(), 1e-100):
        return
    assert sharpe_ratio(v * scale) == pytest.approx(sharpe_ratio(v), rel=1e-9)


@given(finite_returns)
def test_property_volatility_nonnegative_and_return_linear(rets):
    v = np.asarray(rets)
    assert annualized_volatility(v) >= 0.0
    assert annualized_return(v) == pytest.approx(250 * v.mean(), abs=1e-12)
