"""Each strategy's memory peak, as tools/memory_peaks.py measures it."""

import sys
from functools import cache
from pathlib import Path

import pytest

from rankfolio import optim
from rankfolio.engine import BacktestConfig
from rankfolio.strategies import CLASSIC_NAMES

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from memory_peaks import DAYS, IDS, WIDTHS, peak, prices  # noqa: E402

# mlp at 2 epochs peaks within 1% of its 200 epochs and takes a fraction of
# the time; every other setting is the default
CONFIG = BacktestConfig(mlp_epochs=2)

# A run may hold A floats per price and C budgets of scratch, plus UP's
# samples. At the defaults the largest peaks are BNN's 4.8 MiB at 10 assets
# and mlp's 8.0 MiB at 50 (BNN 7.2); the bound is 6.0 and 10.0 MiB there,
# about 25% of headroom.
A, C = 10, 5


@cache
def measured(strategy_id: str, assets: int) -> int:
    return peak(prices(assets), strategy_id, CONFIG)


@pytest.mark.parametrize("assets", WIDTHS)
@pytest.mark.parametrize("strategy_id", IDS)
def test_peak_is_bounded_by_the_prices_and_the_budget(strategy_id, assets):
    floats = A * DAYS * assets + C * optim.SCRATCH_FLOATS
    if strategy_id == "up":
        floats += assets * CONFIG.up_samples
    assert measured(strategy_id, assets) <= 8 * floats


@pytest.mark.parametrize("assets", WIDTHS)
def test_no_classic_peaks_above_bnn(assets):
    # BNN's peak sets the peak of `compare --strategies all`
    bnn = measured("bnn", assets)
    assert all(measured(name, assets) <= bnn for name in CLASSIC_NAMES)


@pytest.mark.parametrize("strategy_id", ["rmr", "anticor"])
def test_a_lower_budget_lowers_the_peak(monkeypatch, strategy_id):
    # their blocks hold a share of the budget, which each run reads anew
    default = measured(strategy_id, 10)
    monkeypatch.setattr(optim, "SCRATCH_FLOATS", 1 << 13)
    assert peak(prices(10), strategy_id, CONFIG) < default
