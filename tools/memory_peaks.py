"""Print the tracemalloc peak of one ``run_backtest`` per strategy id, with
the default config, as a markdown table in MiB.

    python tools/memory_peaks.py

The prices are the benchmark's seed-112 random walks of 1309 days by 10 and
by 50 assets (``perfbench/workloads.make_prices``). A peak counts every
allocation a run makes through Python's allocator, numpy's arrays included,
from the call until the result is returned, the result included.
"""

from __future__ import annotations

import sys
import tracemalloc
from datetime import date, timedelta
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from rankfolio.data import PriceMatrix  # noqa: E402
from rankfolio.engine import ML_NAMES, run_backtest  # noqa: E402
from rankfolio.strategies import CLASSIC_NAMES  # noqa: E402
from workloads import DAYS, DEFAULT_SEED, make_prices  # noqa: E402

IDS = CLASSIC_NAMES + ML_NAMES
WIDTHS = (10, 50)


def prices(assets: int) -> PriceMatrix:
    """The seed-112 price matrix of ``DAYS`` days by ``assets`` assets."""
    start = date(2023, 1, 1)
    return PriceMatrix(
        dates=tuple(start + timedelta(days=i) for i in range(DAYS)),
        assets=tuple(f"A{j:02d}" for j in range(assets)),
        prices=make_prices(DAYS, assets, DEFAULT_SEED))


def peak(matrix: PriceMatrix, strategy_id: str, config=None) -> int:
    """The tracemalloc peak, in bytes, of one ``run_backtest`` call."""
    tracemalloc.start()
    try:
        run_backtest(matrix, strategy_id, config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main() -> None:
    matrices = [prices(assets) for assets in WIDTHS]
    print("| id | " + " | ".join(f"{DAYS} × {n}" for n in WIDTHS) + " |")
    print("| --- " * (len(WIDTHS) + 1) + "|")
    for strategy_id in IDS:
        cells = [f"{peak(m, strategy_id) / 2 ** 20:.2f}" for m in matrices]
        print(f"| {strategy_id} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
