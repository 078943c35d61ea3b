"""Daily close-price matrices: loading, validation, returns, summary stats.

The on-disk format is a plain CSV with a ``date`` column (ISO-8601) followed
by one column per asset symbol. Prices must be strictly positive and finite
and every row must be complete; rows may arrive out of order and are sorted,
but duplicate dates are an error.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from datetime import date
from itertools import islice
from pathlib import Path

import numpy as np

# Prices are serialized with up to 12 significant digits, which round-trips
# any value that itself came from a 12-digit CSV.
PRICE_FORMAT = "%.12g"


@dataclass(frozen=True)
class PriceMatrix:
    """T dates by n assets of daily close prices.

    Row i of ``prices`` holds the closes for ``dates[i]``. Day indices used
    throughout the library are 1-based: day t corresponds to row t-1.
    """

    dates: tuple[date, ...]
    assets: tuple[str, ...]
    prices: np.ndarray = field(repr=False)

    def __post_init__(self):
        prices = np.asarray(self.prices, dtype=np.float64)
        dates = tuple(self.dates)
        assets = tuple(self.assets)
        if prices.ndim != 2:
            raise ValueError("prices must be a 2-d array")
        if len(dates) != prices.shape[0]:
            raise ValueError(
                f"got {len(dates)} dates for {prices.shape[0]} price rows"
            )
        if len(assets) != prices.shape[1]:
            raise ValueError(
                f"got {len(assets)} asset names for {prices.shape[1]} price columns"
            )
        if len(set(assets)) != len(assets):
            raise ValueError("duplicate asset names")
        for i in range(1, len(dates)):
            if dates[i] <= dates[i - 1]:
                raise ValueError(
                    f"dates not strictly increasing at {dates[i].isoformat()}"
                )
        if prices.size and not np.isfinite(prices).all():
            raise ValueError("prices contain non-finite values")
        if prices.size and (prices <= 0).any():
            raise ValueError("prices must be strictly positive")
        prices.flags.writeable = False
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "assets", assets)

    @property
    def num_days(self) -> int:
        return self.prices.shape[0]

    @property
    def num_assets(self) -> int:
        return self.prices.shape[1]


def load_csv(path: str | Path) -> PriceMatrix:
    """Read a price matrix from ``path``.

    Raises ValueError with the offending line number and column name for
    malformed headers (blank or duplicate asset names), ragged rows,
    unparseable numbers, non-positive or non-finite prices, and duplicate
    dates; the first fault in file order is reported. A cell is a number in
    Python ``float``'s grammar. Rows are sorted by date.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [cell.strip() for cell in header]
        if not header or header[0] != "date":
            raise ValueError(f"{path}: line 1: first column must be 'date'")
        assets = header[1:]
        if not assets:
            raise ValueError(f"{path}: line 1: no asset columns")
        if "" in assets:
            raise ValueError(f"{path}: line 1: empty asset name in column "
                             f"{assets.index('') + 2}")
        if len(set(assets)) != len(assets):
            raise ValueError(f"{path}: line 1: duplicate asset columns")

        # rows are converted as they are read and their prices checked as
        # one block: at the end, or before a malformed line's error, which
        # must not hide a bad price on an earlier line
        dates: list[date] = []
        linenos: list[int] = []
        rows: list[np.ndarray] = []
        for lineno, cells in enumerate(reader, start=2):
            if not cells or (len(cells) == 1 and not cells[0].strip()):
                continue
            where = f"{path}: line {lineno}"
            try:
                if len(cells) != len(header):
                    raise ValueError(f"{where}: expected {len(header)} "
                                     f"fields, got {len(cells)}")
                try:
                    day = date.fromisoformat(cells[0].strip())
                except ValueError:
                    raise ValueError(f"{where}: bad date {cells[0]!r}") from None
                try:
                    values = np.array(cells[1:], dtype=np.float64)
                except ValueError:  # the cells before the bad one come first
                    values = np.array([_price(where, sym, cell) for sym, cell
                                       in zip(assets, cells[1:])])
            except ValueError:
                _check_prices(path, assets, linenos, np.array(rows))
                raise
            dates.append(day)
            linenos.append(lineno)
            rows.append(values)

    if not rows:
        raise ValueError(f"{path}: no data rows")
    block = np.array(rows)
    _check_prices(path, assets, linenos, block)
    order = sorted(range(len(dates)), key=dates.__getitem__)
    dates = [dates[i] for i in order]
    for d1, d2 in zip(dates, dates[1:]):
        if d1 == d2:
            raise ValueError(f"{path}: duplicate date {d1.isoformat()}")
    return PriceMatrix(dates=tuple(dates), assets=tuple(assets),
                       prices=block[order])


def _price(where: str, sym: str, cell: str) -> float:
    """The price in ``cell``, or ValueError naming its line and column."""
    try:
        value = float(cell)
    except ValueError:
        raise ValueError(f"{where}, column {sym}: bad number {cell!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{where}, column {sym}: non-finite price {cell!r}")
    if value <= 0:
        raise ValueError(f"{where}, column {sym}: non-positive price {value}")
    return value


def _check_prices(path: Path, assets: list[str], linenos: list[int],
                  block: np.ndarray) -> None:
    """Raise the error of the first non-finite or non-positive price of
    ``block``, whose rows were read from lines ``linenos`` of ``path``.
    The error quotes the cell as written, read again from a regular file;
    a pipe cannot be read twice, so from one it quotes the value."""
    bad = ~(np.isfinite(block) & (block > 0))
    if bad.any():
        row, col = divmod(int(np.argmax(bad)), len(assets))
        lineno, cell = linenos[row], str(block[row, col])
        if path.is_file():
            with open(path, newline="") as fh:
                cell = next(islice(csv.reader(fh), lineno - 1, None))[col + 1]
        _price(f"{path}: line {lineno}", assets[col], cell)


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it over
    ``path``: a failed write leaves the old file and no temporary file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, newline="")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # gone after a successful replace


def write_csv_rows(path: str | Path, header: list[str],
                   rows: list[list[str]]) -> None:
    """Write ``header`` and ``rows`` of cells as a CSV, atomically."""
    write_text_atomic(path, "".join(",".join(row) + "\n"
                                    for row in [header, *rows]))


def write_csv(matrix: PriceMatrix, path: str | Path) -> None:
    """Write ``matrix`` to ``path`` in the load_csv format (12 significant
    digits)."""
    write_csv_rows(path, ["date", *matrix.assets],
                   [[d.isoformat(), *(PRICE_FORMAT % p for p in row)]
                    for d, row in zip(matrix.dates, matrix.prices)])


def summary_stats(matrix: PriceMatrix) -> dict[str, dict[str, float]]:
    """Descriptive statistics of each asset's daily returns.

    Returns a mapping ``{symbol: {count, mean, std, min, 25%, 50%, 75%, max}}``
    over the simple returns p[t+1, j] / p[t, j] - 1 of each pair of days.
    std is the sample standard deviation (divisor count-1); quantiles use
    linear interpolation. Requires at least two days of prices.
    """
    if matrix.num_days < 2:
        raise ValueError("need at least 2 days of prices")
    rets = matrix.prices[1:] / matrix.prices[:-1] - 1.0
    out: dict[str, dict[str, float]] = {}
    for j, sym in enumerate(matrix.assets):
        col = rets[:, j]
        count = col.size
        mean = float(col.mean())
        if count >= 2:
            std = float(math.sqrt(((col - mean) ** 2).sum() / (count - 1)))
        else:
            std = float("nan")
        q25, q50, q75 = (float(q) for q in np.percentile(col, [25.0, 50.0, 75.0]))
        out[sym] = {
            "count": float(count),
            "mean": mean,
            "std": std,
            "min": float(col.min()),
            "25%": q25,
            "50%": q50,
            "75%": q75,
            "max": float(col.max()),
        }
    return out
