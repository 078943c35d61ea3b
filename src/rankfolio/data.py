"""Daily close-price matrices: loading, validation, returns, summary stats.

The on-disk format is a plain CSV with a ``date`` column (ISO-8601) followed
by one column per asset symbol. Prices must be strictly positive and finite
and every row must be complete; rows may arrive out of order and are sorted,
but duplicate dates are an error.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
from dataclasses import dataclass, field
from datetime import date
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


def load_csv(path: str | Path, digest=None) -> PriceMatrix:
    """Read a price matrix from ``path``.

    Raises ValueError with the offending line number and column name for
    malformed headers (blank or duplicate asset names), ragged rows,
    unparseable numbers, non-positive or non-finite prices, and duplicate
    dates; the first fault in file order is reported. A cell is a number in
    Python ``float``'s grammar. Rows are sorted by date.

    The file is read once. numpy's C reader parses a plain file. A file it
    refuses, or one with a fault, is parsed again from the same bytes by a
    ``csv.reader`` loop: it alone reads quoted cells and the rest of
    ``float``'s grammar (``1_000.5``, fullwidth digits). It checks each cell
    as it reads it, so it names the first fault, quoting a cell as written
    even from a pipe; a byte that does not decode and a record that ``csv``
    refuses are faults too. Both give the same matrix. ``digest``, a hashlib
    object, is updated with the bytes read, since a pipe cannot be read twice.
    """
    path = Path(path)
    raw = path.read_bytes()
    if digest is not None:
        digest.update(raw)
    encoding = io.TextIOWrapper(io.BytesIO()).encoding  # as open() reads
    try:
        return _load_plain(path, raw, encoding)
    except ValueError:
        pass
    return _load_rows(path, raw, encoding)


def _assets(path: Path, header: list[str]) -> list[str]:
    """The asset names of the header's cells, or ValueError naming its
    fault."""
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
    return assets


def _ordinal(cell: str) -> int:
    return date.fromisoformat(cell.strip()).toordinal()


# a byte that is not a line end: loadtxt warns on a file with no data row
_ROW_BYTE = re.compile(rb"[^\r\n]")

# numpy's float parser strips these as white space around a number, and
# float() does not
_SEPARATORS = b"\x1c\x1d\x1e\x1f"


def _load_plain(path: Path, raw: bytes, encoding: str) -> PriceMatrix:
    """The matrix in ``raw``, parsed by ``np.loadtxt`` with each date as its
    ordinal and checked by ``PriceMatrix``. Any ValueError sends the text
    to the csv loop: a header csv might not split at its commas alone, no
    data row, a separator byte, a line loadtxt refuses (a quoted cell,
    ``1_000.5``, a blank-looking row, a lone CR), or a fault."""
    buf = io.BytesIO(raw)
    header = buf.readline().decode(encoding)
    header = header.removesuffix("\n").removesuffix("\r")
    if (any(c in header for c in '"\r\x00')
            or not _ROW_BYTE.search(raw, buf.tell())
            or any(byte in raw for byte in _SEPARATORS)):
        raise ValueError("not a plain file")
    assets = _assets(path, header.split(","))
    block = np.loadtxt(buf, dtype=np.float64, delimiter=",", comments=None,
                       converters={0: _ordinal}, ndmin=2, encoding=encoding)
    order = np.argsort(block[:, 0])
    days = block[order, 0].astype(int).tolist()
    return PriceMatrix(dates=tuple(map(date.fromordinal, days)),
                       assets=tuple(assets), prices=block[order, 1:])


def _records(path: Path, raw: bytes, encoding: str):
    """(the line it starts on, cells) of each ``csv.reader`` record of
    ``raw``, whose lines are decoded one at a time where ``open(path,
    newline="")`` ends them; a line that does not decode, or a record that
    ``csv`` refuses (such as a field over ``csv.field_size_limit()``), is a
    ValueError naming the line being read."""
    reader = csv.reader(line.decode(encoding)
                        for line in raw.splitlines(keepends=True))
    while True:
        start = reader.line_num + 1  # a quoted cell may span lines
        try:
            cells = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ValueError(
                f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:  # before csv counts the line
            raise ValueError(
                f"{path}: line {reader.line_num + 1}: {exc}") from None
        yield start, cells


def _load_rows(path: Path, raw: bytes, encoding: str) -> PriceMatrix:
    """The matrix in ``raw``, read record by record by ``csv.reader`` with
    each price checked by ``_price`` as it is read, or the ValueError of its
    first fault in file order."""
    records = _records(path, raw, encoding)
    try:
        _, header = next(records)
    except StopIteration:
        raise ValueError(f"{path}: empty file") from None
    assets = _assets(path, header)

    dates: list[date] = []
    rows: list[np.ndarray] = []
    for lineno, cells in records:
        if not cells or (len(cells) == 1 and not cells[0].strip()):
            continue
        where = f"{path}: line {lineno}"
        if len(cells) != len(assets) + 1:
            raise ValueError(f"{where}: expected {len(assets) + 1} "
                             f"fields, got {len(cells)}")
        try:
            day = date.fromisoformat(cells[0].strip())
        except ValueError:
            raise ValueError(f"{where}: bad date {cells[0]!r}") from None
        dates.append(day)
        rows.append(np.array([_price(where, sym, cell) for sym, cell
                              in zip(assets, cells[1:])]))

    if not rows:
        raise ValueError(f"{path}: no data rows")
    order = sorted(range(len(dates)), key=dates.__getitem__)
    dates = [dates[i] for i in order]
    for d1, d2 in zip(dates, dates[1:]):
        if d1 == d2:
            raise ValueError(f"{path}: duplicate date {d1.isoformat()}")
    return PriceMatrix(dates=tuple(dates), assets=tuple(assets),
                       prices=np.array(rows)[order])


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
    n = matrix.num_assets
    # one return has no sample deviation: NaN, without numpy's warning
    std = rets.std(axis=0, ddof=1) if len(rets) > 1 else np.full(n, np.nan)
    stats = np.vstack([np.full(n, float(len(rets))), rets.mean(axis=0), std,
                       rets.min(axis=0),
                       np.percentile(rets, [25.0, 50.0, 75.0], axis=0),
                       rets.max(axis=0)])
    names = ("count", "mean", "std", "min", "25%", "50%", "75%", "max")
    return {sym: dict(zip(names, column.tolist()))
            for sym, column in zip(matrix.assets, stats.T)}
