"""Price matrix loading, validation, and return extraction."""

import csv
import os
import sys
import tracemalloc
import warnings
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankfolio.data import PriceMatrix, load_csv, summary_stats, write_csv

from conftest import make_prices
from oracles import load_csv_loop, returns_at

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from byte_gate import _write_quoted  # noqa: E402


def test_roundtrip(tmp_path, prices_mid):
    path = tmp_path / "p.csv"
    write_csv(prices_mid, path)
    loaded = load_csv(path)
    assert loaded.assets == prices_mid.assets
    assert loaded.dates == prices_mid.dates
    # 12 significant digits survive a write/read cycle for these magnitudes
    np.testing.assert_allclose(loaded.prices, prices_mid.prices, rtol=1e-11)


def test_write_failure_leaves_old_file_intact(tmp_path, monkeypatch,
                                             prices_mid):
    import rankfolio.data as data

    path = tmp_path / "p.csv"
    write_csv(make_prices(20, 2, seed=1), path)
    before = path.read_bytes()

    class FailingFormat:
        """Formats a few cells, then fails as a full disk would."""
        calls = 0

        def __mod__(self, value):
            self.calls += 1
            if self.calls > 50:
                raise OSError("no space left on device")
            return "%.12g" % value

    monkeypatch.setattr(data, "PRICE_FORMAT", FailingFormat())
    with pytest.raises(OSError, match="no space"):
        write_csv(prices_mid, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["p.csv"]


def test_load_sorts_rows_by_date(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(
        "date,X,Y\n"
        "2024-01-03,3,30\n"
        "2024-01-01,1,10\n"
        "2024-01-02,2,20\n"
    )
    pm = load_csv(path)
    assert [d.day for d in pm.dates] == [1, 2, 3]
    np.testing.assert_array_equal(pm.prices[:, 0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("cell,fragment", [
    ("abc", "bad number"),
    ("nan", "non-finite"),
    ("inf", "non-finite"),
    ("-3", "non-positive"),
    ("0", "non-positive"),
])
def test_load_rejects_bad_cells(tmp_path, cell, fragment):
    path = tmp_path / "p.csv"
    path.write_text(f"date,X,Y\n2024-01-01,5,{cell}\n")
    with pytest.raises(ValueError, match=fragment):
        load_csv(path)


def test_load_reports_line_and_column(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("date,X,Y\n2024-01-01,5,6\n2024-01-02,5,oops\n")
    with pytest.raises(ValueError, match=r"line 3.*column Y"):
        load_csv(path)


def test_load_rejects_duplicate_dates(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("date,X\n2024-01-01,5\n2024-01-01,6\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_csv(path)


def test_load_rejects_duplicate_assets(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("date,X,X\n2024-01-01,5,6\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_csv(path)


@pytest.mark.parametrize("header, column", [("date,A,,B", 3),
                                            ("date,A,B,", 4)])
def test_load_rejects_blank_asset_names(tmp_path, header, column):
    # a blank name used to load as an asset named "", and a trailing comma
    # failed on the first data row as a bad number ''
    path = tmp_path / "p.csv"
    path.write_text(f"{header}\n2024-01-01,1,2,3\n")
    with pytest.raises(ValueError, match=f": line 1: empty asset name in "
                                         f"column {column}$"):
        load_csv(path)


# cells that parse (Python float's grammar: underscores, padding, a sign,
# fullwidth digits, a quoted cell) and cells that the loader rejects, and
# dates likewise; the pool of good dates is small, so drawn rows repeat and
# disorder dates. Plain cells are the ones numpy's C reader reads too.
PLAIN_CELLS = ("0.25", "3e2", "7", "+2", " 7 ", "1.5E-3")
GOOD_CELLS = ("1_000.5", '"5"', "\uff11\uff12.5", *PLAIN_CELLS)
# numpy's float parser reads "5\x1c" as 5, and float() rejects it
BAD_CELLS = ("1e999", "nan", "-inf", "Infinity", "0", "-3", "abc", "",
             "5\x1c")
GOOD_DATES = ("2024-01-01", "2024-01-02", " 2024-01-03", "2024-01-04")
BAD_DATES = ("2024-13-01", "x", "")
# line ends: a lone CR ends a line for csv; a form feed or \x1c does not,
# though str.splitlines splits there
LINE_ENDS = ("\n", "\n", "\r\n", "\r", "\x0c", "\x1c")


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("cell", BAD_CELLS)
def test_a_bad_price_reads_the_same_from_a_file_and_a_pipe(tmp_path, cell):
    # a pipe cannot be read twice, so its fault is judged from the one read:
    # the message quotes the cell as written, as the loop reference does
    data = f"date,A,B\n2024-01-01,5,{cell}\n".encode()
    path = tmp_path / "p.csv"
    path.write_bytes(data)
    with pytest.raises(ValueError) as reference:
        load_csv_loop(path)
    expected = str(reference.value).removeprefix(f"{path}: ")
    read, write = os.pipe()
    os.write(write, data)
    os.close(write)
    try:
        for source in (str(path), f"/dev/fd/{read}"):
            with pytest.raises(ValueError) as got:
                load_csv(source)
            assert str(got.value) == f"{source}: {expected}"
    finally:
        os.close(read)


@st.composite
def csv_texts(draw):
    """CSV text of 1-3 assets whose lines may be blank, ragged, commented
    out, end in a comma, or carry a bad date or bad cells, and end in any
    line end; several faults on different lines pin which one is reported."""
    assets = draw(st.integers(1, 3))
    lines = ["date," + ",".join("ABC"[:assets])]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("row", "row", "blank", "ragged",
                                     "bad date", "bad cells", "#", ",")))
        if kind == "blank":
            lines.append(draw(st.sampled_from(("", "  "))))
            continue
        day = draw(st.sampled_from(BAD_DATES if kind == "bad date"
                                   else GOOD_DATES))
        width = assets + (draw(st.sampled_from((-1, 1))) if kind == "ragged"
                          else 0)
        cells = GOOD_CELLS + (BAD_CELLS if kind == "bad cells" else ())
        line = ",".join([day, *(draw(st.sampled_from(cells))
                                for _ in range(width))])
        lines.append({"#": "#" + line, ",": line + ","}.get(kind, line))
    # a header that runs into a row over a form feed may take a blank cell
    # as an asset name
    ends = [draw(st.sampled_from(LINE_ENDS)) for _ in lines]
    return "".join(line + end for line, end in zip(lines, ends))


@st.composite
def plain_csv_texts(draw):
    """CSV text that numpy's C reader reads: 1-3 assets, rows of distinct
    dates in any order with plain cells, LF or CRLF line ends, and blank
    lines."""
    assets = draw(st.integers(1, 3))
    days = draw(st.lists(st.dates(date(2000, 1, 1), date(2030, 12, 31)),
                         min_size=1, max_size=6, unique=True))
    lines = ["date," + ",".join("ABC"[:assets])]
    for day in days:
        if draw(st.booleans()):
            lines.append("")
        lines.append(",".join([day.isoformat(), *(
            draw(st.sampled_from(PLAIN_CELLS)) for _ in range(assets))]))
    end = draw(st.sampled_from(("\n", "\r\n")))
    return end.join(lines) + end


@given(st.one_of(csv_texts(), plain_csv_texts()))
@settings(max_examples=600, deadline=None)
def test_property_load_csv_matches_the_loop(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "drawn.csv"
    path.write_text(text, newline="")

    def outcome(load):
        try:
            matrix = load(path)
        except ValueError as exc:
            return str(exc)
        return matrix.dates, matrix.assets, matrix.prices.tobytes()
    # neither reader may warn: loadtxt does on a file without data rows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert outcome(load_csv) == outcome(load_csv_loop)


@pytest.fixture(scope="module")
def wide_csv(tmp_path_factory):
    """A plain 1309 x 50 price file, as the benchmark writes."""
    path = tmp_path_factory.mktemp("wide") / "prices.csv"
    write_csv(make_prices(1309, 50, seed=112), path)
    return path


def test_a_plain_file_never_reaches_the_csv_loop(wide_csv, monkeypatch):
    # a silent fallback would keep the bytes and lose the C reader's speed
    expected = load_csv_loop(wide_csv)

    def refuse(*args, **kwargs):
        raise AssertionError("csv.reader read a plain file")
    monkeypatch.setattr(csv, "reader", refuse)
    matrix = load_csv(wide_csv)
    assert matrix.dates == expected.dates
    assert matrix.assets == expected.assets
    assert matrix.prices.tobytes() == expected.prices.tobytes()


def load_peak(path):
    """The tracemalloc peak of a second ``load_csv(path)``, in bytes."""
    load_csv(path)
    tracemalloc.start()
    try:
        load_csv(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_csv_memory_of_a_wide_file(wide_csv):
    # the file's bytes, numpy's parse of them and the sorted copy of the
    # prices: about 2 MiB
    assert load_peak(wide_csv) < 3 * 2**20


def test_load_csv_memory_of_a_quoted_wide_file(wide_csv, tmp_path):
    # the csv loop reads a quoted file: its rows are held as float64 arrays,
    # not lists of Python floats (about 4.2 MiB), so it keeps the plain
    # file's bound
    quoted = tmp_path / "quoted.csv"
    _write_quoted(wide_csv, quoted)
    assert load_peak(quoted) < 3 * 2**20


def test_a_bad_price_comes_before_a_later_undecodable_line(tmp_path):
    # the csv loop decodes a line at a time, so the fault first in file order
    # is reported, and quoting the price's cell does not decode the rest
    path = tmp_path / "p.csv"
    path.write_bytes(b"date,A,B\n2024-01-01,1,-2\n2024-01-02,1,\xff\xfe\n")
    with pytest.raises(ValueError, match=r"line 2, column B: non-positive "
                                         r"price -2.0$"):
        load_csv(path)


@pytest.mark.parametrize("rows, message", [
    ('2024-01-01,"5\n"\n2024-01-02,abc\n',
     "line 4, column A: bad number 'abc'"),
    ('2024-01-01,"-5\n"\n', "line 2, column A: non-positive price -5.0"),
    ('2024-01-01,"5\n\n"\n2024-01-02\n', "line 5: expected 2 fields, got 1"),
], ids=["after", "within", "ragged"])
def test_a_record_is_named_by_the_line_it_starts_on(tmp_path, rows, message):
    # a quoted cell may hold a line break, so a record may span lines and
    # the records after it start further down than their count
    path = tmp_path / "p.csv"
    path.write_text("date,A\n" + rows, newline="")
    for load in (load_csv, load_csv_loop):
        with pytest.raises(ValueError) as got:
            load(path)
        assert str(got.value) == f"{path}: {message}"


def test_load_rejects_ragged_row(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("date,X,Y\n2024-01-01,5\n")
    with pytest.raises(ValueError, match="line 2"):
        load_csv(path)


def test_load_rejects_empty(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("")
    with pytest.raises(ValueError):
        load_csv(path)
    path.write_text("date,X\n")
    with pytest.raises(ValueError):
        load_csv(path)


def test_matrix_validation_rejects_unsorted_dates():
    with pytest.raises(ValueError):
        PriceMatrix(
            dates=(date(2024, 1, 2), date(2024, 1, 1)),
            assets=("X",),
            prices=np.array([[1.0], [2.0]]),
        )


def test_prices_are_read_only(prices_small):
    with pytest.raises(ValueError):
        prices_small.prices[0, 0] = 5.0


def test_returns_at_contract():
    prices = np.array([[100.0, 50.0], [110.0, 45.0], [99.0, 54.0]])
    pm = PriceMatrix(
        dates=(date(2024, 1, 1), date(2024, 1, 2), date(2024, 1, 3)),
        assets=("X", "Y"),
        prices=prices,
    )
    # the day-t return is the move from day t to day t+1 (1-based days)
    np.testing.assert_allclose([returns_at(prices, 1), returns_at(prices, 2)],
                               [[0.10, -0.10], [-0.10, 0.20]])
    stats = summary_stats(pm)
    for sym, rets in (("X", [0.10, -0.10]), ("Y", [-0.10, 0.20])):
        assert stats[sym]["count"] == 2
        assert stats[sym]["min"] == pytest.approx(min(rets))
        assert stats[sym]["max"] == pytest.approx(max(rets))
        assert stats[sym]["mean"] == pytest.approx(sum(rets) / 2)
    with pytest.raises(ValueError, match="need at least 2 days of prices"):
        summary_stats(PriceMatrix(dates=(date(2024, 1, 1),), assets=("X",),
                                  prices=[[1.0]]))


def test_all_returns_matches_returns_at(prices_small):
    # summary_stats describes exactly the day-1..T-1 rows of the oracle:
    # same count, and order statistics equal to the last bit
    stats = summary_stats(prices_small)
    rets = np.array([returns_at(prices_small.prices, t)
                     for t in range(1, prices_small.num_days)])
    assert rets.shape == (prices_small.num_days - 1, prices_small.num_assets)
    for j, sym in enumerate(prices_small.assets):
        col = rets[:, j]
        s = stats[sym]
        assert s["count"] == col.size
        assert s["min"] == col.min()
        assert s["max"] == col.max()
        q25, q50, q75 = np.percentile(col, [25.0, 50.0, 75.0])
        assert (s["25%"], s["50%"], s["75%"]) == (q25, q50, q75)


def test_summary_stats_against_numpy(prices_small):
    stats = summary_stats(prices_small)
    p = prices_small.prices
    rets = p[1:] / p[:-1] - 1.0
    for j, sym in enumerate(prices_small.assets):
        col = rets[:, j]
        s = stats[sym]
        assert s["count"] == col.size
        assert s["mean"] == pytest.approx(col.mean())
        assert s["std"] == pytest.approx(col.std(ddof=1))
        assert s["min"] == col.min()
        assert s["max"] == col.max()
        assert s["50%"] == pytest.approx(np.percentile(col, 50))


def test_make_prices_deterministic():
    a = make_prices(30, 3, seed=5)
    b = make_prices(30, 3, seed=5)
    np.testing.assert_array_equal(a.prices, b.prices)
