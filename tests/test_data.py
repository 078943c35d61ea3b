"""Price matrix loading, validation, and return extraction."""

import os
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankfolio.data import PriceMatrix, load_csv, summary_stats, write_csv

from conftest import make_prices
from oracles import load_csv_loop, returns_at


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


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_load_from_a_pipe_quotes_a_bad_price_by_its_value():
    # a pipe cannot be read again for the cell as written: reading it twice
    # used to raise StopIteration, and a named pipe would wait for a writer
    read, write = os.pipe()
    os.write(write, b"date,A,B\n2024-01-01,5,1e999\n")
    os.close(write)
    try:
        with pytest.raises(ValueError, match=r"line 2, column B: non-finite "
                                             r"price 'inf'$"):
            load_csv(f"/dev/fd/{read}")
    finally:
        os.close(read)


# cells that parse (Python float's grammar: underscores, padding, a sign, a
# quoted cell) and cells that the loader rejects, and dates likewise; the
# pool of good dates is small, so drawn rows repeat and disorder dates
GOOD_CELLS = ("1_000.5", " 7 ", "+2", '"5"', "0.25", "3e2")
BAD_CELLS = ("1e999", "nan", "-inf", "0", "-3", "abc", "")
GOOD_DATES = ("2024-01-01", "2024-01-02", " 2024-01-03", "2024-01-04")
BAD_DATES = ("2024-13-01", "x", "")


@st.composite
def csv_texts(draw):
    """CSV text of 1-3 assets whose lines may be blank, ragged, or carry a
    bad date or bad cells; several faults on different lines pin which one
    is reported."""
    assets = draw(st.integers(1, 3))
    lines = ["date," + ",".join("ABC"[:assets])]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("row", "row", "blank", "ragged",
                                     "bad date", "bad cells")))
        if kind == "blank":
            lines.append(draw(st.sampled_from(("", "  "))))
            continue
        day = draw(st.sampled_from(BAD_DATES if kind == "bad date"
                                   else GOOD_DATES))
        width = assets + (draw(st.sampled_from((-1, 1))) if kind == "ragged"
                          else 0)
        cells = GOOD_CELLS + (BAD_CELLS if kind == "bad cells" else ())
        lines.append(",".join([day, *(draw(st.sampled_from(cells))
                                      for _ in range(width))]))
    return "\n".join(lines) + "\n"


@given(csv_texts())
@settings(max_examples=400, deadline=None)
def test_property_load_csv_matches_the_loop(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "drawn.csv"
    path.write_text(text)

    def outcome(load):
        try:
            matrix = load(path)
        except ValueError as exc:
            return str(exc)
        return matrix.dates, matrix.assets, matrix.prices.tobytes()
    assert outcome(load_csv) == outcome(load_csv_loop)


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
