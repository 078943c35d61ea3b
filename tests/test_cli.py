"""Command line behavior: files, formats, exit codes, precedence."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import warnings
from dataclasses import fields, replace
from datetime import date, timedelta
from http.server import HTTPServer
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rankfolio
from rankfolio.cli import (_fmt, build_config, build_parser, main,
                           read_config_file, render_table, write_manifest)
from rankfolio.data import load_csv, write_csv
from rankfolio.engine import BacktestConfig, run_backtest
from rankfolio.fetch import BASE_URL_ENV
from rankfolio.metrics import CSV_COLUMNS
from rankfolio.strategies import CLASSIC_NAMES

from conftest import make_prices
from test_engine import RUIN
from test_fetch import ApiHandler, ts_ms

HEADER = "strategy," + ",".join(CSV_COLUMNS)


@pytest.fixture
def data_csv(tmp_path):
    path = tmp_path / "prices.csv"
    write_csv(make_prices(90, 3, seed=44), path)
    return path


@pytest.fixture
def ml_config(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(
        "# fast settings for tests\n"
        "lookback = 20\n"
        "feature_window = 10\n"
        "mlp_epochs = 5\n"
        "mlp_hidden = 6\n"
        "knn_k = 5\n"
    )
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


# --- formatting helpers ---------------------------------------------------------

def test_fmt_pretty_uses_bankers_rounding():
    # .125 and .375 are exact binary fractions: ties resolve to even
    assert _fmt(0.125, pretty=True) == "0.12"
    assert _fmt(0.375, pretty=True) == "0.38"
    assert _fmt(None, pretty=True) == ""
    assert _fmt(math.inf, pretty=True) == "inf"


def test_fmt_raw_is_full_precision_repr():
    x = 1.0 / 3.0
    assert _fmt(x, pretty=False) == repr(x)
    assert float(_fmt(x, pretty=False)) == x
    assert _fmt(np.float64(0.1), pretty=False) == "0.1"


def test_render_table_alignment():
    table = render_table(["name", "v"], [["a", "1.00"], ["bb", "10.00"]])
    lines = table.splitlines()
    assert lines[0].startswith("name")
    assert all(len(line) <= len(max(lines, key=len)) for line in lines)
    assert lines[2].endswith(" 1.00")


# --- config file ------------------------------------------------------------------

def test_read_config_file_parses_and_errors(tmp_path):
    good = tmp_path / "c.conf"
    good.write_text("fee_rate = 0.001  # inline comment\n\nseed=3\n"
                    "rank_power = return\nstart = 2023-02-01\n"
                    "decay_classic = true\nmlp_hidden = 10,5\n")
    values = read_config_file(good)
    assert values == {"fee_rate": 0.001, "seed": 3, "rank_power": "return",
                      "start": date(2023, 2, 1), "decay_classic": True,
                      "mlp_hidden": (10, 5)}

    from rankfolio.cli import UsageError
    bad_key = tmp_path / "k.conf"
    bad_key.write_text("nope = 1\n")
    with pytest.raises(UsageError, match="unknown config key"):
        read_config_file(bad_key)
    bad_val = tmp_path / "v.conf"
    bad_val.write_text("seed = abc\n")
    with pytest.raises(UsageError, match="bad value"):
        read_config_file(bad_val)
    bad_line = tmp_path / "l.conf"
    bad_line.write_text("just words\n")
    with pytest.raises(UsageError, match="key = value"):
        read_config_file(bad_line)


# --- backtest -----------------------------------------------------------------------

def test_backtest_outputs(data_csv, tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli("backtest", "--data", data_csv, "--strategy", "olmar",
                   "--fee", "0.001", "--out", out)
    assert code == 0
    for name in ("weights.csv", "returns.csv", "metrics.csv",
                 "metrics_raw.csv", "manifest.json"):
        assert (out / name).exists()

    metrics = (out / "metrics.csv").read_text().splitlines()
    assert metrics[0] == HEADER
    row = metrics[1].split(",")
    assert row[0] == "olmar"
    for cell in row[1:]:
        assert cell == "" or "." in cell and len(cell.split(".")[1]) == 2

    # raw CSV round-trips to the exact report values
    pm = load_csv(data_csv)
    result = run_backtest(pm, "olmar", BacktestConfig(fee_rate=0.001))
    bench = run_backtest(pm, "ucrp", BacktestConfig(fee_rate=0.001))
    report = result.report("net", bench.net).csv_values()
    raw_row = (out / "metrics_raw.csv").read_text().splitlines()[1].split(",")
    for key, cell in zip(CSV_COLUMNS, raw_row[1:]):
        assert float(cell) == report[key]

    # returns.csv carries full-precision daily series
    lines = (out / "returns.csv").read_text().splitlines()
    assert lines[0] == "date,gross,cost,net,wealth"
    assert len(lines) - 1 == result.num_days
    first = lines[1].split(",")
    assert float(first[3]) == result.net[0]

    shown = capsys.readouterr().out
    assert "final wealth" in shown
    assert "olmar" in shown


def test_backtest_manifest(data_csv, tmp_path):
    out = tmp_path / "out"
    assert run_cli("backtest", "--data", data_csv, "--strategy", "eg",
                   "--out", out, "--fee", "0.0005") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "backtest"
    assert manifest["strategy"] == "eg"
    assert manifest["config"]["fee_rate"] == 0.0005
    digest = hashlib.sha256(data_csv.read_bytes()).hexdigest()
    assert manifest["data_sha256"] == digest
    from rankfolio import __version__
    assert manifest["version"] == __version__


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_manifest_hashes_the_bytes_read_from_a_pipe(data_csv, tmp_path):
    # the digest is taken from the loader's one read: hashing the path
    # again after the run read the drained pipe, the digest of no bytes
    body = data_csv.read_bytes()
    read, write = os.pipe()
    os.write(write, body)
    os.close(write)
    try:
        assert run_cli("backtest", "--data", f"/dev/fd/{read}",
                       "--strategy", "ucrp", "--out", tmp_path / "out") == 0
    finally:
        os.close(read)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["data_sha256"] == hashlib.sha256(body).hexdigest()


def test_write_manifest_echoes_the_config_as_json(tmp_path):
    # every config field, its dates as ISO strings and its tuples as lists
    cfg = BacktestConfig(start=date(2024, 1, 2), mlp_hidden=(10, 5))
    write_manifest(tmp_path, "backtest", "prices.csv", "0" * 64, cfg,
                   {"strategy": "eg"})
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    echoed = manifest.pop("config")
    assert echoed["start"] == "2024-01-02"
    assert echoed["end"] is None
    assert echoed["mlp_hidden"] == [10, 5]
    assert set(echoed) == {f.name for f in fields(cfg)}
    assert manifest["strategy"] == "eg"


def test_negative_zero_fee_writes_the_zero_fee_outputs(data_csv, tmp_path):
    # -0.0 passes the fee bound and enters as +0.0: no "-0.0" cost cell,
    # manifest fee or sweep row is written
    def outputs(fee):
        files = {}
        for command, flag in (("backtest", "--fee"), ("sweep-fees", "--fees")):
            out = tmp_path / f"{command}{fee}"
            assert run_cli(command, "--data", data_csv, "--strategy", "eg",
                           flag, fee, "--out", out) == 0
            for path in out.iterdir():
                text = path.read_text()
                if path.name == "manifest.json":
                    manifest = json.loads(text)
                    del manifest["generated_at"]
                    text = json.dumps(manifest, indent=2, sort_keys=True)
                files[command, path.name] = text
        return files

    assert outputs("-0") == outputs("0")


def test_backtest_weights_csv_matches_engine(data_csv, tmp_path):
    out = tmp_path / "out"
    run_cli("backtest", "--data", data_csv, "--strategy", "pamr", "--out", out)
    pm = load_csv(data_csv)
    result = run_backtest(pm, "pamr", BacktestConfig())
    lines = (out / "weights.csv").read_text().splitlines()
    assert lines[0] == "date," + ",".join(pm.assets)
    cells = lines[3].split(",")
    assert cells[0] == result.dates[2].isoformat()
    np.testing.assert_array_equal(
        np.array([float(c) for c in cells[1:]]), result.weights[2])


def test_backtest_deterministic_byte_identical(data_csv, ml_config, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code = run_cli("backtest", "--data", data_csv, "--strategy", "mlp",
                       "--config", ml_config, "--seed", "10", "--out", out)
        assert code == 0
    for name in ("weights.csv", "returns.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_flag_overrides_config_file(data_csv, tmp_path):
    conf = tmp_path / "c.conf"
    conf.write_text("fee_rate = 0.001\nseed = 5\n")
    out = tmp_path / "out"
    run_cli("backtest", "--data", data_csv, "--strategy", "ucrp",
            "--config", conf, "--fee", "0.002", "--out", out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["fee_rate"] == 0.002  # flag wins
    assert manifest["config"]["seed"] == 5          # file survives


def test_exit_codes(data_csv, tmp_path, capsys):
    assert run_cli("backtest", "--data", data_csv, "--strategy", "nope",
                   "--out", tmp_path / "x") == 2
    assert "unknown strategy" in capsys.readouterr().err
    assert run_cli("backtest", "--data", tmp_path / "missing.csv",
                   "--strategy", "eg", "--out", tmp_path / "x") == 1
    assert run_cli("backtest", "--data", data_csv, "--strategy", "eg",
                   "--fee", "abc", "--out", tmp_path / "x") == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("date,X\n2024-01-01,-5\n")
    assert run_cli("validate", "--data", bad) == 1
    assert "non-positive" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run_cli("backtest")  # argparse handles missing --data
    assert exc.value.code == 2


def test_over_long_cell_exits_1_with_one_error_line(tmp_path, capsys):
    # csv refuses a field over csv.field_size_limit(); its csv.Error, not a
    # ValueError, used to end the command in a traceback
    data = tmp_path / "big.csv"
    data.write_text('date,A\n2024-01-01,"1.' + "0" * 140_000 + '"\n')
    assert run_cli("validate", "--data", data) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {data}: line 2: field larger than field limit "
        f"({csv.field_size_limit()})"]


@pytest.mark.skipif(io.TextIOWrapper(io.BytesIO()).encoding.lower()
                    not in ("utf-8", "utf8"),
                    reason="byte 0xff decodes in this locale's encoding")
def test_undecodable_byte_names_the_file_and_line(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_bytes(b"date,A,B\n2024-01-01,1,2\n2024-01-02,1,\xff\n")
    assert run_cli("validate", "--data", data) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {data}: line 3: 'utf-8' codec can't decode byte 0xff in "
        f"position 13: invalid start byte"]


# every config field with a run flag: (its flag, a valid value other than its
# default, a rejected value); the dates lie inside data_csv's
FLAG_CASES = {
    "lookback": ("--lookback", "30", "0"),
    "refit_interval": ("--refit", "3", "0"),
    "decay_alpha": ("--decay-alpha", "0.5", "1"),
    "decay_len": ("--decay-len", "2", "-1"),
    "fee_rate": ("--fee", "0.001", "0.5"),
    "rank_power": ("--rank-power", "return", "0"),
    "seed": ("--seed", "3", "-1"),
    "feature_window": ("--feature-window", "5", "1"),
    "start": ("--start", "2023-01-11", "2023-02-30"),
    "end": ("--end", "2023-03-01", "x"),
    "benchmark": ("--benchmark", "eg", "nope"),
}


@pytest.mark.parametrize(
    "config_field", [f for f in fields(BacktestConfig) if "flag" in f.metadata],
    ids=lambda f: f.name)
def test_flag_and_config_key_agree(data_csv, tmp_path, config_field):
    assert set(FLAG_CASES) == {f.name for f in fields(BacktestConfig)
                               if "flag" in f.metadata}
    name = config_field.name
    flag, good, bad = FLAG_CASES[name]
    assert config_field.metadata["flag"] == flag
    conf = tmp_path / "c.conf"
    conf.write_text(f"{name} = {good}\n")
    for command in ("backtest", "compare", "sweep-fees", "plotdata"):
        by_flag, by_file = (
            getattr(build_config(build_parser().parse_args(
                [command, "--data", str(data_csv), *route])), name)
            for route in ([flag, good], ["--config", str(conf)]))
        assert by_flag == by_file != config_field.default, command
    # a bad value exits 2 through both routes, before any output
    conf.write_text(f"{name} = {bad}\n")
    out = tmp_path / "o"
    for route in ([flag, bad], ["--config", conf]):
        assert run_cli("backtest", "--data", data_csv, "--strategy", "ucrp",
                       *route, "--out", out) == 2, route
    assert not out.exists()


@pytest.mark.parametrize("command, strategy_flags", [
    ("backtest", ["--strategy", "up"]),
    ("backtest", ["--strategy", "mlp"]),
    ("compare", ["--strategies", "up,mlp"]),
    ("sweep-fees", ["--strategy", "up"]),
    ("plotdata", ["--strategy", "mlp"]),
])
def test_negative_seed_exits_2_before_any_output(data_csv, tmp_path, capsys,
                                                 command, strategy_flags):
    # the seed used to pass the config and fail mid-run, exit 1
    out = tmp_path / "o"
    assert run_cli(command, "--data", data_csv, *strategy_flags,
                   "--seed", "-1", "--out", out) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_end_before_start_exits_2_before_any_output(tmp_path, capsys):
    # it used to pass the config and exit 1 as an empty trading window
    data = tmp_path / "prices.csv"
    write_csv(make_prices(30, 2, seed=5), data)
    conf = tmp_path / "c.conf"
    conf.write_text("start = 2023-01-20\nend = 2023-01-10\n")
    out = tmp_path / "o"
    for route in (["--start", "2023-01-20", "--end", "2023-01-10"],
                  ["--config", conf]):
        assert run_cli("backtest", "--data", data, "--strategy", "ucrp",
                       *route, "--out", out) == 2, route
        assert ("end 2023-01-10 is before start 2023-01-20"
                in capsys.readouterr().err)
    assert not out.exists()
    # a start on the last date is a valid config with no day to trade
    assert run_cli("backtest", "--data", data, "--strategy", "ucrp",
                   "--start", "2023-01-30", "--out", out) == 1
    assert "empty trading window (days 30..29 of 30)" in capsys.readouterr().err


def test_learner_longer_than_the_data_exits_1_with_one_error_line(tmp_path,
                                                                 capsys):
    # mlp's first day, lookback + feature_window + 1 = 101, lies past a
    # 50-day file; no start is given, so no date is looked up
    data = tmp_path / "prices.csv"
    write_csv(make_prices(50, 2, seed=5), data)
    out = tmp_path / "o"
    assert run_cli("backtest", "--data", data, "--strategy", "mlp",
                   "--out", out) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: empty trading window (days 101..49 of 50)"]
    assert not out.exists()


def test_removed_annualization_key_exits_2(data_csv, tmp_path, capsys):
    # annualized return is always days_per_year * mean; the key is gone
    conf = tmp_path / "c.conf"
    conf.write_text("annualization = mean\n")
    out = tmp_path / "x"
    assert run_cli("backtest", "--data", data_csv, "--strategy", "eg",
                   "--config", conf, "--out", out) == 2
    assert "unknown config key 'annualization'" in capsys.readouterr().err
    assert not out.exists()


def test_start_end_flags(data_csv, tmp_path):
    pm = load_csv(data_csv)
    out = tmp_path / "out"
    run_cli("backtest", "--data", data_csv, "--strategy", "ucrp", "--out", out,
            "--start", pm.dates[10].isoformat(),
            "--end", pm.dates[30].isoformat())
    lines = (out / "returns.csv").read_text().splitlines()
    assert lines[1].split(",")[0] == pm.dates[10].isoformat()
    assert lines[-1].split(",")[0] == pm.dates[30].isoformat()


# --- compare -------------------------------------------------------------------------

def test_compare_alignment_and_sorting(data_csv, ml_config, tmp_path, capsys):
    out = tmp_path / "cmp"
    code = run_cli("compare", "--data", data_csv, "--config", ml_config,
                   "--strategies", "ucrp,knn,bah", "--out", out)
    assert code == 0
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0] == HEADER
    labels = [line.split(",")[0] for line in lines[1:]]
    assert labels == ["bah", "knn", "ucrp"]

    # every row trades the same ML-feasible window
    starts = set()
    for label in labels:
        rfile = out / f"returns_{label}.csv"
        assert rfile.exists()
        starts.add(rfile.read_text().splitlines()[1].split(",")[0])
    assert len(starts) == 1
    pm = load_csv(data_csv)
    assert starts.pop() == pm.dates[30].isoformat()  # lookback+window+1 = 31

    # benchmark row (ucrp vs itself) has a blank information ratio
    ucrp_row = lines[1 + labels.index("ucrp")].split(",")
    assert ucrp_row[1 + CSV_COLUMNS.index("information_ratio")] == ""
    table = capsys.readouterr().out
    assert "ucrp" in table and "knn" in table


def test_compare_all_token(data_csv, tmp_path):
    out = tmp_path / "cmp"
    assert run_cli("compare", "--data", data_csv, "--strategies", "all",
                   "--out", out) == 0
    lines = (out / "compare.csv").read_text().splitlines()
    assert len(lines) == 13  # header + 12 classics
    assert [l.split(",")[0] for l in lines[1:]] == sorted(
        l.split(",")[0] for l in lines[1:])


def test_compare_reads_each_id_once(data_csv, ml_config, tmp_path):
    # spaces inside an id do not make another id: one row, one file
    out = tmp_path / "cmp"
    assert run_cli("compare", "--data", data_csv, "--config", ml_config,
                   "--strategies", "knn:2,knn: 2,knn : 2", "--out", out) == 0
    lines = (out / "compare.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["knn:2"]
    assert sorted(p.name for p in out.glob("returns_*")) == ["returns_knn_2.csv"]


@pytest.mark.parametrize("command, typed, spelled", [
    ("backtest", "KNN : 2", "knn:2"),
    ("sweep-fees", "KNN : 2", "knn:2"),
    ("plotdata", "KNN : 2", "knn:2"),
    ("backtest", "k nn", "knn"),  # compare --strategies "k nn" runs knn too
])
def test_every_runner_spells_an_id_as_compare_does(data_csv, ml_config,
                                                   tmp_path, command, typed,
                                                   spelled):
    # manifests and metrics rows name a strategy without white space, in
    # lower case, whichever command ran it
    out = tmp_path / "out"
    assert run_cli(command, "--data", data_csv, "--config", ml_config,
                   "--strategy", typed, "--out", out) == 0
    assert json.loads((out / "manifest.json").read_text())["strategy"] == spelled
    if command == "backtest":
        rows = (out / "metrics.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [spelled]


@pytest.mark.parametrize("command, strategy, bench_id", [
    ("backtest", "ucrp", "k nn"),  # used to exit 2: unknown strategy 'k nn'
    ("plotdata", "U CRP", " UCRP "),  # used to write "benchmark": "UCRP"
])
def test_benchmark_is_spelled_as_strategy_ids_are(data_csv, ml_config,
                                                  tmp_path, command, strategy,
                                                  bench_id):
    out = tmp_path / "out"
    assert run_cli(command, "--data", data_csv, "--config", ml_config,
                   "--strategy", strategy, "--benchmark", bench_id,
                   "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    spelled = "".join(bench_id.split()).lower()
    assert manifest["config"]["benchmark"] == spelled
    assert manifest["strategy"] == "ucrp"
    if command == "plotdata":
        assert manifest["benchmark"] == spelled


def test_compare_unknown_strategy(data_csv, tmp_path):
    assert run_cli("compare", "--data", data_csv, "--strategies", "ucrp,zzz",
                   "--out", tmp_path / "x") == 2


@pytest.mark.parametrize("command",
                         ["compare", "backtest", "plotdata", "sweep-fees"])
def test_compare_window_starts_on_the_benchmark_first_day(data_csv, ml_config,
                                                          tmp_path, command):
    # classic strategies alone would start on day 1; a learner benchmark pins
    # every runner command's window to its first day,
    # lookback + feature_window + 1 = 31
    def run(command, flag, ids, out):
        return run_cli(command, "--data", data_csv, "--config", ml_config,
                       flag, ids, "--benchmark", "knn", "--out", out)

    out = tmp_path / "out"
    if command == "compare":
        assert run(command, "--strategies", "ucrp,bah", out) == 0
    else:
        assert run(command, "--strategy", "ucrp", out) == 0
    pm = load_csv(data_csv)
    if command == "sweep-fees":
        # the same window as backtest, so the fee-0 row is its metrics row
        assert run("backtest", "--strategy", "ucrp", tmp_path / "bt") == 0
        sweep_row = (out / "sweep_raw.csv").read_text().splitlines()[1]
        bt_row = (tmp_path / "bt" / "metrics_raw.csv").read_text().splitlines()[1]
        assert sweep_row.split(",")[0] == "0.0"
        assert sweep_row.split(",")[1:] == bt_row.split(",")[1:]
        return
    series = {"compare": ["returns_bah.csv", "returns_ucrp.csv"],
              "backtest": ["returns.csv"],
              "plotdata": ["plot_wealth.csv"]}[command]
    for name in series:
        lines = (out / name).read_text().splitlines()
        assert lines[1].split(",")[0] == pm.dates[30].isoformat()
        assert lines[-1].split(",")[0] == pm.dates[-2].isoformat()
    if command == "compare":
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["first_date"] == pm.dates[30].isoformat()


def test_too_early_start_names_the_shared_first_day(data_csv, ml_config,
                                                   tmp_path, capsys):
    # ucrp alone could start on day 5; the knn benchmark's first day binds
    pm = load_csv(data_csv)
    assert run_cli("backtest", "--data", data_csv, "--config", ml_config,
                   "--strategy", "ucrp", "--benchmark", "knn",
                   "--start", pm.dates[4].isoformat(),
                   "--out", tmp_path / "out") == 1
    assert ("trading start day 5 is before day 31, the first day that every "
            "strategy and the benchmark of the run can trade"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_rank_power_flag_takes_what_the_config_takes(data_csv, ml_config,
                                                     tmp_path, capsys):
    # the flag has no bound of its own: BacktestConfig judges the power
    conf = tmp_path / "power.conf"
    conf.write_text(ml_config.read_text() + "rank_power = 5\n")
    by_flag, by_file, bad = tmp_path / "flag", tmp_path / "file", tmp_path / "bad"
    assert run_cli("backtest", "--data", data_csv, "--config", ml_config,
                   "--strategy", "knn", "--rank-power", "5",
                   "--out", by_flag) == 0
    assert run_cli("backtest", "--data", data_csv, "--config", conf,
                   "--strategy", "knn", "--out", by_file) == 0
    assert ((by_flag / "weights.csv").read_bytes()
            == (by_file / "weights.csv").read_bytes())
    assert run_cli("backtest", "--data", data_csv, "--config", ml_config,
                   "--strategy", "knn", "--rank-power", "0", "--out", bad) == 2
    assert ("rank_power must be an integer >= 1 or 'return'"
            in capsys.readouterr().err)
    assert not bad.exists()


@pytest.mark.parametrize("flag, key, value", [
    ("--lookback", "lookback", "20.5"),
    ("--seed", "seed", "1.0"),
    ("--rank-power", "rank_power", "1.5"),
])
def test_non_integer_setting_exits_2(data_csv, tmp_path, capsys, flag, key,
                                     value):
    # the flag and the config key both reject it before any output
    conf = tmp_path / "c.conf"
    conf.write_text(f"{key} = {value}\n")
    for route in ([flag, value], ["--config", conf]):
        out = tmp_path / "o"
        assert run_cli("backtest", "--data", data_csv, "--strategy", "knn",
                       *route, "--out", out) == 2
        assert value in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command, flag, strategy_id", [
    ("backtest", "--strategy", "mlp:0"),
    ("sweep-fees", "--strategy", "knn:x"),
    ("compare", "--strategies", "ucrp,knn:-2"),
])
def test_bad_rank_power_suffix_exits_2_before_the_run(
        data_csv, ml_config, tmp_path, capsys, monkeypatch, command, flag,
        strategy_id):
    # the suffix is checked with the ids, before any strategy runs
    def no_run(*args, **kwargs):
        raise AssertionError("run_backtest called before the suffix check")

    monkeypatch.setattr("rankfolio.cli.run_backtest", no_run)
    out = tmp_path / "o"
    assert run_cli(command, "--data", data_csv, "--config", ml_config,
                   flag, strategy_id, "--out", out) == 2
    bad_id = strategy_id.split(",")[-1]
    assert f"bad rank power in '{bad_id}'" in capsys.readouterr().err
    assert not out.exists()


# --- sweep-fees ------------------------------------------------------------------------

def test_sweep_fees_rows_and_monotonic_return(data_csv, tmp_path):
    out = tmp_path / "sweep"
    code = run_cli("sweep-fees", "--data", data_csv, "--strategy", "pamr",
                   "--fees", "0,0.0005,0.001", "--out", out)
    assert code == 0
    lines = (out / "sweep_raw.csv").read_text().splitlines()
    assert lines[0] == "fee," + ",".join(CSV_COLUMNS)
    fees = [float(line.split(",")[0]) for line in lines[1:]]
    assert fees == [0.0, 0.0005, 0.001]
    ar_col = 1 + CSV_COLUMNS.index("annualized_return_pct")
    ars = [float(line.split(",")[ar_col]) for line in lines[1:]]
    assert ars[0] > ars[1] > ars[2]


def test_sweep_fee_zero_matches_backtest_metrics(data_csv, tmp_path):
    out_s = tmp_path / "sweep"
    out_b = tmp_path / "bt"
    run_cli("sweep-fees", "--data", data_csv, "--strategy", "eg",
            "--fees", "0", "--out", out_s)
    run_cli("backtest", "--data", data_csv, "--strategy", "eg",
            "--out", out_b)
    sweep_row = (out_s / "sweep_raw.csv").read_text().splitlines()[1]
    bt_row = (out_b / "metrics_raw.csv").read_text().splitlines()[1]
    assert sweep_row.split(",")[1:] == bt_row.split(",")[1:]


def test_sweep_fees_list_starting_with_minus_is_passed_with_equals(data_csv,
                                                                    tmp_path):
    # argparse takes "-0,0.001" after a space for a flag; --fees=LIST
    # passes it, and -0 is the zero fee
    def sweep(fees, name):
        out = tmp_path / name
        assert run_cli("sweep-fees", "--data", data_csv, "--strategy", "eg",
                       f"--fees={fees}", "--out", out) == 0
        return [(out / f).read_bytes() for f in ("sweep.csv", "sweep_raw.csv")]

    assert sweep("-0,0.001", "minus") == sweep("0,0.001", "plus")


def test_sweep_default_grid(data_csv, tmp_path):
    out = tmp_path / "sweep"
    run_cli("sweep-fees", "--data", data_csv, "--strategy", "ucrp",
            "--out", out)
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 8  # header + 7 grid fees


def test_sweep_bad_fees(data_csv, tmp_path):
    assert run_cli("sweep-fees", "--data", data_csv, "--strategy", "eg",
                   "--fees", "-0.1", "--out", tmp_path / "x") == 2
    assert run_cli("sweep-fees", "--data", data_csv, "--strategy", "eg",
                   "--fees", ",", "--out", tmp_path / "x") == 2


@pytest.mark.parametrize("fee", ["nan", "0.5", "2"])
def test_fee_bound_exits_2(data_csv, tmp_path, capsys, fee):
    assert run_cli("backtest", "--data", data_csv, "--strategy", "ucrp",
                   "--fee", fee, "--out", tmp_path / "b") == 2
    assert "fee rate must be in [0, 0.5)" in capsys.readouterr().err
    conf = tmp_path / "fee.cfg"
    conf.write_text(f"fee_rate = {fee}\n")
    assert run_cli("compare", "--data", data_csv, "--strategies", "ucrp",
                   "--config", conf, "--out", tmp_path / "c") == 2
    assert run_cli("sweep-fees", "--data", data_csv, "--strategy", "ucrp",
                   "--fees", f"0,{fee}", "--out", tmp_path / "s") == 2
    assert "fee rate must be in [0, 0.5)" in capsys.readouterr().err
    assert not (tmp_path / "s" / "sweep.csv").exists()


@pytest.mark.parametrize("line, message", [
    ("mlp_batch_size = -1", "mlp_batch_size must be >= 0"),
    ("mlp_epochs = 0", "mlp_epochs must be >= 1"),
    ("mlp_hidden = 0", "mlp_hidden layer sizes must be >= 1"),
    ("mlp_learning_rate = nan", "mlp_learning_rate must be finite and > 0"),
    ("mlp_learning_rate = -1", "mlp_learning_rate must be finite and > 0"),
    ("knn_k = 0", "knn_k must be in 1..lookback (80)"),
    ("trend_feature = x", "trend_feature must be 'price' or 'return'"),
])
def test_bad_learner_setting_exits_2(data_csv, tmp_path, capsys, line, message):
    conf = tmp_path / "learner.cfg"
    conf.write_text(line + "\n")
    for strategy in ("mlp", "knn"):
        assert run_cli("backtest", "--data", data_csv, "--strategy", strategy,
                       "--config", conf, "--out", tmp_path / "b") == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("line, flags", [
    ("knn_k = 500", []),
    ("", ["--lookback", "10"]),  # below the default knn_k of 15
], ids=["knn_k=500", "lookback=10"])
def test_knn_k_above_lookback_exits_2_only_for_knn(data_csv, tmp_path, capsys,
                                                   line, flags):
    conf = tmp_path / "knn.cfg"
    conf.write_text(line + "\n")
    args = ["--data", data_csv, "--config", conf, *flags]
    assert run_cli("backtest", *args, "--strategy", "knn",
                   "--out", tmp_path / "k") == 2
    assert run_cli("compare", *args, "--strategies", "ucrp,knn",
                   "--out", tmp_path / "k") == 2
    err = capsys.readouterr().err
    assert err.count("knn_k must be in 1..lookback") == 2
    assert not (tmp_path / "k").exists()
    assert run_cli("backtest", *args, "--strategy", "ucrp",
                   "--out", tmp_path / "u") == 0
    assert (tmp_path / "u" / "returns.csv").exists()


@pytest.mark.parametrize("line, message", [
    ("olmar_window = 0", "olmar_window must be >= 1"),
    ("corn_rho = 2", "corn_rho must be in [-1, 1]"),
    ("up_samples = 0", "up_samples must be >= 1"),
    ("eg_eta = nan", "eg_eta must be >= 0"),
    ("anticor_window = 1", "anticor_window must be >= 2"),
    ("cwmr_confidence = 0.2", "cwmr_confidence must be in [0.5, 1)"),
    ("olmar_eps = nan", "olmar_eps must be finite"),
    ("pamr_eps = inf", "pamr_eps must be finite"),
    ("rmr_eps = nan", "rmr_eps must be finite"),
    ("cwmr_eps = nan", "cwmr_eps must be finite"),
    ("eg_eta = inf", "eg_eta must be >= 0 and finite"),
])
def test_bad_classic_setting_exits_2(data_csv, tmp_path, capsys, line, message):
    # compare used to warn, skip the row and exit 0
    conf = tmp_path / "classic.cfg"
    conf.write_text(line + "\n")
    assert run_cli("compare", "--data", data_csv, "--strategies", "all",
                   "--config", conf, "--out", tmp_path / "c") == 2
    assert message in capsys.readouterr().err
    assert run_cli("backtest", "--data", data_csv, "--strategy", "ucrp",
                   "--config", conf, "--out", tmp_path / "b") == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "c").exists()
    assert not (tmp_path / "b").exists()


def test_compare_failing_strategy_fails_the_command(data_csv, ml_config,
                                                    tmp_path, capsys):
    # a learning rate this large passes config validation, but training
    # diverges; compare used to warn, drop the row and exit 0
    conf = tmp_path / "diverge.conf"
    conf.write_text(ml_config.read_text() + "mlp_learning_rate = 1e150\n")
    with np.errstate(over="ignore", invalid="ignore"):
        code = run_cli("compare", "--data", data_csv, "--strategies",
                       "mlp,ucrp", "--config", conf, "--out", tmp_path / "c")
    assert code == 1
    err = capsys.readouterr().err
    assert "error: training diverged at epoch" in err
    assert "skipping" not in err
    # every row runs before the output directory is made
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("command, fee_flags", [
    ("backtest", ["--fee", "0.45"]),
    ("sweep-fees", ["--fees", "0.001,0.45"]),
])
def test_run_that_loses_all_wealth_exits_1_before_any_output(
        tmp_path, capsys, command, fee_flags):
    ruin_csv = tmp_path / "ruin.csv"
    write_csv(RUIN, ruin_csv)
    assert run_cli(command, "--data", ruin_csv, "--strategy", "ucrp",
                   *fee_flags, "--out", tmp_path / "o") == 1
    assert "net return <= -100% on day 1 " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("failing", [1, 2, 3, 4, 5])
def test_failed_write_leaves_the_earlier_run_intact(data_csv, tmp_path,
                                                    monkeypatch, failing):
    # backtest writes 5 files, manifest.json last; the failing-th write
    # stops half way, as on a full disk
    def files(out):
        return {path.name: path.read_bytes() for path in out.iterdir()}

    out = tmp_path / "out"
    assert run_cli("backtest", "--data", data_csv, "--strategy", "eg",
                   "--out", out) == 0
    earlier = files(out)
    assert run_cli("backtest", "--data", data_csv, "--strategy", "olmar",
                   "--out", tmp_path / "ref") == 0
    later = files(tmp_path / "ref")
    written = []
    write_text = Path.write_text

    def fail_one_write(path, text, *args, **kwargs):
        written.append(path.name)
        if len(written) == failing:
            write_text(path, text[:len(text) // 2], *args, **kwargs)
            raise OSError("no space left on device")
        return write_text(path, text, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", fail_one_write)
    assert run_cli("backtest", "--data", data_csv, "--strategy", "olmar",
                   "--out", out) == 1
    monkeypatch.undo()
    assert len(written) == failing
    # temporary files are named .<target>.<pid>.tmp
    replaced = {name[1:].rsplit(".", 2)[0] for name in written[:-1]}
    got = files(out)
    # no temporary file is left, and no manifest: the earlier run's went
    # before the first write
    assert sorted(got) == sorted(set(earlier) - {"manifest.json"})
    for name, content in got.items():
        assert content == (later[name] if name in replaced else earlier[name])
    assert "manifest.json" not in replaced


@pytest.mark.parametrize("command, args", [
    ("backtest", ("--strategy", "eg")),
    ("compare", ("--strategies", "eg,olmar")),
    ("sweep-fees", ("--strategy", "eg")),
    ("plotdata", ("--strategy", "eg")),
])
def test_failed_second_write_leaves_no_manifest(data_csv, tmp_path,
                                                monkeypatch, command, args):
    out = tmp_path / "out"
    assert run_cli(command, "--data", data_csv, *args, "--out", out) == 0
    assert (out / "manifest.json").exists()
    written = []
    write_text = Path.write_text

    def fail_second_write(path, text, *args, **kwargs):
        written.append(path.name)
        if len(written) == 2:
            raise OSError("no space left on device")
        return write_text(path, text, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", fail_second_write)
    assert run_cli(command, "--data", data_csv, *args, "--out", out) == 1
    assert len(written) == 2
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command", ["backtest", "plotdata", "sweep-fees"])
@pytest.mark.parametrize("bench_id", ["nope", "knn"])
def test_bad_benchmark_exits_2_before_the_run(data_csv, tmp_path, capsys,
                                               monkeypatch, command, bench_id):
    # knn cannot be built with the default knn_k of 15 above lookback 10
    def no_run(*args, **kwargs):
        raise AssertionError("run_backtest called before the benchmark check")

    monkeypatch.setattr("rankfolio.cli.run_backtest", no_run)
    assert run_cli(command, "--data", data_csv, "--strategy", "rmr",
                   "--lookback", "10", "--benchmark", bench_id,
                   "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert ("unknown strategy 'nope'" in err if bench_id == "nope"
            else "knn_k must be in 1..lookback" in err)
    assert not (tmp_path / "o").exists()


def test_flat_prices_report_blank_sharpe(tmp_path):
    # prices that never move have zero volatility, so Sharpe is undefined
    flat_csv = tmp_path / "flat.csv"
    walk = make_prices(40, 3, seed=1)
    write_csv(replace(walk, prices=np.tile([100.0, 20.0, 3.5], (40, 1))), flat_csv)
    sharpe = 1 + CSV_COLUMNS.index("sharpe")
    assert run_cli("backtest", "--data", flat_csv, "--strategy", "ucrp",
                   "--out", tmp_path / "b") == 0
    assert run_cli("compare", "--data", flat_csv, "--strategies", "all",
                   "--out", tmp_path / "c") == 0
    for table in (tmp_path / "b" / "metrics.csv", tmp_path / "b" / "metrics_raw.csv",
                  tmp_path / "c" / "compare.csv", tmp_path / "c" / "compare_raw.csv"):
        rows = [line.split(",") for line in table.read_text().splitlines()[1:]]
        assert rows
        assert all(row[sharpe] == "" for row in rows)
    compared = (tmp_path / "c" / "compare.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in compared] == sorted(CLASSIC_NAMES)


def write_price_rows(path, prices):
    """A CSV of ``prices`` written with repr, so that extreme magnitudes keep
    every digit."""
    start = date(2024, 1, 1)
    path.write_text(
        "date," + ",".join(f"A{j}" for j in range(prices.shape[1])) + "\n"
        + "".join(f"{(start + timedelta(days=i)).isoformat()},"
                  + ",".join(map(repr, row.tolist())) + "\n"
                  for i, row in enumerate(prices)))


def run_cli_process(*argv):
    """The CLI in a fresh interpreter, so an uncaught exception shows as a
    traceback on stderr rather than in the test."""
    src = str(Path(rankfolio.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-m", "rankfolio",
                           *(str(a) for a in argv)],
                          capture_output=True, text=True, env=env, check=False)


def near_one(i):
    return 1.0 + 0.01 * math.sin(i)


@pytest.mark.parametrize("days, price_a, price_b, argv, message", [
    # price ratios overflow to inf, so OLMAR's step is not finite; OLMAR is
    # its own benchmark, as UCRP's wealth would overflow on day 1 first
    (30, lambda i: 1e-300 if i % 2 == 0 else 1e300, near_one,
     ["sweep-fees", "--strategy", "olmar", "--benchmark", "olmar"],
     "error: strategy 'olmar' gave non-finite weights on 2024-01-07"),
    # the L1 median's squared distances overflow, so RMR's target is NaN
    (30, lambda i: 1e-300 * near_one(i),
     lambda i: 1e300 * (1.0 + 0.01 * math.cos(i)),
     ["compare", "--strategies", "rmr"],
     "error: strategy 'rmr' gave non-finite weights on 2024-01-05"),
    # asset A grows 1000x a day, so a run that holds it overflows its wealth
    (160, lambda i: float(f"1e{3 * i - 300}"), near_one,
     ["backtest", "--strategy", "knn", "--lookback", "20",
      "--feature-window", "5"],
     "error: strategy 'ucrp' (the benchmark): "
     "wealth is not finite on day 115 of the run"),
    # the UCRP benchmark runs first, and its wealth overflows on day 1
    (30, lambda i: 1e-300 if i % 2 == 0 else 1e300, near_one,
     ["sweep-fees", "--strategy", "olmar"],
     "error: strategy 'ucrp' (the benchmark): "
     "wealth is not finite on day 1 of the run"),
    # PAMR's step takes the same overflowing ratios
    (30, lambda i: 1e-300 if i % 2 == 0 else 1e300, near_one,
     ["sweep-fees", "--strategy", "pamr", "--benchmark", "pamr"],
     "error: strategy 'pamr' gave non-finite weights on 2024-01-02"),
], ids=["olmar-alternating", "rmr-far-apart", "knn-growth",
        "olmar-ucrp-benchmark", "pamr-alternating"])
def test_extreme_prices_exit_1_with_one_error_line(tmp_path, days, price_a,
                                                   price_b, argv, message):
    data = tmp_path / "prices.csv"
    write_price_rows(data, np.array([[price_a(i), price_b(i)]
                                     for i in range(days)]))
    out = tmp_path / "o"
    done = run_cli_process(*argv, "--data", data, "--out", out)
    assert done.returncode == 1
    assert done.stderr.splitlines() == [message]  # no warning, no traceback
    assert not out.exists()  # nothing written, manifest.json included


@st.composite
def degenerate_prices(draw):
    """A 2-40 day by 1-4 asset price matrix from one degenerate family."""
    family = draw(st.sampled_from(
        ["flat", "constant ratio", "one asset", "two days", "extreme scales",
         "alternating", "crash", "random walk"]))
    days = 2 if family == "two days" else draw(st.integers(2, 40))
    assets = 1 if family == "one asset" else draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    start = rng.uniform(0.5, 200.0, assets)
    prices = start * np.cumprod(
        np.vstack([np.ones(assets),
                   1.0 + rng.normal(0.0, 0.05, (days - 1, assets))]), axis=0)
    column = draw(st.integers(0, assets - 1))
    if family == "flat":
        prices = np.tile(start, (days, 1))
    elif family == "constant ratio":
        ratio = draw(st.floats(0.5, 2.0))
        prices = start * ratio ** np.arange(days)[:, None]
    elif family == "extreme scales":
        prices *= np.where(np.arange(assets) % 2 == 0, 1e-302, 1e298)
    elif family == "alternating":
        prices[:, column] = np.where(np.arange(days) % 2 == 0, 1e-300, 1e300)
    elif family == "crash":
        prices[draw(st.integers(1, days - 1)):, column] = 1e-12
    return prices


@given(degenerate_prices())
@settings(max_examples=60, deadline=None)
def test_property_runners_on_degenerate_prices_end_cleanly(prices):
    # every runner, on the default config, either writes finite per-day
    # series or fails with one error line and no manifest; a traceback
    # would raise out of main
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "prices.csv"
        write_price_rows(data, prices)
        for i, argv in enumerate([("compare", "--strategies", "all"),
                                  ("sweep-fees", "--strategy", "olmar"),
                                  ("plotdata", "--strategy", "up"),
                                  ("backtest", "--strategy", "bnn")]):
            out = Path(tmp) / f"out{i}"
            stderr = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stderr(stderr):
                warnings.simplefilter("always")
                code = run_cli(*argv, "--data", data, "--out", out)
            assert code in (0, 1), argv
            if code == 1:
                lines = stderr.getvalue().splitlines() + [
                    str(w.message) for w in caught]
                assert len(lines) == 1 and lines[0].startswith("error: "), argv
                assert not (out / "manifest.json").exists(), argv
                continue
            for table in out.glob("*.csv"):
                header, *rows = table.read_text().splitlines()
                if not header.startswith("date,"):
                    continue
                for row in rows:
                    cells = [float(cell) for cell in row.split(",")[1:]]
                    assert all(map(math.isfinite, cells)), (argv, table.name)


def test_out_of_memory_exits_1_with_one_error_line(data_csv, tmp_path, capsys,
                                                   monkeypatch):
    # a huge up_samples runs out of memory inside the run; no real memory
    # is allocated here
    def no_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr("rankfolio.cli.run_backtest", no_memory)
    assert run_cli("backtest", "--data", data_csv, "--strategy", "up",
                   "--out", tmp_path / "o") == 1
    assert capsys.readouterr().err.splitlines() == ["error: out of memory: "]


# --- plotdata ----------------------------------------------------------------------------

def test_plotdata_series(data_csv, tmp_path):
    out = tmp_path / "plot"
    code = run_cli("plotdata", "--data", data_csv, "--strategy", "eg",
                   "--out", out)
    assert code == 0
    pm = load_csv(data_csv)

    prices_lines = (out / "plot_prices.csv").read_text().splitlines()
    assert prices_lines[0] == "date," + ",".join(pm.assets)
    assert len(prices_lines) - 1 == pm.num_days
    first = [float(c) for c in prices_lines[1].split(",")[1:]]
    assert first == [1.0, 1.0, 1.0]

    wealth_lines = (out / "plot_wealth.csv").read_text().splitlines()
    assert wealth_lines[0] == ("date,strategy_wealth,benchmark_wealth,"
                               "cumulative_excess")
    result = run_backtest(pm, "eg", BacktestConfig())
    assert len(wealth_lines) - 1 == result.num_days
    assert float(wealth_lines[-1].split(",")[1]) == result.wealth[-1]


def test_plotdata_self_benchmark_zero_excess(data_csv, tmp_path):
    out = tmp_path / "plot"
    run_cli("plotdata", "--data", data_csv, "--strategy", "ucrp",
            "--benchmark", "ucrp", "--out", out)
    for line in (out / "plot_wealth.csv").read_text().splitlines()[1:]:
        assert float(line.split(",")[3]) == 0.0


# --- validate and fetch -----------------------------------------------------------------

def test_validate_prints_stats(data_csv, capsys):
    assert run_cli("validate", "--data", data_csv) == 0
    shown = capsys.readouterr().out
    assert "OK: 90 days x 3 assets" in shown
    assert "mean" in shown and "std" in shown and "50%" in shown


def test_validate_one_day_exits_1(tmp_path, capsys):
    one_day = tmp_path / "one.csv"
    one_day.write_text("date,A,B\n2024-01-01,1.0,2.0\n")
    assert run_cli("validate", "--data", one_day) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: need at least 2 days of prices"]
    assert captured.out == ""


def test_fetch_command(tmp_path, monkeypatch):
    server = HTTPServer(("127.0.0.1", 0), ApiHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        ApiHandler.routes = {
            "/coins/testcoin/market_chart/range": [(200, {"prices": [
                [ts_ms(2024, 1, 1), 10.0], [ts_ms(2024, 1, 2), 11.0]]})],
            "/coins/other/market_chart/range": [(200, {"prices": [
                [ts_ms(2024, 1, 1), 5.0]]})],
        }
        ApiHandler.calls = []
        monkeypatch.setenv(BASE_URL_ENV,
                           f"http://127.0.0.1:{server.server_port}")
        out = tmp_path / "fetched"
        code = run_cli("fetch", "--assets", "testcoin:TST,other",
                       "--start", "2024-01-01", "--end", "2024-01-02",
                       "--out", out, "--delay-ms", "0")
        assert code == 0
        tst = load_csv(out / "TST.csv")
        assert tst.assets == ("TST",)
        assert tst.num_days == 2
        assert load_csv(out / "other.csv").assets == ("other",)
    finally:
        server.shutdown()
        server.server_close()


def test_fetch_bad_date(tmp_path):
    assert run_cli("fetch", "--assets", "x", "--start", "not-a-date",
                   "--end", "2024-01-02", "--out", tmp_path) == 2


@pytest.mark.parametrize("flags, message", [
    (["--delay-ms", "-5"], "delay and backoff must be non-negative"),
    (["--start", "2024-01-03"], "end date before start date"),
    (["--assets", " , "], "no assets given"),
], ids=["negative-delay", "end-before-start", "no-assets"])
def test_fetch_bad_flag_exits_2_before_the_out_dir(tmp_path, capsys,
                                                   monkeypatch, flags, message):
    def no_request(*args, **kwargs):
        raise AssertionError("fetch reached the network")

    monkeypatch.setattr("rankfolio.fetch.Fetcher._get_json", no_request)
    out = tmp_path / "fetched"
    # a repeated flag overrides the valid value before it
    assert run_cli("fetch", "--assets", "x", "--start", "2024-01-01",
                   "--end", "2024-01-02", "--out", out, *flags) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("assets, message", [
    ("bitcoin:../x", "unsafe symbol '../x'"),
    ("../x", "unsafe asset id '../x'"),
    ("bitcoin:BTC,bit/coin", "unsafe asset id 'bit/coin'"),
    ("bitcoin?vs=eur", "unsafe asset id 'bitcoin?vs=eur'"),
    ("bitcoin#x:BTC", "unsafe asset id 'bitcoin#x'"),
    ("..:BTC", "unsafe asset id '..'"),
    ("bitcoin:.hidden", "unsafe symbol '.hidden'"),
], ids=["symbol-dotdot", "id-dotdot-path", "later-id-slash", "id-query",
        "id-fragment", "id-dotdot", "symbol-hidden"])
def test_fetch_unsafe_token_exits_2_before_the_out_dir(tmp_path, capsys,
                                                      monkeypatch, assets,
                                                      message):
    # an id goes into the URL path and a symbol (or the id) into the output
    # file's name; a bad token, even after a good one, fails before any
    # request
    def no_request(*args, **kwargs):
        raise AssertionError("fetch reached the network")

    monkeypatch.setattr("rankfolio.fetch.Fetcher._get_json", no_request)
    out = tmp_path / "fetched"
    assert run_cli("fetch", "--assets", assets, "--start", "2024-01-01",
                   "--end", "2024-01-02", "--out", out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "x.csv").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
    from rankfolio import __version__
    assert __version__ in capsys.readouterr().out
