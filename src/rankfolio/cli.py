"""Command line interface.

Commands: backtest, compare, sweep-fees, plotdata, fetch, validate.
Exit codes: 0 success, 1 runtime failure (bad data, failed fetch), 2 usage
error (bad flags, bad strategy id, bad config key).

Percent-valued table columns are emitted times 100 with 2 decimals
(round-half-even, Python's float formatting); a raw full-precision CSV is
always written alongside. Every output directory gets a manifest.json with
the config echo, data file hash, software version, and timestamp.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import fields, replace
from datetime import date, datetime, timezone
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import __version__
from .data import PriceMatrix, load_csv, summary_stats
from .engine import (FEE_GRID, BacktestConfig, BacktestResult, check_fee_rate,
                     config_as_dict, make_strategy, reprice, resolve_window,
                     run_backtest)
from .metrics import CSV_COLUMNS, MetricsReport
from .strategies import CLASSIC_NAMES, Strategy


class UsageError(Exception):
    """Bad invocation: maps to exit code 2."""


# ---------------------------------------------------------------------------
# config file handling

def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_date(text: str) -> date:
    return date.fromisoformat(text.strip())


def _parse_rank_power(text: str):
    lowered = text.strip().lower()
    if lowered == "return":
        return "return"
    return int(lowered)


def _parse_hidden(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _choice(*options: str):
    def parse(text: str) -> str:
        lowered = text.strip().lower()
        if lowered not in options:
            raise ValueError(f"expected one of {options}, got {text!r}")
        return lowered
    return parse


# Config keys parse by the type of their default, except these.
CONFIG_PARSERS = {f.name: type(f.default) for f in fields(BacktestConfig)} | {
    "rank_power": _parse_rank_power,
    "start": _parse_date,
    "end": _parse_date,
    "trend_feature": _choice("price", "return"),
    "decay_classic": _parse_bool,
    "benchmark": str.strip,
    "mlp_hidden": _parse_hidden,
}


def read_config_file(path: str | Path) -> dict:
    """Flat ``key = value`` file; '#' comments allowed; unknown keys error."""
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, value = stripped.partition("=")
        key = key.strip()
        if not sep or not key:
            raise UsageError(f"{path}: line {lineno}: expected 'key = value'")
        if key not in CONFIG_PARSERS:
            raise UsageError(f"{path}: line {lineno}: unknown config key {key!r}")
        try:
            values[key] = CONFIG_PARSERS[key](value.strip())
        except ValueError as exc:
            raise UsageError(f"{path}: line {lineno}: bad value for {key}: {exc}")
    return values


# CLI flag dest -> config field for the runner commands.
FLAG_FIELDS = {
    "fee": "fee_rate",
    "lookback": "lookback",
    "refit": "refit_interval",
    "decay_alpha": "decay_alpha",
    "decay_len": "decay_len",
    "feature_window": "feature_window",
    "seed": "seed",
    "start": "start",
    "end": "end",
    "rank_power": "rank_power",
    "benchmark": "benchmark",
}


def build_config(args: argparse.Namespace) -> BacktestConfig:
    """Defaults, overlaid by the config file, overlaid by explicit flags."""
    overrides = {}
    if getattr(args, "config", None):
        overrides.update(read_config_file(args.config))
    for dest, field_name in FLAG_FIELDS.items():
        value = getattr(args, dest, None)
        if value is None:
            continue
        try:
            overrides[field_name] = CONFIG_PARSERS[field_name](value)
        except ValueError as exc:
            flag = "--" + dest.replace("_", "-")
            raise UsageError(f"bad value for {flag}: {exc}")
    try:
        return BacktestConfig(**overrides)
    except ValueError as exc:
        raise UsageError(str(exc))


# ---------------------------------------------------------------------------
# formatting and file output

def _fmt(value: float | None, pretty: bool) -> str:
    if value is None:
        return ""
    value = float(value)
    if value != value or value in (float("inf"), float("-inf")):
        return str(value)
    return f"{value:.2f}" if pretty else repr(value)


def metrics_table(rows: list[tuple[str, MetricsReport]], label_header: str,
                  pretty: bool) -> tuple[list[str], list[list[str]]]:
    header = [label_header, *CSV_COLUMNS]
    body = []
    for label, report in rows:
        values = report.csv_values()
        body.append([label] + [_fmt(values[c], pretty) for c in CSV_COLUMNS])
    return header, body


def write_csv_rows(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def render_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    def line(cells):
        return "  ".join(cell.ljust(w) if i == 0 else cell.rjust(w)
                         for i, (cell, w) in enumerate(zip(cells, widths)))
    rule = "  ".join("-" * w for w in widths)
    return "\n".join([line(header), rule, *[line(r) for r in rows]])


def write_metrics_outputs(out_dir: Path, stem: str, label_header: str,
                          rows: list[tuple[str, MetricsReport]]) -> str:
    header, pretty_rows = metrics_table(rows, label_header, pretty=True)
    _, raw_rows = metrics_table(rows, label_header, pretty=False)
    write_csv_rows(out_dir / f"{stem}.csv", header, pretty_rows)
    write_csv_rows(out_dir / f"{stem}_raw.csv", header, raw_rows)
    return render_table(header, pretty_rows)


def _raw(value: float) -> str:
    return repr(float(value))


# the series of a returns CSV, one column each
_returns_series = attrgetter("dates", "gross", "cost", "net", "wealth")


def write_returns_csv(path: Path, dates, gross, cost, net, wealth) -> None:
    header = ["date", "gross", "cost", "net", "wealth"]
    rows = [
        [d.isoformat(), _raw(g), _raw(c), _raw(n), _raw(w)]
        for d, g, c, n, w in zip(dates, gross, cost, net, wealth)
    ]
    write_csv_rows(path, header, rows)


def write_weights_csv(path: Path, result: BacktestResult) -> None:
    header = ["date", *result.assets]
    rows = [
        [d.isoformat(), *(_raw(w) for w in row)]
        for d, row in zip(result.dates, result.weights)
    ]
    write_csv_rows(path, header, rows)


def write_manifest(out_dir: Path, command: str, data_path: str,
                   config: BacktestConfig, extra: dict) -> None:
    digest = hashlib.sha256(Path(data_path).read_bytes()).hexdigest()
    manifest = {
        "tool": "rankfolio",
        "version": __version__,
        "command": command,
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "data_file": str(data_path),
        "data_sha256": digest,
        "config": config_as_dict(config),
        **extra,
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _file_label(strategy_id: str) -> str:
    return strategy_id.replace(":", "_")


def _make_strategies(config: BacktestConfig, *ids: str) -> list[Strategy]:
    """``make_strategy`` of each id, with a bad id or setting as a usage
    error, so a command fails before it runs or writes anything."""
    try:
        return [make_strategy(strategy_id, config) for strategy_id in ids]
    except ValueError as exc:
        raise UsageError(str(exc))


def _benchmark_result(matrix: PriceMatrix, config: BacktestConfig,
                      result: BacktestResult) -> BacktestResult:
    """The benchmark run on ``result``'s window; callers check
    ``config.benchmark`` with ``_make_strategies`` before the strategy runs."""
    return run_backtest(matrix, config.benchmark,
                        replace(config, start=result.dates[0],
                                end=result.dates[-1]))


# ---------------------------------------------------------------------------
# commands

def cmd_backtest(args) -> int:
    config = build_config(args)
    strategy_id = args.strategy
    _make_strategies(config, strategy_id, config.benchmark)
    matrix = load_csv(args.data)
    result = run_backtest(matrix, strategy_id, config)
    bench = _benchmark_result(matrix, config, result)
    report = result.report("net", bench.net)

    out = _out_dir(args)
    write_weights_csv(out / "weights.csv", result)
    write_returns_csv(out / "returns.csv", *_returns_series(result))
    table = write_metrics_outputs(out, "metrics", "strategy",
                                  [(strategy_id, report)])
    write_manifest(out, "backtest", args.data, config,
                   {"strategy": strategy_id,
                    "trading_days": result.num_days,
                    "first_date": result.dates[0].isoformat(),
                    "last_date": result.dates[-1].isoformat()})
    print(table)
    print(f"final wealth: {result.wealth[-1]:.4f}  "
          f"({result.num_days} trading days, written to {out})")
    return 0


def _expand_strategy_list(spec: str) -> list[str]:
    requested: list[str] = []
    for token in spec.split(","):
        token = token.strip().lower()
        if token == "all":
            requested.extend(CLASSIC_NAMES)
        elif token:
            requested.append(token)
    if not requested:
        raise UsageError("no strategies requested")
    return sorted(dict.fromkeys(requested))


def cmd_compare(args) -> int:
    config = build_config(args)
    strategies = _expand_strategy_list(args.strategies)
    # one shared trading window so every row is comparable: it starts on the
    # latest first day among the rows and the benchmark
    first_day = max(strategy.first_day for strategy in
                    _make_strategies(config, *strategies, config.benchmark))
    matrix = load_csv(args.data)
    t_first, t_last = resolve_window(matrix, config, first_day)
    aligned = replace(config, start=matrix.dates[t_first - 1],
                      end=matrix.dates[t_last - 1])

    bench = run_backtest(matrix, config.benchmark, aligned)
    rows, returns = [], {}
    # every row runs before anything is written, so a failing strategy
    # leaves no output; each row keeps its report and return series only
    for strategy_id in strategies:
        result = run_backtest(matrix, strategy_id, aligned)
        rows.append((strategy_id, result.report("net", bench.net)))
        label = _file_label(strategy_id)
        returns[f"returns_{label}.csv"] = _returns_series(result)

    out = _out_dir(args)
    for name, series in returns.items():
        write_returns_csv(out / name, *series)
    table = write_metrics_outputs(out, "compare", "strategy", rows)
    write_manifest(out, "compare", args.data, config,
                   {"strategies": [r[0] for r in rows],
                    "first_date": matrix.dates[t_first - 1].isoformat(),
                    "last_date": matrix.dates[t_last - 1].isoformat()})
    print(table)
    return 0


def _parse_fees(text: str | None) -> list[float]:
    if text is None:
        return list(FEE_GRID)
    fees = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            fee = float(token)
            check_fee_rate(fee)
        except ValueError as exc:
            raise UsageError(f"bad fee {token}: {exc}")
        fees.append(fee)
    if not fees:
        raise UsageError("no fees given")
    return fees


def cmd_sweep_fees(args) -> int:
    config = build_config(args)
    strategy_id = args.strategy
    _make_strategies(config, strategy_id, config.benchmark)
    fees = _parse_fees(args.fees)
    matrix = load_csv(args.data)

    # weights do not depend on fees, so run once and re-cost per fee
    base = run_backtest(matrix, strategy_id, replace(config, fee_rate=0.0))
    bench_base = _benchmark_result(matrix, config, base)
    rows = []
    for fee in fees:
        result = reprice(matrix, base, fee)
        bench = reprice(matrix, bench_base, fee)
        rows.append((repr(float(fee)), result.report("net", bench.net)))

    out = _out_dir(args)
    table = write_metrics_outputs(out, "sweep", "fee", rows)
    write_manifest(out, "sweep-fees", args.data, config,
                   {"strategy": strategy_id, "fees": fees})
    print(table)
    return 0


def cmd_plotdata(args) -> int:
    config = build_config(args)
    strategy_id = args.strategy
    _make_strategies(config, strategy_id, config.benchmark)
    matrix = load_csv(args.data)
    result = run_backtest(matrix, strategy_id, config)
    bench = _benchmark_result(matrix, config, result)

    out = _out_dir(args)
    normalized = matrix.prices / matrix.prices[0]
    write_csv_rows(
        out / "plot_prices.csv",
        ["date", *matrix.assets],
        [[d.isoformat(), *(_raw(v) for v in row)]
         for d, row in zip(matrix.dates, normalized)],
    )
    excess = np.cumsum(result.net - bench.net)
    write_csv_rows(
        out / "plot_wealth.csv",
        ["date", "strategy_wealth", "benchmark_wealth", "cumulative_excess"],
        [[d.isoformat(), _raw(w), _raw(bw), _raw(e)]
         for d, w, bw, e in zip(result.dates, result.wealth, bench.wealth, excess)],
    )
    write_manifest(out, "plotdata", args.data, config,
                   {"strategy": strategy_id, "benchmark": config.benchmark})
    print(f"wrote plot_prices.csv and plot_wealth.csv to {out}")
    return 0


def cmd_fetch(args) -> int:
    from .fetch import Fetcher  # keep network machinery out of other commands

    try:
        start = _parse_date(args.start)
        end = _parse_date(args.end)
    except ValueError as exc:
        raise UsageError(f"bad date: {exc}")
    out = _out_dir(args)
    fetcher = Fetcher(delay=args.delay_ms / 1000.0)
    written = []
    for token in args.assets.split(","):
        token = token.strip()
        if not token:
            continue
        asset_id, _, symbol = token.partition(":")
        path = out / f"{(symbol or asset_id)}.csv"
        fetcher.fetch_history(asset_id, start, end, path, symbol=symbol or None)
        written.append(path)
        print(f"fetched {asset_id} -> {path}")
    if not written:
        raise UsageError("no assets given")
    return 0


def cmd_validate(args) -> int:
    matrix = load_csv(args.data)
    stats = summary_stats(matrix)
    stat_names = ["count", "mean", "std", "min", "25%", "50%", "75%", "max"]
    header = ["stat", *matrix.assets]
    rows = []
    for name in stat_names:
        cells = [name]
        for sym in matrix.assets:
            value = stats[sym][name]
            cells.append(str(int(value)) if name == "count" else f"{value:.6g}")
        rows.append(cells)
    print(render_table(header, rows))
    print(f"OK: {matrix.num_days} days x {matrix.num_assets} assets, "
          f"{matrix.dates[0].isoformat()} .. {matrix.dates[-1].isoformat()}")
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_run_flags(sub: argparse.ArgumentParser, with_strategy: bool = True):
    sub.add_argument("--data", required=True, help="price matrix CSV")
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--out", default="out", help="output directory")
    if with_strategy:
        sub.add_argument("--strategy", default="mlp",
                         help="strategy id, e.g. mlp, mlp:return, knn:3, olmar")
    sub.add_argument("--rank-power", dest="rank_power",
                     choices=["return", "1", "2", "3", "4"],
                     help="rank target transform for ml strategies")
    sub.add_argument("--fee", help="proportional fee per unit turnover")
    sub.add_argument("--lookback", help="training days per refit")
    sub.add_argument("--refit", help="trading days between refits")
    sub.add_argument("--decay-alpha", dest="decay_alpha",
                     help="weight decay base in [0, 1)")
    sub.add_argument("--decay-len", dest="decay_len",
                     help="weight decay memory length")
    sub.add_argument("--feature-window", dest="feature_window",
                     help="trailing days per feature block")
    sub.add_argument("--seed", help="seed for sampling and weight init")
    sub.add_argument("--start", help="first trading date (ISO)")
    sub.add_argument("--end", help="last trading date (ISO)")
    sub.add_argument("--benchmark", help="information-ratio benchmark strategy")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankfolio",
        description="Backtest rank-forecast and classic online portfolio "
                    "strategies on daily close prices.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("backtest", help="run one strategy")
    _add_run_flags(sub)
    sub.set_defaults(handler=cmd_backtest)

    sub = commands.add_parser("compare", help="run several strategies on one window")
    _add_run_flags(sub, with_strategy=False)
    sub.add_argument("--strategies", default="all",
                     help="comma list of strategy ids; 'all' = every classic")
    sub.set_defaults(handler=cmd_compare)

    sub = commands.add_parser("sweep-fees", help="re-cost one strategy over a fee grid")
    _add_run_flags(sub)
    sub.add_argument("--fees", help="comma list of fee rates (default: built-in grid)")
    sub.set_defaults(handler=cmd_sweep_fees)

    sub = commands.add_parser("plotdata", help="emit plot-ready CSV series")
    _add_run_flags(sub)
    sub.set_defaults(handler=cmd_plotdata)

    sub = commands.add_parser("fetch", help="download daily closes per asset")
    sub.add_argument("--assets", required=True,
                     help="comma list of api asset ids, optionally id:SYMBOL")
    sub.add_argument("--start", required=True, help="first date (ISO)")
    sub.add_argument("--end", required=True, help="last date (ISO)")
    sub.add_argument("--out", default="out", help="output directory")
    sub.add_argument("--delay-ms", dest="delay_ms", type=int, default=1200,
                     help="minimum milliseconds between requests")
    sub.set_defaults(handler=cmd_fetch)

    sub = commands.add_parser("validate", help="check a price CSV and print stats")
    sub.add_argument("--data", required=True, help="price matrix CSV")
    sub.set_defaults(handler=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
