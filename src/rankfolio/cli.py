"""Command line interface.

Commands: backtest, compare, sweep-fees, plotdata, fetch, validate.
Exit codes: 0 success, 1 runtime failure (bad data, failed fetch), 2 usage
error (bad flags, bad strategy id, bad config key).

The four runner commands (backtest, compare, sweep-fees, plotdata) share
one set-up, ``_runs``, so every strategy trades the same window as its
benchmark and every output names it by one spelling of its id; each command
then writes only its own files.

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
from dataclasses import asdict, fields, replace
from datetime import date, datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .data import load_csv, summary_stats, write_csv_rows, write_text_atomic
from .engine import (FEE_GRID, BacktestConfig, BacktestResult, check_fee_rate,
                     make_strategy, parse_field, reprice, resolve_window,
                     run_backtest, spell_id)
from .metrics import CSV_COLUMNS, MetricsReport
from .strategies import CLASSIC_NAMES


class UsageError(Exception):
    """Bad invocation: maps to exit code 2."""


# ---------------------------------------------------------------------------
# config file handling

def read_config_file(path: str | Path) -> dict:
    """Flat ``key = value`` file; '#' comments allowed; unknown keys error."""
    config_fields = {f.name: f for f in fields(BacktestConfig)}
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, value = stripped.partition("=")
        key = key.strip()
        if not sep or not key:
            raise UsageError(f"{path}: line {lineno}: expected 'key = value'")
        if key not in config_fields:
            raise UsageError(f"{path}: line {lineno}: unknown config key {key!r}")
        try:
            values[key] = parse_field(config_fields[key], value.strip())
        except ValueError as exc:
            raise UsageError(f"{path}: line {lineno}: bad value for {key}: {exc}")
    return values


def build_config(args: argparse.Namespace) -> BacktestConfig:
    """Defaults, overlaid by the config file, overlaid by explicit flags."""
    overrides = {}
    if getattr(args, "config", None):
        overrides.update(read_config_file(args.config))
    for f in fields(BacktestConfig):
        text = getattr(args, f.name, None) if "flag" in f.metadata else None
        if text is None:
            continue
        try:
            overrides[f.name] = parse_field(f, text.strip())
        except ValueError as exc:
            raise UsageError(f"bad value for {f.metadata['flag']}: {exc}")
    try:
        return BacktestConfig(**overrides)
    except ValueError as exc:
        raise UsageError(str(exc))


# ---------------------------------------------------------------------------
# formatting and file output

def _fmt(value: float | None, pretty: bool) -> str:
    if value is None:
        return ""
    value = float(value)  # inf and nan print as str() does
    return f"{value:.2f}" if pretty else repr(value)


def metrics_table(rows: list[tuple[str, MetricsReport]], label_header: str,
                  pretty: bool) -> tuple[list[str], list[list[str]]]:
    header = [label_header, *CSV_COLUMNS]
    body = []
    for label, report in rows:
        values = report.csv_values()
        body.append([label] + [_fmt(values[c], pretty) for c in CSV_COLUMNS])
    return header, body


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


# the series of a returns CSV, one column each
_RETURN_SERIES = ("gross", "cost", "net", "wealth")


def write_dated_csv(path: Path, dates, names, rows) -> None:
    """A CSV headed ``date`` and ``names``: one line per date, its ISO form
    and then the full-precision repr of each value of its row of ``rows``."""
    write_csv_rows(path, ["date", *names],
                   [[d.isoformat(), *map(repr, row)]
                    for d, row in zip(dates, np.asarray(rows, float).tolist())])


def _returns_rows(result: BacktestResult) -> np.ndarray:
    return np.column_stack([getattr(result, s) for s in _RETURN_SERIES])


def write_manifest(out_dir: Path, command: str, data_path: str,
                   data_sha256: str, config: BacktestConfig,
                   extra: dict) -> None:
    manifest = {
        "tool": "rankfolio",
        "version": __version__,
        "command": command,
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "data_file": str(data_path),
        "data_sha256": data_sha256,
        "config": asdict(config),
        **extra,
    }
    # the config's tuples are written as lists, its dates as ISO strings
    write_text_atomic(out_dir / "manifest.json",
                      json.dumps(manifest, indent=2, sort_keys=True,
                                 default=date.isoformat) + "\n")


def _out_dir(args) -> Path:
    """A runner's output directory, without an earlier run's manifest."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").unlink(missing_ok=True)
    return out


def _runs(args, *strategy_ids: str):
    """The set-up of every runner command: (config, prices, the SHA-256 of
    the bytes they were read from, the benchmark's run, a lazy iterator of
    each id's run), all on one shared window.

    The ids are spelled by ``spell_id``, deduplicated, sorted and built with
    the benchmark before any prices load, so a bad one is a usage error.
    The window starts on the largest ``first_day`` among them. Each run is
    made as the iterator reaches it, so a caller holds one at a time.
    """
    strategy_ids = sorted({spell_id(s) for s in strategy_ids})
    config = build_config(args)
    try:
        first_day = max(make_strategy(strategy_id, config).first_day
                        for strategy_id in (*strategy_ids, config.benchmark))
    except ValueError as exc:
        raise UsageError(str(exc))
    digest = hashlib.sha256()
    matrix = load_csv(args.data, digest)
    t_first, t_last = resolve_window(matrix, config, first_day)
    window = replace(config, start=matrix.dates[t_first - 1],
                     end=matrix.dates[t_last - 1])
    return (config, matrix, digest.hexdigest(),
            run_backtest(matrix, config.benchmark, window),
            (run_backtest(matrix, s, window) for s in strategy_ids))


# ---------------------------------------------------------------------------
# commands

def cmd_backtest(args) -> int:
    config, _, sha, bench, (result,) = _runs(args, args.strategy)
    report = result.report("net", bench.net)

    out = _out_dir(args)
    write_dated_csv(out / "weights.csv", result.dates, result.assets,
                    result.weights)
    write_dated_csv(out / "returns.csv", result.dates, _RETURN_SERIES,
                    _returns_rows(result))
    table = write_metrics_outputs(out, "metrics", "strategy",
                                  [(result.strategy, report)])
    write_manifest(out, "backtest", args.data, sha, config,
                   {"strategy": result.strategy,
                    "trading_days": result.num_days,
                    "first_date": result.dates[0].isoformat(),
                    "last_date": result.dates[-1].isoformat()})
    print(table)
    print(f"final wealth: {result.wealth[-1]:.4f}  "
          f"({result.num_days} trading days, written to {out})")
    return 0


def _expand_strategy_list(spec: str) -> list[str]:
    requested = [token for token in spec.split(",") if token.strip()]
    if not requested:
        raise UsageError("no strategies requested")
    return [name for token in requested for name in
            (CLASSIC_NAMES if spell_id(token) == "all" else [token])]


def cmd_compare(args) -> int:
    config, _, sha, bench, runs = _runs(
        args, *_expand_strategy_list(args.strategies))
    rows, returns = [], {}
    # every row runs before anything is written, so a failing strategy
    # leaves no output; each row keeps its report and return series only
    for result in runs:
        rows.append((result.strategy, result.report("net", bench.net)))
        label = result.strategy.replace(":", "_")
        returns[f"returns_{label}.csv"] = result.dates, _returns_rows(result)

    out = _out_dir(args)
    for name, (dates, series) in returns.items():
        write_dated_csv(out / name, dates, _RETURN_SERIES, series)
    table = write_metrics_outputs(out, "compare", "strategy", rows)
    write_manifest(out, "compare", args.data, sha, config,
                   {"strategies": [r[0] for r in rows],
                    "first_date": bench.dates[0].isoformat(),
                    "last_date": bench.dates[-1].isoformat()})
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
            fee = check_fee_rate(float(token))
        except ValueError as exc:
            raise UsageError(f"bad fee {token}: {exc}")
        fees.append(fee)
    if not fees:
        raise UsageError("no fees given")
    return fees


def cmd_sweep_fees(args) -> int:
    fees = _parse_fees(args.fees)
    # weights do not depend on fees, so run once and re-cost per fee
    config, matrix, sha, bench, (result,) = _runs(args, args.strategy)
    rows = []
    for fee in fees:
        bench_net = reprice(matrix, bench, fee).net
        rows.append((repr(float(fee)),
                     reprice(matrix, result, fee).report("net", bench_net)))

    out = _out_dir(args)
    table = write_metrics_outputs(out, "sweep", "fee", rows)
    write_manifest(out, "sweep-fees", args.data, sha, config,
                   {"strategy": result.strategy, "fees": fees})
    print(table)
    return 0


def cmd_plotdata(args) -> int:
    config, matrix, sha, bench, (result,) = _runs(args, args.strategy)

    out = _out_dir(args)
    write_dated_csv(out / "plot_prices.csv", matrix.dates, matrix.assets,
                    matrix.prices / matrix.prices[0])
    excess = np.cumsum(result.net - bench.net)
    write_dated_csv(out / "plot_wealth.csv", result.dates,
                    ["strategy_wealth", "benchmark_wealth", "cumulative_excess"],
                    np.column_stack([result.wealth, bench.wealth, excess]))
    write_manifest(out, "plotdata", args.data, sha, config,
                   {"strategy": result.strategy, "benchmark": config.benchmark})
    print(f"wrote plot_prices.csv and plot_wealth.csv to {out}")
    return 0


def cmd_fetch(args) -> int:
    # keep network machinery out of other commands
    from .fetch import Fetcher, check_token

    try:
        start = date.fromisoformat(args.start.strip())
        end = date.fromisoformat(args.end.strip())
    except ValueError as exc:
        raise UsageError(f"bad date: {exc}")
    if end < start:
        raise UsageError("end date before start date")
    assets = [token.strip().partition(":")
              for token in args.assets.split(",") if token.strip()]
    if not assets:
        raise UsageError("no assets given")
    try:
        for asset_id, _, symbol in assets:
            check_token(asset_id, "asset id")
            if symbol:
                check_token(symbol, "symbol")
    except ValueError as exc:
        raise UsageError(str(exc))
    try:
        fetcher = Fetcher(delay=args.delay_ms / 1000.0)
    except ValueError as exc:
        raise UsageError(f"bad --delay-ms: {exc}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for asset_id, _, symbol in assets:
        path = out / f"{(symbol or asset_id)}.csv"
        fetcher.fetch_history(asset_id, start, end, path, symbol=symbol or None)
        print(f"fetched {asset_id} -> {path}")
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
    for f in fields(BacktestConfig):
        if "flag" in f.metadata:
            sub.add_argument(f.metadata["flag"], dest=f.name,
                             help=f.metadata["help"])


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
    sub.add_argument("--fees", help="comma list of fee rates (default: built-in "
                     "grid); write a list that starts with '-' as --fees=LIST")
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
        # a non-finite result fails the run with its own error line
        with np.errstate(all="ignore"):
            return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
