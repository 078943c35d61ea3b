"""Output correctness checks for one CLI command (stdlib only).

A command passes when it exits 0, `compare` wrote a row for every requested
strategy, every weights row is non-negative and sums to 1, the returns
files satisfy net = gross - cost and wealth = cumprod(1 + net), and the
observed results match the values recorded for this workload and seed.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from workloads import CLASSIC_IDS, FEE_GRID_SIZE, Command

WEIGHT_SUM_TOL = 1e-9       # |sum(w) - 1| per weights row
NET_TOL = 1e-15             # |net - (gross - cost)|, absolute
WEALTH_RTOL = 1e-9          # wealth against a recomputed cumprod(1 + net)
# Recorded results (final wealth, annualized return per fee) may move by
# this relative amount: enough for float reordering and solver changes that
# stay inside the test-suite oracle tolerances, far below what a wrong
# strategy or accounting step does to a 1308-day run.
EXPECTED_RTOL = 1e-4

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def _rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path.name}: empty file")
    return rows[0], rows[1:]


def _check_weights(path: Path, days: int, problems: list[str]) -> None:
    _, rows = _rows(path)
    if len(rows) != days:
        problems.append(f"{path.name}: {len(rows)} rows, expected {days}")
    for lineno, row in enumerate(rows, start=2):
        weights = [float(x) for x in row[1:]]
        if not (min(weights) >= 0.0 and abs(sum(weights) - 1.0) <= WEIGHT_SUM_TOL):
            problems.append(f"{path.name}: line {lineno}: weights off the simplex")
            return


def _check_returns(path: Path, days: int, problems: list[str]) -> float:
    """Checks the accounting identities; returns the final wealth."""
    header, rows = _rows(path)
    if header != ["date", "gross", "cost", "net", "wealth"]:
        problems.append(f"{path.name}: unexpected header {header}")
        return float("nan")
    if len(rows) != days:
        problems.append(f"{path.name}: {len(rows)} rows, expected {days}")
    wealth = 1.0
    for lineno, row in enumerate(rows, start=2):
        gross, cost, net, recorded = (float(x) for x in row[1:])
        wealth *= 1.0 + net
        if not abs(net - (gross - cost)) <= NET_TOL:
            problems.append(f"{path.name}: line {lineno}: net != gross - cost")
            break
        if not abs(recorded - wealth) <= WEALTH_RTOL * abs(wealth):
            problems.append(f"{path.name}: line {lineno}: wealth != cumprod(1 + net)")
            break
    return float(rows[-1][4]) if rows else float("nan")


def check_outputs(command: Command, out: Path, days: int,
                  problems: list[str]) -> dict[str, float]:
    """Checks the files ``command`` wrote to ``out`` (``days`` trading days
    per run). Appends what is wrong to ``problems`` and returns the observed
    results: final wealth per strategy, or annualized return per fee."""
    observed: dict[str, float] = {}
    if command.kind == "backtest":
        _check_weights(out / "weights.csv", days, problems)
        observed[command.strategy] = _check_returns(out / "returns.csv", days,
                                                    problems)
    elif command.kind == "compare":
        _, rows = _rows(out / "compare.csv")
        labels = [row[0] for row in rows]
        if labels != sorted(CLASSIC_IDS):
            problems.append(f"compare.csv: rows {labels}, expected every classic")
        for sid in CLASSIC_IDS:
            observed[sid] = _check_returns(out / f"returns_{sid}.csv", days,
                                           problems)
    elif command.kind == "sweep":
        header, rows = _rows(out / "sweep_raw.csv")
        if len(rows) != FEE_GRID_SIZE:
            problems.append(f"sweep_raw.csv: {len(rows)} rows, expected "
                            f"{FEE_GRID_SIZE}")
        column = header.index("annualized_return_pct")
        for row in rows:
            observed[f"fee={row[0]}"] = float(row[column])
        values = list(observed.values())
        if any(b >= a for a, b in zip(values, values[1:])):
            problems.append("sweep_raw.csv: return does not fall as the fee rises")
    else:
        raise ValueError(f"unknown command kind {command.kind!r}")
    return observed


def compare_expected(observed: dict[str, float], expected: dict[str, float],
                     problems: list[str]) -> None:
    if set(observed) != set(expected):
        problems.append(f"results for {sorted(observed)}, recorded "
                        f"{sorted(expected)}")
        return
    for key, want in expected.items():
        got = observed[key]
        if not abs(got - want) <= EXPECTED_RTOL * abs(want):
            problems.append(f"{key}: {got!r} differs from the recorded {want!r}")


def check_command(command: Command, record: dict, days: int,
                  expected: dict | None) -> tuple[list[str], dict[str, float]]:
    """All checks for one worker command record; returns (problems, observed).

    ``expected`` is the recorded result for this command, or None when this
    workload and seed have none recorded.
    """
    problems: list[str] = []
    observed: dict[str, float] = {}
    if record["rc"] != 0:
        problems.append(f"exit code {record['rc']}: {record['stderr'].strip()}")
        return problems, observed
    if "warning: skipping" in record["stderr"]:
        problems.append(record["stderr"].strip())
    try:
        observed = check_outputs(command, Path(record["out"]), days, problems)
    except (OSError, ValueError, IndexError) as exc:
        problems.append(f"unreadable output: {exc}")
        return problems, observed
    if expected is not None:
        compare_expected(observed, expected, problems)
    return problems, observed


def load_expected() -> dict:
    """{workload: {seed: {command label: results}}} at the full size."""
    if not EXPECTED_PATH.exists():
        return {}
    return json.loads(EXPECTED_PATH.read_text())
