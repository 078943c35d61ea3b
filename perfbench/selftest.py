"""Fast self-test of the benchmark at a tiny size (140 days, under a minute).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that the layers each workload bypasses read 0, that the count metrics repeat
exactly between two traced runs, that corrupted outputs count as failed
operations, and that a directory without the program's source gives no
result. Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from check import check_command, compare_expected
from run import HERE, RUNS_DIR, execute, run_benchmark
from workloads import WORKLOADS, trading_days

DAYS = 140        # enough history for the learners' first refit
SEED = 5
EXACT = ("_calls", "windows_per_trading_day", "projections_per_solve")
LEARNER_LAYERS = ("features.window_calls", "mlp.loss_and_gradients_calls",
                  "knn.predict_calls", "learners.fit_calls")
CLASSIC_LAYERS = ("optim.log_optimal_calls", "optim.geometric_median_calls",
                  "engine.reprice_calls")
USED = {"learners-desk": LEARNER_LAYERS, "classics-desk": CLASSIC_LAYERS,
        "classics-wide": CLASSIC_LAYERS}

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def check_emitted(summary: dict, declared: list[dict], what: str) -> None:
    metrics = summary["metrics"]
    expect(summary["correct"] and summary["failed"] == 0
           and summary["attempted"] >= 2, f"{what}: outputs correct")
    expect(set(metrics) == {m["name"] for m in declared},
           f"{what}: emits exactly the declared metrics")
    for m in declared:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        expect(got.get("unit") == m["unit"] and isinstance(value, (int, float))
               and math.isfinite(value), f"{what}: {m['name']} in {m['unit']}")


def corrupt(path: Path, row: int, column: int, value: str) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[column] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def check_corruption(name: str) -> None:
    """Runs one pass, then damages each command's output in turn."""
    workload = WORKLOADS[name]
    run_dir, _, report = execute(name, SEED, 0.0, True, HERE.parent, DAYS)
    records = report["iterations"][0]["commands"]
    for command, record in zip(workload.commands, records):
        days = trading_days(command, DAYS)
        problems, observed = check_command(command, record, days, None)
        expect(not problems, f"{name} {command.label}: clean output passes")
        problems, _ = check_command(command, record, days,
                                    {k: v * 1.01 for k, v in observed.items()})
        expect(bool(problems), f"{name} {command.label}: a result 1% off the "
                               "recorded one fails")
        out = Path(record["out"])
        damage = {
            "backtest": [("weights.csv", 3, 1, "-0.25"),
                         ("returns.csv", 5, 3, "0.5")],
            "compare": [("returns_olmar.csv", 7, 4, "1.5"),
                        ("compare.csv", 2, 0, "ucrp")],
            "sweep": [("sweep_raw.csv", 4, 4, "99.0")],
        }[command.kind]
        for file_name, row, column, value in damage:
            backup = (out / file_name).read_bytes()
            corrupt(out / file_name, row, column, value)
            problems, _ = check_command(command, record, days, None)
            expect(bool(problems), f"{name} {command.label}: corrupted "
                                   f"{file_name} counts as failed")
            (out / file_name).write_bytes(backup)
        failed = dict(record, rc=1)
        expect(bool(check_command(command, failed, days, None)[0]),
               f"{name} {command.label}: a non-zero exit counts as failed")
    shutil.rmtree(run_dir)


def check_without_program() -> None:
    """In a directory holding only the benchmark, a run fails without a result."""
    (HERE.parent / RUNS_DIR).mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE.parent / RUNS_DIR) as bare:
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                               "learners-desk", "--seconds", "1"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
    expect(proc.returncode != 0 and not proc.stdout,
           "without the program's source the run fails and prints no result")


def main() -> int:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    check_without_program()
    for name in WORKLOADS:
        result = run_benchmark(name, SEED, 0.0, False, HERE.parent, DAYS)
        check_emitted(result["summary"], declared["end_to_end"], f"{name} trace 0")
        traced = [run_benchmark(name, SEED, 0.0, True, HERE.parent, DAYS)["summary"]
                  for _ in range(2)]
        check_emitted(traced[0], declared["per_layer"], f"{name} trace 1")
        first, second = (t["metrics"] for t in traced)
        for key in first:
            if key.endswith(EXACT):
                expect(first[key]["value"] == second[key]["value"],
                       f"{name}: {key} repeats exactly ({first[key]['value']})")
        for key in LEARNER_LAYERS + CLASSIC_LAYERS:
            used = key in USED[name]
            expect((first[key]["value"] > 0) == used,
                   f"{name}: {key} {'> 0' if used else '== 0'}")
    check_corruption("learners-desk")
    check_corruption("classics-desk")
    problems: list[str] = []
    compare_expected({"a": 1.0}, {"a": 1.0, "b": 2.0}, problems)
    expect(bool(problems), "a missing recorded result fails")
    print(f"{len(failures)} failed" if failures else "all self-test checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
