"""rankfolio benchmark driver.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout (the program is imported from
``src/``). Writes the workload's price CSV from the seed, times fresh-process
set-up, then runs the workload's two CLI commands through
``rankfolio.cli.main`` in one worker process for about S seconds and checks
every output. With ``--trace 0`` it reports the end-to-end metrics, its times
scaled to a reference machine speed (see speed.py); with
``--trace 1`` each iteration is run untraced and then traced, and it reports
the per-layer metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
holds the machine facts. Run files are kept under ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from check import check_command, load_expected  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402
from speed import scaled_setup  # noqa: E402
from workloads import (DAYS, DEFAULT_SEED, WORKLOADS, backtest_runs,  # noqa: E402
                       trading_days, write_prices)

RUNS_DIR = ".perfbench_runs"
SETUP_REPEATS = 12          # fresh set-up processes per run; the median is reported
TIME_LIMIT_S = 170.0        # a run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "cmd1_s": "s",
    "cmd2_s": "s",
    "strategy_days_per_s": "days/s",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "ratio",
}


class BenchmarkError(Exception):
    """The benchmark could not run: no result is printed."""


def _call(argv: list[str], deadline: float) -> str:
    """Runs a worker to completion within the deadline; returns its stdout."""
    try:
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker ran past the time limit: {argv[2:]}") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"worker failed ({proc.returncode}): "
                             f"{proc.stderr.strip()[-2000:]}")
    return proc.stdout


def execute(name: str, seed: int, seconds: float, trace: bool, root: Path,
            days: int = DAYS) -> tuple[Path, list[dict], dict]:
    """Writes the inputs and runs the set-up and main workers.

    Returns the run directory, the set-up samples (none when tracing) and
    the main worker's report; the command outputs are under the run directory.
    """
    workload = WORKLOADS[name]
    src = root / "src"
    if not (src / "rankfolio" / "cli.py").is_file():
        raise BenchmarkError(f"no rankfolio source under {src}")
    deadline = time.monotonic() + TIME_LIMIT_S
    run_dir = root / RUNS_DIR / (f"{name}-seed{seed}-trace{int(trace)}-"
                                 f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    run_dir.mkdir(parents=True)
    prices = run_dir / "prices.csv"
    write_prices(prices, days, workload.assets, seed)
    worker = [sys.executable, str(HERE / "worker.py")]

    def time_setup(times: int) -> list[dict]:
        samples = []
        for _ in range(0 if trace else times):
            sample = {}
            for args in (["reference"], ["setup", str(src), str(prices)]):
                sample.update(json.loads(_call([*worker, *args], deadline)
                                         .splitlines()[-1]))
            sample["setup_s"] = scaled_setup(sample["setup_wall_s"],
                                             sample["import_numpy_s"])
            samples.append(sample)
        return samples

    setup = time_setup(SETUP_REPEATS // 2)

    plan = {
        "src": str(src), "csv": str(prices), "out": str(run_dir),
        "seconds": seconds, "trace": bool(trace),
        "commands": [[c.label, c.repeats, *c.argv] for c in workload.commands],
    }
    (run_dir / "plan.json").write_text(json.dumps(plan, indent=1))
    _call([*worker, "run", str(run_dir / "plan.json")], deadline)
    # half the set-up samples after the main worker, so that one slow spell
    # of the shared machine does not shift all of them
    setup += time_setup(SETUP_REPEATS - SETUP_REPEATS // 2)
    return run_dir, setup, json.loads((run_dir / "worker.json").read_text())


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  root: Path, days: int = DAYS) -> dict:
    """One benchmark run: executes, checks every output, computes the
    metrics, deletes the command outputs and returns the result record,
    which is also saved as result.json in the run directory."""
    workload = WORKLOADS[name]
    started = time.strftime("%Y-%m-%dT%H:%M:%S")
    run_dir, setup, report = execute(name, seed, seconds, trace, root, days)

    recorded = load_expected().get(name, {}).get(str(seed), {}) if days == DAYS else {}
    commands = {c.label: c for c in workload.commands}
    attempted, failed, problems, observed = 0, 0, [], {}
    for item in report["iterations"]:
        for records in (item["commands"], item.get("traced_commands", [])):
            for record in records:
                command = commands[record["label"]]
                found, values = check_command(command, record,
                                              trading_days(command, days),
                                              recorded.get(command.label))
                observed.setdefault(command.label, values)
                attempted += 1
                if found:
                    failed += 1
                    problems.append(f"{record['out']}: " + "; ".join(found))

    iterations = report["iterations"]
    if trace:
        metrics = {key: statistics.median(item["layers"][key] for item in iterations)
                   for key in LAYER_METRICS}
        units = LAYER_METRICS
    else:
        records = [r for item in iterations for r in item["commands"]]
        times = {c.label: statistics.median(r["scaled_s"] for r in records
                                            if r["label"] == c.label)
                 for c in workload.commands}
        first, second = workload.commands
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in setup),
            "cmd1_s": times[first.label],
            "cmd2_s": times[second.label],
            # the throughput one iteration's commands give at those times
            "strategy_days_per_s":
                sum(c.repeats * backtest_runs(c) * trading_days(c, days)
                    for c in workload.commands)
                / sum(c.repeats * times[c.label] for c in workload.commands),
            "peak_rss_mb": report["peak_rss_mb"],
            "ops_ok_frac": 1.0 - failed / attempted,
        }
        units = END_TO_END

    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]}
                    for key in units},
    }
    for path in run_dir.glob("i*"):
        shutil.rmtree(path)
    (run_dir / "prices.csv").unlink()
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "started": started,
        "days": days, "assets": workload.assets, "machine": report["machine"],
        "iterations": len(iterations), "setup_samples": setup,
        "probe_median_s": report.get("probe_median_s"),
        "command_walls": [[(c["label"], c["wall_s"], c["scaled_s"])
                           for c in item["commands"]] for item in iterations],
        "problems": problems, "observed": observed, "summary": summary,
    }
    (run_dir / "result.json").write_text(json.dumps(result, indent=1))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds,
                               bool(args.trace), root=HERE.parent)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    summary = result["summary"]
    for problem in result["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    for key, metric in summary["metrics"].items():
        print(f"{key:36s} {metric['value']:14.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps({"machine": result["machine"]}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
