"""Summarizes the runs kept under .perfbench_runs/.

    python3 perfbench/summarize.py [--out FILE]

For each workload and metric of the untraced runs: the run count, the
median, the quartiles (statistics.quantiles, n=4) and the spread, which is
the distance between the quartiles over the median. For each workload the
per-layer figures of the latest traced run are added. Prints the summary as
JSON, and also writes it to FILE when given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import HERE, RUNS_DIR


def summarize(runs_dir: Path) -> dict:
    results = sorted((json.loads(p.read_text()) for p in runs_dir.glob("*/result.json")),
                     key=lambda r: r["started"])
    machine = results[-1]["machine"] if results else None
    out: dict = {"machine": machine, "workloads": {}}
    for result in results:
        entry = out["workloads"].setdefault(result["workload"], {
            "seeds": [], "attempted": 0, "failed": 0, "end_to_end": {},
            "per_layer": None})
        summary = result["summary"]
        if result["trace"]:
            entry["per_layer"] = {"seed": result["seed"], "started": result["started"],
                                  **{k: m["value"] for k, m in summary["metrics"].items()}}
            continue
        entry["seeds"].append(result["seed"])
        entry["attempted"] += summary["attempted"]
        entry["failed"] += summary["failed"]
        for key, metric in summary["metrics"].items():
            entry["end_to_end"].setdefault(key, {"unit": metric["unit"], "values": []})
            entry["end_to_end"][key]["values"].append(metric["value"])
    for entry in out["workloads"].values():
        for metric in entry["end_to_end"].values():
            values = metric.pop("values")
            median = statistics.median(values)
            metric.update(n=len(values), median=median)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                metric.update(q1=q1, q3=q3,
                              spread=(q3 - q1) / median if median else 0.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="also write the summary to this file")
    args = parser.parse_args(argv)
    text = json.dumps(summarize(HERE.parent / RUNS_DIR), indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
