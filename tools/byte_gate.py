"""Byte gate: compare this checkout's outputs with those of a git revision.

    python tools/byte_gate.py [REV]        # REV defaults to HEAD

``git archive REV src`` is unpacked into a temporary directory, and the
seed-112 price CSVs of 1309 days by 10 and by 50 assets are written with
``perfbench/workloads.write_prices``. The revision's ``src`` and this
checkout's then run the same commands with ``python -m rankfolio``, in the
temporary directory: ``compare --strategies all``, ``sweep-fees --strategy
olmar`` and ``backtest --strategy knn`` at both scales, ``backtest`` of mlp
and bcrp, ``plotdata --strategy olmar``, a ``knn:return`` backtest whose
config file sets ``trend_feature = return``, and knn backtests with
``--feature-window 2`` (the shortest window) and ``--feature-window 60`` (a
window whose feature chunks hold the floor of one window length of rows),
each at 1309 x 10. Each output file is printed with ``equal`` or ``differs
(max rel diff X)``. X is ``inf`` when a difference is not numeric: a file on
one side only, another shape, or other text. ``manifest.json`` is compared
without ``generated_at`` and ``data_file``. The exit status is 1 on any
difference or failed command.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (output directory, price CSV's asset count, CLI arguments)
COMMANDS = (
    ("compare_all_10", 10, ("compare", "--strategies", "all")),
    ("sweep_fees_olmar_10", 10, ("sweep-fees", "--strategy", "olmar")),
    ("compare_all_50", 50, ("compare", "--strategies", "all")),
    ("sweep_fees_olmar_50", 50, ("sweep-fees", "--strategy", "olmar")),
    ("backtest_mlp_10", 10, ("backtest", "--strategy", "mlp")),
    ("backtest_knn_10", 10, ("backtest", "--strategy", "knn")),
    ("backtest_bcrp_10", 10, ("backtest", "--strategy", "bcrp")),
    ("plotdata_olmar_10", 10, ("plotdata", "--strategy", "olmar")),
    ("backtest_knn_50", 50, ("backtest", "--strategy", "knn")),
    ("backtest_knn_return_10", 10,
     ("backtest", "--strategy", "knn:return", "--config", "return.conf")),
    ("backtest_knn_fw2_10", 10,
     ("backtest", "--strategy", "knn", "--feature-window", "2")),
    ("backtest_knn_fw60_10", 10,
     ("backtest", "--strategy", "knn", "--feature-window", "60")),
)

# manifest fields that differ between any two runs
VOLATILE = ("generated_at", "data_file")


def _text(path: Path) -> str:
    if path.name != "manifest.json":
        return path.read_text()
    manifest = json.loads(path.read_text())
    for key in VOLATILE:
        manifest.pop(key, None)
    return json.dumps(manifest, indent=2, sort_keys=True)


def max_rel_diff(a: str, b: str) -> float:
    """The largest relative difference between the cells of two texts,
    split at commas and white space; inf when they differ other than in
    numbers."""
    cells_a, cells_b = re.split(r"[,\s]+", a), re.split(r"[,\s]+", b)
    if len(cells_a) != len(cells_b):
        return float("inf")
    worst = 0.0
    for x, y in zip(cells_a, cells_b):
        if x == y:
            continue
        try:
            fx, fy = float(x), float(y)
        except ValueError:
            return float("inf")
        if fx == fy:  # one value written two ways, such as 0.0 and -0.0
            continue
        diff = abs(fx - fy) / max(abs(fx), abs(fy))
        worst = max(worst, diff) if diff == diff else float("inf")  # NaN
    return worst


def compare_trees(base: Path, head: Path) -> dict[str, str]:
    """Verdict of every file under ``base`` or ``head``, by relative path:
    ``equal`` or ``differs (max rel diff X)``."""
    names = sorted({p.relative_to(root).as_posix()
                    for root in (base, head)
                    for p in root.rglob("*") if p.is_file()})
    verdicts = {}
    for name in names:
        a, b = base / name, head / name
        if not (a.is_file() and b.is_file()):
            diff = float("inf")
        else:
            text_a, text_b = _text(a), _text(b)
            if text_a == text_b:
                verdicts[name] = "equal"
                continue
            diff = max_rel_diff(text_a, text_b)
        verdicts[name] = f"differs (max rel diff {diff:.3g})"
    return verdicts


def _run_all(src: Path, data: dict[int, Path], out: Path) -> bool:
    """Runs every command on one tree's ``src`` in the directory that holds
    ``out``; False if any fails."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    ok = True
    for label, assets, argv in COMMANDS:
        done = subprocess.run(
            [sys.executable, "-m", "rankfolio", *argv,
             "--data", str(data[assets]), "--out", str(out / label)],
            env=env, cwd=out.parent, capture_output=True, text=True)
        if done.returncode != 0:
            print(f"{out.name}/{label}: exit {done.returncode}: "
                  f"{done.stderr.strip()}")
            ok = False
    return ok


def main(argv: list[str]) -> int:
    rev = argv[0] if argv else "HEAD"
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import DAYS, DEFAULT_SEED, write_prices

    with tempfile.TemporaryDirectory(prefix="byte_gate_") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", rev, "src"],
            check=True, capture_output=True).stdout
        (tmp / "rev").mkdir()
        subprocess.run(["tar", "-x", "-C", str(tmp / "rev")], input=archive,
                       check=True)
        data = {}
        for assets in (10, 50):
            data[assets] = tmp / f"prices_{DAYS}x{assets}.csv"
            write_prices(data[assets], DAYS, assets, DEFAULT_SEED)
        # the config file of backtest_knn_return_10
        (tmp / "return.conf").write_text("trend_feature = return\n")
        ok = _run_all(tmp / "rev" / "src", data, tmp / "base")
        ok = _run_all(ROOT / "src", data, tmp / "head") and ok
        verdicts = compare_trees(tmp / "base", tmp / "head")
    for name, verdict in verdicts.items():
        print(f"{name}: {verdict}")
    equal = sum(v == "equal" for v in verdicts.values())
    print(f"{equal} of {len(verdicts)} files equal against {rev}")
    return 0 if ok and equal == len(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
