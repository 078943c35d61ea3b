"""Byte gate: compare this checkout's outputs with those of a git revision.

    python tools/byte_gate.py [REV]        # REV defaults to HEAD

``git archive REV src`` is unpacked into a temporary directory, and the
seed-112 price CSVs of 1309 days by 10 and by 50 assets are written with
``perfbench/workloads.write_prices``, with the 1309 x 10 prices also spelled
as only the csv loop of ``load_csv`` reads them: every cell quoted, CRLF
line ends. The revision's ``src`` and this checkout's then run the same 14
commands with ``python -m rankfolio``, in the temporary directory:
``compare --strategies all``, ``sweep-fees --strategy olmar`` and
``backtest --strategy knn`` at both scales, ``backtest`` of mlp and bcrp,
``plotdata --strategy olmar``, a ``knn:return`` backtest whose config file
sets ``trend_feature = return``, knn backtests with ``--feature-window 2``
(the shortest window) and ``--feature-window 60`` (a window whose feature
chunks hold the floor of one window length of rows) and with
``--decay-len 3 --decay-alpha 0.55`` (a decay blend of three earlier
rows), each at 1309 x 10, and a knn backtest on the quoted spelling. Each
output file is printed with ``equal`` or ``differs (max rel diff X)``. X is
``inf`` when a difference is not numeric: a file on one side only, another
shape, or other text.
``manifest.json`` is compared without ``generated_at`` and ``data_file``.
The exit status is 1 on any difference or failed command.
"""

from __future__ import annotations

import csv
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (output directory, price CSV, CLI arguments)
COMMANDS = (
    ("compare_all_10", "prices_10.csv", ("compare", "--strategies", "all")),
    ("sweep_fees_olmar_10", "prices_10.csv",
     ("sweep-fees", "--strategy", "olmar")),
    ("compare_all_50", "prices_50.csv", ("compare", "--strategies", "all")),
    ("sweep_fees_olmar_50", "prices_50.csv",
     ("sweep-fees", "--strategy", "olmar")),
    ("backtest_mlp_10", "prices_10.csv", ("backtest", "--strategy", "mlp")),
    ("backtest_knn_10", "prices_10.csv", ("backtest", "--strategy", "knn")),
    ("backtest_bcrp_10", "prices_10.csv", ("backtest", "--strategy", "bcrp")),
    ("plotdata_olmar_10", "prices_10.csv",
     ("plotdata", "--strategy", "olmar")),
    ("backtest_knn_50", "prices_50.csv", ("backtest", "--strategy", "knn")),
    ("backtest_knn_return_10", "prices_10.csv",
     ("backtest", "--strategy", "knn:return", "--config", "return.conf")),
    ("backtest_knn_fw2_10", "prices_10.csv",
     ("backtest", "--strategy", "knn", "--feature-window", "2")),
    ("backtest_knn_fw60_10", "prices_10.csv",
     ("backtest", "--strategy", "knn", "--feature-window", "60")),
    ("backtest_knn_decay3_10", "prices_10.csv",
     ("backtest", "--strategy", "knn", "--decay-len", "3",
      "--decay-alpha", "0.55")),
    ("backtest_knn_quoted_10", "prices_10_quoted.csv",
     ("backtest", "--strategy", "knn")),
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


def _write_quoted(plain: Path, quoted: Path) -> None:
    """Spell the price CSV ``plain`` with every cell quoted and CRLF line
    ends."""
    with open(plain, newline="") as src, open(quoted, "w", newline="") as dst:
        csv.writer(dst, quoting=csv.QUOTE_ALL,
                   lineterminator="\r\n").writerows(csv.reader(src))


def _run_all(src: Path, out: Path) -> bool:
    """Runs every command on one tree's ``src`` in the directory that holds
    ``out`` and the price CSVs; False if any fails."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    ok = True
    for label, prices, argv in COMMANDS:
        done = subprocess.run(
            [sys.executable, "-m", "rankfolio", *argv,
             "--data", str(out.parent / prices), "--out", str(out / label)],
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
        for assets in (10, 50):
            write_prices(tmp / f"prices_{assets}.csv", DAYS, assets,
                         DEFAULT_SEED)
        _write_quoted(tmp / "prices_10.csv", tmp / "prices_10_quoted.csv")
        # the config file of backtest_knn_return_10
        (tmp / "return.conf").write_text("trend_feature = return\n")
        ok = _run_all(tmp / "rev" / "src", tmp / "base")
        ok = _run_all(ROOT / "src", tmp / "head") and ok
        verdicts = compare_trees(tmp / "base", tmp / "head")
    for name, verdict in verdicts.items():
        print(f"{name}: {verdict}")
    equal = sum(v == "equal" for v in verdicts.values())
    print(f"{equal} of {len(verdicts)} files equal against {rev}")
    return 0 if ok and equal == len(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
