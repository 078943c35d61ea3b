"""Workload table and the seeded price generator.

Each workload is one synthetic price CSV plus two CLI commands run on it
with the default config. The program under test only ever sees the CSV.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

DEFAULT_SEED = 112          # the seed of acceptance test c12
DAYS = 1309                 # c12's headline length
FEE_GRID_SIZE = 7           # default `sweep-fees` grid

CLASSIC_IDS = ("bah", "ucrp", "bcrp", "up", "eg", "anticor",
               "pamr", "cwmr", "olmar", "rmr", "bnn", "corn")
LEARNER_IDS = ("mlp", "knn")

# Default config values the workloads rely on (engine.BacktestConfig).
LOOKBACK, FEATURE_WINDOW = 80, 20


@dataclass(frozen=True)
class Command:
    label: str              # name used for the output directory and metrics
    argv: tuple[str, ...]   # CLI arguments before --data/--out
    kind: str               # "backtest", "compare" or "sweep"
    strategy: str           # backtest/sweep strategy; compare: "all"
    repeats: int = 1        # runs per iteration; short commands repeat so
                            # that their median rests on enough samples


@dataclass(frozen=True)
class Workload:
    name: str
    assets: int
    commands: tuple[Command, Command]   # reported as cmd1_s and cmd2_s
    why: str


BACKTEST_MLP = Command("backtest_mlp", ("backtest", "--strategy", "mlp"),
                       "backtest", "mlp")
BACKTEST_KNN = Command("backtest_knn", ("backtest", "--strategy", "knn"),
                       "backtest", "knn")
COMPARE_ALL = Command("compare_all", ("compare", "--strategies", "all"),
                      "compare", "all")
SWEEP_OLMAR = Command("sweep_fees", ("sweep-fees", "--strategy", "olmar"),
                      "sweep", "olmar", repeats=5)

WORKLOADS = {
    w.name: w for w in (
        # Learners only: time goes to features (about 9 windows featurized
        # per trading day) and MLP training; optim never runs, so a solver
        # change must leave it alone.
        Workload("learners-desk", 10, (BACKTEST_MLP, BACKTEST_KNN),
                 "1309x10 backtest mlp (cmd1) then knn (cmd2): features, "
                 "mlp, knn layers; never calls optim"),
        # Classics only: time goes to log-optimal solves and the L1 median;
        # features/learners never run, so a features change must leave it
        # alone. The sweep re-costs through reprice with no strategy steps.
        Workload("classics-desk", 10, (COMPARE_ALL, SWEEP_OLMAR),
                 "1309x10 compare all (cmd1) then 5x sweep-fees olmar (cmd2): "
                 "optim, engine accounting and reprice; no features or learners"),
        # Same commands at 50 assets: UP's sample product and solver vectors
        # grow 5x, so a change tuned at 10 assets that loses at 50 shows.
        # Learners at 50 assets are left out: knn alone takes about 28 s
        # there and 98% of that is features, which learners-desk isolates.
        Workload("classics-wide", 50, (COMPARE_ALL, SWEEP_OLMAR),
                 "1309x50 compare all (cmd1) then 5x sweep-fees olmar (cmd2): "
                 "the classics at a 5x wider per-day working set"),
    )
}


def make_prices(days: int, assets: int, seed: int) -> np.ndarray:
    """Geometric random walk closes: the shape acceptance test c12 uses."""
    rng = np.random.default_rng(seed)
    rets = np.clip(rng.normal(0.0005, 0.02, size=(days - 1, assets)), -0.5, 0.5)
    return 100.0 * np.vstack([np.ones(assets), np.cumprod(1.0 + rets, axis=0)])


def write_prices(path: Path, days: int, assets: int, seed: int) -> None:
    """Write the price CSV in the program's input format."""
    prices = make_prices(days, assets, seed)
    start = date(2023, 1, 1)
    with open(path, "w", newline="") as fh:
        fh.write("date," + ",".join(f"A{j:02d}" for j in range(assets)) + "\n")
        for i, row in enumerate(prices):
            day = (start + timedelta(days=i)).isoformat()
            fh.write(day + "," + ",".join("%.12g" % p for p in row) + "\n")


def trading_days(command: Command, days: int) -> int:
    """Days the program must trade per `run_backtest` call of ``command``."""
    last = days - 1
    if command.strategy in LEARNER_IDS:
        return last - (LOOKBACK + FEATURE_WINDOW + 1) + 1
    return last


def backtest_runs(command: Command) -> int:
    """`run_backtest` calls per command, including the ucrp benchmark run."""
    return len(CLASSIC_IDS) + 1 if command.kind == "compare" else 2
