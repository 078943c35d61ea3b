"""Span tracing of the package's public functions, from outside the package.

Each traced function is replaced, under every module name its callers look
it up by, with a wrapper that records one span: a name, start and end
times, and the index of the enclosing span. Spans stay in memory until the
run ends. Nothing under ``src/`` changes; a name that a later version of
the package no longer has is skipped and its metrics read 0.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from time import perf_counter

import numpy as np

# span name -> the "module:attribute" bindings it is looked up by. The first
# binding is the defining one; the others are imports into calling modules.
TARGETS = {
    "data.load_csv": ("data:load_csv", "cli:load_csv"),
    "features.window": ("features:features_from_window",
                        "learners:features_from_window"),
    "features.training_set": ("features:training_set", "learners:training_set"),
    "learners.fit": ("learners:MlpLearner.fit", "learners:KnnLearner.fit"),
    "learners.predict": ("learners:MlpLearner.predict",
                         "learners:KnnLearner.predict"),
    "knn.predict": ("knn:knn_predict", "learners:knn_predict"),
    "mlp.train": ("mlp:mlp_train", "learners:mlp_train"),
    "mlp.loss_and_gradients": ("mlp:loss_and_gradients",),
    "optim.log_optimal": ("optim:log_optimal_portfolio",
                          "strategies:log_optimal_portfolio"),
    "optim.project": ("optim:project_to_simplex", "strategies:project_to_simplex"),
    "optim.geometric_median": ("optim:geometric_median",
                               "strategies:geometric_median"),
    "engine.run_backtest": ("engine:run_backtest", "cli:run_backtest"),
    "engine.accounting": ("engine:apply_decay", "engine:drift_weights",
                          "engine:turnover_cost"),
    "engine.reprice": ("engine:reprice", "cli:reprice"),
    "metrics.compute_report": ("metrics:compute_report", "engine:compute_report"),
    "cli.write": ("cli:write_csv_rows", "cli:write_returns_csv",
                  "cli:write_weights_csv", "cli:write_manifest",
                  "cli:write_metrics_outputs"),
}

STRATEGY_IDS = ("bah", "ucrp", "bcrp", "up", "eg", "anticor", "pamr", "cwmr",
                "olmar", "rmr", "bnn", "corn", "mlp", "knn")
LEARNER_IDS = ("mlp", "knn")

# Per-layer metric names and units, in report order.
LAYER_METRICS = {
    "data.load_csv_calls": "count",
    "data.load_csv_s": "s",
    "features.window_calls": "count",
    "features.window_s": "s",
    "features.training_set_s": "s",
    "features.windows_per_trading_day": "ratio",
    "learners.fit_calls": "count",
    "learners.fit_s": "s",
    "learners.predict_s": "s",
    "knn.predict_calls": "count",
    "knn.predict_s": "s",
    "mlp.train_s": "s",
    "mlp.loss_and_gradients_calls": "count",
    "mlp.loss_and_gradients_s": "s",
    "mlp.adam_self_s": "s",
    "optim.log_optimal_calls": "count",
    "optim.log_optimal_s": "s",
    "optim.projections_per_solve": "ratio",
    "optim.geometric_median_calls": "count",
    "optim.geometric_median_s": "s",
    "strategies.self_s": "s",
    **{f"engine.run_s.{sid}": "s" for sid in STRATEGY_IDS},
    "engine.accounting_s": "s",
    "engine.reprice_calls": "count",
    "engine.reprice_s": "s",
    "metrics.compute_report_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    "other_s": "s",
    "trace.overhead_frac": "ratio",
}


def _strategy_name(args, kwargs) -> str:
    strategy_id = kwargs.get("strategy_id", args[1] if len(args) > 1 else "")
    return str(strategy_id).partition(":")[0].strip().lower()


class Tracer:
    """In-memory span recorder for one traced iteration; ``patched()``
    installs it."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.backtests: dict[int, tuple[str, int]] = {}  # span -> (strategy, days)
        self._stack = [-1]

    def _wrap(self, name: str, fn):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self._stack
        is_backtest = name == "engine.run_backtest"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if is_backtest:
                self.backtests[idx] = (_strategy_name(args, kwargs),
                                       int(getattr(result, "num_days", 0)))
            return result

        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block."""
        restore = []
        wrappers: dict[int, object] = {}
        for span_name, bindings in TARGETS.items():
            for binding in bindings:
                owner, attr = _resolve(binding)
                if owner is None:
                    continue
                original = getattr(owner, attr)
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(span_name, original)
                restore.append((owner, attr, original))
                setattr(owner, attr, wrappers[id(original)])
        try:
            yield
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def spans(self, command_starts: list[float]) -> dict[str, np.ndarray]:
        """The recorded spans as arrays, plus the table of span names. Each
        span carries the index of the command it ran in, found from the
        commands' start times (same clock)."""
        table = sorted(set(self.names))
        code = {n: i for i, n in enumerate(table)}
        starts = np.array(self.starts)
        return {
            "name_table": np.array(table),
            "name": np.array([code[n] for n in self.names], dtype=np.int32),
            "parent": np.array(self.parents, dtype=np.int64),
            "command": np.searchsorted(command_starts, starts, side="right") - 1,
            "start": starts,
            "end": np.array(self.ends),
        }


def _resolve(binding: str):
    """(owner object, attribute) for "module:Attr" or "module:Class.attr"."""
    module_name, _, path = binding.partition(":")
    try:
        owner = importlib.import_module(f"rankfolio.{module_name}")
    except ImportError:
        return None, None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if not callable(getattr(owner, attr, None)):
        return None, None
    return owner, attr


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer figures for one traced iteration whose commands took
    ``wall_s`` seconds in total (overhead and bytes are filled in later)."""
    names = np.array(tracer.names)
    parent = np.array(tracer.parents, dtype=np.int64)
    dur = np.array(tracer.ends) - np.array(tracer.starts)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                             minlength=dur.size)
    self_time = dur - child_time
    parent_name = np.where(has_parent, names[np.maximum(parent, 0)], "")

    def is_(name):
        return names == name

    def count(name):
        return int(is_(name).sum())

    def total(name, values=dur):
        # spans nested in a span of the same name (cli.write) count once
        return float(values[is_(name) & (parent_name != name)].sum())

    run_s = {sid: 0.0 for sid in STRATEGY_IDS}
    learner_days = 0
    for idx, (sid, num_days) in tracer.backtests.items():
        if sid in run_s:
            run_s[sid] += float(dur[idx])
        if sid in LEARNER_IDS:
            learner_days += num_days
    solves = count("optim.log_optimal")
    solve_projections = int((is_("optim.project")
                             & (parent_name == "optim.log_optimal")).sum())

    out = {
        "data.load_csv_calls": count("data.load_csv"),
        "data.load_csv_s": total("data.load_csv"),
        "features.window_calls": count("features.window"),
        "features.window_s": total("features.window"),
        "features.training_set_s": total("features.training_set"),
        "features.windows_per_trading_day":
            count("features.window") / learner_days if learner_days else 0.0,
        "learners.fit_calls": count("learners.fit"),
        "learners.fit_s": total("learners.fit"),
        "learners.predict_s": total("learners.predict"),
        "knn.predict_calls": count("knn.predict"),
        "knn.predict_s": total("knn.predict"),
        "mlp.train_s": total("mlp.train"),
        "mlp.loss_and_gradients_calls": count("mlp.loss_and_gradients"),
        "mlp.loss_and_gradients_s": total("mlp.loss_and_gradients"),
        "mlp.adam_self_s": total("mlp.train", self_time),
        "optim.log_optimal_calls": solves,
        "optim.log_optimal_s": total("optim.log_optimal"),
        "optim.projections_per_solve": solve_projections / solves if solves else 0.0,
        "optim.geometric_median_calls": count("optim.geometric_median"),
        "optim.geometric_median_s": total("optim.geometric_median"),
        "strategies.self_s": total("engine.run_backtest", self_time),
        **{f"engine.run_s.{sid}": run_s[sid] for sid in STRATEGY_IDS},
        "engine.accounting_s": total("engine.accounting"),
        "engine.reprice_calls": count("engine.reprice"),
        "engine.reprice_s": total("engine.reprice"),
        "metrics.compute_report_s": total("metrics.compute_report"),
        "cli.write_s": total("cli.write"),
        "other_s": wall_s - float(dur[~has_parent].sum()),
    }
    return out
