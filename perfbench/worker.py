"""Benchmark worker: runs CLI commands in-process through rankfolio.cli.main.

    python3 perfbench/worker.py setup SRC_DIR PRICES_CSV
        Times `import rankfolio.cli` plus one `load_csv` in this fresh
        process and prints {"setup_wall_s": ...}.

    python3 perfbench/worker.py reference
        Times `import numpy` in this fresh process, the set-up probe of
        speed.py, and prints {"import_numpy_s": ...}.

    python3 perfbench/worker.py run PLAN_JSON
        Runs the plan's commands in iterations until the next one would end
        after the plan's time budget (at least one), and writes worker.json
        into the plan's output directory. With "trace" set, each iteration
        is an untraced pass followed by a traced pass of the same commands;
        without it, the command probe of speed.py runs throughout and every
        command's wall time is also reported scaled.

The worker only runs and times the program; run.py checks the outputs.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

from speed import SpeedMeter


def _import_cli(src: str):
    sys.path.insert(0, src)
    import rankfolio
    import rankfolio.cli
    # an installed copy elsewhere must not stand in for the checkout's source
    if not Path(rankfolio.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise ImportError(f"rankfolio imported from {rankfolio.__file__}, not {src}")
    return rankfolio.cli


def setup(src: str, csv_path: str) -> None:
    start = perf_counter()
    cli = _import_cli(src)
    cli.load_csv(csv_path)
    print(json.dumps({"setup_wall_s": perf_counter() - start}))


def reference() -> None:
    start = perf_counter()
    import numpy  # noqa: F401
    print(json.dumps({"import_numpy_s": perf_counter() - start}))


def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts() -> dict:
    import numpy as np
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": None,
        "blas_threads": None,
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    try:
        facts["blas_threads"] = _blas_threads()
    except OSError:
        pass
    return facts


def _bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_command(cli, argv: list[str], out: Path, meter=None) -> dict:
    """Runs one CLI command in-process and times it; with a meter, the
    wall time excludes its probes and is also scaled by it."""
    stdout, stderr = io.StringIO(), io.StringIO()
    cpu = process_time()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main([*argv, "--out", str(out)])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        rc = None
        stderr.write(traceback.format_exc())
    end = perf_counter()
    wall, scaled = meter.scaled(start, end) if meter else (end - start, None)
    return {
        "out": str(out), "rc": rc, "start": start, "wall_s": wall,
        "scaled_s": scaled,
        "cpu_s": process_time() - cpu,
        "stderr": stderr.getvalue()[-4000:],
        "bytes": _bytes_under(out) if out.is_dir() else 0,
    }


def run_commands(cli, plan: dict, tag: str, meter=None) -> list[dict]:
    """One pass over the plan's commands, each run its number of repeats;
    repeat k of a command writes to OUT/tag/label/k."""
    records = []
    for label, repeats, *argv in plan["commands"]:
        for k in range(repeats):
            out = Path(plan["out"]) / tag / label / str(k)
            record = run_command(cli, [*argv, "--data", plan["csv"]], out, meter)
            records.append({"label": label, **record})
    return records


def run(plan_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text())
    cli = _import_cli(plan["src"])
    if plan["trace"]:
        from spans import Tracer, layer_metrics
        import numpy as np
    meter = None if plan["trace"] else SpeedMeter()
    iterations = []
    started = perf_counter()
    while True:
        began = perf_counter()
        i = len(iterations)
        item = {"commands": run_commands(cli, plan, f"i{i}", meter)}
        if plan["trace"]:
            tracer = Tracer()
            with tracer.patched():
                traced = run_commands(cli, plan, f"i{i}_traced")
            wall = sum(c["wall_s"] for c in traced)
            layers = layer_metrics(tracer, wall)
            layers["cli.bytes_written"] = sum(c["bytes"] for c in traced)
            layers["trace.overhead_frac"] = \
                wall / sum(c["wall_s"] for c in item["commands"]) - 1.0
            np.savez(Path(plan["out"]) / f"spans_i{i}.npz",
                     **tracer.spans([c["start"] for c in traced]))
            item["traced_commands"] = traced
            item["layers"] = layers
            del tracer
        iterations.append(item)
        took = perf_counter() - began
        if perf_counter() - started + took > plan["seconds"]:
            break
    if meter:
        meter.stop()
    result = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine_facts(),
        "probe_median_s": statistics.median(meter.probe_s) if meter else None,
        "iterations": iterations,
    }
    (Path(plan["out"]) / "worker.json").write_text(json.dumps(result, indent=1))


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"] and len(sys.argv) == 4:
        setup(sys.argv[2], sys.argv[3])
    elif sys.argv[1:] == ["reference"]:
        reference()
    elif sys.argv[1:2] == ["run"] and len(sys.argv) == 3:
        run(sys.argv[2])
    else:
        sys.exit("usage: worker.py setup SRC_DIR PRICES_CSV | reference | "
                 "run PLAN_JSON")
