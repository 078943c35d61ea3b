"""Records the program's results for the full-size workloads into
expected.json, which run.py checks every later run against.

    python3 perfbench/record.py SEED [SEED ...]

Run from a checkout of the commit whose results are the reference. A seed
already recorded is checked rather than overwritten: delete its entry first
to record it again.
"""

from __future__ import annotations

import fcntl
import json
import os
import sys

from check import EXPECTED_PATH, load_expected
from run import HERE, run_benchmark
from workloads import WORKLOADS


def main(seeds: list[int]) -> int:
    for seed in seeds:
        for name in WORKLOADS:
            result = run_benchmark(name, seed, 0.0, False, root=HERE.parent)
            if result["problems"]:
                print(f"{name} seed {seed}: {result['problems']}", file=sys.stderr)
                return 1
            # several recorders may run at once: update under a lock and
            # replace the file whole, so that readers never see half of it
            lock = os.open(HERE, os.O_RDONLY)
            try:
                fcntl.flock(lock, fcntl.LOCK_EX)
                expected = load_expected()
                expected.setdefault(name, {})[str(seed)] = result["observed"]
                tmp = EXPECTED_PATH.with_suffix(".tmp")
                tmp.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
                os.replace(tmp, EXPECTED_PATH)
            finally:
                os.close(lock)
            print(f"recorded {name} seed {seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(arg) for arg in sys.argv[1:]]))
