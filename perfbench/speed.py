"""Scales wall times to a fixed reference speed of the machine.

A shared machine can run the same instructions at speeds up to 2x apart,
changing within seconds and holding a state for minutes, so raw wall times of
one command differ more between runs than most speed-ups do. Both scalings
below time a fixed piece of code that depends on nothing in the program (the
probe) next to the program, and report the program's time on a machine where
the probe takes its reference time. A change to the program does not move
the probe.

Commands: a timer signal interrupts the worker every ``INTERVAL_S`` seconds,
and the handler runs the command probe in the interrupted thread, on the
core the program is running on at that moment. The slow state does not slow
all code alike, so the probe mixes the two kinds of work the program does:
interpreted Python loops and numpy calls on small arrays. On the defining
machine, scaling by this mix left less of the spread of `compare`,
`backtest --strategy mlp` and `sweep-fees` samples than either part alone.
A span's scaled time is its wall time, less the time spent in probes, times
the mean of ``COMMAND_REFERENCE_S / probe time`` over the probes taken in it:
the machine's mean speed over the span. Trimming 20% of the probes at each
end, to drop interrupted ones, did not lower the spread in a trial.

Set-up: set-up is mostly the loading of compiled code, which slowed by 1.5x
for minutes at a time on the defining machine while the command probe did
not. Its probe is ``import numpy`` in a fresh process, run just before each
set-up sample: the set-up wall time is scaled by
``SETUP_REFERENCE_S / probe time``.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.02       # 2-3% of the wall time goes to probes

# Typical probe times on the 2-core Xeon VM the benchmark was defined on.
COMMAND_REFERENCE_S = 5.0e-4
SETUP_REFERENCE_S = 0.1


def scaled_setup(wall_s: float, import_numpy_s: float) -> float:
    return wall_s * SETUP_REFERENCE_S / import_numpy_s


def command_probe():
    """Returns the command probe. It imports numpy."""
    import numpy as np
    v10, v50 = np.linspace(0.1, 1.0, 10), np.linspace(0.1, 1.0, 50)
    m = np.linspace(0.0, 1.0, 2000).reshape(100, 20)

    def probe() -> float:
        total = 0.0
        for i in range(1500):
            total += i * i
        for _ in range(20):
            x = np.maximum(v10 - 0.5, 0.0)
            y = v50 / v50.sum()
            total += float(x @ v10) + float(y[0]) + float((m.T @ m)[0, 0])
        return total

    return probe


class SpeedMeter:
    """Runs the command probe on SIGALRM from construction to stop()."""

    def __init__(self):
        self.probe = command_probe()
        self.starts: list[float] = []
        self.probe_s: list[float] = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        self.probe()
        self.probe_s.append(perf_counter() - start)
        self.starts.append(start)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, start: float, end: float) -> tuple[float, float]:
        """(wall time less probes, scaled time) of the span [start, end].

        A span without a probe of its own is scaled by every probe so far.
        """
        i, j = (bisect.bisect_left(self.starts, t) for t in (start, end))
        probes = self.probe_s[i:j]
        wall = end - start - sum(probes)
        speeds = [COMMAND_REFERENCE_S / p for p in (probes or self.probe_s)]
        return wall, wall * statistics.fmean(speeds) if speeds else wall
