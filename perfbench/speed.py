"""Host speed tracking for the benchmark's timings.

On the shared 2-vCPU host this benchmark was built on, the same pure-Python
loop runs up to about 2x slower for stretches of milliseconds to minutes,
with no CPU steal visible from inside: the vCPU itself is slower, so the
thread's CPU time stretches as much as its wall time. The share of slow time
drifts, so raw throughputs of the same code and seed spread by up to 2x
between runs, more than any regression bound.

A probe process pinned to the run's vCPU times a fixed pure-Python unit
(about 0.4 ms) in CPU time every 10 ms. CPU time leaves out the time the
probe waits for the vCPU, so it tracks the vCPU's speed while the benchmark
runs beside it. A sample's rate is multiplied by the mean probe unit time
during the sample over ``REFERENCE_UNIT_SECONDS``: the rate the same work
would have at the probe's reference speed.

Run as a script, this module is the probe: ``python3 speed.py <cpu>``. It
stops when its standard input closes and prints its readings as JSON.
"""

from __future__ import annotations

import bisect
import json
import os
import select
import statistics
import subprocess
import sys
import time

UNIT_ITERATIONS = 5000
PERIOD_SECONDS = 0.01
# The probe unit's CPU time on a fast stretch of the host above; it only sets
# the scale on which rates are reported.
REFERENCE_UNIT_SECONDS = 0.35e-3


def _unit_seconds() -> float:
    start = time.thread_time()
    total = 0
    for i in range(UNIT_ITERATIONS):
        total += i * i % 7
    return time.thread_time() - start


class SpeedProbe:
    """A probe process on ``cpu``; :meth:`stop` ends it and keeps its readings."""

    def __init__(self, cpu: int):
        self.process = subprocess.Popen([sys.executable, __file__, str(cpu)],
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.times: list[float] = []
        self.units: list[float] = []

    def stop(self) -> None:
        out, _ = self.process.communicate(timeout=60)
        readings = json.loads(out) if self.process.returncode == 0 else []
        self.times = [t for t, _ in readings]
        self.units = [u for _, u in readings]

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()

    def factor(self, start: float, end: float) -> float:
        """Mean probe unit time over [start, end], widened by one period on each
        side, relative to the reference; 1.0 when the probe has no readings."""
        if not self.times:
            return 1.0
        lo = bisect.bisect_left(self.times, start - PERIOD_SECONDS)
        hi = bisect.bisect_right(self.times, end + PERIOD_SECONDS)
        window = self.units[lo:hi] or [self.units[min(lo, len(self.units) - 1)]]
        return statistics.fmean(window) / REFERENCE_UNIT_SECONDS


def _probe(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    readings = []
    while not select.select([sys.stdin], [], [], PERIOD_SECONDS)[0]:
        readings.append((time.perf_counter(), _unit_seconds()))
    json.dump(readings, sys.stdout)


if __name__ == "__main__":
    _probe(int(sys.argv[1]))
