"""Speed probe: pins the benchmark to the fastest CPU and scales timings to a
reference machine speed.

On a shared virtual machine each vCPU swings between a fast and a slow
state (about 1.6 times slower) for stretches of a fraction of a second to
minutes, so raw wall times of the same work spread by far more than any
useful bound.  Every ``INTERVAL_S`` the probe times a small fixed piece of
work, much like the program's own mix of JSON, numpy and pure-Python
arithmetic, on each allowed CPU, and pins this process to the fastest one.
A timed call is then reported in reference seconds::

    reference_s = wall_s * REF_S / probe_s

where ``probe_s`` is the mean of the last probe before the call and the
first one after it, and ``REF_S`` is a fixed constant: the probe time on the
reference machine in its fast state.  The probe does not touch the program,
so a change to the program moves reference seconds exactly as it moves wall
seconds on a quiet machine.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time
from typing import NamedTuple

import numpy as np

# The probe time (mean of REPS runs) on a 2-vCPU Intel Xeon VM (Python
# 3.11.7, numpy 2.4.6) in its fast state.
REF_S = 0.0016
INTERVAL_S = 0.25
REPS = 3
MAX_CPUS = 4

_rng = random.Random(0)
_TEXT = json.dumps({"points": [[_rng.randrange(65536), _rng.randrange(65536)]
                               for _ in range(200)], "k": 9})
_HAYSTACK = np.array([_rng.randrange(1 << 16) for _ in range(300)])
_NEEDLES = np.array([_rng.randrange(1 << 16) for _ in range(64)])


def _work() -> None:
    points = json.loads(_TEXT)["points"]
    json.dumps(points)
    for _ in range(20):
        np.isin(_NEEDLES, _HAYSTACK)
    acc: dict = {}
    for x, y in points:
        acc[x % 97] = acc.get(x % 97, 0) + pow(y, 3, 65521)


def _mean_time() -> float:
    start = time.perf_counter()
    for _ in range(REPS):
        _work()
    return (time.perf_counter() - start) / REPS


class Timing(NamedTuple):
    wall_s: float
    probe: int     # index of the last probe before the call
    workers: int


class SpeedProbe:
    def __init__(self):
        allowed = sorted(os.sched_getaffinity(0))
        self.all_cpus = set(allowed)
        self.cpus = allowed[:MAX_CPUS]
        # per probe: the fastest CPU's time, and the mean over the CPUs
        self.fastest: list[float] = []
        self.mean: list[float] = []
        self._last = -float("inf")

    def measure(self) -> None:
        """Time the probe on each CPU and pin to the fastest."""
        times = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            times[cpu] = _mean_time()
        pinned = min(times, key=times.__getitem__)
        os.sched_setaffinity(0, {pinned})
        self.fastest.append(times[pinned])
        self.mean.append(statistics.fmean(times.values()))
        self._last = time.perf_counter()

    def before(self, workers: int = 1, fresh: bool = False) -> int:
        """Probe if due (or ``fresh``), and set the affinity for a call:
        pinned to the fastest CPU, or every CPU for a call that starts pool
        workers (they inherit it).  Returns the index of the probe the call
        follows."""
        if fresh or time.perf_counter() - self._last > INTERVAL_S:
            self.measure()
        if workers > 1:
            os.sched_setaffinity(0, self.all_cpus)
        return len(self.fastest) - 1

    def reference(self, t: Timing) -> float:
        """Reference seconds of a timed call.  A call that starts pool
        workers runs on every CPU, so it is scaled by their mean."""
        series = self.mean if t.workers > 1 else self.fastest
        after = series[t.probe + 1] if t.probe + 1 < len(series) else series[t.probe]
        return t.wall_s * REF_S / ((series[t.probe] + after) / 2)

    def release(self) -> None:
        os.sched_setaffinity(0, self.all_cpus)
