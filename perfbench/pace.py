"""Pace meter: rescale wall times by the CPU speed measured alongside them.

On the 2-vCPU sandbox this benchmark was sized on, the speed of a vCPU
drifts by up to ±30 % within seconds (identical answers took 3.3 s to
5.8 s in one process), so raw wall-time medians of whole runs spread by
10–28 %.  A :class:`PaceMeter` is a daemon thread in the measured
process that times a fixed pure-Python spin at a fixed period.  A wall
time is reported at the reference pace::

    wall × REFERENCE_SPIN_S / median(spin durations inside the interval)

so a slow phase of the host, which stretches the spin as much as the
program, cancels out, while a change to the program does not (the spin
is benchmark code).

Handing the interpreter lock between threads on different vCPUs is
slow in a VM: sampling every 50 ms cost a single-threaded answer ~13 %
unpinned but ~2 % with the process pinned to one CPU.  Single-threaded
measured processes and the server are therefore pinned
(:func:`pin_to_one_cpu`; the serve-mixed load generator takes the other
CPU) and sampled every ``PINNED_PERIOD_S``; the sharded worker, whose
threads may run in parallel, is left free and sampled every
``FREE_PERIOD_S`` (~3 %).
"""

from __future__ import annotations

import json
import os
import statistics
import threading
import time
from typing import List, Sequence, Set, Tuple

perf_counter = time.perf_counter

#: Spin iterations: ~0.25 ms, far below the interpreter's 5 ms switch interval.
SPIN_ITERATIONS = 3000
PINNED_PERIOD_S = 0.05
FREE_PERIOD_S = 0.2
#: Median spin duration on the reference sandbox (2 vCPU Xeon VM).
REFERENCE_SPIN_S = 250e-6


def spin() -> float:
    start = perf_counter()
    accumulator = 0
    for index in range(SPIN_ITERATIONS):
        accumulator += (index * 7) & 15
    return perf_counter() - start


def pace_factor(samples: Sequence[Tuple[float, float]], start: float, end: float) -> float:
    """Reference ÷ measured spin over ``[start, end]`` (< 1 when the host is slow)."""
    inside = [duration for at, duration in samples if start <= at <= end]
    if not inside:
        inside = [spin() for _ in range(5)]
    return REFERENCE_SPIN_S / statistics.median(inside)


def pin_to_one_cpu(highest: bool = False) -> Set[int]:
    """Pin this process to its lowest (or highest) allowed CPU; returns the old set.

    Children inherit the pin, so a parent that spawns measured processes
    restores the old set before it spawns them.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus) if highest else min(cpus)})
    return cpus


class PaceMeter:
    """Samples ``(start, duration)`` of the spin every *period* seconds."""

    def __init__(self, period: float) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._period = period
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="pace-meter", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self._period):
            start = perf_counter()
            self.samples.append((start, spin()))

    def start(self) -> "PaceMeter":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    def factor(self, start: float, end: float) -> float:
        return pace_factor(self.samples, start, end)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.samples, handle)


def load_samples(path: str) -> List[Tuple[float, float]]:
    with open(path) as handle:
        return [tuple(row) for row in json.load(handle)]
