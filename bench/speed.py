"""Core-speed meter: scales measured wall times to a fixed reference speed.

A shared host runs a single-threaded process up to 1.8x slower for
stretches of seconds to minutes, and CPU time slows as much as wall time,
so no clock of the process alone tells a slow stretch from slow code. The
meter asks the core itself: every PERIOD seconds a SIGALRM runs a fixed
piece of work (a tick) on the benchmark's own thread and records when it ran
and how long it took. The tick parses a small gene-list table, the kind of
work the package's set-up and predict paths are made of; on the host the
benchmark was defined on, set-up, predict, interpret and train slowed down
in proportion to it (a log-log slope of 0.9-1.1 over 15 s windows), where a
bare arithmetic loop or a numpy gather slowed less than they did. A phase
sampled over [t0, t1] is then reported as

    (t1 - t0 - ticks inside it) * REFERENCE_S * mean(1 / tick) around it

that is, the seconds it would have taken on a core that runs the tick in
REFERENCE_S. The mean of 1 / tick is the core's mean speed over the sample,
which stays right when the speed changes inside a long sample, and a tick
stretched by an interrupt adds next to nothing to it. The tick does the
same work in every run and whatever the package does, so a change to the
package moves the scaled time exactly as it moves the wall time; the raw
wall times are kept in the run's report.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD = 0.02         # seconds between ticks
REFERENCE_S = 2e-4    # tick time that defines the reference speed
PAD = 0.25            # ticks this far either side of a sample also count

_TABLE = "\n".join(f"s{i}\tC1\t" + ",".join(f"G{j:05d}:0.5" for j in range(i, i + 15))
                   for i in range(60))


def _tick_work():
    for line in _TABLE.split("\n"):
        fields = line.split("\t")
        [member.split(":") for member in fields[2].split(",")]


class Meter:
    """Context manager that ticks while active; ``scaled`` converts a sample."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _tick_work()
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds the sample [t0, t1] takes at the reference speed, the
        ticks that ran inside it taken out."""
        lo, hi = bisect.bisect_left(self.at, t0), bisect.bisect_left(self.at, t1)
        work = (t1 - t0) - sum(self.took[lo:hi])
        near = self.took[bisect.bisect_left(self.at, t0 - PAD):
                         bisect.bisect_left(self.at, t1 + PAD)]
        if not near:
            raise RuntimeError("no meter tick near a sample; was the meter active?")
        return work * REFERENCE_S * statistics.fmean(1.0 / t for t in near)
