"""Reference loop: the host's current speed, measured beside the workload.

On a shared host the same code runs up to twice as slow from one minute
to the next, mostly because the virtual CPU is descheduled in short
bursts.  A fixed reference loop, timed in short slices interleaved with
the workload's operations, loses the same share of its time, so timings
multiplied by the loop's local speed (relative to a fixed nominal speed)
repeat far better than raw wall-clock times.

Stalls come in bursts, and they hit a 150 ms operation in proportion to
its length but miss most 5 ms ones, so the local speed matches the
operation's length: the median speed of runs of consecutive slices as
long as the operation (see :meth:`Reference.scale`).

The loop is pure-Python arithmetic plus small numpy solves, the mix of
interpreter and LAPACK work the program does, and it calls nothing in
``repro``.  A slice counts only when no other thread of the process ran
during it (process CPU time grew by no more than this thread's CPU
time): a change that adds background work cannot slow the reference and
so flatter its own scaled figures.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: Slices per second the loop runs at on the host the benchmark was
#: calibrated on (2-vCPU x86-64 container, Python 3.11, numpy 2.4 with one
#: OpenBLAS thread).  Scaled figures read as if the host ran at this
#: speed; the value only sets their units and never changes per run.
NOMINAL_SPEED = 2000.0

#: A slice is rejected when other threads used more CPU than this during it.
FOREIGN_CPU_TOLERANCE = 50e-6

#: Reference time spent after each operation, as a share of its duration
#: (at least one slice).
REFERENCE_SHARE = 0.08
#: The same after each step of a set-up.  A set-up runs once or a few
#: times per run, so its steps get far more reference time than queries
#: do: the slices around a step are then mostly the host's speed during
#: the set-up itself.
SETUP_REFERENCE_SHARE = 0.5

#: Slices within this many seconds of an operation set its local speed...
WINDOW_SECONDS = 1.0
#: ...widened to at least this many slices.
MIN_SLICES = 12

_RNG = np.random.default_rng(12345)
_MATRIX = _RNG.normal(size=(8, 8)) + 8.0 * np.eye(8)
_VECTOR = _RNG.normal(size=8)


def _slice_work(rounds: int = 20) -> float:
    acc = 0.0
    table: dict[int, int] = {}
    for i in range(rounds):
        x = 0
        for j in range(60):
            x += (j * 7 + i) % 13
        table[i & 15] = table.get(i & 15, 0) + x
        acc += float(np.linalg.solve(_MATRIX, _VECTOR)[0])
        acc += float((_MATRIX @ _VECTOR).sum())
    return acc + len(table)


class Reference:
    """Runs reference slices and turns raw durations into scaled ones."""

    def __init__(self):
        self.times: list[float] = []   # midpoints of accepted slices
        self.walls: list[float] = []   # their durations
        self.rejected = 0

    def tick(self, slices: int = 1) -> None:
        """Time ``slices`` reference slices, one measurement each."""
        for _ in range(slices):
            cpu0 = time.process_time()
            own0 = time.thread_time()
            start = time.perf_counter()
            _slice_work()
            end = time.perf_counter()
            foreign = (time.process_time() - cpu0) - (time.thread_time() - own0)
            if foreign > FOREIGN_CPU_TOLERANCE:
                self.rejected += 1
            else:
                self.times.append(0.5 * (start + end))
                self.walls.append(end - start)

    def follow(self, seconds: float, share: float = REFERENCE_SHARE) -> None:
        """Slices worth ``share`` of an operation that took ``seconds``."""
        typical = self.walls[-1] if self.walls else 1e-3
        self.tick(max(1, round(share * seconds / typical)))

    def scale(self, start: float, end: float) -> float:
        """Factor turning the raw duration of ``[start, end]`` into a
        scaled one.

        The accepted slices within WINDOW_SECONDS of the operation (at
        least MIN_SLICES) are cut, in time order, into runs as long as
        the operation, and the median run speed is the local speed: a
        few slices per run for a 5 ms operation, one run of every slice
        for a 500 ms one.  A short operation's median latency escapes
        most stalls, as short runs of slices do, while a long one absorbs
        its share of every stall, as a long run does.
        """
        if not self.times:
            raise RuntimeError("no reference slice was accepted")
        lo = bisect.bisect_left(self.times, start - WINDOW_SECONDS)
        hi = bisect.bisect_right(self.times, end + WINDOW_SECONDS)
        while hi - lo < min(MIN_SLICES, len(self.times)):
            lo = max(lo - 1, 0)
            hi = min(hi + 1, len(self.times))
        duration = end - start
        speeds = []
        count, total = 0, 0.0
        for wall in self.walls[lo:hi]:
            count += 1
            total += wall
            if total >= duration:
                speeds.append(count / total)
                count, total = 0, 0.0
        if not speeds:
            speeds.append(count / total)
        return statistics.median(speeds) / NOMINAL_SPEED

    def mean_speed(self) -> float:
        return len(self.walls) / sum(self.walls)
