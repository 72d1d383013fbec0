"""Phase timing corrected for the host's interpreter speed.

On a shared virtual machine the same pure-Python code can run up to 1.8x
slower for seconds to minutes at a time (see NOTES.md, "Run-to-run
noise"). ``measure`` times a phase while an interval timer interrupts it
every ``INTERVAL_S`` seconds to run a fixed calibration tick on the same
thread. Because ticks are interleaved with the phase, they see the same
host speed. The phase's own time (wall time minus the ticks) is then
scaled to the speed at which one tick takes ``REFERENCE_TICK_S``:

    seconds = (wall - ticks_total) * REFERENCE_TICK_S / typical_tick

``typical_tick`` is the mean of the fastest ``1 - SLOW_TICKS`` of the
ticks. The slowest ticks are those that the scheduler pre-empted for a
whole time slice (up to 12 ms against 0.2 ms), which happens when the
solver's pool keeps more threads runnable than there are CPUs; they
measure scheduling, not the host's speed.

A change to the library's code moves the phase's own time but not the
ticks, so it still shows in full.
"""

from __future__ import annotations

import contextlib
import random
import signal
import statistics
import time
from dataclasses import dataclass, field

INTERVAL_S = 0.01
MIN_TICKS = 20   # a phase shorter than this many intervals gets the rest right after it
SLOW_TICKS = 0.1   # share of the slowest ticks left out of typical_tick
# About one tick's time on the 2-vCPU x86_64 host the benchmark was written on
# (Python 3.11), in its fast periods. Fixed: it only sets the scale of the output.
REFERENCE_TICK_S = 1.5e-4

_rng = random.Random(0)
_FLOATS = [_rng.uniform(-1e3, 1e3) for _ in range(128)]


def _tick() -> int:
    """Float formatting, string joins and integer arithmetic, as in the CSV writers."""
    text = ",".join(repr(x) for x in _FLOATS)
    total = 0
    for i in range(1200):
        total += i * i
    return len(text) + total


@dataclass
class Measurement:
    calibrate: bool
    wall: float = 0.0
    ticks: list = field(default_factory=list)
    inside: int = 0   # ticks that interrupted the phase; the rest ran after it

    @property
    def own(self) -> float:
        """Wall time of the phase without the ticks that interrupted it."""
        return self.wall - sum(self.ticks[:self.inside])

    @property
    def seconds(self) -> float:
        """The phase's own time at the reference interpreter speed (wall time if uncalibrated)."""
        if not self.calibrate:
            return self.wall
        fastest = sorted(self.ticks)[:max(1, round(len(self.ticks) * (1 - SLOW_TICKS)))]
        return self.own * REFERENCE_TICK_S / statistics.fmean(fastest)


def _timed_tick(ticks: list) -> None:
    start = time.perf_counter()
    _tick()
    ticks.append(time.perf_counter() - start)


@contextlib.contextmanager
def measure(calibrate: bool = True):
    """Time the ``with`` body; see the module docstring. Main thread only."""
    m = Measurement(calibrate)
    if calibrate:
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: _timed_tick(m.ticks))
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    start = time.perf_counter()
    try:
        yield m
    finally:
        m.wall = time.perf_counter() - start
        if calibrate:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
            m.inside = len(m.ticks)
            while len(m.ticks) < MIN_TICKS:
                _timed_tick(m.ticks)
