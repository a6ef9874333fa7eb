"""Times scaled by the host's speed, measured with a fixed reference loop.

The host this benchmark was built on shares its cores with other tenants.
Its single-core speed drifts by up to 1.5x, within seconds and for minutes
at a time, and process CPU time drifts with it. So the benchmark measures
the speed of the core it runs on while it times a command: a `SpeedProbe` runs a
short pure-Python loop of fixed length every PROBE_INTERVAL seconds from a
SIGALRM handler inside the command, and the `ReferenceClock` runs
PROBE_BATCH of them right after each command. A command's scaled time is its
wall time less the time spent in probes, times the mean probe speed over the
command and its two edges, divided by REFERENCE_RATE: the seconds the
command would take on a host where the loop runs at exactly that rate. The
loop is no part of rtslab, so a change to rtslab moves a scaled time by the
same share as the wall time.
"""

from __future__ import annotations

import signal
from time import perf_counter

PROBE_LOOPS = 40_000  # iterations of one probe, about 5 ms
PROBE_INTERVAL = 0.1  # seconds between probes inside a command
PROBE_BATCH = 8  # probes at each edge of a command
REFERENCE_RATE = 8.0e6  # loop iterations per second on the reference host


def reference_loop(loops: int) -> float:
    """Wall time of a fixed pure-Python loop (dict stores, int arithmetic)."""
    start = perf_counter()
    table, total = {}, 0
    for i in range(loops):
        table[i & 1023] = total
        total += i * 3 % 7
    return perf_counter() - start


def probe_speed() -> float:
    """Speed of this core now, in loop iterations per second."""
    return PROBE_LOOPS / reference_loop(PROBE_LOOPS)


class SpeedProbe:
    """Measures the speed every PROBE_INTERVAL seconds inside its block."""

    def __init__(self):
        self.speeds: list[float] = []
        self.seconds = 0.0  # time the probes took

    def _probe(self, signum, frame) -> None:
        start = perf_counter()
        self.speeds.append(probe_speed())
        self.seconds += perf_counter() - start

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


class ReferenceClock:
    """Scales command times by the speed probed inside and around them."""

    def __init__(self):
        self.speeds: list[float] = []  # every probe's speed, for the results record
        self._edge = self._batch()  # speeds just before the next command

    def _batch(self) -> list[float]:
        speeds = [probe_speed() for _ in range(PROBE_BATCH)]
        self.speeds += speeds
        return speeds

    def scale(self, seconds: float, inside: list[float], inside_seconds: float) -> float:
        """Scaled time of a command that just ended after `seconds` of wall
        time, whose probes measured the speeds `inside` and took
        `inside_seconds`."""
        after = self._batch()
        speeds = self._edge + inside + after
        self.speeds += inside
        self._edge = after
        return (seconds - inside_seconds) * (sum(speeds) / len(speeds)) / REFERENCE_RATE
