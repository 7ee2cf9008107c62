"""Timing scaled to the host's current speed.

On the two-core virtual machine this benchmark was built on, a fixed loop of
pure Python runs up to twice as fast at one moment as at the next, and the
program's time swings the same way, so raw seconds of two runs are not
comparable.  While a timed call runs, a timer signal interrupts it every
PERIOD_S seconds to time a fixed reference loop (a probe), which does not
touch the program.  Each stretch of the call between two probes is scaled by
REFERENCE_S / (their mean duration): the result is the seconds the call would
take on a host where one reference loop takes REFERENCE_S.  Probe time is
not counted as the call's, and callers keep the raw seconds as well.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

REFERENCE_S = 0.005
PERIOD_S = 0.2


def reference_loop() -> tuple:
    """Fixed work of the kinds the program does: exact rationals and integers."""
    acc = Fraction(0)
    for i in range(1, 750):
        acc += Fraction(i % 7 + 1, i % 97 + 1)
    x = 0
    for i in range(15000):
        x += i * i % 7
    return acc, x


def scaled_seconds(start: float, end: float, probes) -> tuple[float, float]:
    """Raw and reference seconds of the time in [start, end] outside probes.

    `probes` holds each probe's (start, end) in time order; the first ends at
    or before `start` and the last begins at or after `end`.
    """
    raw = scaled = 0.0
    for (a0, a1), (b0, b1) in zip(probes, probes[1:]):
        stretch = min(b0, end) - max(a1, start)
        if stretch > 0:
            raw += stretch
            scaled += stretch * REFERENCE_S * 2 / ((a1 - a0) + (b1 - b0))
    return raw, scaled


class Meter:
    """Times calls in raw and reference seconds.  With sample=False only the
    probes before and after a call are taken, which suits short calls and
    traced ones, whose spans should hold no probe time."""

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.probes: list[tuple[float, float]] = []

    def _probe(self, *_signal_args) -> None:
        start = time.perf_counter()
        reference_loop()
        self.probes.append((start, time.perf_counter()))

    def call(self, fn):
        """Run fn(); returns its result, raw seconds, reference seconds and CPU seconds."""
        self.probes = []
        self._probe()
        if self.sample:
            previous = signal.signal(signal.SIGALRM, self._probe)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        start, cpu = time.perf_counter(), time.process_time()
        try:
            result = fn()
        finally:
            end, cpu = time.perf_counter(), time.process_time() - cpu
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        self._probe()
        raw, scaled = scaled_seconds(start, end, self.probes)
        inside = sum(max(0.0, min(b, end) - max(a, start)) for a, b in self.probes)
        return result, raw, scaled, max(cpu - inside, 0.0)
