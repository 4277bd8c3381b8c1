"""Machine-speed probe: the benchmark's times in reference-speed seconds.

On a shared machine the speed available to one process drifts by a quarter
or more over seconds to tens of seconds. On a shared 2-core virtual
machine, a fixed pure-Python loop took a median of 47 ms in some 5-second
windows and 71 ms in others. Process CPU time drifts the same way, so it is no fix.
Raw timings of identical work then spread far beyond any useful
regression bound.

The probe measures that drift in the client process itself. It times a
fixed ``fractions.Fraction`` loop right before and right after every
operation. A SIGALRM handler (a signal, not a thread) also times it every
``INTERVAL_S`` seconds while a long operation runs. Each operation's time
is scaled by the mean of ``REF_NOMINAL_S / loop time`` over those samples,
with the top and bottom tenth trimmed. Times then read as seconds on a
machine where the loop takes ``REF_NOMINAL_S``. Time spent in the handler
is subtracted first. The loop uses only the standard library, so no change
to ``ury`` can change the reference.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
# Chosen so that reference-speed seconds match raw seconds in the faster
# phases of the 2-core virtual machine this benchmark was written on; it
# only sets the unit.
REF_NOMINAL_S = 0.000275


def reference_loop() -> None:
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i % 7 + 1, i % 11 + 2)


class SpeedProbe:
    def __init__(self):
        self.refs: list[float] = []  # seconds the reference loop took, in order
        self.spent = 0.0  # seconds spent inside the SIGALRM handler

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.refs.append(self._measure())
        self.spent += time.perf_counter() - start

    def _measure(self) -> float:
        enabled = gc.isenabled()
        gc.disable()  # a collection of the client's heap is not machine speed
        start = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - start
        if enabled:
            gc.enable()
        return took

    def sample(self) -> None:
        """One sample now, outside any timed region."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self.refs.append(self._measure())
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, float, int]:
        """Sample, then return an opaque start marker for :meth:`elapsed`."""
        self.sample()
        return time.perf_counter(), self.spent, len(self.refs) - 1

    def elapsed(self, mark) -> tuple[float, float]:
        """(raw seconds, reference-speed seconds) since ``mark``, both net of
        the handler's time; samples once more after the clock stops."""
        end = time.perf_counter()
        start, spent, first = mark
        raw = end - start - (self.spent - spent)
        self.sample()
        return raw, raw * self.factor(first)

    def factor(self, first: int = 0) -> float:
        """Reference-speed seconds per raw second over the samples from index
        ``first`` on. Samples during an operation are evenly spaced in time,
        so their mean weights each phase of it by its duration. A sample the
        scheduler interrupts reads far too slow, hence the trim."""
        if len(self.refs) <= first:
            self.sample()
        speeds = sorted(REF_NOMINAL_S / r for r in self.refs[first:])
        trim = len(speeds) // 10
        return statistics.fmean(speeds[trim:len(speeds) - trim])
