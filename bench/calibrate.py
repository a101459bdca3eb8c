"""Calibration of the machine's speed while a repetition runs.

The benchmark runs on shared virtual machines whose speed drifts: the same
pure-Python work can take twice as long from one minute to the next, and a
vCPU's slow spells are not shared with the other vCPU.  So the benchmark
measures the speed on the same thread, in the same moments as the workload.
A ``Ticker`` interrupts the workload every ``PERIOD_S`` seconds of wall time
(``SIGALRM``) and runs ``reference``, a fixed piece of pure-Python work of
the kind the library does: ``Fraction`` sums in a dict keyed by tuples,
sorting and hashing tuples of small ints.  A chunk that takes ``c``
seconds says that the machine ran at ``REFERENCE_S / c`` of the reference
speed around it.  The ticks split the workload into equal spans of wall
time, so the mean of these speeds over all chunks is the workload's mean
speed.

A time ``t`` measured while the ticker ran is reported at the reference
speed, in seconds, as ``(t - spent) * speed``: ``spent`` is the time the
reference chunks took and ``speed`` the mean speed.  That is the time the
work would take on a machine on which one reference chunk takes
``REFERENCE_S``.  A change to the library moves ``t`` and not ``speed``, so
it shows in full; a slow spell of the machine moves both.  The mean of the
speeds, rather than of the chunk times, keeps a chunk that was descheduled
for a while from counting for more than its share.
``REFERENCE_S`` is a fixed constant: changing it, ``PERIOD_S`` or
``reference`` changes every calibrated number.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array
from fractions import Fraction

PERIOD_S = 0.02
# back-to-back chunks that calibrate the set-up time just measured
SETUP_CHUNKS = 40
# about the duration of one reference chunk on a 2-vCPU Xeon KVM guest, Python 3.11
REFERENCE_S = 0.0005


def reference() -> int:
    """A fixed piece of pure-Python work, about half a millisecond."""
    sums: dict = {}
    for i in range(60):
        key = (i % 17, i % 5)
        sums[key] = sums.get(key, Fraction(0)) + Fraction(i % 11 + 1, i % 5 + 1)
    rows = sorted(tuple(sorted((j * 7919) % 1009 for j in range(i, i + 6))) for i in range(120))
    return len(set(rows)) + len(sums)


class Ticker:
    """Reference chunks, on a timer during a workload or back to back."""

    def __init__(self) -> None:
        self.samples = array("d")

    def _chunk(self, *_) -> None:
        start = time.perf_counter()
        reference()
        self.samples.append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._chunk)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def burst(self, chunks: int) -> None:
        for _ in range(chunks):
            self._chunk()

    @property
    def spent(self) -> float:
        return sum(self.samples)

    @property
    def speed(self) -> float:
        """Mean speed: reference seconds per measured second."""
        return statistics.fmean(REFERENCE_S / c for c in self.samples)
