"""The reference kernel that end-to-end times are scaled by.

The kernel is fixed work that does not use the program: a pure-Python loop
and a run of 5x5 complex numpy solves, in about equal time.  It runs
before, during and after every timed instance (see ``ReferenceClock``) and
through a worker's set-up (``SetupClock``), and each time is scaled by the
kernel's nominal time over its mean measured time (``at_reference``).

On a shared VM the speed of the same code drifts by up to 1.7x within
seconds, and not by the same factor for all code: interpreter-bound code
and numpy-call-bound code slow down by different factors, and the program
mixes both.  Timed beside the program's instances on a 2-vCPU Xeon VM
(eight seeds per workload), scaling by the mix cut the spread (IQR over
median) of the end-to-end times from up to 0.31 for wall time to at most
0.083; scaling by the loop alone or by the solves alone did no better, the
solves alone reaching 0.13.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# The reference kernel (REFERENCE_LOOPS iterations of integer arithmetic,
# then REFERENCE_SOLVES 5x5 complex solves) is taken to last REFERENCE_S at
# reference host speed, about its median time on the VM the benchmark was
# tuned on.
REFERENCE_LOOPS = 15000
REFERENCE_SOLVES = 100
REFERENCE_S = 0.003

_RNG = np.random.default_rng(12345)
_A = _RNG.standard_normal((5, 5)) + 1j * _RNG.standard_normal((5, 5)) + 5.0 * np.eye(5)
_B = np.eye(5, dtype=complex)


def _kernel() -> None:
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i % 7
    for _ in range(REFERENCE_SOLVES):
        np.linalg.solve(_A, _B)


def reference_s(repeats: int = 3) -> float:
    """Median wall time of ``repeats`` runs of the reference kernel, in
    seconds; the median keeps a single stall from setting the scale."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        _kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class ReferenceClock:
    """Samples host speed around and during a timed call.

    ``start`` times the reference kernel, then arms a timer whose SIGALRM
    handler times one more run of it every ``INTERVAL_S``, so that a call
    lasting seconds is sampled throughout and not only at its ends.  The
    handler runs in the timed thread, between bytecodes of the call; its
    time is returned by ``stop`` to be taken off the call's latency.
    """

    INTERVAL_S = 0.25

    def __init__(self):
        self.samples: list[float] = []
        self._ticks: list[tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append(reference_s(repeats=1))
        self._ticks.append((t0, perf_counter() - t0))

    def start(self) -> None:
        self.samples, self._ticks = [reference_s()], []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self, end: float) -> float:
        """Disarm, take the closing sample and return the time the handler
        spent before ``end``, the call's end."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(reference_s())
        return sum(spent for started, spent in self._ticks if started < end)


class SetupClock(ReferenceClock):
    """A ``ReferenceClock`` over a process's set-up.  ``stop`` returns all
    the time the kernel took, the opening and closing samples included,
    since set-up is timed from outside the process."""

    def start(self) -> None:
        t0 = perf_counter()
        reference_s(repeats=1)  # a process's first run is slow: not a sample
        super().start()
        self.spent = perf_counter() - t0

    def stop(self) -> float:
        t0 = perf_counter()
        ticks = super().stop(t0)
        self.spent += ticks + perf_counter() - t0
        return self.spent


def at_reference(latency_s: float, samples) -> float:
    """Scale a latency to reference host speed: ``samples`` are the
    reference kernel's times taken around and during the call."""
    return latency_s * REFERENCE_S / statistics.fmean(samples)
