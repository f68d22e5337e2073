"""Host-speed calibration, timed inside each child next to the workload.

On a shared VM, other tenants slow a child down by up to 2x for stretches
of seconds to minutes.  CPU time rises with wall time, and a slow stretch
can outlast a whole run, so no statistic over one run's samples, not even
their minimum, tells a slow host from a slow program.  Each untraced child
therefore also times a fixed set of small kernels that use the same
primitives as gft (Horner loops on 12- and 720-point numpy arrays,
Gauss-Legendre nodes, interpreter loops, dict and sort work): once before
the workload, once after, and one kernel at a time from a SIGALRM handler
every TICK_S seconds while it runs, so the samples cover the child's whole
life.  speed() is their time relative to the reference times in KERNELS,
and run.py divides the child's wall and set-up times by it.  None of this
depends on gft, so a change to gft moves the normalised times exactly as
it moves the raw ones.

On a 2-vCPU Xeon VM, over 10-15 minutes in which the host's speed varied
2x, the spread of single-child times (standard deviation of their
logarithm) fell from 0.16-0.25 raw to 0.06-0.07 after this normalisation
on quadrature-check and member-sweep, and from 0.08-0.11 to 0.02 on
verify-all.  It helps bounds-table least (0.10-0.12 to 0.08-0.11): its
passes over 8-MB arrays and their page faults slow down less than these
kernels in some contended stretches.  Kernels that stream 8-MB arrays or
fault in fresh pages tracked it little better, and as they run while the
workload holds its peak memory they would raise peak_rss_mb, so they are
left out; every kernel here allocates little.
"""

from __future__ import annotations

import signal
import time

import numpy as np

TICK_S = 0.25

_rng = np.random.default_rng(20240611)
_COEFFS = _rng.standard_normal(65) + 1j * _rng.standard_normal(65)
_CIRCLE = 0.9 * np.exp(2j * np.pi * np.arange(720) / 720)
_FEW = 0.5 * _CIRCLE[:12]


def _horner(points, reps):
    for _ in range(reps):
        acc = np.zeros_like(points)
        for c in _COEFFS:
            acc = acc * points + c


def _small():
    _horner(_FEW, 40)


def _circle():
    _horner(_CIRCLE, 25)


def _legendre():
    for _ in range(20):
        np.polynomial.legendre.leggauss(12)


def _interpreter():
    total = 0
    for i in range(60000):
        total += i * i % 7


def _objects():
    table = {i: str(i) for i in range(20000)}
    sorted(table.values())


# Kernel and its median time in ms inside quadrature-check children on a
# 2-vCPU Xeon VM in a quiet stretch.
KERNELS = (
    (_small, 3.1),
    (_circle, 3.5),
    (_legendre, 4.1),
    (_interpreter, 4.5),
    (_objects, 3.7),
)


class Calibrator:
    """Collects kernel timings; ``spent_s`` is the wall time they took, warm-up included."""

    def __init__(self) -> None:
        start = time.perf_counter()
        for kernel, _ in KERNELS:
            kernel()
        self.samples = [[] for _ in KERNELS]
        self.spent_s = time.perf_counter() - start
        self._next = 0

    def _time(self, index: int) -> None:
        start = time.perf_counter()
        KERNELS[index][0]()
        took = time.perf_counter() - start
        self.samples[index].append(took)
        self.spent_s += took

    def block(self) -> None:
        for index in range(len(KERNELS)):
            self._time(index)

    def _tick(self, signum, frame) -> None:
        self._time(self._next)
        self._next = (self._next + 1) % len(KERNELS)

    def start_ticks(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop_ticks(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def means(self) -> list:
        """Mean time of each kernel, in seconds."""
        return [sum(s) / len(s) for s in self.samples]

    def speed(self) -> float:
        """Summed mean kernel time over summed reference time: 1 on a quiet host, 2 when twice as slow."""
        return sum(self.means()) / (sum(ref for _, ref in KERNELS) / 1000.0)
