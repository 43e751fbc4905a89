"""Speed calibration: express timings at one reference machine speed.

The machine the benchmark was built on (a 2-vCPU virtual machine sharing
its host) changes speed by up to 1.7x over a few minutes: a fixed
pure-Python loop took 13 ms per call in one 30-second window and 22 ms
in another.  Raw seconds from two runs minutes apart are then not
comparable, whatever the run length.

So a fixed kernel with the same kind of work as the library (Fraction
products accumulated in a dict keyed by exponent tuples, in qpoly, never
the library) runs every CAL_INTERVAL_S, between jobs and inside them.  A time
measured near a calibration is scaled by NOMINAL_S / (kernel time then),
which gives seconds at the speed where the kernel takes NOMINAL_S.  The
kernel's own time is not part of any measured job; raw values are kept in
the run's info line.
"""

from __future__ import annotations

import random
import signal
import statistics
from fractions import Fraction
from time import perf_counter

import qpoly

NOMINAL_S = 0.0015  # the kernel's time at the reference speed
# Calibrating every 0.1 s and scaling by the calibrations within 0.15 s
# cut the coefficient of variation of the median of 24 equal 100 ms jobs
# from 18% (raw) to 2%; with a 1 s window it was 4%, with 3 s 6%.
CAL_INTERVAL_S = 0.1
WINDOW_S = 0.15


def _operands():
    rng = random.Random(7)

    def poly(terms, digits):
        return {tuple(rng.randint(0, 4) for _ in range(3)):
                Fraction(rng.randint(1, 10**digits) * rng.choice((1, -1)),
                         rng.randint(1, 10**digits)) for _ in range(terms)}
    return poly(30, 1), poly(30, 1), poly(12, 30), poly(12, 30)


_P, _Q, _BIG_P, _BIG_Q = _operands()


def kernel_s() -> float:
    """Geometric mean of two products' times: small coefficients, where
    the interpreter's own work dominates, and 30-digit ones, where big
    integer arithmetic does, as in long certification jobs."""
    t0 = perf_counter()
    qpoly.mul(_P, _Q)
    t1 = perf_counter()
    qpoly.mul(_BIG_P, _BIG_Q)
    return ((t1 - t0) * (perf_counter() - t1)) ** 0.5


class SpeedLog:
    """Calibrations taken during a run, and the scale for any interval.

    calibrate() runs the kernel now.  While sampling is on, a CPU-time
    timer also runs it every CAL_INTERVAL_S inside jobs, from a signal
    handler, so that a job of several seconds is scaled by the speed during
    it; the handler's own time is added to `overhead`, which callers
    subtract from the job's time."""

    def __init__(self):
        self.samples = []  # (mid time, kernel seconds)
        self.overhead = 0.0
        self._last = float("-inf")

    def calibrate(self):
        t = perf_counter()
        k = kernel_s()
        self.samples.append((t + k / 2, k))
        self._last = perf_counter()

    def maybe_calibrate(self):
        if perf_counter() - self._last >= CAL_INTERVAL_S:
            self.calibrate()

    def _tick(self, signum, frame):
        t = perf_counter()
        self.calibrate()
        self.overhead += perf_counter() - t

    def sampling(self, on: bool):
        if on:
            signal.signal(signal.SIGVTALRM, self._tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, CAL_INTERVAL_S if on else 0, CAL_INTERVAL_S)

    def scale(self, t0: float, t1: float) -> float:
        """NOMINAL_S over the median kernel time of the calibrations within
        WINDOW_S of [t0, t1], or of the two nearest when there are none."""
        near = [k for t, k in self.samples if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
        if not near:
            near = [k for _, k in sorted(self.samples,
                                         key=lambda s: min(abs(s[0] - t0), abs(s[0] - t1)))[:2]]
        return NOMINAL_S / statistics.median(near)
