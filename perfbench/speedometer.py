"""Host-speed samples taken while a pass runs, to scale its time to a fixed speed.

The measuring host is shared. Its speed moves by tens of percent within
seconds and drifts over minutes, and the program's pass times move with it.
A :class:`Speedometer` times a small fixed calibration unit every
``interval`` seconds from a ``SIGALRM`` handler, so the samples fall between
the program's own bytecodes, on the same CPU and at the same moments as the
program's work. Each sample gives the host's speed, :data:`REFERENCE_UNIT_S`
over the sample's duration, for the interval around it; the samples are
evenly spaced in time, so the pass's work at the reference speed is its
time multiplied by the mean speed. The sampling time itself is taken out
of the pass time first.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

#: Nominal duration of one calibration unit: scaled times are the times on a
#: host that runs one unit in exactly this long. One unit took 0.9-1.8 ms on
#: the 2-vCPU host the benchmark was built on.
REFERENCE_UNIT_S = 1e-3

_MATRIX = np.random.default_rng(0).normal(size=(40, 20))


def calibration_unit() -> None:
    """Fixed work of both kinds the program does: small LAPACK calls through
    numpy, and plain Python arithmetic."""
    for _ in range(20):
        np.linalg.qr(_MATRIX)
        sum(i * i for i in range(100))


class Speedometer:
    def __init__(self, interval: float = 0.025):
        self.interval = interval
        self.samples: list[float] = []

    def sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        calibration_unit()
        self.samples.append(time.perf_counter() - t0)

    @contextlib.contextmanager
    def running(self):
        """Sample once now and then every ``interval`` seconds until exit."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        try:
            self.sample()
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    @property
    def sampling_s(self) -> float:
        """Time spent in the samples themselves."""
        return sum(self.samples)

    @property
    def speed(self) -> float:
        """Mean host speed while sampling: below 1, the host ran slower than
        the reference."""
        return statistics.fmean(REFERENCE_UNIT_S / t for t in self.samples)

    def scaled(self, seconds: float) -> float:
        """``seconds`` measured while sampling, without the samples' own time,
        at the reference speed."""
        return (seconds - self.sampling_s) * self.speed
