import signal
import time

import pytest

from speedometer import REFERENCE_UNIT_S, Speedometer


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_running_samples_and_then_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    meter = Speedometer(interval=0.005)
    with meter.running():
        _busy(0.05)
    assert len(meter.samples) >= 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_alarm_is_restored_after_an_exception():
    before = signal.getsignal(signal.SIGALRM)
    with pytest.raises(ZeroDivisionError):
        with Speedometer(interval=0.005).running():
            1 / 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_scaled_removes_the_samples_and_the_host_speed():
    meter = Speedometer()
    meter.samples = [2 * REFERENCE_UNIT_S] * 3  # the host ran at half speed
    assert meter.speed == pytest.approx(0.5)
    assert meter.scaled(1.0) == pytest.approx((1.0 - 6 * REFERENCE_UNIT_S) / 2)
