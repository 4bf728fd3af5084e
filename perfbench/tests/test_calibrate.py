"""Speed-scaled CPU time: the kernel samples land inside the measured item,
their cost is taken out of it, and the timer is put back afterwards."""

import signal
import statistics
import time

import calibrate


def busy(seconds):
    end = time.thread_time() + seconds
    n = 0
    while time.thread_time() < end:
        n += 1
    return n


def test_samples_land_inside_the_item_and_are_taken_out():
    before = signal.getsignal(signal.SIGPROF)
    with calibrate.Speedometer() as meter:
        warm = len(meter.kernel_s)
        t0 = time.thread_time()
        result, scaled = meter.measure(lambda: busy(0.2))
        total = time.thread_time() - t0
    assert result > 0
    assert warm == calibrate.MIN_SAMPLES
    inside = meter.kernel_s[warm:]
    # one sample per INTERVAL_S of CPU, give or take the scheduler tick
    assert len(inside) >= 0.2 / calibrate.INTERVAL_S / 2
    assert meter.raw_s < total - 0.9 * sum(inside)
    assert scaled == meter.raw_s * calibrate.REFERENCE_S / statistics.fmean(inside)
    assert signal.getsignal(signal.SIGPROF) == before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_short_items_borrow_the_latest_samples():
    with calibrate.Speedometer() as meter:
        _, scaled = meter.measure(lambda: None)
    window = meter.kernel_s[-calibrate.MIN_SAMPLES:]
    assert scaled == meter.raw_s * calibrate.REFERENCE_S / statistics.fmean(window)
