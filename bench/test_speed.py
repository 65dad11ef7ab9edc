"""Tests of the benchmark's speed sampler.  Run: python3 -m pytest -q bench/test_speed.py"""

import signal
import time

from speed import SpeedSampler


def test_first_sample_is_outside_the_block():
    ticks = iter([0.0, 1.0, 1.0, 5.0])  # kernel [0, 1], block [1, 5]
    with SpeedSampler(period=0, kernel=lambda: None, clock=lambda: next(ticks)) as s:
        pass
    assert s.samples == [1.0]
    assert s.wall_s == 4.0


def test_timer_samples_are_taken_out_of_the_wall_time():
    def kernel():
        time.sleep(0.002)

    previous = signal.getsignal(signal.SIGALRM)
    before = time.perf_counter()
    with SpeedSampler(period=0.01, kernel=kernel) as s:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    after = time.perf_counter()
    assert len(s.samples) >= 6
    # the block lasted at least 0.2 s, some of it in the timer's samples,
    # and sat between the first sample and the clock read after the block
    in_block = sum(s.samples[1:])
    assert in_block >= 0.01
    assert 0.2 <= s.wall_s + in_block <= after - before - s.samples[0]
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
