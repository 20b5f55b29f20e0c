"""The speed gauge, on fake clocks: times are put at reference speed."""

import pytest

from perf.gauge import INTERVAL_S, REFERENCE_KERNEL_S, SpeedGauge, kernel


class FakeCore:
    """A core whose speed the test sets: the kernel costs ``slowdown``
    times its reference CPU time, and wall time moves only when told."""

    def __init__(self):
        self.slowdown = 1.0
        self.cpu = 0.0
        self.wall = 0.0

    def kernel(self):
        self.cpu += REFERENCE_KERNEL_S * self.slowdown

    def gauge(self):
        return SpeedGauge(clock=lambda: self.wall, cpu_clock=lambda: self.cpu,
                          work=self.kernel)


def test_time_on_a_slow_core_is_scaled_down():
    core = FakeCore()
    gauge = core.gauge()
    core.slowdown = 2.0
    before = gauge.sample()
    core.wall += 0.010              # an operation took 10 ms of wall time
    gauge.sample()
    assert gauge.factor(before) == pytest.approx(0.5)
    assert 0.010 * gauge.factor(before) == pytest.approx(0.005)


def test_speed_change_between_readings_uses_their_mean():
    core = FakeCore()
    gauge = core.gauge()
    before = gauge.sample()
    core.slowdown = 3.0
    gauge.sample()
    assert gauge.factor(before) == pytest.approx(0.5)
    # The last reading, with none after it, stands alone.
    assert gauge.factor(before + 1) == pytest.approx(1.0 / 3.0)


def test_a_reading_is_the_faster_of_two_kernel_runs():
    core = FakeCore()
    runs = iter([1.8, 1.0])

    def interrupted_once():
        core.slowdown = next(runs)
        core.kernel()

    gauge = SpeedGauge(clock=lambda: core.wall, cpu_clock=lambda: core.cpu,
                       work=interrupted_once)
    gauge.sample()
    assert gauge.readings == [pytest.approx(REFERENCE_KERNEL_S)]


def test_tick_reads_only_once_the_interval_has_passed():
    core = FakeCore()
    gauge = core.gauge()
    assert gauge.tick() == 0        # the first tick always reads
    core.wall += INTERVAL_S / 2
    assert gauge.tick() == 0
    core.wall += INTERVAL_S / 2
    assert gauge.tick() == 1
    assert len(gauge.readings) == 2


def test_timed_reads_around_the_call():
    core = FakeCore()
    gauge = core.gauge()
    core.slowdown = 1.5

    def build(seed):
        core.wall += 0.030
        return seed * 2

    result, seconds = gauge.timed(build, 21)
    assert result == 42
    assert seconds == pytest.approx(0.020)
    assert len(gauge.readings) == 2


def test_the_real_kernel_is_deterministic_work():
    assert kernel() == kernel()
