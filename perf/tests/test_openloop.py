"""The open-loop schedule, on a fake clock."""

import random
import threading
import time

import pytest

from perf.openloop import LEAD_S, Sample, poisson_schedule, \
    run_open_loop, step_report


class FakeClock:
    """Time moves only when the generator sleeps or a request is served."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_schedule_is_seeded_sorted_and_sized_by_rate():
    first = poisson_schedule(100, 2.0, random.Random(7))
    assert first == poisson_schedule(100, 2.0, random.Random(7))
    assert first != poisson_schedule(100, 2.0, random.Random(8))
    assert len(first) == 200
    assert first == sorted(first) and 0.0 <= first[0] and first[-1] < 2.0


def test_latency_is_timed_from_the_due_time():
    clock = FakeClock()

    def send(index):
        clock.sleep(0.005)          # every request takes 5 ms to serve
        return 200, {"index": index}

    start, samples = run_open_loop([0.0, 0.010, 0.011, 0.050], [send],
                                   clock=clock, sleep=clock.sleep)
    assert start == pytest.approx(LEAD_S)
    assert [sample.body["index"] for sample in samples] == [0, 1, 2, 3]
    latencies = [sample.latency_ms for sample in samples]
    # Request 2 was due 11 ms in, but the connection was busy until 15 ms:
    # its latency counts that wait.
    assert latencies == pytest.approx([5.0, 5.0, 9.0, 5.0])
    assert samples[2].sent == pytest.approx(start + 0.015)
    # The generator itself was never late.
    assert max(sample.late_ms for sample in samples) == pytest.approx(0.0)


def test_every_request_is_sent_once_over_several_connections():
    seen = []
    lock = threading.Lock()

    def send(index):
        with lock:
            seen.append(index)
        return 200, {}

    offsets = [index * 0.001 for index in range(40)]
    _, samples = run_open_loop(offsets, [send, send])
    assert sorted(seen) == list(range(40))
    assert all(sample.done >= sample.due for sample in samples)


def _samples(latency_s, late_s=0.0, status=200, count=100):
    return [
        Sample(index, index * 0.01, index * 0.01, index * 0.01 + late_s,
               index * 0.01 + late_s + latency_s, status, {})
        for index in range(count)
    ]


def test_step_report_verdicts():
    good = step_report(100, 0.0, _samples(0.004))
    assert good["meets_objective"] and good["valid"]
    assert good["completed_per_s"] == pytest.approx(100 / 0.994)
    slow = step_report(100, 0.0, _samples(0.080))
    assert not slow["meets_objective"]
    late = step_report(100, 0.0, _samples(0.004, late_s=0.010))
    assert not late["valid"] and not late["meets_objective"]
    failing = step_report(100, 0.0, _samples(0.004, status=503))
    assert failing["failed"] == 100 and not failing["meets_objective"]


def test_real_clock_run_finishes_on_schedule():
    started = time.perf_counter()
    run_open_loop([0.0, 0.05, 0.1], [lambda index: (200, {})])
    assert time.perf_counter() - started >= 0.1
