"""The machine's speed, sampled between operations, to put timings at one speed.

The reference box is a share of a busy host: for seconds at a time
another tenant on the same physical core slows every instruction by a
factor of up to ~1.9, and each CPU is slowed independently of the other.
Runs of the same code read up to 30% apart in wall time.

A fixed kernel of interpreter work (see :func:`kernel`) runs between
timed operations, and its thread CPU time tells how fast the core was
just then. An operation
timed at ``t`` seconds between two readings is reported as ``t *
REFERENCE_KERNEL_S / mean(readings)``: the time it would have taken at
the reference box's speed when nothing else ran on its core.

The kernel is timed in CPU time of its own thread, so neither waiting for
the interpreter lock nor being descheduled moves it: work the program
adds on other threads slows the operations but not the kernel, and
still shows. The gauge lives in the benchmark, so no change to the
program moves it.
"""

from __future__ import annotations

import time

#: The kernel's thread CPU time on the reference box (2 vCPUs of an
#: Intel Xeon at 2.1 GHz, Python 3.11) when nothing else ran on its core.
REFERENCE_KERNEL_S = 0.000430

#: Readings are taken between operations at most this often.
INTERVAL_S = 0.025

_ROWS = tuple((key, key * 7919 % 1000, key * 0.5) for key in range(1500))


def kernel():
    """Fixed interpreter work, about 0.43 ms on the reference box.

    Half integer arithmetic and dict stores, half a hash join's build and
    probe over fixed rows. On a shared core, arithmetic alone slowed
    about as much as the pipeline (``ask_cold``) and much less than the
    engine (``sql_scaled``); a hash join alone slowed about as much as
    the engine and more than the pipeline. The mix stays within ~15% of
    either (by the slope of log throughput on log reading, over 70-90
    seeds of each). It allocates two containers and no more, so it
    seldom sets off a collection.
    """
    total = 0
    slots = {}
    for step in range(2000):
        total += step * step % 7
        slots[step % 1000] = total
    sums = {}
    for _key, group, value in _ROWS:
        sums[group] = sums.get(group, 0.0) + value
    hits = 0
    for key, _group, _value in _ROWS:
        hits += (key % 1000) in sums
    return total, hits


class SpeedGauge:
    """Kernel readings over a run, and the factor that puts a time taken
    between two of them at reference speed."""

    def __init__(self, clock=time.perf_counter, cpu_clock=time.thread_time,
                 work=kernel):
        self.clock = clock
        self.cpu_clock = cpu_clock
        self.work = work
        self.readings = []
        self._last = None

    def sample(self):
        """Take a reading now; its index.

        A reading is the faster of two kernel runs, so an interrupt that
        lands in one of them does not count as a slow core.
        """
        best = None
        for _ in range(2):
            started = self.cpu_clock()
            self.work()
            elapsed = self.cpu_clock() - started
            best = elapsed if best is None else min(best, elapsed)
        self.readings.append(best)
        self._last = self.clock()
        return len(self.readings) - 1

    def tick(self):
        """Take a reading if ``INTERVAL_S`` has passed since the last;
        the index of the latest reading."""
        if self._last is None or self.clock() - self._last >= INTERVAL_S:
            return self.sample()
        return len(self.readings) - 1

    def factor(self, index):
        """The scale for a time taken after reading ``index`` and before
        reading ``index + 1``."""
        pair = self.readings[index:index + 2]
        return REFERENCE_KERNEL_S * len(pair) / sum(pair)

    def timed(self, function, *args):
        """``(result, seconds at reference speed)`` of one call, with a
        reading just before and just after it."""
        index = self.sample()
        started = self.clock()
        result = function(*args)
        elapsed = self.clock() - started
        self.sample()
        return result, elapsed * self.factor(index)
