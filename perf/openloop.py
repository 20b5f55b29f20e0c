"""Open-loop load: seeded Poisson arrivals, each request timed from its due time.

Independent analysts do not wait for each other, so the serve workload
sends on a schedule whatever the server's state. A request is timed from
the moment it was due, not from when a connection got round to sending
it, so a stall also charges the wait it imposes on later requests. The
generator reports its own lateness separately: how long after a request
was due *and* a connection was free it actually went out.
"""

from __future__ import annotations

import gc
import http.client
import sys
import threading
import time
from dataclasses import dataclass

from .stats import latency_summary, percentile

#: A step meets the service objective when its p99 latency is within this.
P99_LIMIT_MS = 50.0
#: ... and this share of its requests finished within ``BACKLOG_S`` of the
#: step's last due time (no growing backlog) ...
COMPLETED_SHARE = 0.95
BACKLOG_S = 1.0
#: ... and the generator itself was never this late at p99 (else the step
#: measured the generator, and is invalid).
LATE_LIMIT_MS = 5.0

SWITCH_INTERVAL_S = 0.0002

#: The schedule starts this long after the call, so the first request is
#: not late before the generator is running.
LEAD_S = 0.01


def poisson_schedule(rate, duration_s, rng):
    """Arrival offsets in seconds of a Poisson process of ``rate`` per second.

    The process is conditioned on its expected count: ``rate *
    duration_s`` arrivals (rounded) placed uniformly at random, which is
    what a Poisson process with that many arrivals looks like. Fixing the
    count keeps a step's offered load the same for every seed.
    """
    count = round(rate * duration_s)
    return sorted(rng.uniform(0.0, duration_s) for _ in range(count))


@dataclass
class Sample:
    """One request: clock readings in seconds, and the server's answer."""

    index: int
    due: float
    ready: float
    sent: float
    done: float
    status: int
    body: bytes

    @property
    def latency_ms(self):
        return (self.done - self.due) * 1000.0

    @property
    def late_ms(self):
        return (self.sent - max(self.due, self.ready)) * 1000.0


def run_open_loop(offsets, senders, clock=time.perf_counter,
                  sleep=time.sleep):
    """Send request ``i`` at ``start + offsets[i]`` on whichever sender is free.

    ``senders`` are callables ``send(i) -> (status, body)``, one per
    connection; each runs on its own thread when there are several.
    Returns ``(start, samples)`` with samples in request order.

    While it runs, the collector is off and the interpreter switches
    threads every 0.2 ms rather than 5: a sender waking at its due time
    would otherwise wait for the other sender's time slice or a
    collection, and the generator, not the server, would be late.
    """
    start = clock() + LEAD_S
    pending = iter(range(len(offsets)))
    lock = threading.Lock()
    samples = [None] * len(offsets)

    def drive(send):
        while True:
            with lock:
                index = next(pending, None)
            if index is None:
                return
            ready = clock()
            due = start + offsets[index]
            if due > ready:
                sleep(due - ready)
            sent = clock()
            status, body = send(index)
            samples[index] = Sample(index, due, ready, sent, clock(),
                                    status, body)

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    gc.disable()
    try:
        if len(senders) == 1:
            drive(senders[0])
        else:
            threads = [
                threading.Thread(target=drive, args=(send,),
                                 name=f"sender-{n}")
                for n, send in enumerate(senders)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
    finally:
        gc.enable()
        sys.setswitchinterval(switch_interval)
    return start, samples


def step_report(rate, start, samples):
    """Latency, throughput and the objective's verdict for one rate step."""
    latencies = [sample.latency_ms for sample in samples]
    ok = [sample for sample in samples if 200 <= sample.status < 300]
    last_due = max(sample.due for sample in samples)
    finished = max(sample.done for sample in samples)
    in_time = sum(
        1 for sample in ok if sample.done <= last_due + BACKLOG_S
    ) / len(samples)
    late_p99 = percentile([sample.late_ms for sample in samples], 0.99)
    report = {
        "rate": rate,
        "requests": len(samples),
        "failed": len(samples) - len(ok),
        "completed_per_s": len(ok) / (finished - start),
        "in_time_share": in_time,
        "objective_p99_ms": percentile(latencies, 0.99),
        "gen_late_p99_ms": late_p99,
        "valid": late_p99 <= LATE_LIMIT_MS,
    }
    report.update(latency_summary(latencies))
    report["meets_objective"] = (
        report["valid"]
        and report["objective_p99_ms"] <= P99_LIMIT_MS
        and not report["failed"]
        and in_time >= COMPLETED_SHARE
    )
    return report


class HttpSender:
    """One keep-alive HTTP connection.

    Bodies go out as ready-made bytes and come back unparsed, so the
    generator spends as little time as it can inside a timed request.
    """

    def __init__(self, port, host="127.0.0.1", timeout=30.0):
        self.host, self.port, self.timeout = host, port, timeout
        self._connection = None

    def request(self, method, path, body=None, headers=None):
        """``(status, raw body)``; status 0 when the connection failed."""
        for _attempt in (1, 2):  # once more on a stale keep-alive connection
            if self._connection is None:
                self._connection = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout
                )
            try:
                self._connection.request(method, path, body=body,
                                         headers=headers or {})
                response = self._connection.getresponse()
                return response.status, response.read()
            except (ConnectionError, http.client.HTTPException, OSError) \
                    as error:
                self.close()
                failure = f"{type(error).__name__}: {error}"
        return 0, failure.encode()

    def close(self):
        if self._connection is not None:
            self._connection.close()
            self._connection = None
