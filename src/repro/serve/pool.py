"""The bounded worker pool bridging async requests onto the sync pipeline.

``GenEditPipeline.generate`` is synchronous CPU-ish work; the event loop
must never run it inline. :class:`WorkerPool` owns a fixed
``ThreadPoolExecutor`` plus explicit admission control: at most
``workers + queue_depth`` requests may be *admitted* (running or waiting
for a thread) at once. Admission is a separate counter rather than the
executor's internal unbounded queue, because backpressure has to be
visible **before** work is enqueued — a saturated pool answers 429 with
``Retry-After`` immediately instead of silently queueing into a latency
cliff.

Deadlines: ``run()`` awaits the worker future under ``asyncio.wait_for``.
A blown deadline raises :class:`DeadlineExceeded` (the HTTP layer maps it
to 504) — the worker thread itself cannot be interrupted mid-pipeline, so
the slot is released by the future's done-callback when the pipeline
eventually returns; the admission bound therefore still holds. The same
deadline becomes the pipeline's ``timeout_ms`` (its
:class:`~repro.resilience.ResilientLLM` soft per-call deadline) at app
construction, so the per-call budget agrees with the request budget.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor


class PoolSaturated(Exception):
    """Admission refused: the pool is at ``workers + queue_depth`` (429)."""

    def __init__(self, retry_after_s):
        self.retry_after_s = retry_after_s
        super().__init__("worker pool saturated")


class PoolDraining(Exception):
    """Admission refused: the server is draining for shutdown (503)."""


class DeadlineExceeded(Exception):
    """The per-request deadline elapsed before the worker finished (504)."""

    def __init__(self, deadline_s):
        self.deadline_s = deadline_s
        super().__init__(f"deadline of {deadline_s:.3f}s exceeded")


class WorkerPool:
    """Fixed thread pool with explicit admission control and drain."""

    def __init__(self, workers=4, queue_depth=8, retry_after_s=1.0,
                 name="serve"):
        if workers <= 0:
            raise ValueError("workers must be positive")
        if queue_depth < 0:
            raise ValueError("queue_depth must be >= 0")
        self.workers = workers
        self.queue_depth = queue_depth
        self.max_inflight = workers + queue_depth
        self.retry_after_s = retry_after_s
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix=name
        )
        self._lock = threading.Lock()
        self._inflight = 0
        self._admitted = 0
        self._rejected = 0
        self._draining = False
        self._idle = threading.Condition(self._lock)

    @property
    def inflight(self):
        with self._lock:
            return self._inflight

    @property
    def draining(self):
        with self._lock:
            return self._draining

    def stats(self):
        with self._lock:
            return {
                "workers": self.workers,
                "queue_depth": self.queue_depth,
                "max_inflight": self.max_inflight,
                "inflight": self._inflight,
                "admitted": self._admitted,
                "rejected": self._rejected,
                "draining": self._draining,
            }

    def acquire(self):
        """Claim an admission slot or raise (:class:`PoolSaturated` /
        :class:`PoolDraining`). Pairs with :meth:`release`."""
        with self._lock:
            if self._draining:
                self._rejected += 1
                raise PoolDraining()
            if self._inflight >= self.max_inflight:
                self._rejected += 1
                raise PoolSaturated(self.retry_after_s)
            self._inflight += 1
            self._admitted += 1

    def release(self):
        with self._lock:
            self._inflight -= 1
            if self._inflight <= 0:
                self._idle.notify_all()

    async def run(self, fn, *args, deadline_s=None):
        """Run ``fn(*args)`` on a worker; await the result.

        The caller must have :meth:`acquire`-d first. The slot is released
        when the worker *finishes* — even if the awaiting side gave up on
        a deadline — so admission counts real in-flight work.
        """
        future = self._executor.submit(fn, *args)
        future.add_done_callback(lambda _future: self.release())
        wrapped = asyncio.wrap_future(future)
        if deadline_s is None:
            return await wrapped
        try:
            return await asyncio.wait_for(asyncio.shield(wrapped),
                                          deadline_s)
        except asyncio.TimeoutError:
            # Swallow the eventual result/exception: the request was
            # already answered 504, and the done-callback frees the slot.
            wrapped.add_done_callback(lambda f: f.exception())
            raise DeadlineExceeded(deadline_s) from None

    def drain(self, timeout=60.0):
        """Stop admitting, wait for in-flight work, shut the pool down.

        Returns True when everything finished inside ``timeout``.
        Idempotent — the drain that loses the race just waits alongside.
        """
        with self._lock:
            self._draining = True
            finished = self._idle.wait_for(
                lambda: self._inflight == 0, timeout=timeout
            )
        self._executor.shutdown(wait=finished)
        return finished
