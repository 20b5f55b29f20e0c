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

Deadlines: ``run()`` awaits the worker future under ``asyncio.wait_for``
until the request's deadline, then raises
:class:`~repro.resilience.DeadlineExceeded` (504). The worker runs under
the same deadline (``ServeApp._invoke``) and stops at its next operator
boundary; the future's done-callback releases the slot when it returns,
so the admission bound holds and the slot is back within one operator.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

from ..resilience import DeadlineExceeded


#: Seconds a saturated pool's 429 asks the client to wait (``Retry-After``).
RETRY_AFTER_S = 1


class PoolSaturated(Exception):
    """Admission refused: the pool is at ``workers + queue_depth`` (429)."""


class PoolDraining(Exception):
    """Admission refused: the server is draining for shutdown (503)."""


class WorkerPool:
    """Fixed thread pool with explicit admission control and drain."""

    def __init__(self, workers, queue_depth):
        if workers <= 0:
            raise ValueError("workers must be positive")
        if queue_depth < 0:
            raise ValueError("queue_depth must be >= 0")
        self.workers = workers
        self.queue_depth = queue_depth
        self.max_inflight = workers + queue_depth
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="serve"
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
                raise PoolSaturated("worker pool saturated")
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
            # already answered 504, so the late result (and the request
            # record a handler returns with it) is dropped, and the
            # done-callback frees the slot.
            wrapped.add_done_callback(lambda f: f.exception())
            raise DeadlineExceeded(f"{deadline_s:.3f}s passed") from None

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
