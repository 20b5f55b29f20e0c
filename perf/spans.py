"""Benchmark-side spans: record around calls into the program, fold to self time.

The program has spans of its own (``repro.obs``); these are separate on
purpose. They are recorded only by wrappers the benchmark patches onto
public methods in a traced run, so the untraced run executes the program
exactly as shipped, and the per-layer numbers do not depend on where the
program chose to put its own spans.

A span records its name, start, end, parent and request id. The parent
is the innermost open span on the same thread; a span opened on a
worker thread with nothing open there takes the open cross-thread root
of its request (the server's ``dispatch``) as its parent.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter
from contextlib import contextmanager


class Span:
    """One recorded interval (times in seconds on the recorder's clock)."""

    __slots__ = ("name", "span_id", "parent_id", "start", "end",
                 "request_id")

    def __init__(self, name, span_id, parent_id, start, end=None,
                 request_id=None):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end = end
        self.request_id = request_id

    @property
    def duration(self):
        return self.end - self.start

    def to_record(self, **extra):
        record = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_ms": self.start * 1000.0,
            "end_ms": self.end * 1000.0,
            "request_id": self.request_id,
        }
        record.update(extra)
        return record

    @classmethod
    def from_record(cls, record):
        return cls(record["name"], record["span_id"], record["parent_id"],
                   record["start_ms"] / 1000.0, record["end_ms"] / 1000.0,
                   record.get("request_id"))


class SpanRecorder:
    """Keeps spans in memory while :attr:`enabled`; wrappers do nothing else.

    ``request_id_fn`` gives the request id of a span opened with nothing
    open on its thread (the serve launcher passes the ambient trace id).
    ``sample(request_id)``, when given, picks the requests to record; the
    others run through the wrappers unrecorded.
    """

    def __init__(self, clock=time.perf_counter, request_id_fn=None,
                 sample=None):
        self.clock = clock
        self.enabled = False
        self.spans = []
        self.counts = Counter()
        self._request_id_fn = request_id_fn or (lambda: None)
        self._sample = sample
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._open_roots = {}

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _sampled(self, request_id):
        return self._sample is None or self._sample(request_id)

    def _open(self, name, request_id=None):
        """A new open span, or None when its request is not sampled."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
            parent_id, request_id = parent.span_id, parent.request_id
        else:
            if request_id is None:
                request_id = self._request_id_fn()
            if not self._sampled(request_id):
                return None
            parent_id = self._open_roots.get(request_id)
        span = Span(name, next(self._ids), parent_id, self.clock(),
                    request_id=request_id)
        stack.append(span)
        return span

    def _close(self, span):
        span.end = self.clock()
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is span:
                del stack[index]
                break
        self.spans.append(span)

    @contextmanager
    def root(self, name, request_id):
        """A root span around one operation of an in-process workload."""
        span = self._open(name, request_id)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name, function):
        """``function`` recording a span named ``name`` per call."""
        recorder = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span = recorder._open(name) if recorder.enabled else None
            if span is None:
                return function(*args, **kwargs)
            try:
                return function(*args, **kwargs)
            finally:
                recorder._close(span)

        return wrapper

    def wrap_async_root(self, name, function, request_id_of):
        """Coroutine ``function`` recording a cross-thread root span.

        Calls interleave on one event loop, so the span never enters the
        thread's stack; spans of the same request on other threads find
        it through the request id ``request_id_of(args)`` returns.
        """
        recorder = self

        @functools.wraps(function)
        async def wrapper(*args, **kwargs):
            request_id = request_id_of(args)
            if not (recorder.enabled and recorder._sampled(request_id)):
                return await function(*args, **kwargs)
            span = Span(name, next(recorder._ids), None, recorder.clock(),
                        request_id=request_id)
            recorder._open_roots[request_id] = span.span_id
            try:
                return await function(*args, **kwargs)
            finally:
                span.end = recorder.clock()
                recorder._open_roots.pop(request_id, None)
                recorder.spans.append(span)

        return wrapper

    def count(self, name, function, unless_inside=None):
        """``function`` adding one to ``counts[name]`` per call, except
        while a span named ``unless_inside`` is open on the thread."""
        recorder = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if recorder.enabled and not any(
                span.name == unless_inside for span in recorder._stack()
            ):
                recorder.counts[name] += 1
            return function(*args, **kwargs)

        return wrapper


# -- folding -----------------------------------------------------------------


def _covered(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans):
    """``{span_id: self seconds}``: each span's duration minus the union of
    its children's intervals, clipped to the span. Children on other
    threads may overlap one another; the union counts shared time once."""
    children = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    result = {}
    for span in spans:
        covered = _covered(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.span_id, ())
            if child.end > span.start and child.start < span.end
        )
        result[span.span_id] = span.duration - covered
    return result


def roots(spans):
    """Spans whose parent is not among ``spans``."""
    known = {span.span_id for span in spans}
    return [span for span in spans if span.parent_id not in known]


def root_residuals(spans):
    """``{root span_id: |duration - sum of self times beneath it| / duration}``.

    Zero when children nest inside their parents without overlapping each
    other; the acceptance check on a traced run.
    """
    own = self_times(spans)
    children = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    residuals = {}
    for root in roots(spans):
        total, pending = 0.0, [root]
        while pending:
            span = pending.pop()
            total += own[span.span_id]
            pending.extend(children.get(span.span_id, ()))
        duration = root.duration
        residuals[root.span_id] = (
            abs(duration - total) / duration if duration > 0 else 0.0
        )
    return residuals


def rollup(spans, name_of=None):
    """``{name: {"calls", "total_s", "self_s"}}`` over ``spans``.

    ``name_of(span, parent)`` may rename a span by context (the pipeline's
    final check is an ``execute`` directly under ``generate``).
    """
    own = self_times(spans)
    by_id = {span.span_id: span for span in spans}
    table = {}
    for span in spans:
        name = span.name
        if name_of is not None:
            name = name_of(span, by_id.get(span.parent_id))
        entry = table.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        entry["calls"] += 1
        entry["total_s"] += span.duration
        entry["self_s"] += own[span.span_id]
    return table
