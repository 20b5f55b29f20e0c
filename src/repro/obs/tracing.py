"""Hierarchical timed spans: the tracing half of :mod:`repro.obs`.

A :class:`Tracer` produces :class:`Span` records through the
:meth:`Tracer.span` context manager. Spans nest: each thread carries an
ambient stack (module-level, shared by every tracer), so a span opened
while another is active becomes its child — including across tracers,
which is how a feedback-solver span ends up the parent of a pipeline run's
root. The parallel harness path gets correct nesting for free because the
stack is thread-local: two worker threads never see each other's spans.

Spans are timed with :func:`time.perf_counter` (monotonic), carry free-form
``attributes``, an ``ok``/``error`` status (exceptions annotate the span
and re-raise), and a list of :class:`SpanEvent` records — the pipeline's
step-by-step operator trace (``PipelineContext.add_trace`` records them;
``render_trace`` and ``GenerationResult.trace`` read them back through
:meth:`Tracer.iter_events`).

Serialization is JSONL-friendly: :meth:`Span.to_record` emits one stable,
versioned dict per span (see :data:`TRACE_SCHEMA_VERSION` and DESIGN.md's
schema subsection).
"""

from __future__ import annotations

import hashlib
import itertools
import os
import re
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Version of the exported span/metrics record schema. Bump when a field is
#: renamed or its meaning changes; additions are backwards-compatible.
TRACE_SCHEMA_VERSION = 1

#: Process-wide span-id source. ``itertools.count`` is a C-level iterator,
#: so ``next()`` is atomic under the GIL — ids are unique across threads
#: and across tracers, which lets one JSONL file hold many runs.
_SPAN_IDS = itertools.count(1)

_AMBIENT = threading.local()


def _stack():
    stack = getattr(_AMBIENT, "stack", None)
    if stack is None:
        stack = _AMBIENT.stack = []
    return stack


def current_span():
    """The innermost active span on *this* thread (or None).

    This is how low-level code (e.g. :meth:`CallMeter.record
    <repro.llm.interface.CallMeter.record>`) annotates the enclosing span
    without any tracer plumbing.
    """
    stack = _stack()
    return stack[-1] if stack else None


# -- W3C trace context ---------------------------------------------------

#: ``traceparent`` per https://www.w3.org/TR/trace-context/ version 00:
#: ``00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>``, lowercase
#: hex only. All-zero trace or parent ids are invalid by spec.
_TRACEPARENT_RE = re.compile(
    r"^00-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$"
)

_TRACE_CONTEXT = threading.local()


def parse_traceparent(value):
    """``(trace_id, parent_span_id)`` from a ``traceparent`` header.

    Returns ``None`` for anything that is not a strictly valid version-00
    header — wrong field widths, uppercase hex, all-zero ids, trailing
    garbage. Callers mint a fresh context instead of echoing malformed
    input back to the client.
    """
    if not isinstance(value, str):
        return None
    match = _TRACEPARENT_RE.match(value.strip())
    if match is None:
        return None
    trace_id, parent_id, _flags = match.groups()
    if trace_id == "0" * 32 or parent_id == "0" * 16:
        return None
    return trace_id, parent_id


def format_traceparent(trace_id, span_id):
    """Render a version-00 ``traceparent`` header value, flagged sampled."""
    return f"00-{trace_id}-{span_id}-01"


def mint_trace_id():
    """A fresh random 32-hex-char W3C trace id."""
    return os.urandom(16).hex()


def w3c_span_id(seed_text=None):
    """A 16-hex-char W3C span id.

    With ``seed_text`` the id is a stable digest of it — the serving
    layer derives its response span id from the request id so the echoed
    ``traceparent`` is reproducible for a given request. Without a seed
    it is random.
    """
    if seed_text is None:
        return os.urandom(8).hex()
    return hashlib.blake2b(
        str(seed_text).encode("utf-8"), digest_size=8
    ).hexdigest()


@contextmanager
def use_trace_context(trace_id):
    """Set this thread's ambient trace id for the duration of the block.

    Spans opened inside the block (on this thread) are stamped with the
    id — this is how a serve request's trace id follows the work onto a
    pipeline worker thread. Contexts nest; the previous id is restored
    on exit.
    """
    previous = getattr(_TRACE_CONTEXT, "trace_id", "")
    _TRACE_CONTEXT.trace_id = str(trace_id or "")
    try:
        yield
    finally:
        _TRACE_CONTEXT.trace_id = previous


def current_trace_id():
    """This thread's ambient W3C trace id ("" outside any context)."""
    return getattr(_TRACE_CONTEXT, "trace_id", "")


@dataclass
class SpanEvent:
    """A point-in-time annotation on a span: one step of an operator's
    trace, rendered as ``[operator] summary``."""

    operator: str
    summary: str
    detail: dict = field(default_factory=dict)
    seq: int = 0

    def __str__(self):
        return f"[{self.operator}] {self.summary}"

    def to_record(self):
        record = {"operator": self.operator, "summary": self.summary}
        if self.detail:
            record["detail"] = {
                key: value for key, value in self.detail.items()
            }
        return record


@dataclass
class Span:
    """One timed, attributed unit of work."""

    name: str
    span_id: str
    parent_id: str | None
    start_ms: float             # offset from the tracer's epoch
    duration_ms: float = 0.0
    attributes: dict = field(default_factory=dict)
    status: str = "ok"
    error: str = ""
    events: list = field(default_factory=list)
    #: W3C trace id inherited from the thread's ambient trace context
    #: ("" outside any context — batch runs stay id-free, so their
    #: exported records are unchanged).
    trace_id: str = ""

    def set_attr(self, key, value):
        self.attributes[key] = value

    def inc_attr(self, key, value):
        """Accumulate a numeric attribute (e.g. tokens over several calls)."""
        self.attributes[key] = self.attributes.get(key, 0) + value

    def add_event(self, event):
        self.events.append(event)
        return event

    def to_record(self):
        record = {
            "type": "span",
            "v": TRACE_SCHEMA_VERSION,
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_ms": round(self.start_ms, 3),
            "duration_ms": round(self.duration_ms, 3),
            "status": self.status,
        }
        if self.trace_id:
            record["trace_id"] = self.trace_id
        if self.attributes:
            record["attributes"] = dict(self.attributes)
        if self.error:
            record["error"] = self.error
        if self.events:
            record["events"] = [event.to_record() for event in self.events]
        return record


class Tracer:
    """Collects the spans of one logical run (a pipeline call, a harness
    experiment, a feedback session).

    Thread-safe: spans may be opened and finished on any number of threads;
    the finished-record list is guarded by a lock and nesting is resolved
    through the per-thread ambient stack.
    """

    def __init__(self, max_finished=None):
        """``max_finished`` bounds the retained span lists (oldest spans
        dropped first) — long-lived tracers like the serving layer's set
        it so per-request spans cannot grow memory without bound. Batch
        tracers keep the unbounded default (every span is exported)."""
        self._lock = threading.Lock()
        self._max_finished = max_finished
        self._finished = []
        self._all = []              # every span ever started (for events)
        self._epoch = time.perf_counter()
        self._event_seq = itertools.count(1)
        self.orphan_events = []     # events recorded with no active span

    @contextmanager
    def span(self, name, **attributes):
        """Open a child span of the thread's current span."""
        stack = _stack()
        parent = stack[-1] if stack else None
        span = Span(
            name=name,
            span_id=f"s{next(_SPAN_IDS):06d}",
            parent_id=parent.span_id if parent is not None else None,
            start_ms=(time.perf_counter() - self._epoch) * 1000.0,
            attributes=dict(attributes),
            trace_id=current_trace_id(),
        )
        with self._lock:
            self._all.append(span)
            self._trim(self._all)
        stack.append(span)
        started = time.perf_counter()
        try:
            yield span
        except BaseException as error:
            span.status = "error"
            span.error = f"{type(error).__name__}: {error}"
            raise
        finally:
            span.duration_ms = (time.perf_counter() - started) * 1000.0
            # Remove *this* span, not whatever is on top: overlapping
            # spans on one thread (interleaved async dispatches) must not
            # pop each other's frames.
            for index in range(len(stack) - 1, -1, -1):
                if stack[index] is span:
                    del stack[index]
                    break
            with self._lock:
                self._finished.append(span)
                self._trim(self._finished)

    def _trim(self, spans):
        # Caller holds the lock.
        if self._max_finished is not None and \
                len(spans) > self._max_finished:
            del spans[: len(spans) - self._max_finished]

    # -- events ----------------------------------------------------------

    def add_event(self, operator, summary, detail=None):
        """Attach a :class:`SpanEvent` to the thread's current span.

        With no active span the event is kept on :attr:`orphan_events` so
        nothing is lost (operators are unit-tested outside any pipeline
        run). Returns the event.
        """
        event = SpanEvent(
            operator=operator,
            summary=summary,
            detail=dict(detail or {}),
            seq=next(self._event_seq),
        )
        target = current_span()
        if target is not None:
            target.add_event(event)
        else:
            with self._lock:
                self.orphan_events.append(event)
        return event

    def iter_events(self):
        """Every event of this tracer's spans, in recording order."""
        with self._lock:
            spans = list(self._all)
            events = list(self.orphan_events)
        for span in spans:
            events.extend(span.events)
        events.sort(key=lambda event: event.seq)
        return events

    # -- export ----------------------------------------------------------

    def finished_spans(self):
        """Finished spans sorted by start time (ties by id)."""
        with self._lock:
            spans = list(self._finished)
        spans.sort(key=lambda span: (span.start_ms, span.span_id))
        return spans

    def to_records(self):
        """One JSON-ready dict per finished span, in start order."""
        return [span.to_record() for span in self.finished_spans()]
