"""Per-request observability: ids, trace context, metrics, debug rings.

The serving layer's middleware stack in the FastAPI sense, collapsed to
one context manager. Every dispatched request gets:

* a **request id** — honoured from the caller's ``X-Request-Id`` header
  (propagation across services) or minted here; echoed on the response
  and stamped on the span root, so one id follows a request from client
  log to server trace to telemetry. Inbound ids are validated (length
  and charset) — a malformed id is *replaced* with a minted one, never
  echoed verbatim;
* a **W3C trace context** — a strictly valid inbound ``traceparent``
  header is honoured, anything else gets a freshly minted trace id.
  The id is installed as the thread-ambient trace context
  (:func:`repro.obs.tracing.use_trace_context`) for the dispatch, so the
  ``serve.request`` span root *and* the pipeline's operator spans (which
  run on worker threads under the same context, see ``ServeApp._invoke``)
  all carry one trace id — the join key behind ``/debug/traces/{id}``;
* a **span root** on the server's tracer (``serve.request`` with route /
  method / request-id attributes);
* ``serve.*`` **metrics** on the process registry: request counts by
  route and status, a latency histogram per route, rejection counts by
  reason, and an in-flight gauge — all flowing into any attached
  ``TelemetrySink`` exactly like pipeline metrics do;
* a **ring-buffer record** for ``GET /debug/requests`` and, when the
  request is failed/slow/sampled, a full flight-recorder entry for
  ``GET /debug/errors`` (see :mod:`repro.obs.flight`); the request's
  span records land in the bounded per-trace store behind
  ``GET /debug/traces/{trace_id}``;
* a structured **JSON access log** line (stderr via ``logging``): one
  sorted-key JSON object per request, correlated by request and trace
  id — machine-parseable where the old printf-style line was not.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import re
import threading
import time
from collections import OrderedDict, deque
from contextlib import contextmanager

from ..obs.flight import FlightRecorder
from ..obs.metrics import get_metrics
from ..obs.tracing import (
    Tracer,
    format_traceparent,
    mint_trace_id,
    parse_traceparent,
    use_trace_context,
    w3c_span_id,
)

logger = logging.getLogger("repro.serve")

_REQUEST_IDS = itertools.count(1)

#: Inbound ``X-Request-Id`` values must match this: printable ASCII
#: identifier characters only, no spaces, no control bytes — safe to
#: echo into headers and logs verbatim.
_REQUEST_ID_RE = re.compile(r"^[A-Za-z0-9._:/@#+-]{1,128}$")

#: Request/latency buckets tuned for end-to-end request times (ms).
REQUEST_BUCKETS_MS = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0, 30000.0,
)

#: Bound on the serve tracer's retained spans: debug endpoints read from
#: the per-trace store, the ledger's timing rollup reads recent spans —
#: neither needs unbounded history on a long-lived server.
SERVE_TRACER_SPANS = 4096

#: Bounds on the ``/debug/requests`` log, the per-trace store and the
#: flight recorder's retained entries.
REQUEST_LOG_CAPACITY = 256
TRACE_CAPACITY = 128
FLIGHT_CAPACITY = 64


def new_request_id():
    """A process-unique request id (``req-<pid>-<seq>``)."""
    return f"req-{os.getpid():x}-{next(_REQUEST_IDS):06d}"


def request_id_from_headers(headers):
    """The caller's ``X-Request-Id`` if valid, else a fresh id.

    Validation is strict (length *and* charset): an id that would be
    unsafe to echo into a response header or a JSON log line is replaced
    with a minted one, never reflected back.
    """
    supplied = (headers or {}).get("x-request-id", "").strip()
    if supplied and _REQUEST_ID_RE.match(supplied):
        return supplied
    return new_request_id()


def trace_context_from_headers(headers, request_id):
    """``(trace_id, parent_span_id, response_traceparent)`` for a request.

    A strictly valid inbound ``traceparent`` keeps its trace id (the
    caller's trace continues through us); anything malformed — wrong
    width, uppercase hex, all-zero ids — mints a fresh trace id instead
    of echoing the bad value. The response ``traceparent`` carries our
    own span id, derived deterministically from the request id.
    """
    parsed = parse_traceparent((headers or {}).get("traceparent", ""))
    if parsed is not None:
        trace_id, parent_span_id = parsed
    else:
        trace_id, parent_span_id = mint_trace_id(), ""
    return trace_id, parent_span_id, format_traceparent(
        trace_id, w3c_span_id(request_id)
    )


class RequestLog:
    """Bounded, thread-safe ring of recent request summaries.

    Backs ``GET /debug/requests``: one small dict per request (id,
    tenant, route, status, latency, trace id) — enough to find the
    request you care about, then pivot to ``/debug/traces/{trace_id}``
    or ``/debug/errors`` for the detail.
    """

    def __init__(self, capacity=256):
        self._lock = threading.Lock()
        self._ring = deque(maxlen=max(1, int(capacity)))
        self.capacity = self._ring.maxlen

    def add(self, entry):
        with self._lock:
            self._ring.append(entry)

    def entries(self, limit=None):
        """Recorded summaries, newest first."""
        with self._lock:
            entries = list(self._ring)
        entries.reverse()
        if limit is not None:
            entries = entries[:limit]
        return [dict(entry) for entry in entries]

    def __len__(self):
        with self._lock:
            return len(self._ring)


class TraceStore:
    """Bounded, thread-safe map of trace id -> finished span records.

    Backs ``GET /debug/traces/{trace_id}``. Both dimensions are bounded:
    at most ``capacity`` traces are retained (least-recently-touched
    evicted first) and each trace keeps at most ``max_spans`` records.
    """

    def __init__(self, capacity=128, max_spans=512):
        self.capacity = max(1, int(capacity))
        self.max_spans = max(1, int(max_spans))
        self._lock = threading.Lock()
        self._traces = OrderedDict()

    def add(self, trace_id, records):
        if not trace_id or not records:
            return
        with self._lock:
            spans = self._traces.setdefault(trace_id, [])
            self._traces.move_to_end(trace_id)
            spans.extend(records)
            if len(spans) > self.max_spans:
                del spans[: len(spans) - self.max_spans]
            while len(self._traces) > self.capacity:
                self._traces.popitem(last=False)

    def get(self, trace_id):
        """The trace's span records (copy), or ``None`` if unknown."""
        with self._lock:
            spans = self._traces.get(trace_id)
            return None if spans is None else [dict(s) for s in spans]

    def trace_ids(self):
        with self._lock:
            return list(self._traces)

    def __len__(self):
        with self._lock:
            return len(self._traces)


class ServeObservability:
    """The metrics/tracing/logging/debug-ring side of request dispatch."""

    def __init__(self, registry=None, slow_ms=5000.0, sample_every=10):
        self.registry = registry or get_metrics()
        self.tracer = Tracer(max_finished=SERVE_TRACER_SPANS)
        self.requests = RequestLog(capacity=REQUEST_LOG_CAPACITY)
        self.traces = TraceStore(capacity=TRACE_CAPACITY)
        self.flight = FlightRecorder(
            capacity=FLIGHT_CAPACITY, slow_ms=slow_ms,
            sample_every=sample_every,
        )
        self._inflight = 0

    def rejection(self, reason):
        """Count an admission rejection (saturated / draining / deadline)."""
        self.registry.inc("serve.rejections", reason=reason)

    @contextmanager
    def request(self, method, path, route_name, request_id, trace_id=""):
        """Wrap one request dispatch; yields a mutable status holder.

        The dispatch loop fills the holder before the block exits:
        ``status`` always; ``tenant``, ``failed`` and ``debug`` (the
        handler's flight payload: pipeline spans + postmortem detail)
        from the record a pooled handler returns with its response.
        Metrics, the debug rings, and the access log all read the holder
        on the way out.
        """
        holder = {
            "status": 0, "tenant": "", "failed": False, "debug": None,
        }
        self._inflight += 1
        self.registry.set_gauge("serve.inflight", self._inflight)
        started = time.perf_counter()
        span = None
        try:
            with use_trace_context(trace_id):
                with self.tracer.span(
                    "serve.request",
                    route=route_name,
                    method=method,
                    request_id=request_id,
                ) as span:
                    yield holder
                    span.set_attr("status", holder["status"])
        finally:
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            self._inflight -= 1
            self.registry.set_gauge("serve.inflight", self._inflight)
            status = holder["status"] or 500
            self.registry.inc(
                "serve.requests", route=route_name, status=status
            )
            self.registry.observe(
                "serve.request_ms", elapsed_ms,
                buckets=REQUEST_BUCKETS_MS, route=route_name,
            )
            self._record(method, path, route_name, request_id, trace_id,
                         status, elapsed_ms, span, holder)

    def _record(self, method, path, route_name, request_id, trace_id,
                status, elapsed_ms, span, holder):
        """Feed the debug rings and emit the JSON access log line."""
        debug = holder.get("debug") or {}
        summary = {
            "request_id": request_id,
            "trace_id": trace_id,
            "method": method,
            "path": path,
            "route": route_name,
            "status": status,
            "latency_ms": round(elapsed_ms, 3),
            "tenant": holder.get("tenant", ""),
        }
        self.requests.add(summary)
        if trace_id:
            records = []
            if span is not None:
                records.append(span.to_record())
            records.extend(debug.get("spans") or ())
            self.traces.add(trace_id, records)
        failed = bool(holder.get("failed")) or status >= 400
        self.flight.observe(
            status, failed, elapsed_ms,
            lambda: dict(summary, detail=debug.get("detail") or {}),
        )
        logger.info("%s", json.dumps(
            dict(summary, event="request", ts=round(time.time(), 3)),
            sort_keys=True, default=str,
        ))
