"""Per-request observability: ids, trace context, spans, metrics, logs.

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
  method / path / request-id / status / tenant attributes). The pipeline
  spans a pooled handler returns in its record are adopted under it, so
  the server's tracer holds each request as one tree — the one span
  store behind ``GET /debug/requests``, ``GET /debug/traces/{trace_id}``,
  ``--trace-out`` and the serve run's ``timing.json``;
* ``serve.*`` **metrics** on the process registry: request counts by
  route and status, a latency histogram per route, rejection counts by
  reason, and an in-flight gauge — all flowing into any attached
  ``TelemetrySink`` exactly like pipeline metrics do;
* when the request is failed/slow/sampled, a full flight-recorder entry
  for ``GET /debug/errors`` (see :mod:`repro.obs.flight`);
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
import time
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

#: Bound on the serve tracer's retained spans. A served ``/ask`` leaves
#: about 14 (its ``serve.request`` root and the pipeline's tree), so the
#: debug views, ``--trace-out`` and the ledger's timing rollup see about
#: the last 290 requests — none needs unbounded history on a long-lived
#: server.
SERVE_TRACER_SPANS = 4096

#: Bound on the flight recorder's retained entries.
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


def request_summary(span):
    """One finished ``serve.request`` span as a ``/debug/requests`` entry;
    the flight-recorder entry and the access log line carry the same
    keys."""
    attributes = span.attributes
    return {
        "request_id": attributes["request_id"],
        "trace_id": span.trace_id,
        "method": attributes["method"],
        "path": attributes["path"],
        "route": attributes["route"],
        "status": attributes["status"],
        "latency_ms": round(span.duration_ms, 3),
        "tenant": attributes["tenant"],
    }


class ServeObservability:
    """The metrics/tracing/logging/flight-recorder side of dispatch."""

    def __init__(self, registry=None, slow_ms=5000.0, sample_every=10):
        self.registry = registry or get_metrics()
        self.tracer = Tracer(max_finished=SERVE_TRACER_SPANS)
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
        handler's run: its ``tracer`` and postmortem ``detail``) from the
        record a pooled handler returns with its response. The span,
        metrics, flight recorder and access log all read the holder on
        the way out.
        """
        holder = {
            "status": 0, "tenant": "", "failed": False, "debug": None,
        }
        self._inflight += 1
        self.registry.set_gauge("serve.inflight", self._inflight)
        span = None
        try:
            with use_trace_context(trace_id), self.tracer.span(
                "serve.request",
                route=route_name,
                method=method,
                path=path,
                request_id=request_id,
            ) as span:
                try:
                    yield holder
                finally:
                    span.set_attr("status", holder["status"] or 500)
                    span.set_attr("tenant", holder["tenant"])
        finally:
            self._inflight -= 1
            self.registry.set_gauge("serve.inflight", self._inflight)
            if span is not None:
                self._record(span, holder)

    def _record(self, span, holder):
        """Adopt the handler's spans under ``span``, count the request,
        feed the flight recorder and emit the JSON access log line.

        Only the record the handler returned reaches the holder, so a
        worker that finishes after its 504 adds no span.
        """
        debug = holder["debug"] or {}
        if debug.get("tracer") is not None:
            self.tracer.adopt(debug["tracer"], span.span_id)
        summary = request_summary(span)
        route, status = summary["route"], summary["status"]
        self.registry.inc("serve.requests", route=route, status=status)
        self.registry.observe(
            "serve.request_ms", span.duration_ms,
            buckets=REQUEST_BUCKETS_MS, route=route,
        )
        self.flight.observe(
            status, holder["failed"] or status >= 400, span.duration_ms,
            lambda: dict(summary, detail=debug.get("detail") or {}),
        )
        logger.info("%s", json.dumps(
            dict(summary, event="request", ts=round(time.time(), 3)),
            sort_keys=True, default=str,
        ))
