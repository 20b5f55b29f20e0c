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
* a **span root** (``serve.request`` with route / method / path /
  request-id / status / tenant attributes) on a tracer of its own. The
  pipeline spans a pooled handler returns in its record are adopted
  under it, so each request is one tree;
* ``serve.*`` **metrics** on the process registry: request counts by
  route and status, a latency histogram per route, rejection counts by
  reason, and an in-flight gauge;
* a **retention class** — ``failed``, ``slow``, ``sampled`` or
  ``recent`` — under which :class:`RequestStore` keeps the whole tree.
  That store is the serve path's one debug store: ``GET
  /debug/requests``, ``GET /debug/traces/{trace_id}``, ``GET
  /debug/errors``, ``/healthz``'s ``flight`` stats, ``--trace-out`` and
  the serve run's ``timing.json`` all read it;
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
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass

from ..obs.metrics import get_metrics
from ..obs.tracing import (
    Span,
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

#: The request store's one bound, in spans. A cold served ``/ask`` is
#: about 14 spans and a generation-memo hit 2, so a full store holds
#: between about 290 and 2,048 requests. The newest half of the budget
#: (at least about 145 cold asks, or 1,024 memo hits) holds the newest
#: requests whatever their class; which older ones the other half keeps
#: is the retention policy's choice.
SERVE_TRACER_SPANS = 4096

#: Retention classes, highest priority first. Past the newest half of
#: the budget, eviction takes the oldest tree of the lowest non-empty
#: class.
RETENTION_CLASSES = ("failed", "slow", "sampled", "recent")


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
    the ``/debug/errors`` entry and the access log line carry the same
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


@dataclass
class RequestTree:
    """One retained request: its ``serve.request`` root, every span of
    its tree (the root first), its retention class, its arrival number
    and, unless the class is ``recent``, the handler's detail."""

    klass: str
    root: Span
    spans: list
    detail: dict | None
    seq: int = 0

    def error_entry(self):
        """The ``/debug/errors`` entry: the request summary, ``class``,
        ``seq`` and ``detail``."""
        return dict(request_summary(self.root), detail=self.detail,
                    **{"class": self.klass, "seq": self.seq})


class RequestStore:
    """Whole request trees under one span budget and one retention policy.

    A finished request is classified ``failed`` (HTTP status >= 400 or an
    unsuccessful pipeline run), ``slow`` (latency at or over ``slow_ms``),
    ``sampled`` (every ``sample_every``-th request, a healthy baseline to
    compare failures against) or ``recent``. The store keeps each tree
    whole, so no retained span lacks its ``serve.request`` root. The
    newest trees, up to half of :data:`SERVE_TRACER_SPANS` spans, are
    never evicted, so the latest requests always answer whatever the
    store holds. When the trees pass the budget, the oldest tree of the
    lowest non-empty class among the older ones goes first: healthy
    traffic can never push out a failure. Only the first three classes
    keep the handler's detail, which is built only then.

    Thread-safe: every mutation runs under one lock.
    """

    def __init__(self, slow_ms, sample_every):
        self.max_spans = SERVE_TRACER_SPANS
        self.slow_ms = float(slow_ms)
        self.sample_every = int(sample_every)
        self._lock = threading.Lock()
        self._newest = deque()
        self._newest_spans = 0
        self._older = {klass: deque() for klass in RETENTION_CLASSES}
        self._spans = 0
        self._seq = 0
        self._seen = 0
        self._recorded = dict.fromkeys(RETENTION_CLASSES, 0)
        self._retained = dict.fromkeys(RETENTION_CLASSES, 0)
        self._evicted = 0

    def classify(self, status, failed, latency_ms):
        """The retention class of one finished request.

        Counts the request toward the sampling cadence either way, so
        "every Nth request" means every Nth *request*, not every Nth
        healthy one. The first request is always sampled: the baseline
        exists from the moment the server answers anything.
        """
        with self._lock:
            self._seen += 1
            seen = self._seen
        if failed or (status and status >= 400):
            return "failed"
        if latency_ms >= self.slow_ms:
            return "slow"
        if self.sample_every > 0 and \
                seen % self.sample_every == 1 % self.sample_every:
            return "sampled"
        return "recent"

    def observe(self, root, spans, failed, detail):
        """Classify the request ``root`` heads and retain its tree.

        ``spans`` is every span of the tree, ``root`` among them, all on
        the one clock of the serve path's tracers. ``detail()`` is called
        only for a classified request. Returns the retained
        :class:`RequestTree`.
        """
        klass = self.classify(
            root.attributes["status"], failed, root.duration_ms
        )
        spans = [root] + [span for span in spans if span is not root]
        tree = RequestTree(
            klass, root, spans, None if klass == "recent" else detail(),
        )
        with self._lock:
            self._seq += 1
            tree.seq = self._seq
            self._recorded[klass] += 1
            self._retained[klass] += 1
            self._newest.append(tree)
            self._newest_spans += len(tree.spans)
            self._spans += len(tree.spans)
            while self._newest_spans > self.max_spans // 2 and \
                    len(self._newest) > 1:
                older = self._newest.popleft()
                self._newest_spans -= len(older.spans)
                self._older[older.klass].append(older)
            while self._spans > self.max_spans:
                ring = next(
                    (ring for ring in reversed(self._older.values()) if ring),
                    None,
                )
                if ring is None:        # one tree larger than the budget
                    break
                victim = ring.popleft()
                self._spans -= len(victim.spans)
                self._retained[victim.klass] -= 1
                self._evicted += 1
        return tree

    def trees(self):
        """The retained trees, oldest first."""
        with self._lock:
            trees = [
                tree for ring in self._older.values() for tree in ring
            ]
            trees.extend(self._newest)
        trees.sort(key=lambda tree: tree.seq)
        return trees

    def records(self):
        """Every retained span as a JSON-ready record, tree by tree."""
        return [
            span.to_record() for tree in self.trees() for span in tree.spans
        ]

    def stats(self):
        """Counters and settings, for ``/debug/errors`` and ``/healthz``."""
        with self._lock:
            return {
                "seen": self._seen,
                "retained": dict(self._retained),
                "recorded": dict(self._recorded),
                "evicted": self._evicted,
                "spans": self._spans,
                "max_spans": self.max_spans,
                "slow_ms": self.slow_ms,
                "sample_every": self.sample_every,
            }

    def window(self):
        """What the retained trees cover: requests seen, trees kept by
        class. Run-level outputs state it next to their spans."""
        stats = self.stats()
        return {"seen": stats["seen"], "retained": stats["retained"]}


class ServeObservability:
    """The metrics, tracing, logging and retention side of dispatch."""

    def __init__(self, slow_ms, sample_every, registry=None):
        self.registry = registry or get_metrics()
        self.store = RequestStore(slow_ms=slow_ms, sample_every=sample_every)
        # Every request's tracer starts from this epoch, so the store's
        # trees share one clock.
        self._epoch = time.perf_counter()
        self._inflight = 0

    def rejection(self, reason):
        """Count an admission rejection (saturated / draining / deadline)."""
        self.registry.inc("serve.rejections", reason=reason)

    @contextmanager
    def request(self, method, path, route_name, request_id, trace_id=""):
        """Wrap one request dispatch; yields a mutable status holder.

        The dispatch loop fills the holder before the block exits:
        ``status`` always; ``tenant``, ``failed`` and ``debug`` (the
        handler's run: its ``tracer`` and a ``detail`` callable that
        builds the postmortem payload) from the record a pooled handler
        returns with its response. The span, metrics, store and access
        log all read the holder on the way out.
        """
        holder = {
            "status": 0, "tenant": "", "failed": False, "debug": None,
        }
        self._inflight += 1
        self.registry.set_gauge("serve.inflight", self._inflight)
        tracer = Tracer(epoch=self._epoch)
        span = None
        try:
            with use_trace_context(trace_id), tracer.span(
                "serve.request",
                route=route_name,
                method=method,
                path=path,
                request_id=request_id,
            ) as span:
                # A request is a root: overlapping dispatches share the
                # event loop thread's ambient span stack.
                span.parent_id = None
                try:
                    yield holder
                finally:
                    span.set_attr("status", holder["status"] or 500)
                    span.set_attr("tenant", holder["tenant"])
        finally:
            self._inflight -= 1
            self.registry.set_gauge("serve.inflight", self._inflight)
            if span is not None:
                self._record(span, tracer, holder)

    def _record(self, span, tracer, holder):
        """Adopt the handler's spans under ``span``, count the request,
        hand its tree to the store and emit the JSON access log line.

        Only the record the handler returned reaches the holder, so a
        worker that finishes after its 504 adds no span.
        """
        debug = holder["debug"] or {}
        if debug.get("tracer") is not None:
            tracer.adopt(debug["tracer"], span.span_id)
        summary = request_summary(span)
        route, status = summary["route"], summary["status"]
        self.registry.inc("serve.requests", route=route, status=status)
        self.registry.observe(
            "serve.request_ms", span.duration_ms,
            buckets=REQUEST_BUCKETS_MS, route=route,
        )
        self.store.observe(
            span, tracer.finished_spans(), holder["failed"],
            debug.get("detail") or dict,
        )
        if logger.isEnabledFor(logging.INFO):
            logger.info("%s", json.dumps(
                dict(summary, event="request", ts=round(time.time(), 3)),
                sort_keys=True, default=str,
            ))
