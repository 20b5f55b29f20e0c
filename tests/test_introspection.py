"""Tests for the live introspection plane (DESIGN.md §6i): W3C trace
context propagation, the /metrics and /debug endpoints, the request
store's retention policy, header validation, and the loadgen
slowest-request report."""

from __future__ import annotations

import http.client
import importlib.util
import json
import logging
import os
import threading

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.render import load_trace
from repro.obs.tracing import (
    Tracer,
    current_trace_id,
    format_traceparent,
    mint_trace_id,
    parse_traceparent,
    use_trace_context,
    w3c_span_id,
)
from repro.serve import ServeApp, ServerThread
from repro.serve.loadgen import summarize
from repro.serve.middleware import (
    SERVE_TRACER_SPANS,
    RequestStore,
    request_id_from_headers,
    trace_context_from_headers,
)

_CHECKER_PATH = os.path.join(
    os.path.dirname(__file__), "..", "scripts", "check_promtext.py"
)


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_promtext", _CHECKER_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


VALID_TRACEPARENT = "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"
VALID_TRACE_ID = "ab" * 16


# -- W3C trace context --------------------------------------------------------


class TestTraceparent:
    def test_valid_header_parses(self):
        assert parse_traceparent(VALID_TRACEPARENT) == (
            VALID_TRACE_ID, "cd" * 8
        )

    def test_surrounding_whitespace_tolerated(self):
        assert parse_traceparent(f"  {VALID_TRACEPARENT} ") is not None

    @pytest.mark.parametrize("header", [
        "",
        "garbage",
        "01-" + "ab" * 16 + "-" + "cd" * 8 + "-01",   # unknown version
        "00-" + "AB" * 16 + "-" + "cd" * 8 + "-01",   # uppercase hex
        "00-" + "ab" * 15 + "-" + "cd" * 8 + "-01",   # short trace id
        "00-" + "ab" * 16 + "-" + "cd" * 7 + "-01",   # short span id
        "00-" + "00" * 16 + "-" + "cd" * 8 + "-01",   # all-zero trace id
        "00-" + "ab" * 16 + "-" + "00" * 8 + "-01",   # all-zero span id
        "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01-x",  # trailing junk
        None,
        42,
    ])
    def test_malformed_headers_rejected(self, header):
        assert parse_traceparent(header) is None

    def test_format_round_trips(self):
        trace_id = mint_trace_id()
        span_id = w3c_span_id()
        header = format_traceparent(trace_id, span_id)
        assert parse_traceparent(header) == (trace_id, span_id)

    def test_mint_trace_id_shape_and_uniqueness(self):
        ids = {mint_trace_id() for _ in range(32)}
        assert len(ids) == 32
        assert all(len(i) == 32 and parse_traceparent(
            format_traceparent(i, w3c_span_id())
        ) for i in ids)

    def test_w3c_span_id_deterministic_from_seed(self):
        assert w3c_span_id("req-1") == w3c_span_id("req-1")
        assert w3c_span_id("req-1") != w3c_span_id("req-2")
        assert len(w3c_span_id("req-1")) == 16


class TestTraceContext:
    def test_ambient_context_nests_and_restores(self):
        assert current_trace_id() == ""
        with use_trace_context("aa" * 16):
            assert current_trace_id() == "aa" * 16
            with use_trace_context("bb" * 16):
                assert current_trace_id() == "bb" * 16
            assert current_trace_id() == "aa" * 16
        assert current_trace_id() == ""

    def test_context_is_thread_local(self):
        seen = {}

        def worker():
            seen["other"] = current_trace_id()

        with use_trace_context("aa" * 16):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["other"] == ""

    def test_spans_inherit_ambient_trace_id(self):
        tracer = Tracer()
        with use_trace_context(VALID_TRACE_ID):
            with tracer.span("inside"):
                pass
        with tracer.span("outside"):
            pass
        records = {r["name"]: r for r in tracer.to_records()}
        assert records["inside"]["trace_id"] == VALID_TRACE_ID
        # Batch-path spans carry no trace_id key at all — exported
        # records stay byte-identical to the pre-introspection schema.
        assert "trace_id" not in records["outside"]

    def test_overlapping_spans_do_not_pop_each_other(self):
        tracer = Tracer()
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer_span = outer.__enter__()
        inner_span = inner.__enter__()
        # Exit out of order (interleaved async dispatches on one
        # thread): each exit must remove its own span only.
        outer.__exit__(None, None, None)
        from repro.obs.tracing import current_span

        assert current_span() is inner_span
        inner.__exit__(None, None, None)
        assert current_span() is None
        assert outer_span.parent_id is None
        assert inner_span.parent_id == outer_span.span_id


# -- inbound header validation ------------------------------------------------


class TestHeaderValidation:
    def test_valid_request_id_honoured(self):
        assert request_id_from_headers(
            {"x-request-id": "req-abc_1:2/3@x#y+z."}
        ) == "req-abc_1:2/3@x#y+z."

    @pytest.mark.parametrize("bad", [
        "has space",
        "tab\there",
        "new\nline",
        "quote\"inject",
        "x" * 129,
        "emoji-☃",
        "",
        "   ",
    ])
    def test_malformed_request_id_replaced(self, bad):
        minted = request_id_from_headers({"x-request-id": bad})
        assert minted != bad.strip()
        assert minted.startswith("req-")

    def test_valid_traceparent_honoured(self):
        trace_id, parent, echo = trace_context_from_headers(
            {"traceparent": VALID_TRACEPARENT}, "req-1"
        )
        assert trace_id == VALID_TRACE_ID
        assert parent == "cd" * 8
        assert echo == format_traceparent(
            VALID_TRACE_ID, w3c_span_id("req-1")
        )

    def test_malformed_traceparent_minted_not_echoed(self):
        bad = "00-XYZ-123-01"
        trace_id, parent, echo = trace_context_from_headers(
            {"traceparent": bad}, "req-1"
        )
        assert parent == ""
        assert len(trace_id) == 32
        assert bad not in echo
        assert parse_traceparent(echo) is not None

    def test_absent_traceparent_minted(self):
        trace_id, _, echo = trace_context_from_headers({}, "req-1")
        assert parse_traceparent(echo)[0] == trace_id


# -- the request store --------------------------------------------------------


def _finished_tree(request_id, size, status=200, latency_ms=1.0):
    """A finished ``serve.request`` root of ``size`` spans, on its tracer."""
    tracer = Tracer()
    with tracer.span("serve.request", route="ask", method="POST",
                     path="/ask", request_id=request_id) as root:
        for _ in range(size - 1):
            with tracer.span("op"):
                pass
        root.set_attr("status", status)
        root.set_attr("tenant", "t")
    root.duration_ms = latency_ms
    return root, tracer


def _serve(app, request_id, size, failed=False, built=None):
    """Drive one request of ``size`` spans through the middleware, with a
    handler run of ``size - 1`` spans; returns its trace id."""
    trace_id = mint_trace_id()

    def detail():
        if built is not None:
            built.append(request_id)
        return {"request_id": request_id}

    with app.obs.request("POST", "/ask", "ask", request_id,
                         trace_id=trace_id) as holder:
        run = Tracer()
        with run.span("generate"):
            for _ in range(size - 2):
                with run.span("op"):
                    pass
        holder.update(status=200, tenant="t", failed=failed,
                      debug={"tracer": run, "detail": detail})
    return trace_id


def _bare_app(tmp_path=None, **kwargs):
    """A ``ServeApp`` with no tenants: its debug views over synthetic
    requests driven through its middleware."""
    trace_out = str(tmp_path / "trace.jsonl") if tmp_path else None
    return ServeApp(registry=MetricsRegistry(), trace_out=trace_out,
                    **kwargs)


class TestFlightRecorder:
    """The ``/debug/errors`` retention policy: the request store's
    classes, reported as ``/healthz``'s ``flight`` stats."""

    def test_classification_priority(self):
        store = RequestStore(slow_ms=100.0, sample_every=0)
        assert store.classify(500, False, 1.0) == "failed"
        assert store.classify(200, True, 1.0) == "failed"
        # failed wins over slow even when both apply
        assert store.classify(503, False, 500.0) == "failed"
        assert store.classify(200, False, 500.0) == "slow"
        assert store.classify(200, False, 1.0) == "recent"

    def test_sampling_cadence(self):
        store = RequestStore(slow_ms=1e9, sample_every=3)
        classes = [
            store.classify(200, False, 1.0) for _ in range(7)
        ]
        assert classes == [
            "sampled", "recent", "recent", "sampled", "recent", "recent",
            "sampled",
        ]

    def test_sample_every_one_keeps_everything(self):
        store = RequestStore(slow_ms=1e9, sample_every=1)
        assert all(
            store.classify(200, False, 1.0) == "sampled"
            for _ in range(5)
        )

    def test_retention_policy_failed_beats_slow_beats_sampled(self):
        store = RequestStore(slow_ms=100.0, sample_every=1)
        size = SERVE_TRACER_SPANS // 4      # four trees fill the store

        def add(request_id, status=200, latency_ms=1.0):
            root, tracer = _finished_tree(request_id, size, status,
                                          latency_ms)
            return store.observe(
                root, tracer.finished_spans(), False, dict,
            ).klass

        def kept():
            return {
                tree.root.attributes["request_id"]
                for tree in store.trees()
            }

        assert [add(f"sampled-{index}") for index in range(4)] == \
            ["sampled"] * 4
        assert add("slow-0", latency_ms=500.0) == "slow"
        assert add("failed-0", status=500) == "failed"
        # The two newest trees are the newest half of the budget; two
        # sampled trees are evicted (oldest first), slow and failed
        # retained alongside the two newest sampled.
        assert kept() == {"sampled-2", "sampled-3", "slow-0", "failed-0"}
        # More failures evict sampled, then slow — never older failures
        # while lower classes remain.
        for index in range(1, 4):
            add(f"failed-{index}", status=500)
        assert kept() == {"failed-0", "failed-1", "failed-2", "failed-3"}
        # Only when everything retained is failed does the oldest
        # failure go.
        add("failed-4", status=500)
        assert kept() == {"failed-1", "failed-2", "failed-3", "failed-4"}
        # The newest request is kept whatever the older ones are.
        add("sampled-late")
        assert kept() == {
            "failed-2", "failed-3", "failed-4", "sampled-late",
        }
        stats = store.stats()
        assert stats["spans"] == SERVE_TRACER_SPANS
        assert stats["evicted"] == 7
        assert stats["retained"] == {
            "failed": 3, "slow": 0, "sampled": 1, "recent": 0,
        }

    def test_entries_newest_first_and_class_filter(self):
        app = _bare_app(sample_every=2)
        for request_id in ("a", "b", "c", "d"):
            _serve(app, request_id, 2, failed=request_id == "b")
        # a sampled, b failed, c sampled, d recent: every tree is kept,
        # and /debug/errors lists the classified ones newest first.
        status, listing, _ = app._handle_debug_requests(None, {}, "")
        assert [r["request_id"] for r in listing["requests"]] == \
            ["d", "c", "b", "a"]
        status, errors, _ = app._handle_debug_errors(None, {}, "")
        assert [(e["request_id"], e["class"]) for e in errors["errors"]] \
            == [("c", "sampled"), ("b", "failed"), ("a", "sampled")]
        assert [e["seq"] for e in errors["errors"]] == [3, 2, 1]
        assert errors["errors"][1]["detail"] == {"request_id": "b"}

    def test_observe_lazy_entry_and_stats(self):
        built = []
        app = _bare_app(sample_every=0)
        _serve(app, "boring", 2, built=built)
        assert not built          # boring request: detail never built
        _serve(app, "broken", 2, failed=True, built=built)
        assert built == ["broken"]
        stats = app.obs.store.stats()
        assert stats["seen"] == 2
        assert stats["retained"] == {
            "failed": 1, "slow": 0, "sampled": 0, "recent": 1,
        }
        assert stats["recorded"]["failed"] == 1
        assert stats["evicted"] == 0
        assert stats["spans"] == 4
        (recent,) = [t for t in app.obs.store.trees() if t.klass == "recent"]
        assert recent.detail is None


class TestWholeTreeRetention:
    """Regression probes: the serve debug plane once trimmed its tracer
    one span at a time, oldest first, beside a separate flight recorder
    of request summaries."""

    def test_every_retained_span_keeps_its_root(self, tmp_path):
        app = _bare_app(tmp_path, sample_every=10)
        sizes = (14, 2, 2, 2, 14, 2)
        for index in range(3000):
            _serve(app, f"mixed-{index}", sizes[index % len(sizes)])
        app.shutdown()
        trace = load_trace(str(tmp_path / "trace.jsonl"))
        by_trace = {}
        for span in trace["spans"]:
            by_trace.setdefault(span["trace_id"], []).append(span)
        assert sum(map(len, by_trace.values())) <= SERVE_TRACER_SPANS
        for spans in by_trace.values():
            ids = {span["span_id"] for span in spans}
            roots = [s for s in spans if s["parent_id"] not in ids]
            assert [root["name"] for root in roots] == ["serve.request"]
            size = 14 if len(spans) > 2 else 2
            assert len(spans) == size
        assert trace["meta"]["window"]["seen"] == 3000
        assert sum(trace["meta"]["window"]["retained"].values()) == \
            len(by_trace)

    def test_first_failure_outlives_healthy_traffic(self):
        app = _bare_app(sample_every=10)
        failed = _serve(app, "first-failure", 14, failed=True)
        for index in range(3000):
            _serve(app, f"healthy-{index}", 2)
        status, errors, _ = app._handle_debug_errors(None, {}, "")
        (entry,) = [
            e for e in errors["errors"] if e["request_id"] == "first-failure"
        ]
        assert entry["class"] == "failed"
        assert entry["trace_id"] == failed
        status, trace, _ = app._handle_debug_trace(
            None, {"trace_id": failed}, ""
        )
        assert status == 200
        assert len(trace["spans"]) == 14
        assert trace["spans"][0]["name"] == "serve.request"

    def test_newest_requests_survive_a_store_of_classified_trees(self):
        app = _bare_app(sample_every=10)
        for index in range(5000):
            _serve(app, f"healthy-{index}", 14)
        # Sampled trees fill the older half; then failures well past what
        # the store can hold, then one more healthy request.
        for index in range(300):
            _serve(app, f"failed-{index}", 14, failed=True)
        latest = _serve(app, "latest", 14)
        stats = app.obs.store.stats()
        assert stats["spans"] <= SERVE_TRACER_SPANS
        assert stats["retained"]["failed"] > 0
        status, listing, _ = app._handle_debug_requests(None, {}, "")
        assert [r["request_id"] for r in listing["requests"][:3]] == \
            ["latest", "failed-299", "failed-298"]
        status, trace, _ = app._handle_debug_trace(
            None, {"trace_id": latest}, ""
        )
        assert status == 200
        assert len(trace["spans"]) == 14

    def test_overlapping_requests_are_separate_roots(self):
        app = _bare_app()
        first = app.obs.request("GET", "/healthz", "healthz", "first")
        second = app.obs.request("GET", "/healthz", "healthz", "second")
        for holder in (first.__enter__(), second.__enter__()):
            holder["status"] = 200
        first.__exit__(None, None, None)
        second.__exit__(None, None, None)
        roots = [tree.root for tree in app.obs.store.trees()]
        assert [root.attributes["request_id"] for root in roots] == \
            ["first", "second"]
        assert [root.parent_id for root in roots] == [None, None]
        # both trees are on one clock
        assert roots[0].start_ms <= roots[1].start_ms


# -- adopting a finished run's spans -----------------------------------------


class TestTracerAdopt:
    def test_adopt_rebases_and_parents_roots(self):
        serve = Tracer()
        with serve.span("serve.request") as request:
            pass
        run = Tracer()
        with use_trace_context(VALID_TRACE_ID):
            with run.span("generate"):
                with run.span("plan"):
                    pass
        serve.adopt(run, request.span_id)
        spans = {span.name: span for span in serve.finished_spans()}
        assert spans["generate"].parent_id == request.span_id
        assert spans["plan"].parent_id == spans["generate"].span_id
        assert spans["generate"].trace_id == VALID_TRACE_ID
        # ``run`` started later, so its spans start later on ``serve``'s
        # clock; ``run`` keeps its own spans as they were.
        shift_ms = (run._epoch - serve._epoch) * 1000.0
        original = {span.name: span for span in run.finished_spans()}
        assert shift_ms > 0.0
        assert spans["plan"].start_ms == pytest.approx(
            original["plan"].start_ms + shift_ms
        )
        assert original["generate"].parent_id is None


# -- loadgen slowest-request report -------------------------------------------


class TestLoadgenSlowest:
    def test_slowest_names_request_and_trace_ids(self):
        echo = format_traceparent(VALID_TRACE_ID, "cd" * 8)
        samples = [
            (200, 5.0, {"correct": True},
             {"X-Request-Id": "req-fast", "Traceparent": echo}),
            (200, 50.0, {"correct": True},
             {"X-Request-Id": "req-slow", "Traceparent": echo}),
        ]
        report = summarize(samples, 1.0)
        assert report["slowest"]["request_id"] == "req-slow"
        assert report["slowest"]["trace_id"] == VALID_TRACE_ID
        assert report["slowest"]["latency_ms"] == 50.0

    def test_three_tuple_samples_still_summarize(self):
        report = summarize([(200, 5.0, {"correct": True})], 1.0)
        assert report["requests"] == 1
        assert report["slowest"]["request_id"] == ""
        assert report["slowest"]["trace_id"] == ""


# -- end-to-end: the debug surface over HTTP ----------------------------------


def _make_app(experiment_context, **kwargs):
    defaults = dict(
        databases=["sports_holdings"],
        workers=2,
        queue_depth=4,
        profiles=experiment_context.profiles,
        workload=experiment_context.workload,
        knowledge_sets=experiment_context.knowledge_sets,
        registry=MetricsRegistry(),
        sample_every=1,
    )
    defaults.update(kwargs)
    return ServeApp(**defaults)


@pytest.fixture(scope="module")
def debug_server(experiment_context):
    app = _make_app(experiment_context)
    server = ServerThread(app).start()
    yield server
    server.stop()


def _request(server, method, path, payload=None, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                      timeout=60)
    try:
        body = None
        merged = dict(headers or {})
        if payload is not None:
            body = json.dumps(payload)
            merged["Content-Type"] = "application/json"
        conn.request(method, path, body=body, headers=merged)
        response = conn.getresponse()
        raw = response.read()
        content_type = response.getheader("Content-Type", "")
        parsed = json.loads(raw) if "json" in content_type else \
            raw.decode("utf-8")
        return response.status, dict(response.getheaders()), parsed
    finally:
        conn.close()


class TestDebugEndpoints:
    def test_traceparent_round_trip_to_span_tree(self, debug_server):
        trace_id = mint_trace_id()
        sent = format_traceparent(trace_id, w3c_span_id())
        status, headers, body = _request(
            debug_server, "POST", "/ask",
            {"question": "How many teams are there?",
             "tenant": "sports_holdings"},
            headers={"traceparent": sent, "X-Request-Id": "e2e-trace-1"},
        )
        assert status == 200
        echoed = parse_traceparent(headers["traceparent"])
        assert echoed is not None and echoed[0] == trace_id
        status, _, trace = _request(
            debug_server, "GET", f"/debug/traces/{trace_id}"
        )
        assert status == 200
        names = {span["name"] for span in trace["spans"]}
        # The serve root (event loop) and the pipeline spans (worker
        # thread) share one trace id — the propagation the tentpole is
        # about.
        assert "serve.request" in names
        assert "generate" in names
        assert all(
            span.get("trace_id") == trace_id for span in trace["spans"]
        )
        assert "serve.request" in trace["tree"]

    def test_malformed_traceparent_gets_minted_trace(self, debug_server):
        status, headers, _ = _request(
            debug_server, "GET", "/healthz",
            headers={"traceparent": "00-bogus-bogus-01"},
        )
        assert status == 200
        parsed = parse_traceparent(headers["traceparent"])
        assert parsed is not None
        assert parsed[0] != "bogus"

    def test_unknown_trace_is_404(self, debug_server):
        status, _, body = _request(
            debug_server, "GET", f"/debug/traces/{'ee' * 16}"
        )
        assert status == 404

    def test_metrics_scrape_passes_promtext_linter(self, debug_server):
        _request(debug_server, "GET", "/healthz")
        status, headers, text = _request(debug_server, "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert isinstance(text, str)
        assert "serve_requests" in text
        checker = _load_checker()
        assert checker.lint_promtext(text, "metrics") == []

    def test_debug_requests_ring(self, debug_server):
        _request(debug_server, "GET", "/healthz",
                 headers={"X-Request-Id": "ring-probe-1"})
        status, _, body = _request(
            debug_server, "GET", "/debug/requests"
        )
        assert status == 200
        entries = body["requests"]
        assert entries, "request ring empty"
        probe = next(
            e for e in entries if e["request_id"] == "ring-probe-1"
        )
        assert probe["route"] == "healthz"
        assert probe["status"] == 200
        assert len(probe["trace_id"]) == 32
        assert probe["latency_ms"] >= 0.0

    def test_failed_ask_reconstructable_from_debug_errors(
            self, debug_server):
        app = debug_server.server.app
        pipeline = app._tenants["sports_holdings"].pipeline
        operator = next(
            op for op in pipeline.operators
            if op.name == "generate_sql"
        )

        def boom(context):
            raise RuntimeError("introspection test failure")

        operator.run = boom
        try:
            status, _, body = _request(
                debug_server, "POST", "/ask",
                {"question": "How many teams are there?",
                 "tenant": "sports_holdings"},
                headers={"X-Request-Id": "e2e-fail-1"},
            )
        finally:
            del operator.run
        assert status == 200 and body["success"] is False
        status, _, errors = _request(
            debug_server, "GET", "/debug/errors"
        )
        assert status == 200
        entry = next(
            e for e in errors["errors"]
            if e["request_id"] == "e2e-fail-1"
        )
        assert entry["class"] == "failed"
        assert entry["tenant"] == "sports_holdings"
        detail = entry["detail"]
        # Postmortem without re-running: operator trail, attribution,
        # diagnostics, the error text.
        assert detail["failed_operator"] == "generate_sql"
        assert "introspection test failure" in detail["error"]
        trail = [d["operator"] for d in detail["operator_digests"]]
        assert "link_schema" in trail       # operators before the crash
        assert all(d["digest"] for d in detail["operator_digests"])
        assert detail["events"]
        assert errors["stats"]["retained"]["failed"] >= 1

    def test_healthz_per_tenant_detail(self, debug_server):
        status, _, body = _request(debug_server, "GET", "/healthz")
        assert status == 200
        detail = body["tenant_detail"]["sports_holdings"]
        assert detail["requests"] >= 1
        assert detail["failures"] >= 1      # the forced failure above
        assert body["flight"]["max_spans"] == SERVE_TRACER_SPANS

    def test_access_log_is_json(self, debug_server, caplog):
        with caplog.at_level(logging.INFO, logger="repro.serve"):
            _request(debug_server, "GET", "/healthz",
                     headers={"X-Request-Id": "log-probe-1"})
        records = [
            json.loads(record.getMessage())
            for record in caplog.records
            if record.name == "repro.serve"
        ]
        probe = next(
            r for r in records if r["request_id"] == "log-probe-1"
        )
        assert probe["event"] == "request"
        assert probe["route"] == "healthz"
        assert probe["status"] == 200
        assert len(probe["trace_id"]) == 32
        assert "ts" in probe and "latency_ms" in probe

    def test_access_log_line_at_info(self, debug_server, caplog):
        with caplog.at_level(logging.INFO, logger="repro.serve"):
            _request(debug_server, "GET", "/healthz",
                     headers={"X-Request-Id": "log-probe-2"})
        (line,) = [
            record.getMessage() for record in caplog.records
            if record.name == "repro.serve"
            and "log-probe-2" in record.getMessage()
        ]
        probe = json.loads(line)
        assert line == json.dumps(probe, sort_keys=True)
        assert sorted(probe) == [
            "event", "latency_ms", "method", "path", "request_id", "route",
            "status", "tenant", "trace_id", "ts",
        ]

    def test_access_log_not_built_below_info(
        self, debug_server, caplog, monkeypatch
    ):
        serialised = []
        dumps = json.dumps

        def spy(value, *args, **kwargs):
            if isinstance(value, dict) and value.get("event") == "request":
                serialised.append(value)
            return dumps(value, *args, **kwargs)

        monkeypatch.setattr(json, "dumps", spy)
        with caplog.at_level(logging.WARNING, logger="repro.serve"):
            status, _, _ = _request(debug_server, "GET", "/healthz",
                                    headers={"X-Request-Id": "log-probe-3"})
        assert status == 200
        assert serialised == []
        assert not [r for r in caplog.records if r.name == "repro.serve"]


class TestLedgerTraceRoundTrip:
    def test_trace_ids_recorded_in_run_meta_not_record(
            self, experiment_context, tmp_path):
        from repro.obs.ledger import RunLedger

        app = _make_app(
            experiment_context, ledger_dir=str(tmp_path)
        )
        server = ServerThread(app).start()
        trace_id = mint_trace_id()
        try:
            question = experiment_context.workload.for_database(
                "sports_holdings"
            )[0]
            status, _, _ = _request(
                server, "POST", "/ask",
                {"question": question.question,
                 "tenant": "sports_holdings",
                 "question_id": question.question_id,
                 "gold_sql": question.gold_sql,
                 "difficulty": question.difficulty},
                headers={
                    "traceparent": format_traceparent(
                        trace_id, w3c_span_id()
                    ),
                    "X-Request-Id": "ledger-trace-1",
                },
            )
            assert status == 200
        finally:
            server.stop()
        ledger = RunLedger(str(tmp_path))
        run_id = app.last_run_id
        assert run_id
        meta = ledger.read_meta(run_id)
        key = f"sports_holdings/{question.question_id}"
        assert meta["requests"][key] == {
            "request_id": "ledger-trace-1",
            "trace_id": trace_id,
        }
        # The content-addressed record body must stay id-free: ids live
        # in volatile meta only, preserving sweep byte-equivalence.
        # The meta also states the window the run's timing covers.
        window = meta["window"]
        assert window["seen"] >= 1
        assert sum(window["retained"].values()) == window["seen"]
        record = ledger.read_record(run_id)
        assert trace_id not in json.dumps(record)
        assert "ledger-trace-1" not in json.dumps(record)
