"""Tests for the live introspection plane (DESIGN.md §6i): W3C trace
context propagation, the /metrics and /debug endpoints, the failure
flight recorder, header validation, and the loadgen slowest-request
report."""

from __future__ import annotations

import http.client
import importlib.util
import json
import logging
import os
import threading

import pytest

from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
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

    def test_tracer_max_finished_bounds_retention(self):
        tracer = Tracer(max_finished=5)
        for index in range(20):
            with tracer.span(f"s{index}"):
                pass
        spans = tracer.finished_spans()
        assert len(spans) == 5
        assert spans[-1].name == "s19"

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


# -- the flight recorder ------------------------------------------------------


class TestFlightRecorder:
    def test_classification_priority(self):
        flight = FlightRecorder(slow_ms=100.0, sample_every=0)
        assert flight.classify(500, False, 1.0) == "failed"
        assert flight.classify(200, True, 1.0) == "failed"
        # failed wins over slow even when both apply
        assert flight.classify(503, False, 500.0) == "failed"
        assert flight.classify(200, False, 500.0) == "slow"
        assert flight.classify(200, False, 1.0) is None

    def test_sampling_cadence(self):
        flight = FlightRecorder(slow_ms=1e9, sample_every=3)
        classes = [
            flight.classify(200, False, 1.0) for _ in range(7)
        ]
        assert classes == [
            "sampled", None, None, "sampled", None, None, "sampled",
        ]

    def test_sample_every_one_keeps_everything(self):
        flight = FlightRecorder(slow_ms=1e9, sample_every=1)
        assert all(
            flight.classify(200, False, 1.0) == "sampled"
            for _ in range(5)
        )

    def test_retention_policy_failed_beats_slow_beats_sampled(self):
        flight = FlightRecorder(capacity=4, slow_ms=100.0,
                                sample_every=1)
        for index in range(4):
            flight.record("sampled", {"id": f"sampled-{index}"})
        flight.record("slow", {"id": "slow-0"})
        flight.record("failed", {"id": "failed-0"})
        # Two sampled entries evicted (oldest first), slow and failed
        # retained alongside the two newest sampled.
        kept = {entry["id"] for entry in flight.entries()}
        assert kept == {"sampled-2", "sampled-3", "slow-0", "failed-0"}
        # More failures evict sampled, then slow — never older failures
        # while lower classes remain.
        for index in range(1, 4):
            flight.record("failed", {"id": f"failed-{index}"})
        kept = {entry["id"] for entry in flight.entries()}
        assert kept == {"failed-0", "failed-1", "failed-2", "failed-3"}
        # Only when everything retained is failed does the oldest
        # failure go.
        flight.record("failed", {"id": "failed-4"})
        kept = {entry["id"] for entry in flight.entries()}
        assert kept == {"failed-1", "failed-2", "failed-3", "failed-4"}

    def test_entries_newest_first_and_class_filter(self):
        flight = FlightRecorder(capacity=8)
        flight.record("sampled", {"id": "a"})
        flight.record("failed", {"id": "b"})
        flight.record("sampled", {"id": "c"})
        ids = [entry["id"] for entry in flight.entries()]
        assert ids == ["c", "b", "a"]
        assert [e["id"] for e in flight.entries(klass="failed")] == ["b"]
        assert [e["id"] for e in flight.entries(limit=1)] == ["c"]

    def test_observe_lazy_entry_and_stats(self):
        built = []

        def entry():
            built.append(1)
            return {"id": "x"}

        flight = FlightRecorder(capacity=2, slow_ms=1e9, sample_every=0)
        assert flight.observe(200, False, 1.0, entry) is None
        assert not built          # boring request: entry never built
        assert flight.observe(500, False, 1.0, entry) == "failed"
        assert built == [1]
        stats = flight.stats()
        assert stats["seen"] == 2
        assert stats["retained"]["failed"] == 1
        assert stats["recorded"]["failed"] == 1
        assert stats["evicted"] == 0


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

    def test_adopt_respects_the_bound(self):
        serve = Tracer(max_finished=3)
        run = Tracer()
        for index in range(5):
            with run.span(f"s{index}"):
                pass
        serve.adopt(run, None)
        assert [span.name for span in serve.finished_spans()] == [
            "s2", "s3", "s4",
        ]


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
        assert body["flight"]["capacity"] == 64

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
        record = ledger.read_record(run_id)
        assert trace_id not in json.dumps(record)
        assert "ledger-trace-1" not in json.dumps(record)
