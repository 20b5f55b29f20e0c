"""Tests for the serving layer (repro.serve): schemas, routing, the
worker pool, the HTTP server end-to-end, and the serial/concurrent
equivalence gate."""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve import (
    AskRequest,
    FeedbackRequest,
    HTTPError,
    PoolDraining,
    PoolSaturated,
    Router,
    ServeApp,
    ServerThread,
    ValidationError,
    WorkerPool,
)
from repro.serve.loadgen import (
    check_report,
    percentile,
    skewed_plan,
    summarize,
    sweep_plan,
)
from repro.serve.middleware import new_request_id, request_id_from_headers
from repro.serve.schemas import schema_field_names


# -- schemas -----------------------------------------------------------------


class TestSchemas:
    def test_ask_request_happy_path(self):
        request = AskRequest.from_payload({
            "question": "How many teams?",
            "tenant": "sports_holdings",
            "deadline_ms": 1500,
        })
        assert request.question == "How many teams?"
        assert request.tenant == "sports_holdings"
        assert request.deadline_ms == 1500
        assert request.gold_sql == ""

    def test_all_errors_collected_in_one_pass(self):
        with pytest.raises(ValidationError) as exc:
            AskRequest.from_payload({
                "tenant": "  ",
                "deadline_ms": 0,
                "mystery": 1,
            })
        locs = {tuple(error["loc"]) for error in exc.value.errors}
        assert ("body", "question") in locs     # missing required
        assert ("body", "tenant") in locs       # empty
        assert ("body", "deadline_ms") in locs  # below minimum
        assert ("body", "mystery") in locs      # unknown field

    def test_bool_rejected_for_numeric_field(self):
        with pytest.raises(ValidationError):
            AskRequest.from_payload({
                "question": "q", "tenant": "t", "deadline_ms": True,
            })

    def test_non_object_body_rejected(self):
        with pytest.raises(ValidationError):
            AskRequest.from_payload([1, 2, 3])

    def test_error_payload_shape(self):
        try:
            FeedbackRequest.from_payload({})
        except ValidationError as error:
            payload = error.payload()
        assert payload["error"] == "validation"
        assert all(
            set(entry) == {"loc", "msg"} for entry in payload["detail"]
        )

    def test_schema_field_names(self):
        assert "gold_sql" in schema_field_names(AskRequest)
        assert "feedback" in schema_field_names(FeedbackRequest)


# -- router ------------------------------------------------------------------


class TestRouter:
    def _router(self):
        router = Router()
        router.add("GET", "/runs", lambda **kw: "list", name="runs")
        router.add("GET", "/runs/{run_id}", lambda **kw: "one",
                   name="runs")
        router.add("POST", "/ask", lambda **kw: "ask", name="ask",
                   pooled=True)
        return router

    def test_static_and_param_match(self):
        router = self._router()
        route, params = router.match("GET", "/runs")
        assert route.name == "runs" and params == {}
        route, params = router.match("GET", "/runs/abc123")
        assert params == {"run_id": "abc123"}

    def test_404_unknown_path(self):
        with pytest.raises(HTTPError) as exc:
            self._router().match("GET", "/nope")
        assert exc.value.status == 404

    def test_405_carries_allow_header(self):
        with pytest.raises(HTTPError) as exc:
            self._router().match("DELETE", "/ask")
        assert exc.value.status == 405
        assert exc.value.headers["Allow"] == "POST"

    def test_pooled_flag_recorded(self):
        router = self._router()
        route, _ = router.match("POST", "/ask")
        assert route.pooled
        route, _ = router.match("GET", "/runs")
        assert not route.pooled


# -- worker pool -------------------------------------------------------------


class TestWorkerPool:
    def test_admission_bound(self):
        pool = WorkerPool(workers=1, queue_depth=1)
        pool.acquire()
        pool.acquire()
        with pytest.raises(PoolSaturated):
            pool.acquire()
        pool.release()
        pool.acquire()  # slot freed
        pool.release()
        pool.release()

    def test_draining_rejected(self):
        pool = WorkerPool(workers=1, queue_depth=0)
        assert pool.drain(timeout=5.0)
        with pytest.raises(PoolDraining):
            pool.acquire()

    def test_run_executes_and_releases(self):
        pool = WorkerPool(workers=2, queue_depth=2)

        async def go():
            pool.acquire()
            return await pool.run(lambda: 40 + 2)

        assert asyncio.run(go()) == 42
        assert pool.inflight == 0

    def test_deadline_maps_to_exception_and_slot_still_freed(self):
        from repro.resilience import DeadlineExceeded

        pool = WorkerPool(workers=1, queue_depth=0)
        release = threading.Event()

        async def go():
            pool.acquire()
            with pytest.raises(DeadlineExceeded):
                await pool.run(release.wait, 30.0, deadline_s=0.05)

        asyncio.run(go())
        release.set()
        assert pool.drain(timeout=10.0)
        assert pool.inflight == 0


# -- middleware --------------------------------------------------------------


class TestRequestIds:
    def test_ids_unique(self):
        assert new_request_id() != new_request_id()

    def test_caller_id_honoured(self):
        assert request_id_from_headers(
            {"x-request-id": "trace-1"}
        ) == "trace-1"

    def test_bad_caller_id_replaced(self):
        minted = request_id_from_headers({"x-request-id": "x" * 200})
        assert minted.startswith("req-")


# -- loadgen helpers ---------------------------------------------------------


class TestLoadgenHelpers:
    def test_percentile(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 0.5) == 25.0
        assert percentile(values, 1.0) == 40.0
        assert percentile([], 0.5) == 0.0

    def test_skewed_plan_deterministic(self, experiment_context):
        workload = experiment_context.workload
        a = skewed_plan(workload, ["sports_holdings"], 20, seed=7)
        b = skewed_plan(workload, ["sports_holdings"], 20, seed=7)
        assert [q.question_id for q in a] == [q.question_id for q in b]
        assert len(a) == 20

    def test_sweep_plan_is_each_question_once(self, experiment_context):
        workload = experiment_context.workload
        plan = sweep_plan(workload, ["sports_holdings"])
        ids = [q.question_id for q in plan]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)
        assert len(ids) == len(workload.for_database("sports_holdings"))

    def test_check_report_flags(self):
        report = summarize([(200, 5.0, {"correct": True})], 1.0)
        assert check_report(report, sweep=True) == []
        bad = summarize([(500, 5.0, {})], 1.0)
        assert check_report(bad)
        silent = summarize([(200, 5.0, {})], 1.0,
                           probe={"rejected": 0})
        assert check_report(silent, probed=True)


# -- the app + HTTP server end-to-end ----------------------------------------


def _make_app(experiment_context, **kwargs):
    defaults = dict(
        databases=["sports_holdings"],
        workers=2,
        queue_depth=2,
        profiles=experiment_context.profiles,
        workload=experiment_context.workload,
        knowledge_sets=experiment_context.knowledge_sets,
        registry=MetricsRegistry(),
    )
    defaults.update(kwargs)
    return ServeApp(**defaults)


@pytest.fixture(scope="module")
def serve_server(experiment_context):
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
        return response.status, dict(response.getheaders()), \
            json.loads(raw) if raw else {}
    finally:
        conn.close()


class TestHttpServer:
    def test_healthz(self, serve_server):
        status, _, body = _request(serve_server, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["tenants"] == ["sports_holdings"]
        assert body["capacity"] == 4

    def test_ask_round_trip(self, serve_server, experiment_context):
        question = experiment_context.workload.for_database(
            "sports_holdings"
        )[0]
        status, headers, body = _request(serve_server, "POST", "/ask", {
            "question": question.question,
            "tenant": "sports_holdings",
            "gold_sql": question.gold_sql,
        })
        assert status == 200
        assert body["success"] is True
        assert body["correct"] is True
        assert body["sql"]
        assert headers["X-Request-Id"] == body["request_id"]

    def test_request_id_propagates(self, serve_server):
        status, headers, _ = _request(
            serve_server, "GET", "/healthz",
            headers={"X-Request-Id": "trace-42"},
        )
        assert status == 200
        assert headers["X-Request-Id"] == "trace-42"

    def test_validation_error_is_400_with_detail(self, serve_server):
        status, _, body = _request(serve_server, "POST", "/ask",
                                   {"tenant": "sports_holdings"})
        assert status == 400
        assert body["error"] == "validation"
        assert any(
            entry["loc"] == ["body", "question"]
            for entry in body["detail"]
        )

    def test_unknown_tenant_is_404(self, serve_server):
        status, _, body = _request(serve_server, "POST", "/ask", {
            "question": "q", "tenant": "enron",
        })
        assert status == 404
        assert body["detail"]["served"] == ["sports_holdings"]

    def test_unknown_path_and_method(self, serve_server):
        status, _, _ = _request(serve_server, "GET", "/nope")
        assert status == 404
        status, headers, _ = _request(serve_server, "PUT", "/ask")
        assert status == 405
        assert headers["Allow"] == "POST"

    def test_feedback_round_trip(self, serve_server, experiment_context):
        question = experiment_context.workload.for_database(
            "sports_holdings"
        )[0]
        status, _, body = _request(serve_server, "POST", "/feedback", {
            "question": question.question,
            "tenant": "sports_holdings",
            "feedback": "always filter to active teams",
        })
        assert status == 200
        assert isinstance(body["recommendations"], list)
        for edit in body["recommendations"]:
            assert set(edit) == {
                "edit_id", "action", "kind", "description",
            }

    def test_responses_are_sorted_key_json(self, serve_server):
        conn = http.client.HTTPConnection(
            "127.0.0.1", serve_server.port, timeout=60
        )
        try:
            conn.request("GET", "/healthz")
            raw = conn.getresponse().read().decode()
        finally:
            conn.close()
        keys = list(json.loads(raw))
        assert keys == sorted(keys)


class TestSaturationAndDrain:
    def test_saturated_pool_answers_429_with_retry_after(
        self, experiment_context
    ):
        app = _make_app(experiment_context, workers=1, queue_depth=0)
        server = ServerThread(app).start()
        try:
            block = threading.Event()
            release = threading.Event()

            def stall(request, params, request_id):
                block.set()
                release.wait(30.0)
                return 200, {"stalled": True}, {}

            app.router.add("POST", "/stall", stall, name="stall",
                           pooled=True)
            stalled = threading.Thread(
                target=_request, args=(server, "POST", "/stall"),
                kwargs={"payload": {}},
            )
            stalled.start()
            assert block.wait(10.0)
            status, headers, _ = _request(server, "POST", "/ask", {
                "question": "q", "tenant": "sports_holdings",
            })
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            release.set()
            stalled.join(30.0)
        finally:
            assert server.stop()

    def test_draining_server_answers_503(self, experiment_context):
        app = _make_app(experiment_context)
        server = ServerThread(app).start()
        assert server.stop()
        # The pool refuses after drain even via a direct dispatch.
        status, _, payload = asyncio.run(app.dispatch(
            "POST", "/ask", {},
            json.dumps({
                "question": "q", "tenant": "sports_holdings",
            }).encode(),
        ))
        assert status == 503
        assert payload["error"] == "draining"

    def test_deadline_maps_to_504(self, experiment_context):
        app = _make_app(experiment_context)
        server = ServerThread(app).start()
        try:
            block = threading.Event()
            release = threading.Event()

            def stall(request, params, request_id):
                block.set()
                release.wait(30.0)
                return 200, {}, {}

            app.router.add("POST", "/stall", stall, name="stall",
                           pooled=True)
            app.deadline_ms = 100.0
            status, _, body = _request(server, "POST", "/stall", {})
            assert status == 504
            assert body["error"] == "deadline exceeded"
            release.set()
        finally:
            app.deadline_ms = 30_000.0
            assert server.stop()

    def test_drain_waits_for_inflight_and_flushes(
        self, experiment_context, tmp_path
    ):
        telemetry = tmp_path / "metrics.prom"
        app = _make_app(
            experiment_context,
            ledger_dir=str(tmp_path / "runs"),
            telemetry_out=str(telemetry),
        )
        server = ServerThread(app).start()
        question = experiment_context.workload.for_database(
            "sports_holdings"
        )[0]
        status, _, _ = _request(server, "POST", "/ask", {
            "question": question.question,
            "tenant": "sports_holdings",
            "question_id": question.question_id,
            "gold_sql": question.gold_sql,
            "difficulty": question.difficulty,
        })
        assert status == 200
        assert server.stop()
        # Drain recorded the serve run and flushed telemetry.
        assert app.last_run_id
        assert telemetry.exists()
        text = telemetry.read_text()
        assert "serve_requests" in text


# -- the request record: handler return value -> middleware -------------------


def _dispatch_json(app, method, path, payload=None, request_id=""):
    headers = {"x-request-id": request_id} if request_id else {}
    body = json.dumps(payload).encode() if payload is not None else b""
    return asyncio.run(app.dispatch(method, path, headers, body))


class TestRequestRecord:
    def test_reused_request_id_after_504_keeps_its_own_record(
        self, experiment_context
    ):
        # A client retrying after a 504 commonly resends the request id.
        # The late worker of the first attempt must not hand its tenant,
        # pipeline detail or spans to the retry.
        app = _make_app(experiment_context).startup()
        pipeline = app._tenants["sports_holdings"].pipeline
        answer = pipeline.answer

        def slow_answer(question):
            time.sleep(0.3)
            return answer(question)

        pipeline.answer = slow_answer
        question = experiment_context.workload.for_database(
            "sports_holdings"
        )[0]

        async def scenario():
            slow = await app.dispatch(
                "POST", "/ask", {"x-request-id": "dup-1"},
                json.dumps({
                    "question": question.question,
                    "tenant": "sports_holdings",
                    "deadline_ms": 50,
                }).encode(),
            )
            while app.pool.inflight:    # the late worker finishes
                await asyncio.sleep(0.01)
            invalid = await app.dispatch(
                "POST", "/ask", {"x-request-id": "dup-1"},
                json.dumps({"tenant": "sports_holdings"}).encode(),
            )
            return slow[0], invalid[0]

        try:
            assert asyncio.run(scenario()) == (504, 400)
        finally:
            app.shutdown()
        _, errors, _ = app._handle_debug_errors(None, {}, "")
        entries = {
            entry["status"]: entry for entry in errors["errors"]
            if entry["request_id"] == "dup-1"
        }
        assert set(entries) == {504, 400}
        for entry in entries.values():
            assert entry["tenant"] == ""
            assert entry["detail"] == {}
        # The late worker's pipeline spans never reach the request store:
        # it holds the two requests' roots and nothing else.
        assert [
            (span.name, span.trace_id)
            for tree in app.obs.store.trees() for span in tree.spans
        ] == [
            ("serve.request", entry["trace_id"])
            for entry in sorted(entries.values(), key=lambda e: e["seq"])
        ]

    def test_healthz_tenant_detail_is_the_registry_counters(
        self, experiment_context
    ):
        app = _make_app(experiment_context).startup()
        keys = ("requests", "failures", "scored", "correct")

        def counters():
            return {
                key: app.registry.counter_value(
                    f"serve.tenant.{key}", tenant="sports_holdings"
                )
                for key in keys
            }

        def tenant_detail():
            status, _, payload = _dispatch_json(app, "GET", "/healthz")
            assert status == 200
            return payload["tenant_detail"]

        assert tenant_detail() == {
            "sports_holdings": dict.fromkeys(keys, 0)
        }
        first, second = experiment_context.workload.for_database(
            "sports_holdings"
        )[:2]
        asks = [
            {"question": first.question, "gold_sql": first.gold_sql},
            {"question": first.question, "gold_sql": second.gold_sql},
            {"question": second.question},
        ]
        bodies = []
        for ask in asks:
            status, _, body = _dispatch_json(
                app, "POST", "/ask", dict(ask, tenant="sports_holdings")
            )
            assert status == 200
            bodies.append(body)
        for operator in app._tenants["sports_holdings"].pipeline.operators:
            if operator.name == "generate_sql":
                def boom(context):
                    raise RuntimeError("forced failure")

                operator.run = boom
        status, _, body = _dispatch_json(app, "POST", "/ask", {
            "question": first.question, "tenant": "sports_holdings",
            "gold_sql": first.gold_sql,
        })
        assert status == 200 and body["success"] is False
        bodies.append(body)
        expected = {
            "requests": len(bodies),
            "failures": sum(not body["success"] for body in bodies),
            "scored": sum(body["correct"] is not None for body in bodies),
            "correct": sum(body["correct"] is True for body in bodies),
        }
        # The mix: scored right, scored wrong, unscored, failed.
        assert expected == {
            "requests": 4, "failures": 1, "scored": 3, "correct": 1,
        }
        assert counters() == expected
        assert tenant_detail() == {"sports_holdings": expected}
        _, _, text = _dispatch_json(app, "GET", "/metrics")
        assert (
            'serve_tenant_requests_total{tenant="sports_holdings"} 4'
            in text
        )
        app.shutdown()


# -- one span store: the request store -----------------------------------------


def _trace_id(headers):
    return headers["traceparent"].split("-")[1]


def _fresh_app(experiment_context, **kwargs):
    """An app whose tenant pipelines miss the generation memo.

    The memo key holds the knowledge set's revision: a set rebuilt from
    the shared set's components has a revision of its own, so each first
    ask runs every operator, without clearing the shared database's memos
    that other tests read warm.
    """
    from repro.knowledge.store import KnowledgeSet

    shared = experiment_context.knowledge_sets["sports_holdings"]
    rebuilt = KnowledgeSet(shared.name).restore(shared.snapshot())
    return _make_app(
        experiment_context,
        knowledge_sets=dict(
            experiment_context.knowledge_sets, sports_holdings=rebuilt,
        ),
        **kwargs,
    ).startup()


def _served_ask(app, question, request_id=""):
    """Serve ``question``; the response's trace id."""
    status, headers, _ = _dispatch_json(app, "POST", "/ask", {
        "question": question.question, "tenant": "sports_holdings",
        "question_id": question.question_id,
        "gold_sql": question.gold_sql,
    }, request_id=request_id)
    assert status == 200
    return _trace_id(headers)


def _trace_records(app, trace_id):
    return [
        record for record in app.obs.store.records()
        if record.get("trace_id") == trace_id
    ]


class TestServeTracer:
    def test_served_ask_is_one_tree_in_the_serve_tracer(
        self, experiment_context, tmp_path
    ):
        app = _fresh_app(
            experiment_context, ledger_dir=str(tmp_path / "runs")
        )
        question = experiment_context.workload.for_database(
            "sports_holdings"
        )[0]
        records = _trace_records(app, _served_ask(app, question))
        by_id = {record["span_id"]: record for record in records}
        (root,) = [r for r in records if r["parent_id"] not in by_id]
        assert root["name"] == "serve.request"
        (generate,) = [r for r in records if r["name"] == "generate"]
        assert generate["parent_id"] == root["span_id"]
        operators = [
            operator.name
            for operator in app._tenants["sports_holdings"].pipeline.operators
        ]
        assert len(operators) == 9
        assert {*operators, "final_check"} <= {r["name"] for r in records}
        # Rebased onto the request store's epoch, the tree nests in time.
        assert root["start_ms"] <= generate["start_ms"]
        assert generate["start_ms"] + generate["duration_ms"] <= \
            root["start_ms"] + root["duration_ms"] + 0.01
        app.shutdown()
        timing = json.loads(
            (tmp_path / "runs" / app.last_run_id / "timing.json").read_text()
        )
        assert {"serve.request", "generate", *operators, "final_check"} \
            <= set(timing["span_rollups"])

    def test_debug_views_read_the_serve_tracer(self, experiment_context):
        from collections import Counter

        app = _fresh_app(experiment_context)
        question = experiment_context.workload.for_database(
            "sports_holdings"
        )[1]
        trace_id = _served_ask(app, question, request_id="views-1")
        status, _, listing = _dispatch_json(app, "GET", "/debug/requests")
        assert status == 200
        (entry,) = [
            e for e in listing["requests"] if e["request_id"] == "views-1"
        ]
        assert entry == {
            "request_id": "views-1", "trace_id": trace_id,
            "method": "POST", "path": "/ask", "route": "ask",
            "status": 200, "latency_ms": entry["latency_ms"],
            "tenant": "sports_holdings",
        }
        assert entry["latency_ms"] > 0.0
        status, _, trace = _dispatch_json(
            app, "GET", f"/debug/traces/{trace_id}"
        )
        assert status == 200
        # The serve root plus the spans of the handler's run: the names a
        # fresh generation of the same question records.
        pipeline = app._tenants["sports_holdings"].pipeline
        expected = Counter(
            record["name"]
            for record in pipeline.generate(question.question).trace_records()
        )
        expected["serve.request"] += 1
        assert Counter(span["name"] for span in trace["spans"]) == expected
        status, _, _ = _dispatch_json(app, "GET", f"/debug/traces/{'ee' * 16}")
        assert status == 404
        app.shutdown()

    def test_feedback_request_is_one_tree(self, experiment_context):
        app = _make_app(experiment_context).startup()
        question = experiment_context.workload.for_database(
            "sports_holdings"
        )[0]
        status, headers, body = _dispatch_json(app, "POST", "/feedback", {
            "question": question.question, "tenant": "sports_holdings",
            "feedback": "always filter to active teams",
        })
        assert status == 200
        records = _trace_records(app, _trace_id(headers))
        by_id = {record["span_id"]: record for record in records}
        roots = [r["name"] for r in records if r["parent_id"] not in by_id]
        assert roots == ["serve.request"]
        names = {record["name"] for record in records}
        assert {"generate", "feedback.recommend"} <= names
        app.shutdown()


# -- one deadline per request ----------------------------------------------

#: How long each slowed operator (or LLM call) sleeps, and the slack a
#: loaded box gets on top of it.
SLOWED_S = 0.2
SLACK_S = 0.5


def _slow_operators(pipeline, starts):
    """Slow each operator by ``SLOWED_S`` through an instance patch of
    ``run``, appending its name to ``starts`` as it starts."""
    for operator in pipeline.operators:
        def run(context, name=operator.name, original=operator.run):
            starts.append(name)
            time.sleep(SLOWED_S)
            return original(context)

        operator.run = run


def _idle_after(pool, timeout_s):
    """Seconds until ``pool`` has nothing in flight, or None past
    ``timeout_s``."""
    started = time.monotonic()
    while pool.inflight:
        if time.monotonic() - started > timeout_s:
            return None
        time.sleep(0.001)
    return time.monotonic() - started


def _ask(app, question="How many teams are there?", **extra):
    return _dispatch_json(app, "POST", "/ask", dict(
        question=question, tenant="sports_holdings", **extra,
    ))


class TestRequestDeadline:
    """A request's deadline bounds its work: the pipeline stops at the
    first operator boundary past it, so the worker's slot is back within
    one operator of the 504."""

    def _cut_short(self, app, **extra):
        starts = []
        _slow_operators(app._tenants["sports_holdings"].pipeline, starts)
        status, _, payload = _ask(app, **extra)
        assert status == 504
        assert payload["error"] == "deadline exceeded"
        held = _idle_after(app.pool, SLOWED_S + SLACK_S)
        assert held is not None, f"slot still held; started {starts}"
        # Only the operator running when the deadline passed started.
        assert starts == ["reformulate"]
        assert app.registry.counter_value(
            "serve.rejections", reason="deadline"
        ) == 1
        app.shutdown()

    def test_server_deadline_frees_the_slot_within_one_operator(
        self, experiment_context
    ):
        self._cut_short(_make_app(
            experiment_context, workers=1, queue_depth=0, deadline_ms=50.0,
        ).startup())

    def test_request_deadline_below_the_servers_cuts_the_run_short(
        self, experiment_context
    ):
        self._cut_short(_make_app(
            experiment_context, workers=1, queue_depth=0,
        ).startup(), deadline_ms=50.0)

    def test_cut_short_run_is_not_memoised(self, experiment_context):
        app = _fresh_app(experiment_context, workers=1, queue_depth=0)
        pipeline = app._tenants["sports_holdings"].pipeline
        question = "How many teams are there?"
        # Slow the model, not an operator: a patched operator bypasses
        # the memo, a patched model instance does not.
        llm = pipeline.llm.inner
        original = llm.reformulate

        def slow_reformulate(*args, **kwargs):
            time.sleep(SLOWED_S)
            return original(*args, **kwargs)

        llm.reformulate = slow_reformulate
        status, _, _ = _ask(app, question, deadline_ms=50.0)
        assert status == 504
        assert _idle_after(app.pool, SLOWED_S + SLACK_S) is not None
        del llm.reformulate
        memo = pipeline.database.memo("generation")
        assert not [
            key for key in memo if key[0] is pipeline.knowledge.revision
        ]
        status, headers, body = _ask(app, question)
        assert status == 200
        assert body["cost_usd"] > 0.0       # a memo hit calls no model
        names = {r["name"] for r in _trace_records(app, _trace_id(headers))}
        assert "reformulate" in names
        app.shutdown()


# -- serial/concurrent equivalence (satellite of the concurrency audit) ------


def _sweep(experiment_context, tmp_path, concurrency, label):
    from repro.serve.loadgen import run_loadgen

    # Every sweep starts cold: a generation-memo hit records no LLM calls,
    # so a sweep after a warm one would record different accounting.
    experiment_context.profiles["sports_holdings"].database.clear_memos()
    app = _make_app(
        experiment_context,
        databases=["sports_holdings"],
        workers=4,
        queue_depth=8,
        ledger_dir=str(tmp_path / "runs"),
    )
    report = run_loadgen(
        databases=["sports_holdings"],
        concurrency=concurrency,
        sweep=True,
        self_serve=True,
        server_app=app,
        workload=experiment_context.workload,
        out=lambda line: None,
    )
    assert report["drained"] is True
    assert report["non_2xx"] == 0
    record_path = tmp_path / "runs" / report["run_id"] / "record.json"
    return report, record_path.read_bytes()


class TestSerialConcurrentEquivalence:
    def test_c1_and_c8_produce_identical_records(
        self, experiment_context, tmp_path
    ):
        report_1, record_1 = _sweep(
            experiment_context, tmp_path / "c1", 1, "c1"
        )
        report_8, record_8 = _sweep(
            experiment_context, tmp_path / "c8", 8, "c8"
        )
        assert report_1["requests"] == report_8["requests"]
        assert report_1["correct"] == report_8["correct"]

        def canonical(raw):
            record = json.loads(raw)
            record["run_id"] = ""
            return json.dumps(record, sort_keys=True)

        # Byte-identical modulo the (timestamped) run id: same SQL, same
        # EX verdicts, same outcome ordering, same digests.
        assert canonical(record_1) == canonical(record_8)
        # The content digest in the id already proves it — assert anyway.
        digest_1 = report_1["run_id"].rsplit("-", 1)[-1]
        digest_8 = report_8["run_id"].rsplit("-", 1)[-1]
        assert digest_1 == digest_8
