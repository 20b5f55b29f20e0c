#!/usr/bin/env python
"""CI smoke for the live introspection plane (``make debug-smoke``).

Boots the HTTP service in-process on an ephemeral port, then proves the
debug surface end to end:

1. a healthy ``/ask`` carrying a caller-supplied ``traceparent`` — the
   response must echo the same trace id, and ``/debug/traces/{id}`` must
   return one span tree: the ``serve.request`` root with the pipeline's
   ``generate`` span as its child (trace propagation across the worker
   pool, and the pipeline spans adopted under the request's root);
2. ``GET /metrics`` is scraped and written to ``argv[1]`` for the
   promtext linter (the Makefile pipes it through
   ``scripts/check_promtext.py``); it must carry the serving counters and
   the engine counters the served ``/ask`` just bumped;
3. a required operator is made to raise, a second ``/ask`` fails, and
   the failure must be fully reconstructable from ``GET /debug/errors``
   without re-running: retention class ``failed``, the operator digest
   trail, and the forced error text;
4. ``/debug/requests`` must list both requests with their trace ids;
5. a request deadline bounds the work: with ``reformulate`` slowed past
   it, an ``/ask`` with ``deadline_ms`` 50 must answer 504, ``/healthz``
   must show nothing in flight within that operator's sleep plus slack,
   and the next operator must never start;
6. enough generation-memo hits (2 spans each) to pass the request
   store's span bound must leave the failed request retained:
   ``/debug/traces/{id}`` still answers it as one ``serve.request`` tree;
7. the ``--trace-out`` export the app writes on shutdown, next to
   ``argv[1]`` as ``trace.jsonl``, must hold the pipeline's
   ``generate`` and ``final_check`` spans (a cold ask after the memo
   hits supplies them) and state its window: every request seen.

Exit code 0 only if every assertion holds.
"""

import http.client
import json
import os
import sys
import time

sys.path.insert(0, "src")

from repro.obs import load_trace  # noqa: E402
from repro.serve import ServeApp, ServerThread  # noqa: E402
from repro.serve.middleware import SERVE_TRACER_SPANS  # noqa: E402

TRACEPARENT = "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"
TRACE_ID = "ab" * 16
#: How long step 5 slows ``reformulate``, and the slack on top of it
#: within which the worker's slot must be free again after the 504.
SLOWED_S = 0.2
SLACK_S = 0.5


def request(port, method, path, payload=None, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    body = None
    sent = dict(headers or {})
    if payload is not None:
        body = json.dumps(payload)
        sent["Content-Type"] = "application/json"
    conn.request(method, path, body=body, headers=sent)
    response = conn.getresponse()
    raw = response.read()
    conn.close()
    content_type = response.getheader("Content-Type", "")
    parsed = json.loads(raw) if "json" in content_type else raw.decode()
    return response.status, dict(response.getheaders()), parsed


def one_tree(trace, root_name="serve.request"):
    """The root of ``trace``'s spans if they form one tree under a
    ``root_name`` span, else None."""
    spans = trace["spans"]
    ids = {span["span_id"] for span in spans}
    roots = [span for span in spans if span["parent_id"] not in ids]
    if [root["name"] for root in roots] != [root_name]:
        return None
    return roots[0]


def fail(message):
    print(f"debug-smoke: FAIL {message}")
    return 1


def main(argv):
    if len(argv) != 2:
        print("usage: debug_smoke.py METRICS_OUT_PATH")
        return 2
    metrics_out = argv[1]
    trace_out = os.path.join(os.path.dirname(metrics_out), "trace.jsonl")
    app = ServeApp(databases=["sports_holdings"], workers=2,
                   queue_depth=4, sample_every=1, trace_out=trace_out)
    server = ServerThread(app).start()
    try:
        # 1. healthy ask with caller trace context.
        status, headers, body = request(
            server.port, "POST", "/ask",
            {"question": "How many teams are there?",
             "tenant": "sports_holdings"},
            headers={"traceparent": TRACEPARENT,
                     "X-Request-Id": "smoke-ok-1"},
        )
        if status != 200:
            return fail(f"healthy ask answered {status}")
        echoed = headers.get("traceparent", "")
        if TRACE_ID not in echoed:
            return fail(f"traceparent not echoed: {echoed!r}")
        if headers.get("X-Request-Id") != "smoke-ok-1":
            return fail("request id not echoed")

        status, _, trace = request(
            server.port, "GET", f"/debug/traces/{TRACE_ID}"
        )
        if status != 200:
            return fail(f"/debug/traces/{TRACE_ID} answered {status}")
        spans = trace["spans"]
        root = one_tree(trace)
        if root is None:
            return fail(f"trace is not one serve.request tree: "
                        f"{[span['name'] for span in spans]}")
        if not any(span["name"] == "generate"
                   and span["parent_id"] == root["span_id"]
                   for span in spans):
            return fail("generate is not a child of serve.request")
        if "serve.request" not in trace["tree"]:
            return fail("span tree not rendered")

        # 2. scrape /metrics for the promtext linter.
        status, headers, text = request(server.port, "GET", "/metrics")
        if status != 200 or not isinstance(text, str):
            return fail(f"/metrics answered {status}")
        for family in ("serve_requests", "engine_columnar_selects_total"):
            if family not in text:
                return fail(f"/metrics missing {family}")
        with open(metrics_out, "w", encoding="utf-8") as handle:
            handle.write(text)

        # 3. force a required-operator failure and reconstruct it from
        # /debug/errors.
        pipeline = app._tenants["sports_holdings"].pipeline
        for operator in pipeline.operators:
            if operator.name == "generate_sql":
                def boom(context):
                    raise RuntimeError("forced failure (debug smoke)")

                operator.run = boom
                break
        else:
            return fail("generate_sql operator not found")
        status, headers, body = request(
            server.port, "POST", "/ask",
            {"question": "How many teams are there?",
             "tenant": "sports_holdings"},
            headers={"X-Request-Id": "smoke-fail-1"},
        )
        del operator.run
        failed_trace_id = headers["traceparent"].split("-")[1]
        if status != 200 or body.get("success"):
            return fail(
                f"forced failure not surfaced: {status} {body!r}"
            )

        status, _, errors = request(server.port, "GET", "/debug/errors")
        if status != 200:
            return fail(f"/debug/errors answered {status}")
        entry = next(
            (e for e in errors["errors"]
             if e.get("request_id") == "smoke-fail-1"), None,
        )
        if entry is None:
            return fail("failed request not in /debug/errors")
        if entry["class"] != "failed":
            return fail(f"wrong retention class: {entry['class']}")
        detail = entry.get("detail") or {}
        digests = detail.get("operator_digests") or []
        if not digests:
            return fail("error entry lost the operator digest trail")
        if detail.get("failed_operator") != "generate_sql":
            return fail(
                f"failed operator not attributed: {detail!r}"
            )
        if "forced failure" not in detail.get("error", ""):
            return fail("error text not retained")

        # 4. both requests visible in the request ring.
        status, _, ring = request(server.port, "GET", "/debug/requests")
        ids = {r["request_id"] for r in ring["requests"]}
        if not {"smoke-ok-1", "smoke-fail-1"} <= ids:
            return fail(f"/debug/requests incomplete: {sorted(ids)}")

        # 5. the request's deadline stops the run at the next operator
        # boundary, so the slot is back within the slowed operator.
        slowed, after = pipeline.operators[:2]
        started = []

        def slow(context, run=slowed.run):
            time.sleep(SLOWED_S)
            return run(context)

        def record(context, run=after.run):
            started.append(after.name)
            return run(context)

        slowed.run, after.run = slow, record
        try:
            status, _, body = request(
                server.port, "POST", "/ask",
                {"question": "How many teams are there?",
                 "tenant": "sports_holdings", "deadline_ms": 50},
            )
            answered = time.monotonic()
            if status != 504:
                return fail(f"deadline ask answered {status}: {body!r}")
            while True:
                _, _, health = request(server.port, "GET", "/healthz")
                if health["inflight"] == 0:
                    break
                if time.monotonic() - answered > SLOWED_S + SLACK_S:
                    return fail(f"slot still held {SLOWED_S + SLACK_S}s "
                                f"after the 504")
                time.sleep(0.005)
        finally:
            del slowed.run, after.run
        if started:
            return fail(f"{after.name} started after the deadline")

        # 6. pass the span bound with memo hits; the failure stays whole.
        hits = SERVE_TRACER_SPANS // 2 + 64
        for index in range(hits):
            status, _, body = request(
                server.port, "POST", "/ask",
                {"question": "How many teams are there?",
                 "tenant": "sports_holdings"},
            )
            if status != 200 or not body.get("success"):
                return fail(f"memo-hit ask {index} answered {status}")
        status, _, health = request(server.port, "GET", "/healthz")
        flight = health["flight"]
        if not flight["evicted"] or flight["spans"] > flight["max_spans"]:
            return fail(f"memo hits did not pass the span bound: {flight}")
        status, _, trace = request(
            server.port, "GET", f"/debug/traces/{failed_trace_id}"
        )
        if status != 200:
            return fail(f"failed trace answered {status} after {hits} "
                        f"memo hits")
        if one_tree(trace) is None:
            return fail("failed trace lost its serve.request root")

        # 7's pipeline spans: one cold ask, newest in the store.
        status, _, body = request(
            server.port, "POST", "/ask",
            {"question": "How many organisations are there?",
             "tenant": "sports_holdings"},
        )
        if status != 200:
            return fail(f"cold ask answered {status}")
    finally:
        server.stop()

    # 7. the shutdown export holds the pipeline spans and its window.
    exported = load_trace(trace_out)
    names = {span["name"] for span in exported["spans"]}
    if not {"generate", "final_check"} <= names:
        return fail(f"--trace-out export lacks pipeline spans: "
                    f"{sorted(names)}")
    window = exported["meta"].get("window") or {}
    if window.get("seen", 0) < hits + 2:
        return fail(f"--trace-out window does not count every request: "
                    f"{window}")
    print(
        "debug-smoke: ok — traceparent round-trip to one span tree, "
        "/metrics scrape, failed request reconstructed from "
        "/debug/errors, a 504 whose slot came back within one operator, "
        "the failed request still one tree after "
        f"{hits} memo hits, pipeline spans and window in the "
        "--trace-out export"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
