"""Closed-loop load generator for the serving layer.

Drives a running server (or boots one in-process with ``--self``) with
benchmark questions and reports throughput and tail latency — the
numbers behind the serve benchmark and ``make serve-smoke``. Three
traffic shapes:

* **skewed** (default): ``--requests N`` drawn from the workload with a
  Zipf-like weight ``1/rank^s`` per database (a few hot questions, a
  long tail) from a seeded ``random.Random`` — the realistic analyst
  mix named in the issue;
* **sweep** (``--sweep``): every workload question exactly once,
  carrying ``question_id``/``gold_sql``/``difficulty`` so the server
  scores EX and accumulates a ledger-comparable serve run — two sweeps
  at different concurrency against fresh servers must produce
  byte-identical ledger records (the serial/concurrent equivalence
  gate);
* **backpressure probe** (``--probe``): barrier-synchronized bursts of
  ``3 × capacity`` concurrent asks (capacity read from ``/healthz``),
  repeated until at least one 429 is observed — proving admission
  control actually rejects under overload. Probe rejections are
  expected and excluded from the ``--check`` gate.

``--check`` turns the run into a CI gate: exit non-zero when any
non-probe request failed (non-2xx), when a sweep answered incorrectly,
or when the probe never saw a 429.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time

from .app import DEFAULT_QUEUE_DEPTH, DEFAULT_WORKERS, ServeApp

#: Zipf-ish skew exponent for the default traffic mix.
DEFAULT_SKEW = 1.2


def percentile(values, q):
    """Exact quantile by linear interpolation (values need not be sorted)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Client:
    """One keep-alive HTTP connection with JSON request/response."""

    def __init__(self, host, port, timeout=60.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn = None

    def _connection(self):
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def request(self, method, path, payload=None):
        """``(status, headers dict, parsed JSON body)`` for one request."""
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload, sort_keys=True)
            headers["Content-Type"] = "application/json"
        for attempt in (1, 2):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                raw = response.read()
                break
            except (ConnectionError, http.client.HTTPException, OSError):
                self.close()
                if attempt == 2:
                    raise
        parsed = json.loads(raw) if raw else {}
        return response.status, dict(response.getheaders()), parsed

    def close(self):
        if self._conn is not None:
            self._conn.close()
            self._conn = None


# -- traffic plans -----------------------------------------------------------


def _questions(workload, databases):
    items = []
    for database in databases:
        items.extend(workload.for_database(database))
    return items


def skewed_plan(workload, databases, requests, seed, skew=DEFAULT_SKEW):
    """``requests`` asks drawn Zipf-like over the workload questions.

    Ranking and draws both come from one seeded generator, so the same
    seed always produces the same request sequence.
    """
    questions = _questions(workload, databases)
    rng = random.Random(seed)
    ranked = list(questions)
    rng.shuffle(ranked)
    weights = [1.0 / (rank + 1) ** skew for rank in range(len(ranked))]
    return rng.choices(ranked, weights=weights, k=requests)


def sweep_plan(workload, databases):
    """Every workload question exactly once, in deterministic order."""
    return sorted(
        _questions(workload, databases),
        key=lambda q: (q.database, q.question_id),
    )


def ask_payload(question, scored):
    payload = {
        "question": question.question,
        "tenant": question.database,
    }
    if scored:
        payload["question_id"] = question.question_id
        payload["gold_sql"] = question.gold_sql
        payload["difficulty"] = question.difficulty
    return payload


# -- drivers -----------------------------------------------------------------


def run_workers(host, port, plan, concurrency, scored=False,
                timeout=120.0):
    """Drive ``plan`` through ``concurrency`` closed-loop workers.

    Returns per-request samples: ``(status, latency_ms, body, headers)``
    in completion order. The response headers carry the server's
    ``X-Request-Id`` and ``traceparent`` — what lets the report name the
    slowest request for a ``/debug/traces/{trace_id}`` lookup.
    """
    iterator = iter(plan)
    feed_lock = threading.Lock()
    samples = []
    samples_lock = threading.Lock()

    def worker():
        client = Client(host, port, timeout=timeout)
        try:
            while True:
                with feed_lock:
                    question = next(iterator, None)
                if question is None:
                    return
                started = time.perf_counter()
                status, headers, body = client.request(
                    "POST", "/ask", ask_payload(question, scored)
                )
                elapsed_ms = (time.perf_counter() - started) * 1000.0
                with samples_lock:
                    samples.append((status, elapsed_ms, body, headers))
        finally:
            client.close()

    threads = [
        threading.Thread(target=worker, name=f"loadgen-{index}")
        for index in range(max(1, concurrency))
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    duration_s = time.perf_counter() - started
    return samples, duration_s


def probe_backpressure(host, port, question, rounds=5):
    """Burst ``3 × capacity`` concurrent asks until a 429 is seen.

    Returns ``{"attempts", "rejected", "rounds"}`` — ``rejected`` is the
    count of 429 responses across all rounds (0 means admission control
    never triggered, which ``--check`` treats as a failure).
    """
    status, _, health = Client(host, port).request("GET", "/healthz")
    capacity = int(health.get("capacity", 1)) if status == 200 else 1
    burst = max(3, 3 * capacity)
    attempts = 0
    rejected = 0
    payload = ask_payload(question, scored=False)
    for round_number in range(1, rounds + 1):
        barrier = threading.Barrier(burst)
        statuses = []
        statuses_lock = threading.Lock()

        def worker():
            client = Client(host, port)
            try:
                barrier.wait(timeout=30.0)
                status, _, _ = client.request("POST", "/ask", payload)
                with statuses_lock:
                    statuses.append(status)
            finally:
                client.close()

        threads = [
            threading.Thread(target=worker, name=f"probe-{index}")
            for index in range(burst)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        attempts += len(statuses)
        rejected += sum(1 for status in statuses if status == 429)
        if rejected:
            return {"attempts": attempts, "rejected": rejected,
                    "rounds": round_number, "burst": burst,
                    "capacity": capacity}
    return {"attempts": attempts, "rejected": rejected, "rounds": rounds,
            "burst": burst, "capacity": capacity}


def _slowest_sample(samples):
    """The report entry for the slowest request of a run.

    Pulls the request/trace ids from the response headers (4-tuple
    samples; 3-tuple samples from older callers report latency only) so
    the slowest request can be looked up live via
    ``/debug/traces/{trace_id}`` or ``/debug/requests``.
    """
    slowest = max(samples, key=lambda sample: sample[1])
    headers = {
        name.lower(): value for name, value in
        (slowest[3] if len(slowest) > 3 else {}).items()
    }
    entry = {
        "status": slowest[0],
        "latency_ms": round(slowest[1], 3),
        "request_id": headers.get("x-request-id", ""),
        "trace_id": "",
    }
    parsed = None
    if headers.get("traceparent"):
        from ..obs.tracing import parse_traceparent

        parsed = parse_traceparent(headers["traceparent"])
    if parsed is not None:
        entry["trace_id"] = parsed[0]
    return entry


def summarize(samples, duration_s, probe=None):
    """The loadgen report: QPS, latency percentiles, status breakdown."""
    latencies = [sample[1] for sample in samples]
    statuses = {}
    for sample in samples:
        statuses[sample[0]] = statuses.get(sample[0], 0) + 1
    scored = [
        sample[2] for sample in samples
        if sample[0] == 200 and sample[2].get("correct") is not None
    ]
    report = {
        "requests": len(samples),
        "duration_s": round(duration_s, 3),
        "qps": round(len(samples) / duration_s, 2) if duration_s else 0.0,
        "p50_ms": round(percentile(latencies, 0.50), 3),
        "p99_ms": round(percentile(latencies, 0.99), 3),
        "max_ms": round(max(latencies), 3) if latencies else 0.0,
        "statuses": {str(k): v for k, v in sorted(statuses.items())},
        "non_2xx": sum(
            count for status, count in statuses.items()
            if not 200 <= status < 300
        ),
    }
    if samples:
        report["slowest"] = _slowest_sample(samples)
    if scored:
        report["scored"] = len(scored)
        report["correct"] = sum(1 for body in scored if body["correct"])
    if probe is not None:
        report["probe"] = probe
    return report


def check_report(report, sweep=False, probed=False):
    """CI-gate verdicts: the list of failures (empty means pass)."""
    failures = []
    if report["non_2xx"]:
        failures.append(
            f"{report['non_2xx']} non-2xx response(s) outside the "
            f"backpressure probe: {report['statuses']}"
        )
    if sweep and report.get("scored", 0) != report["requests"]:
        failures.append(
            f"sweep scored {report.get('scored', 0)} of "
            f"{report['requests']} requests"
        )
    if probed and not report.get("probe", {}).get("rejected"):
        failures.append("backpressure probe never saw a 429")
    return failures


# -- entry point -------------------------------------------------------------


def run_loadgen(host="127.0.0.1", port=0, databases=None, seed=7,
                requests=50, concurrency=4, skew=DEFAULT_SKEW,
                sweep=False, probe=False, self_serve=False,
                workers=DEFAULT_WORKERS, queue_depth=DEFAULT_QUEUE_DEPTH,
                ledger_dir=None, telemetry_out=None,
                workload=None, server_app=None, out=print):
    """Run one loadgen session; returns the report dict.

    ``self_serve`` boots an in-process :class:`ServerThread` on an
    ephemeral port (building the app unless ``server_app`` is injected),
    drives it, then drains it — the single-command mode ``make
    serve-smoke`` uses.
    """
    if workload is None:
        from ..bench.bird import build_workload

        workload = build_workload(seed)
    server = None
    if self_serve:
        from .http import ServerThread

        app = server_app or ServeApp(
            databases=databases, seed=seed, workers=workers,
            queue_depth=queue_depth, ledger_dir=ledger_dir,
            telemetry_out=telemetry_out,
        )
        server = ServerThread(app, host=host, port=port).start()
        port = server.port
        databases = app.databases
        out(f"loadgen: serving {', '.join(databases)} on {server.address}")
    if not databases:
        raise ValueError("no databases to drive; pass databases=[...]")
    try:
        if sweep:
            plan = sweep_plan(workload, databases)
        else:
            plan = skewed_plan(workload, databases, requests, seed, skew)
        out(
            f"loadgen: {len(plan)} request(s) at concurrency "
            f"{concurrency}" + (" (sweep)" if sweep else "")
        )
        samples, duration_s = run_workers(
            host, port, plan, concurrency, scored=sweep
        )
        probe_result = None
        if probe:
            probe_result = probe_backpressure(host, port, plan[0])
            out(
                f"loadgen: probe burst={probe_result['burst']} "
                f"rejected={probe_result['rejected']} "
                f"round(s)={probe_result['rounds']}"
            )
        report = summarize(samples, duration_s, probe=probe_result)
    finally:
        if server is not None:
            drained = server.stop()
            report_run = getattr(server.server.app, "last_run_id", "")
            if server is not None and not drained:
                out("loadgen: WARNING drain timed out")
    if server is not None:
        report["drained"] = drained
        if report_run:
            report["run_id"] = report_run
    out(
        f"loadgen: {report['requests']} request(s) in "
        f"{report['duration_s']}s — {report['qps']} QPS, "
        f"p50 {report['p50_ms']}ms, p99 {report['p99_ms']}ms"
    )
    slowest = report.get("slowest")
    if slowest:
        out(
            f"loadgen: slowest {slowest['latency_ms']}ms "
            f"request-id={slowest['request_id'] or '?'} "
            f"trace-id={slowest['trace_id'] or '?'}"
            + (
                f" (GET /debug/traces/{slowest['trace_id']})"
                if slowest["trace_id"] else ""
            )
        )
    if "scored" in report:
        out(
            f"loadgen: EX {report['correct']}/{report['scored']} correct"
        )
    if report.get("run_id"):
        out(f"loadgen: recorded serve run {report['run_id']}")
    return report
