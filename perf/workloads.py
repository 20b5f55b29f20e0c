"""The four workloads, each a function of its seed and its size.

Every input is derived from the seed; the program receives only the
generated questions, SQL and feedback text. Sizes are arguments, so a
test can run each workload small; :func:`sizes_for` turns the run length
``--seconds`` into the sizes a full run uses.

* ``ask_cold``: one closed-loop client asks every dev question of
  consecutive seeds once, in process. Each seed has its own knowledge
  sets, so every per-index query cache starts cold and the operators,
  retrieval and the simulated LLM do the work; the engine does little.
* ``serve_zipf``: Poisson arrivals at fixed rates against ``repro serve``
  in its own process, questions drawn Zipf-skewed (mostly repeats). The
  only workload through HTTP, admission and the worker pool.
* ``feedback_edit``: SME sessions over every fixable failure: clone the
  knowledge set, ask, give feedback, stage, regenerate, submit. Writes
  to the knowledge set sit beside the reads here.
* ``sql_scaled``: every gold and training-log statement on databases
  whose fact table is scaled up, on a fresh executor per seed. The
  engine does the work.
"""

from __future__ import annotations

import functools
import gc
import json
import math
import os
import random
import re
import resource
import signal
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from repro.bench.bird import PRIMARY_TABLES, build_knowledge_sets, \
    build_workload
from repro.bench.feedback_sim import _feedback_for
from repro.bench.metrics import execution_match
from repro.bench.schemas import build_all
from repro.engine.database import Database
from repro.engine.executor import Executor
from repro.engine.reference import ReferenceExecutor
from repro.engine.table import Table
from repro.feedback.models import SUBMISSION_PENDING_APPROVAL
from repro.feedback.regression import GoldenQuery
from repro.feedback.solver import FeedbackSolver
from repro.pipeline.pipeline import GenEditPipeline
from repro.serve.loadgen import ask_payload, skewed_plan

from . import layers
from .gauge import REFERENCE_KERNEL_S, SpeedGauge
from .metrics import E2E
from .openloop import HttpSender, poisson_schedule, run_open_loop, \
    step_report
from .spans import Span, root_residuals
from .stats import latency_summary, percentile

ROOT = Path(__file__).resolve().parent.parent

#: The serve rate steps, in requests per second.
SERVE_RATES = (100, 200, 300)

#: Server starts timed for ``setup_s`` in an untraced serve run.
SERVER_SPAWNS = 5

#: The seed-7 slice of ``ask_cold`` must score the Table 1 GenEdit EX.
SEED7_EX_PCT = 65.15


def sizes_for(seconds):
    """Workload sizes that take about ``seconds`` of measured time each on
    the 2-CPU reference box (one dev seed asks in ~0.5 s, one seed's
    feedback sessions take ~4 s, one scaled seed executes in ~1 s). Serve
    steps get the same number of requests each, so each supports a p99."""
    weights = [1.0 / rate for rate in SERVE_RATES]
    return {
        "ask_cold": {"seeds": max(1, round(seconds * 2))},
        "serve_zipf": {
            "step_seconds": tuple(
                seconds * weight / sum(weights) for weight in weights
            ),
        },
        "feedback_edit": {"seeds": max(1, math.ceil(seconds / 4))},
        "sql_scaled": {"seeds": max(1, round(seconds))},
    }


@dataclass
class WorkloadRun:
    """What one run of one workload measured and checked."""

    workload: str
    traced: bool
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    details: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    def metric(self, name, value, samples=None):
        entry = {"value": value, "unit": E2E[name].unit}
        if samples is not None:
            entry["samples"] = samples
        self.metrics[name] = entry

    def check(self, name, ok, detail=""):
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    @property
    def correct(self):
        return all(check["ok"] for check in self.checks)

    def to_dict(self):
        return {
            "workload": self.workload,
            "traced": self.traced,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
            "checks": self.checks,
            "details": self.details,
        }


@dataclass
class SeedInputs:
    profiles: dict
    workload: object
    knowledge: dict


def build_inputs(seed):
    """Databases, dev workload and mined knowledge sets of one seed."""
    profiles = build_all(seed)
    workload = build_workload(seed)
    return SeedInputs(profiles, workload, build_knowledge_sets(workload, seed))


def _sql_inputs(seed, scale):
    """The dev workload and the scaled databases of one seed."""
    return build_workload(seed), scaled_databases(build_all(seed), scale)


def _pipelines(inputs):
    return {
        name: GenEditPipeline(profile.database, inputs.knowledge[name])
        for name, profile in inputs.profiles.items()
    }


#: ``setup_s`` is the median of at least this many set-ups: a run with
#: fewer seeds also times set-ups of the seeds after its own.
MIN_SETUPS = 10


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ClosedLoop:
    """Times set-ups and operations one after another.

    Every time is also put at reference speed by the loop's
    :class:`SpeedGauge`, read between operations and at the end of each
    batch. A full collection, untimed, precedes each set-up and batch:
    the heap grows with every seed a run covers, and a full collection
    of it (~40 ms on the reference box) otherwise lands in whichever
    set-up or batch the collector's counters happen to pick. In a traced
    run every other operation is traced and the rest are not: the
    untraced half gives the tracing overhead, and the program counters
    read around each batch cover both halves.
    """

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.gauge = SpeedGauge()
        self.setup_s = []
        self.untraced_s = []
        self.readings = []      # the gauge reading before each untraced op
        self.traced_s = []
        self.batches = []       # (first, end) untraced op of each batch
        self.failed = 0
        self.errors = []
        self.counters = {}

    @property
    def ops(self):
        return len(self.untraced_s) + len(self.traced_s)

    def setup(self, build, seed):
        """``build(seed)``, its time at reference speed kept."""
        gc.collect()
        built, seconds = self.gauge.timed(build, seed)
        self.setup_s.append(seconds)
        return built

    def run(self, operation, *args):
        """Time one operation; its result, or None when it raised."""
        traced = self.recorder is not None and self.ops % 2 == 0
        context = (
            self.recorder.root("op", str(self.ops)) if traced
            else nullcontext()
        )
        reading = self.gauge.tick()
        if traced:
            self.recorder.enabled = True
        started = time.perf_counter()
        try:
            with context:
                result = operation(*args)
        except Exception as error:  # counted as a failed operation
            result = None
            self.fail(f"{type(error).__name__}: {error}")
        elapsed = time.perf_counter() - started
        if traced:
            self.recorder.enabled = False
            self.traced_s.append(elapsed)
        else:
            self.untraced_s.append(elapsed)
            self.readings.append(reading)
        return result

    @contextmanager
    def section(self):
        """One batch of operations (a seed's): its throughput, and in a
        traced run the program-counter deltas over it."""
        first = len(self.untraced_s)
        before = layers.program_counters() if self.recorder else None
        gc.collect()
        yield
        self.gauge.sample()
        self.batches.append((first, len(self.untraced_s)))
        if before is not None:
            layers.add_counters(
                self.counters,
                layers.counter_delta(before, layers.program_counters()),
            )

    def reference_s(self):
        """Each untraced operation's time at reference speed."""
        return [
            seconds * self.gauge.factor(reading)
            for seconds, reading in zip(self.untraced_s, self.readings)
        ]

    def batch_rates(self, times):
        """Operations per second of each non-empty batch, over ``times``."""
        return [
            (end - first) / sum(times[first:end])
            for first, end in self.batches if end > first
        ]

    def fail(self, reason):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(reason)


def _finish(run, loop, retries_before, build, next_seed):
    """The metrics and checks every in-process workload reports.

    ``build(seed)`` is the workload's set-up, timed again for the seeds
    from ``next_seed`` on until there are ``MIN_SETUPS`` set-ups.
    """
    run.attempted, run.failed = loop.ops, loop.failed
    if loop.errors:
        run.details["errors"] = loop.errors
    retries = layers.retries_counted() - retries_before
    run.check("resilience_retries_zero", retries == 0,
              f"resilience.retries = {retries}")
    if run.traced:
        recorder = loop.recorder
        overhead = 0.0
        if loop.traced_s and loop.untraced_s:
            traced_mean = sum(loop.traced_s) / len(loop.traced_s)
            untraced_mean = sum(loop.untraced_s) / len(loop.untraced_s)
            overhead = 100.0 * (traced_mean / untraced_mean - 1.0)
        metrics, breakdown = layers.layer_metrics(
            recorder.spans, len(loop.traced_s), loop.counters,
            counts=recorder.counts, all_ops=loop.ops,
            all_ops_s=sum(loop.traced_s) + sum(loop.untraced_s),
            overhead_pct=overhead,
        )
        run.metrics.update(metrics)
        run.details["breakdown"] = breakdown
        _record_spans(run, recorder.spans)
        return
    while len(loop.setup_s) < MIN_SETUPS:
        loop.setup(build, next_seed)
        next_seed += 1
    run.metric("setup_s", median(loop.setup_s), samples=len(loop.setup_s))
    # The median over batches keeps a batch the gauge read badly (the
    # core changed speed mid-operation) from moving the run's throughput.
    times = loop.reference_s()
    run.metric("ops_per_s", median(loop.batch_rates(times)),
               samples=loop.ops)
    _latency_metrics(run, [1000.0 * value for value in times])
    run.metric("failed_pct", 100.0 * loop.failed / max(1, loop.ops),
               samples=loop.ops)
    run.metric("peak_rss_mb", peak_rss_mb())
    readings = loop.gauge.readings
    run.details["wall_clock"] = {
        "ops_per_s": median(loop.batch_rates(loop.untraced_s)),
        "p50_ms": 1000.0 * median(loop.untraced_s),
        "slowdown_p50": median(readings) / REFERENCE_KERNEL_S,
        "slowdown_max": max(readings) / REFERENCE_KERNEL_S,
        "gauge_readings": len(readings),
    }


def _latency_metrics(run, latencies_ms):
    summary = latency_summary(latencies_ms)
    for name in ("p50_ms", "p90_ms", "p99_ms"):
        if name in summary:
            run.metric(name, summary[name], samples=summary["samples"])
    run.details["tail_percentile"] = summary["tail"]


def _record_spans(run, spans):
    run.spans = spans
    worst = max(root_residuals(spans).values(), default=0.0)
    run.details["spans"] = len(spans)
    run.details["root_residual_max"] = worst
    run.check("span_roots_fold", worst <= 0.01,
              f"largest |root - sum of self times| {100 * worst:.4f}%")


def _tracing(traced):
    """The span recorder of a traced run (``None`` untraced)."""
    return layers.instrumented() if traced else nullcontext()


def _llm_usage(results):
    """``(calls, tokens)`` the results' meters recorded."""
    calls = [call for result in results
             for call in result.context.meter.calls]
    return len(calls), sum(
        call.input_tokens + call.output_tokens for call in calls
    )


# -- ask_cold ------------------------------------------------------------------


def ask_cold(seed, seeds, traced=False):
    """Ask each dev question of seeds ``seed .. seed+seeds-1`` once."""
    with _tracing(traced) as recorder:
        run = WorkloadRun("ask_cold", traced)
        loop = ClosedLoop(recorder)
        retries_before = layers.retries_counted()
        correct_by_seed = []
        llm_calls = llm_tokens = 0
        for current in range(seed, seed + seeds):
            inputs = loop.setup(build_inputs, current)
            pipelines = _pipelines(inputs)
            questions = inputs.workload.questions
            results = []
            with loop.section():
                for question in questions:
                    result = loop.run(
                        pipelines[question.database].generate,
                        question.question,
                    )
                    if result is not None and result.failed_operator:
                        loop.fail(f"{question.question_id}: "
                                  f"{result.failed_operator} failed")
                    results.append(result)
            answered = [
                (question, result)
                for question, result in zip(questions, results)
                if result is not None
            ]
            correct_by_seed.append((sum(
                execution_match(
                    inputs.profiles[question.database].database,
                    result.sql, question.gold_sql,
                )
                for question, result in answered
            ), len(questions)))
            calls, tokens = _llm_usage(result for _q, result in answered)
            llm_calls += calls
            llm_tokens += tokens
        first_ex = 100.0 * correct_by_seed[0][0] / correct_by_seed[0][1]
        run.details["ex_first_seed_pct"] = first_ex
        if seed == 7:
            run.check("ex_seed7_slice", round(first_ex, 2) == SEED7_EX_PCT,
                      f"seed-7 EX {first_ex:.2f}, expected {SEED7_EX_PCT}")
        _finish(run, loop, retries_before, build_inputs, seed + seeds)
        if not traced:
            asked = sum(total for _correct, total in correct_by_seed)
            run.metric("ex_pct", 100.0 * sum(
                correct for correct, _total in correct_by_seed
            ) / asked, samples=asked)
            run.metric("llm_calls_per_op", llm_calls / asked, samples=asked)
            run.metric("llm_tokens_per_op", llm_tokens / asked,
                       samples=asked)
        return run


# -- feedback_edit ---------------------------------------------------------------


def _session(inputs, question, rounds):
    """One SME session; ``(generation results, submission)``."""
    profile = inputs.profiles[question.database]
    knowledge = inputs.knowledge[question.database].clone()
    pipeline = GenEditPipeline(profile.database, knowledge)
    golden = [
        GoldenQuery(entry.question, entry.sql)
        for entry in inputs.workload.training_logs[question.database][:3]
    ]
    solver = FeedbackSolver(pipeline, golden_queries=golden)
    results = [solver.ask(question.question)]
    for text in rounds:
        solver.give_feedback(text)
        solver.stage()
        results.append(solver.regenerate())
    return results, solver.submit()


def feedback_edit(seed, seeds, traced=False):
    """A feedback session for every fixable failure of each seed."""
    with _tracing(traced) as recorder:
        run = WorkloadRun("feedback_edit", traced)
        loop = ClosedLoop(recorder)
        retries_before = layers.retries_counted()
        fixed = llm_calls = llm_tokens = 0
        for current in range(seed, seed + seeds):
            inputs = loop.setup(build_inputs, current)
            # Untimed: the pass that finds the failures to give feedback on.
            pipelines = _pipelines(inputs)
            failures = [
                question for question in inputs.workload.questions
                if _feedback_for(question) is not None
                and not execution_match(
                    inputs.profiles[question.database].database,
                    pipelines[question.database].generate(
                        question.question
                    ).sql,
                    question.gold_sql,
                )
            ]
            with loop.section():
                for number, question in enumerate(failures):
                    rounds = [
                        text for text in _feedback_for(question, number)
                        if text
                    ]
                    session = loop.run(_session, inputs, question, rounds)
                    if session is None:
                        continue
                    results, submission = session
                    if any(result.failed_operator for result in results):
                        loop.fail(f"{question.question_id}: an operator "
                                  f"failed")
                    fixed += submission.status == SUBMISSION_PENDING_APPROVAL
                    calls, tokens = _llm_usage(results)
                    llm_calls += calls
                    llm_tokens += tokens
        run.check("sessions_ran", loop.ops > 0,
                  f"{loop.ops} session(s) over {seeds} seed(s)")
        _finish(run, loop, retries_before, build_inputs, seed + seeds)
        if not traced and loop.ops:
            run.metric("fixed_pct", 100.0 * fixed / loop.ops,
                       samples=loop.ops)
            run.metric("llm_calls_per_op", llm_calls / loop.ops,
                       samples=loop.ops)
            run.metric("llm_tokens_per_op", llm_tokens / loop.ops,
                       samples=loop.ops)
        return run


# -- sql_scaled ------------------------------------------------------------------


def scaled_databases(profiles, scale):
    """Copies of the databases with each primary fact table ``scale`` times
    larger; replicas get fresh ids, so joins to it stay one-to-one."""
    databases = {}
    for name, profile in profiles.items():
        database = profile.database
        tables = []
        for table in database.tables:
            if table.name.upper() == PRIMARY_TABLES[name]:
                top = max(row[0] for row in table.rows)
                table = Table(
                    table.name, table.columns,
                    [
                        (row[0] + copy * top,) + row[1:]
                        for copy in range(scale) for row in table.rows
                    ],
                    table.description,
                )
            tables.append(table)
        databases[name] = Database(database.name, tables,
                                   database.description)
    return databases


def _reference_mismatches(statements, results, databases):
    """Sampled statements whose result differs from the row-at-a-time
    oracle's on ``comparable()`` (untimed)."""
    mismatches = []
    for index, result in sorted(results.items()):
        name, sql = statements[index]
        expected = ReferenceExecutor(databases[name]).execute(sql)
        if result is None or result.comparable() != expected.comparable():
            mismatches.append(f"{name}: {sql}")
    return mismatches


def sql_scaled(seed, seeds, scale=32, traced=False):
    """Every gold and training-log statement of each seed, once."""
    with _tracing(traced) as recorder:
        run = WorkloadRun("sql_scaled", traced)
        loop = ClosedLoop(recorder)
        retries_before = layers.retries_counted()
        build = functools.partial(_sql_inputs, scale=scale)
        for current in range(seed, seed + seeds):
            workload, databases = loop.setup(build, current)
            statements = [
                (question.database, question.gold_sql)
                for question in workload.questions
            ] + [
                (name, entry.sql)
                for name, log in sorted(workload.training_logs.items())
                for entry in log
            ]
            executors = {
                name: Executor(database)
                for name, database in databases.items()
            }
            # The reference check covers a seeded 1-in-8 sample of the first
            # seed's statements: the row-at-a-time oracle is ~14x slower.
            rng = random.Random(current)
            sample = {
                index for index in range(len(statements))
                if rng.randrange(8) == 0
            } if current == seed else set()
            kept = {}
            with loop.section():
                for index, (name, sql) in enumerate(statements):
                    result = loop.run(executors[name].execute, sql)
                    if index in sample:
                        kept[index] = result
            if current == seed:
                run.details["fact_rows"] = {
                    name: len(database.table(PRIMARY_TABLES[name]))
                    for name, database in databases.items()
                }
                mismatches = _reference_mismatches(statements, kept,
                                                   databases)
                compared = len(kept)
        run.check("matches_reference", not mismatches,
                  f"{compared} sampled statement(s) compared; "
                  f"mismatches: {mismatches[:3]}")
        _finish(run, loop, retries_before, build, seed + seeds)
        return run


# -- serve_zipf ------------------------------------------------------------------


def _server_env():
    paths = [str(ROOT / "src"), str(ROOT)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths),
                PYTHONUNBUFFERED="1")


def _stop_server(process, timeout=60.0):
    """Drain the server (SIGINT) and return what it printed."""
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
    try:
        output, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        output, _ = process.communicate()
    return output or ""


def _start_server(seed, traced, timeout=120.0):
    """``(process, port, seconds from spawn to the first healthy /healthz)``."""
    started = time.perf_counter()
    if traced:
        argv = [sys.executable, str(ROOT / "perf" / "serve_launcher.py"),
                str(seed)]
    else:
        argv = [sys.executable, "-m", "repro", "--seed", str(seed), "serve",
                "--port", "0"]
    process = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                               env=_server_env(), cwd=ROOT)
    try:
        line = process.stdout.readline()
        match = re.search(r"http://[\w.]+:(\d+)", line)
        if match is None:
            raise RuntimeError(f"server did not start: {line!r}")
        port = int(match.group(1))
        probe = HttpSender(port, timeout=5.0)
        while True:
            status, _ = probe.request("GET", "/healthz")
            if status == 200:
                break
            if time.perf_counter() - started > timeout:
                raise RuntimeError("server never became healthy")
            time.sleep(0.005)
        probe.close()
    except BaseException:
        _stop_server(process)
        raise
    return process, port, time.perf_counter() - started


def _peak_rss_of(pid):
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _retries_in_promtext(text):
    return sum(
        float(line.rsplit(" ", 1)[1]) for line in text.splitlines()
        if line.startswith("resilience_retries_total")
    )


def tenant_plan(workload, requests, seed):
    """``requests`` asks: each goes to a tenant drawn uniformly, and takes
    that tenant's next question of ``skewed_plan`` (Zipf skew per tenant).

    Skewing per tenant gives six hot questions rather than one, so which
    question the seed makes hottest moves the latency less.
    """
    rng = random.Random(seed)
    tenants = sorted(workload.training_logs)
    picks = [rng.choice(tenants) for _ in range(requests)]
    plans = {
        tenant: iter(skewed_plan(workload, [tenant], picks.count(tenant),
                                 seed))
        for tenant in tenants
    }
    return [next(plans[tenant]) for tenant in picks]


def serve_zipf(seed, step_seconds, warmup_s=2.0, traced=False):
    """Open-loop Zipf-skewed asks at each of ``SERVE_RATES`` for
    ``step_seconds``.

    ``setup_s`` is the median over ``SERVER_SPAWNS`` server starts;
    traffic goes to the last one. A traced run starts one server under the span
    wrappers and records every other request of the steps; the unrecorded
    half gives the tracing overhead.
    """
    run = WorkloadRun("serve_zipf", traced)
    setups = []
    process = None
    for _ in range(1 if traced else SERVER_SPAWNS):
        if process is not None:
            _stop_server(process)
        process, port, setup = _start_server(seed, traced)
        setups.append(setup)
    senders = [HttpSender(port), HttpSender(port)]
    try:
        workload = build_workload(seed)
        rng = random.Random(seed)
        phases = [("warmup", SERVE_RATES[0], warmup_s)] + [
            (f"{rate}rps", rate, seconds)
            for rate, seconds in zip(SERVE_RATES, step_seconds)
        ]
        schedules = [
            poisson_schedule(rate, seconds, rng)
            for _name, rate, seconds in phases
        ]
        plan = tenant_plan(workload,
                           sum(len(schedule) for schedule in schedules), seed)
        bodies = [
            json.dumps(ask_payload(question, False)).encode()
            for question in plan
        ]
        results = {}
        base = 0
        for index, ((name, rate, _seconds), schedule) in enumerate(
            zip(phases, schedules)
        ):
            if traced and index == 1:
                process.send_signal(signal.SIGUSR1)
                time.sleep(0.05)
            results[name] = (rate, *_drive(senders, bodies, base, schedule))
            base += len(schedule)
        health = json.loads(senders[0].request("GET", "/healthz")[1])
        promtext = senders[0].request("GET", "/metrics")[1].decode()
        server_rss = _peak_rss_of(process.pid)
    finally:
        for sender in senders:
            sender.close()
        output = _stop_server(process)
    return _serve_report(run, seed, setups, plan, results, health,
                         promtext, server_rss, output)


def sampled_request(request_id):
    """The traced serve run records requests with even ids."""
    return bool(request_id) and int(request_id, 16) % 2 == 0


def _request_id(index):
    return f"{index + 1:032x}"


def _drive(senders, bodies, base, schedule):
    """Send ``bodies[base:]`` on ``schedule``; ``(start, samples)``."""
    def sender_for(connection):
        def send(index):
            rid = _request_id(base + index)
            return connection.request(
                "POST", "/ask", bodies[base + index],
                {"Content-Type": "application/json", "X-Request-Id": rid,
                 "traceparent": f"00-{rid}-{1:016x}-01"},
            )
        return send

    return run_open_loop(schedule, [sender_for(c) for c in senders])


def _serve_report(run, seed, setups, plan, results, health, promtext,
                  server_rss, output):
    sql_by_question, failed, attempted = {}, 0, 0
    offset = 0
    for _rate, _start, samples in results.values():
        for sample in samples:
            attempted += 1
            question = plan[offset + sample.index]
            if 200 <= sample.status < 300:
                sql_by_question.setdefault(
                    (question.database, question.question_id), set()
                ).add(json.loads(sample.body).get("sql", ""))
            else:
                failed += 1
        offset += len(samples)
    run.attempted, run.failed = attempted, failed
    unstable = [key for key, sqls in sql_by_question.items() if len(sqls) > 1]
    run.check("same_sql_on_repeat", not unstable,
              f"{len(sql_by_question)} distinct question(s); "
              f"unstable: {unstable[:3]}")
    retries = _retries_in_promtext(promtext)
    run.check("resilience_retries_zero", retries == 0,
              f"resilience.retries = {retries:g}")
    steps = {
        name: step_report(rate, start, samples)
        for name, (rate, start, samples) in results.items()
        if name != "warmup"
    }
    run.details["steps"] = steps
    run.details["server"] = {
        "admitted": health.get("admitted"),
        "rejected": health.get("rejected"),
        "capacity": health.get("capacity"),
    }
    for name, step in steps.items():
        if not step["valid"]:
            print(f"serve_zipf: step {name} invalid: generator p99 "
                  f"lateness {step['gen_late_p99_ms']:.2f} ms",
                  file=sys.stderr)
    if run.traced:
        _serve_layers(run, results, plan, health, output)
        return run
    profiles = build_all(seed)
    questions = {
        (question.database, question.question_id): question
        for question in plan
    }
    correct = sum(
        execution_match(profiles[key[0]].database, next(iter(sqls)),
                        questions[key].gold_sql)
        for key, sqls in sql_by_question.items()
    )
    first, last = list(steps.values())[0], list(steps.values())[-1]
    run.metric("setup_s", median(setups), samples=len(setups))
    run.metric("ops_per_s", last["completed_per_s"],
               samples=last["requests"])
    for name in ("p50_ms", "p90_ms", "p99_ms"):
        if name in first:
            run.metric(name, first[name], samples=first["samples"])
    run.details["tail_percentile"] = first["tail"]
    run.metric("max_ok_rps", max(
        (step["rate"] for step in steps.values() if step["meets_objective"]),
        default=0,
    ))
    run.metric("ex_pct", 100.0 * correct / max(1, len(sql_by_question)),
               samples=len(sql_by_question))
    run.metric("failed_pct", 100.0 * failed / max(1, attempted),
               samples=attempted)
    run.metric("peak_rss_mb", server_rss)
    return run


def _serve_layers(run, results, plan, health, output):
    """Per-layer metrics from the traced server's spans and counters."""
    dump = next(
        json.loads(line[len("PERF-DUMP "):])
        for line in output.splitlines() if line.startswith("PERF-DUMP ")
    )
    step_samples = {}
    offset = 0
    for name, (_rate, _start, samples) in results.items():
        if name != "warmup":
            for sample in samples:
                step_samples[_request_id(offset + sample.index)] = sample
        offset += len(samples)
    traced_samples = {
        rid: sample for rid, sample in step_samples.items()
        if sampled_request(rid)
    }
    spans = [
        Span.from_record(record) for record in dump["spans"]
        if record["request_id"] in traced_samples
    ]
    dispatch = {
        span.request_id: span for span in spans
        if span.name == "serve.dispatch"
    }
    generate = {}
    for span in spans:
        root = dispatch.get(span.request_id)
        if span.name == "pipeline.generate" and root is not None \
                and span.parent_id == root.span_id:
            generate[span.request_id] = span
    dispatch_ms = {rid: 1000.0 * span.duration
                   for rid, span in dispatch.items()}
    wait_ms = {
        rid: dispatch_ms[rid] - 1000.0 * generate[rid].duration
        for rid in dispatch_ms if rid in generate
    }
    client_ms = {
        rid: (sample.done - sample.sent) * 1000.0
        for rid, sample in traced_samples.items()
    }
    transport_ms = {
        rid: client_ms[rid] - dispatch_ms[rid]
        for rid in dispatch_ms if rid in client_ms
    }
    serve = {
        "serve.wait.pct": 100.0 * sum(wait_ms.values())
        / max(1e-9, sum(dispatch_ms[rid] for rid in wait_ms)),
        "serve.transport.pct": 100.0 * sum(transport_ms.values())
        / max(1e-9, sum(client_ms[rid] for rid in transport_ms)),
        "serve.admitted": health.get("admitted", 0),
        "serve.rejected": health.get("rejected", 0),
    }
    untraced = [
        (sample.done - sample.sent) * 1000.0
        for rid, sample in step_samples.items() if rid not in traced_samples
    ]
    overhead = 100.0 * (
        percentile(list(client_ms.values()), 0.5)
        / percentile(untraced, 0.5) - 1.0
    )
    metrics, breakdown = layers.layer_metrics(
        spans, len(dispatch), dump["counters"], counts=dump["counts"],
        all_ops=len(step_samples), serve=serve, overhead_pct=overhead,
    )
    run.metrics.update(metrics)
    run.details["breakdown"] = breakdown
    run.details["serve_latency"] = {
        "dispatch_ms.p50": percentile(list(dispatch_ms.values()), 0.5),
        "dispatch_ms.p99": percentile(list(dispatch_ms.values()), 0.99),
        "wait_ms.p99": percentile(list(wait_ms.values()), 0.99),
        "transport_ms.p99": percentile(list(transport_ms.values()), 0.99),
        "gen_late_ms.p99": max(
            step["gen_late_p99_ms"] for step in run.details["steps"].values()
        ),
    }
    _record_spans(run, spans)
