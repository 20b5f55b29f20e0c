"""The serve application: routes, tenants, handlers, drain, ledger.

:class:`ServeApp` is the framework-independent heart of the service —
the HTTP layer only parses bytes and calls :meth:`ServeApp.dispatch`.
Responsibilities:

* **Per-tenant resolution** (§4.2): each served database is a tenant
  owning its knowledge set and one long-lived
  :class:`~repro.pipeline.pipeline.GenEditPipeline`. Pipelines are
  shared across worker threads — the whole point of the PR 9
  concurrency-safety audit (DESIGN.md §6h) is that this is now sound.
* **Admission control**: pooled routes (``ask``/``feedback``) pass
  through the :class:`~repro.serve.pool.WorkerPool` gate; saturation is
  429 + ``Retry-After``, draining is 503 + ``Retry-After``, a blown
  per-request deadline is 504. Introspection routes (``runs``,
  ``healthz``) answer directly on the event loop.
* **Deadline mapping**: the server's deadline becomes the tenant
  pipelines' ``timeout_ms`` (the soft per-call deadline of their
  :class:`~repro.resilience.ResilientLLM`) so the resilience layer's
  per-call budget and the request budget agree;
  a request's own ``deadline_ms`` may only shrink the server's.
* **Serve-run ledger record**: benchmark traffic (requests carrying
  ``question_id``/``gold_sql``) accumulates
  :class:`~repro.bench.metrics.QuestionOutcome` entries scored exactly
  like the batch harness; on drain they are recorded as one
  ``kind="serve"`` ledger run, ordered by question id — which is what
  makes a concurrency-8 sweep byte-identical to a concurrency-1 sweep
  and lets ``repro diff`` gate the equivalence.
* **Graceful drain**: stop admitting, let in-flight work finish, record
  the ledger run, flush and close the telemetry sink, optionally export
  the server's span tree.
"""

from __future__ import annotations

import json
import threading
import time

from ..bench.metrics import EvaluationReport, QuestionOutcome, \
    execution_match
from ..obs.metrics import get_metrics, global_snapshot
from ..obs.tracing import current_trace_id, use_trace_context
from ..resilience import LLM_TIMEOUT_MS
from .middleware import (
    ServeObservability,
    request_id_from_headers,
    trace_context_from_headers,
)
from .pool import DeadlineExceeded, PoolDraining, PoolSaturated, WorkerPool
from .router import HTTPError, Router
from .schemas import (
    AskRequest,
    FeedbackRequest,
    ValidationError,
    ask_response,
    error_response,
    feedback_response,
)

#: Default end-to-end request deadline. Matches the resilience layer's
#: default per-call ``timeout_ms`` so a plain server preserves the batch
#: path's retry behaviour exactly (serial/concurrent equivalence).
DEFAULT_DEADLINE_MS = LLM_TIMEOUT_MS


class TenantState:
    """One served database: its profile, knowledge set, and pipeline."""

    def __init__(self, name, profile, knowledge, timeout_ms):
        self.name = name
        self.profile = profile
        self.knowledge = knowledge
        from ..pipeline.pipeline import GenEditPipeline

        self.pipeline = GenEditPipeline(
            profile.database, knowledge, timeout_ms=timeout_ms
        )


class ServeApp:
    """The GenEdit service behind :mod:`repro.serve.http`."""

    def __init__(self, databases=None, seed=7, workers=4, queue_depth=8,
                 deadline_ms=DEFAULT_DEADLINE_MS, ledger_dir=None,
                 record_runs=False, telemetry_out=None, trace_out=None,
                 registry=None, profiles=None, workload=None,
                 knowledge_sets=None, slow_ms=5000.0, sample_every=10,
                 flight_capacity=64):
        self.seed = seed
        self.databases = list(databases) if databases else None
        self.deadline_ms = float(deadline_ms)
        self.ledger_dir = ledger_dir
        self.record_runs = record_runs or ledger_dir is not None
        self.telemetry_out = telemetry_out
        self.trace_out = trace_out
        self.pool = WorkerPool(workers=workers, queue_depth=queue_depth)
        self.obs = ServeObservability(
            registry=registry, slow_ms=slow_ms, sample_every=sample_every,
            flight_capacity=flight_capacity,
        )
        self.registry = self.obs.registry
        self._injected = (profiles, workload, knowledge_sets)
        self._tenants = {}
        self._outcomes = []
        self._outcome_lock = threading.Lock()
        #: (tenant, question_id) -> {request_id, trace_id}: the volatile
        #: per-run index recorded into the ledger's ``meta.json`` (never
        #: the content-addressed record body — ids are non-deterministic).
        self._request_index = {}
        #: Handler-produced flight/debug payloads parked by request id
        #: until the dispatch loop claims them (bounded: a 504 can leave
        #: an orphan behind when its worker finishes late).
        self._debug_lock = threading.Lock()
        self._debug_by_request = {}
        self._tenant_stats = {}
        self._tenant_stats_lock = threading.Lock()
        self._telemetry = None
        self._started = False
        self._shutdown_done = False
        self._started_at = None
        self.last_run_id = ""
        self.router = self._build_router()

    # -- lifecycle ------------------------------------------------------

    def startup(self):
        """Build tenants (profiles, knowledge sets, pipelines) eagerly.

        Called once by the HTTP layer before accepting traffic, so the
        first request never pays the multi-second knowledge-mining warmup
        and tenant construction needs no locking afterwards.
        """
        if self._started:
            return self
        profiles, workload, knowledge_sets = self._injected
        if profiles is None or knowledge_sets is None:
            from ..bench.bird import build_knowledge_sets, build_workload
            from ..bench.schemas import build_all

            profiles = profiles or build_all(self.seed)
            workload = workload or build_workload(self.seed)
            knowledge_sets = knowledge_sets or build_knowledge_sets(
                workload, self.seed
            )
        names = self.databases or sorted(knowledge_sets)
        unknown = [name for name in names if name not in knowledge_sets]
        if unknown:
            raise ValueError(
                f"unknown database(s): {', '.join(unknown)}; "
                f"choose from: {', '.join(sorted(knowledge_sets))}"
            )
        self.databases = names
        for name in names:
            self._tenants[name] = TenantState(
                name, profiles[name], knowledge_sets[name], self.deadline_ms
            )
            self._tenant_stats[name] = {
                "requests": 0, "failures": 0, "scored": 0, "correct": 0,
            }
        if self.telemetry_out:
            from ..obs.telemetry import TelemetrySink

            self._telemetry = TelemetrySink(
                self.telemetry_out, snapshot_fn=self._snapshot,
                registry=self.registry,
            )
        self._started = True
        self._started_at = time.time()
        return self

    def _snapshot(self):
        if self.registry is get_metrics():
            return global_snapshot()
        return self.registry.snapshot()

    def shutdown(self, timeout=60.0):
        """Graceful drain: finish in-flight work, persist, flush, close."""
        if self._shutdown_done:
            return True
        self._shutdown_done = True
        drained = self.pool.drain(timeout=timeout)
        if self.record_runs:
            self._record_serve_run()
        if self._telemetry is not None:
            self._telemetry.close()
        if self.trace_out:
            from ..obs import write_trace

            write_trace(
                self.trace_out, self.obs.tracer.to_records(),
                metrics=self._snapshot(),
                meta={"kind": "serve", "databases": self.databases},
            )
        return drained

    @property
    def draining(self):
        return self.pool.draining

    # -- routing / dispatch ---------------------------------------------

    def _build_router(self):
        router = Router()
        router.add("POST", "/ask", self._handle_ask, name="ask",
                   schema=AskRequest, pooled=True)
        router.add("POST", "/feedback", self._handle_feedback,
                   name="feedback", schema=FeedbackRequest, pooled=True)
        router.add("GET", "/runs", self._handle_runs, name="runs")
        router.add("GET", "/runs/{run_id}", self._handle_run_detail,
                   name="runs")
        router.add("GET", "/healthz", self._handle_healthz, name="healthz")
        router.add("GET", "/metrics", self._handle_metrics, name="metrics")
        router.add("GET", "/debug/requests", self._handle_debug_requests,
                   name="debug")
        router.add("GET", "/debug/traces/{trace_id}",
                   self._handle_debug_trace, name="debug")
        router.add("GET", "/debug/errors", self._handle_debug_errors,
                   name="debug")
        return router

    async def dispatch(self, method, path, headers, body):
        """One request in, ``(status, headers, payload)`` out."""
        request_id = request_id_from_headers(headers)
        trace_id, _parent_span_id, response_traceparent = \
            trace_context_from_headers(headers, request_id)
        try:
            route, params = self.router.match(method, path)
            route_name = route.name
        except HTTPError as error:
            route, params, route_name = None, {}, "unmatched"
            matched_error = error
        response_headers = {
            "X-Request-Id": request_id,
            "traceparent": response_traceparent,
        }
        with self.obs.request(method, path, route_name, request_id,
                              trace_id=trace_id) as holder:
            if route is None:
                status, payload = matched_error.status, error_response(
                    matched_error.status, matched_error.message,
                    matched_error.detail,
                )
                response_headers.update(matched_error.headers)
            else:
                try:
                    status, payload, extra = await self._invoke(
                        route, params, body, request_id, trace_id
                    )
                    response_headers.update(extra)
                except ValidationError as error:
                    status, payload = 400, error.payload()
                except HTTPError as error:
                    status = error.status
                    payload = error_response(
                        error.status, error.message, error.detail
                    )
                    response_headers.update(error.headers)
            holder["status"] = status
            self._claim_debug(request_id, holder)
        return status, response_headers, payload

    async def _invoke(self, route, params, body, request_id, trace_id):
        request = None
        if route.schema is not None:
            request = route.schema.from_payload(self._json_body(body))
        if not route.pooled:
            # Introspection handlers run on the event loop, inside the
            # middleware's ambient trace context already.
            return route.handler(request=request, params=params,
                                 request_id=request_id)
        deadline_s = self.deadline_ms / 1000.0
        if request is not None and getattr(request, "deadline_ms", 0.0):
            deadline_s = min(deadline_s, request.deadline_ms / 1000.0)
        try:
            self.pool.acquire()
        except PoolDraining:
            self.obs.rejection("draining")
            raise HTTPError(
                503, "draining", headers={"Retry-After": "5"}
            ) from None
        except PoolSaturated as error:
            self.obs.rejection("saturated")
            raise HTTPError(
                429, "saturated",
                headers={
                    "Retry-After": f"{max(error.retry_after_s, 1):.0f}"
                },
            ) from None

        def call():
            # Worker threads have their own ambient stacks: re-enter the
            # request's trace context here so pipeline spans opened on
            # this thread inherit the same trace id as the span root.
            with use_trace_context(trace_id):
                return route.handler(request=request, params=params,
                                     request_id=request_id)

        try:
            return await self.pool.run(call, deadline_s=deadline_s)
        except DeadlineExceeded:
            self.obs.rejection("deadline")
            raise HTTPError(
                504, "deadline exceeded",
                detail={"deadline_ms": deadline_s * 1000.0},
            ) from None

    @staticmethod
    def _json_body(body):
        if not body:
            raise ValidationError([{
                "loc": ["body"], "msg": "request body required",
            }])
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ValidationError([{
                "loc": ["body"], "msg": f"invalid JSON: {error}",
            }]) from None

    def _tenant(self, name):
        tenant = self._tenants.get(name)
        if tenant is None:
            raise HTTPError(
                404, "unknown tenant",
                detail={"tenant": name,
                        "served": sorted(self._tenants)},
            )
        return tenant

    # -- handler debug payloads ------------------------------------------

    #: Parked debug payloads beyond this are dropped oldest-first; only
    #: requests that died between handler completion and dispatch claim
    #: (a late worker after a 504) ever accumulate here.
    _DEBUG_STASH_LIMIT = 1024

    def _stash_debug(self, request_id, tenant, failed, spans, detail):
        """Park a handler's flight/debug payload for the dispatch loop."""
        with self._debug_lock:
            self._debug_by_request[request_id] = {
                "tenant": tenant,
                "failed": failed,
                "debug": {"spans": spans, "detail": detail},
            }
            while len(self._debug_by_request) > self._DEBUG_STASH_LIMIT:
                self._debug_by_request.pop(
                    next(iter(self._debug_by_request))
                )

    def _claim_debug(self, request_id, holder):
        """Move a parked debug payload into the middleware holder."""
        with self._debug_lock:
            stashed = self._debug_by_request.pop(request_id, None)
        if stashed is not None:
            holder.update(stashed)

    def _count_tenant(self, name, failed, correct):
        with self._tenant_stats_lock:
            stats = self._tenant_stats.setdefault(
                name,
                {"requests": 0, "failures": 0, "scored": 0, "correct": 0},
            )
            stats["requests"] += 1
            if failed:
                stats["failures"] += 1
            if correct is not None:
                stats["scored"] += 1
                if correct:
                    stats["correct"] += 1

    # -- pooled handlers (worker threads) --------------------------------

    def _handle_ask(self, request, params, request_id):
        tenant = self._tenant(request.tenant)
        result = tenant.pipeline.generate(request.question)
        correct = None
        if request.gold_sql:
            correct = bool(result.success) and execution_match(
                tenant.profile.database, result.sql, request.gold_sql
            )
        self._record_outcome(tenant, request, result, correct, request_id)
        self._count_tenant(tenant.name, not result.success, correct)
        detail = result.debug_payload()
        if request.question_id:
            detail["question_id"] = request.question_id
        self._stash_debug(
            request_id, tenant.name, not result.success,
            result.trace_records(), detail,
        )
        if self._telemetry is not None:
            self._telemetry.publish()
        return 200, ask_response(request, request_id, result, correct), {}

    def _handle_feedback(self, request, params, request_id):
        from ..feedback.solver import FeedbackSolver

        tenant = self._tenant(request.tenant)
        # A throwaway per-request solver: ask + recommend only, nothing
        # staged or applied, so concurrent feedback requests never share
        # mutable session state (offline tools own staging/approval).
        solver = FeedbackSolver(tenant.pipeline,
                                tracer=self.obs.tracer)
        result = solver.ask(request.question)
        recommendations = solver.give_feedback(request.feedback)
        self._count_tenant(tenant.name, not result.success, None)
        detail = result.debug_payload()
        detail["feedback"] = request.feedback
        detail["recommendations"] = len(recommendations)
        self._stash_debug(
            request_id, tenant.name, not result.success,
            result.trace_records(), detail,
        )
        if self._telemetry is not None:
            self._telemetry.publish()
        return 200, feedback_response(
            request, request_id, result, recommendations
        ), {}

    # -- introspection handlers (event loop) -----------------------------

    def _ledger(self):
        from ..obs.ledger import RunLedger

        return RunLedger(self.ledger_dir)

    def _handle_runs(self, request, params, request_id):
        return 200, {"runs": self._ledger().list_runs()}, {}

    def _handle_run_detail(self, request, params, request_id):
        try:
            record = self._ledger().read_record(params["run_id"])
        except KeyError as error:
            raise HTTPError(
                404, "unknown run", detail={"run": params["run_id"]}
            ) from error
        return 200, record, {}

    def _handle_healthz(self, request, params, request_id):
        stats = self.pool.stats()
        status = "draining" if stats["draining"] else "ok"
        with self._tenant_stats_lock:
            tenant_detail = {
                name: dict(counters)
                for name, counters in sorted(self._tenant_stats.items())
            }
        return (200 if status == "ok" else 503), {
            "status": status,
            "tenants": sorted(self._tenants),
            "tenant_detail": tenant_detail,
            "inflight": stats["inflight"],
            "capacity": stats["max_inflight"],
            "admitted": stats["admitted"],
            "rejected": stats["rejected"],
            "outcomes": len(self._outcomes),
            "flight": self.obs.flight.stats(),
        }, {}

    def _handle_metrics(self, request, params, request_id):
        """Prometheus text exposition of the live metrics registry."""
        from ..obs.telemetry import render_promtext

        return 200, render_promtext(self._snapshot()), {
            "Content-Type": "text/plain; version=0.0.4; charset=utf-8",
        }

    def _handle_debug_requests(self, request, params, request_id):
        return 200, {
            "requests": self.obs.requests.entries(limit=100),
            "capacity": self.obs.requests.capacity,
        }, {}

    def _handle_debug_trace(self, request, params, request_id):
        trace_id = params["trace_id"]
        spans = self.obs.traces.get(trace_id)
        if spans is None:
            raise HTTPError(
                404, "unknown trace",
                detail={"trace_id": trace_id,
                        "retained": len(self.obs.traces)},
            )
        from ..obs.render import render_span_tree

        return 200, {
            "trace_id": trace_id,
            "spans": spans,
            "tree": render_span_tree(spans),
        }, {}

    def _handle_debug_errors(self, request, params, request_id):
        return 200, {
            "errors": self.obs.flight.entries(),
            "stats": self.obs.flight.stats(),
        }, {}

    # -- the serve-run ledger record -------------------------------------

    def _record_outcome(self, tenant, request, result, correct,
                        request_id=""):
        """Accumulate a harness-identical outcome for benchmark traffic.

        Only requests that identify themselves as benchmark questions
        (``question_id`` set) are recorded — live analyst traffic leaves
        no ledger entries. The request/trace ids go into the volatile
        per-run index (``meta.json``), never the outcome itself: the
        content-addressed record body must stay byte-identical across
        sweeps whatever ids the traffic carried.
        """
        if not request.question_id:
            return
        outcome = QuestionOutcome.from_result(
            result, bool(correct),
            question_id=request.question_id,
            difficulty=request.difficulty,
            database=tenant.name,
            gold_sql=request.gold_sql,
            question_text=request.question,
        )
        with self._outcome_lock:
            self._outcomes.append(outcome)
            self._request_index[
                f"{tenant.name}/{request.question_id}"
            ] = {
                "request_id": request_id,
                "trace_id": current_trace_id(),
            }

    def _record_serve_run(self):
        """Persist accumulated outcomes as one deterministic ledger run.

        Outcomes sort by ``(database, question_id)``; the pipeline is
        deterministic per question, so any two sweeps over the same
        questions — whatever the concurrency or arrival order — produce
        byte-identical record bodies. Skipped when no benchmark traffic
        arrived.
        """
        from ..obs.ledger import build_run_record, build_timing

        with self._outcome_lock:
            outcomes = list(self._outcomes)
        if not outcomes:
            return ""
        outcomes.sort(key=lambda o: (o.database, o.question_id))
        report = EvaluationReport(system="serve")
        for outcome in outcomes:
            report.add(outcome)
        first = self._tenants[self.databases[0]]
        record = build_run_record(
            [report],
            kind="serve",
            target=",".join(self.databases),
            seed=self.seed,
            config=first.pipeline.config,
            knowledge_sets={
                name: tenant.knowledge
                for name, tenant in sorted(self._tenants.items())
            },
        )
        with self._outcome_lock:
            request_index = {
                key: dict(value)
                for key, value in sorted(self._request_index.items())
            }
        self.last_run_id = self._ledger().record_run(
            record,
            timing=build_timing(self.obs.tracer.to_records()),
            meta={"databases": self.databases,
                  "pool": self.pool.stats(),
                  "requests": request_index},
        )
        return self.last_run_id
