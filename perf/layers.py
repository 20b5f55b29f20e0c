"""Which program calls the traced run wraps, and the per-layer metrics.

Wrappers go onto public class methods (and, where the program imported a
function by name, onto that name in the importing module), only in the
traced process; :func:`instrumented` undoes them on exit.
"""

from __future__ import annotations

import importlib
import sys
from contextlib import contextmanager

from .spans import SpanRecorder, rollup, roots

#: The nine pipeline operators, in pipeline order: (module, class, name).
OPERATORS = (
    ("repro.pipeline.reformulate", "ReformulateOperator", "reformulate"),
    ("repro.pipeline.intents", "IntentClassificationOperator",
     "classify_intents"),
    ("repro.pipeline.examples", "ExampleSelectionOperator",
     "select_examples"),
    ("repro.pipeline.instructions", "InstructionSelectionOperator",
     "select_instructions"),
    ("repro.pipeline.schema_linking", "SchemaLinkingOperator",
     "link_schema"),
    ("repro.pipeline.planning", "PlanningOperator", "plan"),
    ("repro.pipeline.plan_lint", "PlanLintOperator", "lint_plan"),
    ("repro.pipeline.generation", "GenerationOperator", "generate_sql"),
    ("repro.pipeline.correction", "SelfCorrectionOperator", "self_correct"),
)

LLM_CALLS = ("reformulate", "classify_intents", "link_schema", "understand")

FEEDBACK_STEPS = ("ask", "give_feedback", "regenerate", "submit")

#: (module, class or None, attribute, span name) for every span wrapper.
SPAN_TARGETS = (
    ("repro.pipeline.pipeline", "GenEditPipeline", "generate",
     "pipeline.generate"),
    *((module, cls, "run", f"pipeline.{name}")
      for module, cls, name in OPERATORS),
    *(("repro.llm.simulated", "SimulatedLLM", call, f"llm.{call}")
      for call in LLM_CALLS),
    ("repro.text.index", "RetrievalIndex", "search", "text.search"),
    ("repro.knowledge.store", "KnowledgeSet", "clone", "knowledge.clone"),
    ("repro.sql.diagnostics.checker", "DiagnosticsEngine", "run_sql",
     "sql.diagnose"),
    ("repro.engine.executor", "Executor", "execute", "engine.execute"),
    *(("repro.feedback.solver", "FeedbackSolver", step, f"feedback.{step}")
      for step in FEEDBACK_STEPS),
    ("repro.feedback.solver", None, "run_knowledge_gate",
     "feedback.knowledge_gate"),
    ("repro.feedback.solver", None, "run_regression", "feedback.regression"),
)

#: ``update_*`` calls ``add_*``, so counting adds and deletes counts each
#: edit once. Writes made by ``clone`` rebuilding a copy are not edits.
KNOWLEDGE_WRITES = (
    "add_intent", "add_example", "add_instruction", "add_schema_element",
    "delete_example", "delete_instruction", "delete_schema_element",
)

#: Per-layer metrics, in report order: (name, unit, better). Every
#: workload reports every one; a layer a workload does not reach reads 0,
#: which is why only layers every workload reaches carry time units here.
LAYER_METRICS = (
    *((f"pipeline.{name}.self_pct", "%", "lower")
      for _m, _c, name in OPERATORS),
    ("pipeline.generate.self_pct", "%", "lower"),
    ("pipeline.final_check.pct", "%", "lower"),
    *((f"llm.{call}.pct", "%", "lower") for call in LLM_CALLS),
    *((f"llm.{call}.calls_per_op", "count", "lower") for call in LLM_CALLS),
    ("text.search.calls_per_op", "count", "lower"),
    ("text.search.pct", "%", "lower"),
    ("knowledge.clone.pct", "%", "lower"),
    ("knowledge.writes_per_op", "count", "lower"),
    ("sql.parse.calls_per_op", "count", "lower"),
    ("sql.parse.ms_per_call", "ms", "lower"),
    ("sql.parse_cache.hit_pct", "%", "higher"),
    ("sql.parse_cache.lookups_per_op", "count", "lower"),
    ("sql.diagnose.pct", "%", "lower"),
    ("engine.execute.calls_per_op", "count", "lower"),
    ("engine.execute.self_ms_per_op", "ms", "lower"),
    ("engine.row_fallback_pct", "%", "lower"),
    ("engine.hash_join_pct", "%", "higher"),
    ("engine.predicate_cache.hit_pct", "%", "higher"),
    ("engine.rewrite.pct", "%", "lower"),
    ("engine.compile.pct", "%", "lower"),
    ("serve.wait.pct", "%", "lower"),
    ("serve.transport.pct", "%", "lower"),
    ("serve.admitted", "count", "higher"),
    ("serve.rejected", "count", "lower"),
    *((f"feedback.{step}.pct", "%", "lower") for step in FEEDBACK_STEPS),
    ("feedback.knowledge_gate.pct", "%", "lower"),
    ("feedback.regression.pct", "%", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def _parse_holders():
    """Every loaded module that holds ``repro.sql.parser.parse`` by name."""
    parser = importlib.import_module("repro.sql.parser")
    original = parser.parse
    return [
        module for module in list(sys.modules.values())
        if module is not None
        and getattr(module, "__name__", "").startswith("repro")
        and getattr(module, "parse", None) is original
    ]


@contextmanager
def instrumented(request_id_fn=None, sample=None):
    """Patch the wrappers onto the program; yield the :class:`SpanRecorder`.

    The recorder starts disabled: a caller turns it on around the
    operations it traces.
    """
    recorder = SpanRecorder(request_id_fn=request_id_fn, sample=sample)
    # The knowledge gate imports the knowledge linter lazily; load it now
    # so the ``parse`` it imports by name is wrapped too.
    importlib.import_module("repro.knowledge.lint.checker")
    patches = []
    for module_name, class_name, attribute, span_name in SPAN_TARGETS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        patches.append((owner, attribute, recorder.wrap(
            span_name, getattr(owner, attribute)
        )))
    for module in _parse_holders():
        patches.append(
            (module, "parse", recorder.wrap("sql.parse", module.parse))
        )
    store = importlib.import_module("repro.knowledge.store").KnowledgeSet
    for attribute in KNOWLEDGE_WRITES:
        patches.append((store, attribute, recorder.count(
            "knowledge.write", getattr(store, attribute),
            unless_inside="knowledge.clone",
        )))
    app = importlib.import_module("repro.serve.app").ServeApp
    patches.append((app, "dispatch", recorder.wrap_async_root(
        "serve.dispatch", app.dispatch,
        # dispatch(self, method, path, headers, body)
        lambda args: args[3].get("x-request-id"),
    )))
    originals = []
    for owner, attribute, wrapper in patches:
        originals.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, wrapper)
    try:
        yield recorder
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


# -- counters the program keeps ------------------------------------------------


#: Counters ``engine_snapshot()`` keeps at its top level.
_ENGINE_KEYS = ("rewrite_s", "compile_s", "columnar_selects",
                "row_fallback_selects", "hash_joins", "loop_joins")

_COUNTER_KEYS = _ENGINE_KEYS + ("predicate_hits", "predicate_misses",
                                "parse_hits", "parse_misses")


def program_counters():
    """Engine and parse-cache counters, tolerant of any being absent.

    The engine counters live in ``repro.engine.stats`` today and are
    planned to move into the metrics registry; a missing counter reads 0
    rather than failing the run.
    """
    try:
        from repro.engine.stats import engine_snapshot

        snapshot = engine_snapshot()
    except (ImportError, AttributeError):
        snapshot = {}
    counters = {key: snapshot.get(key, 0) for key in _ENGINE_KEYS}
    cache = snapshot.get("predicate_cache") or {}
    counters["predicate_hits"] = cache.get("hits", 0)
    counters["predicate_misses"] = cache.get("misses", 0)
    try:
        from repro.sql.parser import parse_cache_info

        info = parse_cache_info()
    except (ImportError, AttributeError):
        info = None
    counters["parse_hits"] = getattr(info, "hits", 0)
    counters["parse_misses"] = getattr(info, "misses", 0)
    return counters


def counter_delta(before, after):
    return {key: after.get(key, 0) - before.get(key, 0) for key in after}


def add_counters(total, delta):
    for key, value in delta.items():
        total[key] = total.get(key, 0) + value
    return total


def retries_counted():
    """The ``resilience.retries`` counter of this process, all labels."""
    from repro.obs.metrics import get_metrics

    counters = get_metrics().snapshot()["counters"]
    return sum(
        value for key, value in counters.items()
        if key == "resilience.retries"
        or key.startswith("resilience.retries{")
    )


# -- per-layer metrics ---------------------------------------------------------


def _span_name(span, parent):
    if span.name == "engine.execute" and parent is not None \
            and parent.name == "pipeline.generate":
        return "pipeline.final_check"
    return span.name


#: Layer shares of the traced operations' time: metric -> (span name,
#: ``"self_s"`` to exclude children or ``"total_s"`` to include them).
_SHARES = {
    **{f"pipeline.{name}.self_pct": (f"pipeline.{name}", "self_s")
       for _module, _class, name in OPERATORS},
    "pipeline.generate.self_pct": ("pipeline.generate", "self_s"),
    "pipeline.final_check.pct": ("pipeline.final_check", "total_s"),
    **{f"llm.{call}.pct": (f"llm.{call}", "total_s") for call in LLM_CALLS},
    "text.search.pct": ("text.search", "total_s"),
    "knowledge.clone.pct": ("knowledge.clone", "total_s"),
    "sql.diagnose.pct": ("sql.diagnose", "total_s"),
    **{f"feedback.{step}.pct": (f"feedback.{step}", "total_s")
       for step in FEEDBACK_STEPS},
    "feedback.knowledge_gate.pct": ("feedback.knowledge_gate", "total_s"),
    "feedback.regression.pct": ("feedback.regression", "total_s"),
}

#: Calls per traced operation: metric -> span name.
_CALLS = {
    **{f"llm.{call}.calls_per_op": f"llm.{call}" for call in LLM_CALLS},
    "text.search.calls_per_op": "text.search",
    "sql.parse.calls_per_op": "sql.parse",
}

SERVE_ONLY = ("serve.wait.pct", "serve.transport.pct", "serve.admitted",
              "serve.rejected")

#: The per-layer metrics ``BENCHMARK.json`` lists: those a gated
#: workload reaches (the serve layer is reached only by ``serve_zipf``).
GATED_LAYER_METRICS = tuple(
    metric for metric in LAYER_METRICS if metric[0] not in SERVE_ONLY
)


def layer_metrics(spans, ops, counters, counts=None, all_ops=None,
                  all_ops_s=None, serve=None, overhead_pct=0.0):
    """Every :data:`LAYER_METRICS` value, plus the rollup table behind them.

    ``spans`` are the traced operations' spans, ``ops`` their number.
    Program counters cover every timed operation, traced or not:
    ``all_ops`` of them taking ``all_ops_s`` seconds (by default, the
    traced operations' time scaled up). ``serve`` carries the serve-only
    metrics; other workloads leave them at 0.
    """
    table = rollup(spans, name_of=_span_name)
    root_s = sum(span.duration for span in roots(spans))
    all_ops = all_ops or ops
    all_ops_s = all_ops_s or (root_s * all_ops / ops if ops else 0.0)
    counters = {key: counters.get(key, 0) for key in _COUNTER_KEYS}
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def ratio(part, whole, scale=1.0):
        return scale * part / whole if whole else 0.0

    values = {
        metric: ratio(table.get(span, empty)[field], root_s, 100.0)
        for metric, (span, field) in _SHARES.items()
    }
    values.update({
        metric: ratio(table.get(span, empty)["calls"], ops)
        for metric, span in _CALLS.items()
    })
    parse = table.get("sql.parse", empty)
    executes = [table.get("engine.execute", empty),
                table.get("pipeline.final_check", empty)]
    lookups = counters["parse_hits"] + counters["parse_misses"]
    values.update({
        "knowledge.writes_per_op": ratio(
            (counts or {}).get("knowledge.write", 0), ops
        ),
        "sql.parse.ms_per_call": ratio(
            parse["total_s"], parse["calls"], 1000.0
        ),
        "sql.parse_cache.hit_pct": ratio(
            counters["parse_hits"], lookups, 100.0
        ),
        "sql.parse_cache.lookups_per_op": ratio(lookups, all_ops),
        "engine.execute.calls_per_op": ratio(
            sum(item["calls"] for item in executes), ops
        ),
        "engine.execute.self_ms_per_op": ratio(
            sum(item["self_s"] for item in executes), ops, 1000.0
        ),
        "engine.row_fallback_pct": ratio(
            counters["row_fallback_selects"],
            counters["row_fallback_selects"] + counters["columnar_selects"],
            100.0,
        ),
        "engine.hash_join_pct": ratio(
            counters["hash_joins"],
            counters["hash_joins"] + counters["loop_joins"], 100.0,
        ),
        "engine.predicate_cache.hit_pct": ratio(
            counters["predicate_hits"],
            counters["predicate_hits"] + counters["predicate_misses"], 100.0,
        ),
        "engine.rewrite.pct": ratio(counters["rewrite_s"], all_ops_s, 100.0),
        "engine.compile.pct": ratio(counters["compile_s"], all_ops_s, 100.0),
        "trace.overhead_pct": overhead_pct,
    })
    values.update({name: (serve or {}).get(name, 0) for name in SERVE_ONLY})
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit, _better in LAYER_METRICS
    }
    breakdown = {
        name: {
            "calls_per_op": ratio(item["calls"], ops),
            "ms_per_call": ratio(item["total_s"], item["calls"], 1000.0),
            "ms_per_op": ratio(item["total_s"], ops, 1000.0),
            "self_ms_per_op": ratio(item["self_s"], ops, 1000.0),
            "self_pct": ratio(item["self_s"], root_s, 100.0),
        }
        for name, item in sorted(table.items())
    }
    return metrics, breakdown
