"""Pipeline plumbing: operators, run context, plans, and traces.

A :class:`GenEditPipeline` run threads a :class:`PipelineContext` through a
sequence of :class:`Operator` instances (Fig. 1's numbered boxes). Each
operator reads what earlier operators produced — that compounding is the
paper's core retrieval idea — and annotates the run so it is fully
inspectable: every operator executes inside a timed
:class:`~repro.obs.tracing.Span` on the context's
:class:`~repro.obs.tracing.Tracer`, and ``add_trace`` records a
:class:`~repro.obs.tracing.SpanEvent` on the enclosing span. The span
events are the run's only step-by-step record: ``render_trace`` and
:attr:`GenerationResult.trace` read them back from the tracer (the
examples print these traces to show the architecture; ``python -m repro
trace`` renders the timed tree).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..llm.interface import CallMeter
from ..obs.tracing import Tracer
from ..sql.diagnostics.core import error_codes


@dataclass
class PlanStep:
    """One step of the CoT plan: NL description plus optional pseudo-SQL."""

    description: str
    pseudo_sql: str = ""

    def render(self):
        if self.pseudo_sql:
            return f"{self.description}\n    {self.pseudo_sql}"
        return self.description


@dataclass
class Plan:
    """The chain-of-thought plan (§3.1.2).

    ``steps`` is the ordered natural-language plan shown in prompts;
    ``spec`` is the grounded meaning the planner recovered (the structured
    content the steps describe); ``issues`` records grounding gaps the
    planner knows about (used in traces and edit recommendation).
    """

    steps: list = field(default_factory=list)
    spec: object = None
    issues: list = field(default_factory=list)

    def render(self):
        lines = []
        for number, step in enumerate(self.steps, start=1):
            lines.append(f"Step {number}: {step.render()}")
        return "\n".join(lines)

    def __len__(self):
        return len(self.steps)


@dataclass
class PipelineContext:
    """Mutable state threaded through the pipeline operators."""

    question: str
    database: object            # repro.engine.Database
    knowledge: object           # repro.knowledge.KnowledgeSet
    config: object              # PipelineConfig

    reformulated: str = ""
    intent_ids: list = field(default_factory=list)
    examples: list = field(default_factory=list)       # DecomposedExample
    example_scores: dict = field(default_factory=dict)
    instructions: list = field(default_factory=list)   # Instruction
    schema_elements: list = field(default_factory=list)
    plan: Plan | None = None
    #: GP0xx findings on the primary plan (set by the lint_plan operator).
    plan_findings: list = field(default_factory=list)
    candidates: list = field(default_factory=list)     # candidate SQL strings
    candidate_diagnostics: dict = field(default_factory=dict)  # sql -> [Diagnostic]
    #: sql -> [PlanFinding] for each candidate's grounding plan.
    candidate_plan_findings: dict = field(default_factory=dict)
    sql: str = ""
    attempts: list = field(default_factory=list)       # (sql, error) pairs
    lint_caught: int = 0        # candidates rejected by diagnostics pre-execution
    execution_caught: int = 0   # candidates rejected by actually executing
    meter: CallMeter = field(default_factory=CallMeter)
    tracer: Tracer = field(default_factory=Tracer)
    #: (operator name, reason) per optional operator that failed soft
    #: (see DESIGN.md §6c's degradation matrix).
    degraded_operators: list = field(default_factory=list)
    #: (operator name, output digest) in execution order — the ledger's
    #: first-divergence trail (see :func:`operator_output_digest`).
    operator_digests: list = field(default_factory=list)
    #: Name of the required operator whose failure ended the run ("" if
    #: the run reached the final check).
    failed_operator: str = ""
    #: ``(sql, database version)`` of the candidate self-correction last
    #: executed cleanly, or ``None``. The final check trusts that run
    #: instead of executing the same SQL on the same version again.
    clean_execution: tuple = None
    #: ``callable(database) -> executor`` supplied by the pipeline so
    #: fault injection covers self-correction and the final check; ``None``
    #: (standalone operator tests) falls back to a plain ``Executor``.
    executor_factory: object = None

    def add_trace(self, operator, summary, **detail):
        return self.tracer.add_event(operator, summary, detail)

    def plan_findings_for(self, sql):
        """GP findings of ``sql``'s grounding plan; the primary plan's
        findings when no candidate entry was recorded for ``sql``."""
        findings = self.candidate_plan_findings.get(sql)
        return self.plan_findings if findings is None else findings

    def span(self, name, **attributes):
        """Open a timed span on this run's tracer (context manager)."""
        return self.tracer.span(name, **attributes)

    def render_trace(self):
        """Render the run's span events, one ``[operator] summary`` line
        each, in recording order."""
        return "\n".join(str(event) for event in self.tracer.iter_events())


class Operator:
    """Base class for pipeline operators (Fig. 1 boxes)."""

    #: Human-readable operator name used in traces.
    name = "operator"

    def run(self, context: PipelineContext):
        raise NotImplementedError


#: Canonical per-operator output: the context state the operator owns, as a
#: deterministic payload. Digesting these lets the run ledger attribute a
#: run-to-run divergence to the first operator whose output changed
#: (``python -m repro diff``, DESIGN.md §6d). Unknown operator names fall
#: back to the final SQL, the one output every pipeline produces.
_DIGEST_PAYLOADS = {
    "reformulate": lambda c: c.reformulated,
    "classify_intents": lambda c: tuple(c.intent_ids),
    "select_examples": lambda c: _component_ids(c.examples, "example_id"),
    "select_instructions": lambda c: _component_ids(
        c.instructions, "instruction_id"
    ),
    "link_schema": lambda c: _component_ids(c.schema_elements, "element_id"),
    "plan": lambda c: c.plan.render() if c.plan is not None else "",
    "lint_plan": lambda c: tuple(
        (finding.code, finding.step) for finding in c.plan_findings
    ),
    "generate_sql": lambda c: (tuple(c.candidates), c.sql),
    "self_correct": lambda c: (c.sql, tuple(c.attempts)),
}


def _component_ids(components, attribute):
    """Each component's ``attribute``, or its repr when it has none.

    The repr is built only for a component that lacks the id: building it
    eagerly, as a ``getattr`` default, would format every dataclass only
    to discard the string.
    """
    ids = []
    for component in components:
        try:
            ids.append(getattr(component, attribute))
        except AttributeError:
            ids.append(repr(component))
    return tuple(ids)


def operator_output_digest(name, context):
    """12-hex-char blake2b digest of operator ``name``'s canonical output.

    Stable across processes for a deterministic run (ids, rendered plans,
    and SQL strings only — no timings, no object identities), so two run
    records can be compared digest-by-digest.
    """
    payload = _DIGEST_PAYLOADS.get(name, lambda c: (c.sql,))(context)
    return hashlib.blake2b(
        repr((name, payload)).encode("utf-8"), digest_size=6
    ).hexdigest()


@dataclass
class GenerationResult:
    """Outcome of one pipeline run."""

    question: str
    sql: str
    plan: Plan | None
    success: bool               # a candidate passed validation
    context: PipelineContext
    error: str = ""

    @property
    def trace(self):
        """The run's span events (:class:`~repro.obs.tracing.SpanEvent`),
        in recording order."""
        return self.context.tracer.iter_events()

    @property
    def cost_usd(self):
        return self.context.meter.total_cost_usd

    @property
    def degraded_operators(self):
        """Names of optional operators that failed soft during this run."""
        return tuple(
            name for name, _reason in self.context.degraded_operators
        )

    @property
    def failed_operator(self):
        """The required operator whose failure ended the run ("" if none)."""
        return self.context.failed_operator

    @property
    def operator_digests(self):
        """((operator, digest), ...) in execution order for run diffing."""
        return tuple(self.context.operator_digests)

    @property
    def latency_ms(self):
        return self.context.meter.total_latency_ms

    def trace_records(self):
        """One JSON-ready dict per finished span of this run (start order).

        The record schema is versioned (``v`` field, see
        :data:`repro.obs.tracing.TRACE_SCHEMA_VERSION`); write one record
        per line for the ``python -m repro trace`` inspector.
        """
        return self.context.tracer.to_records()

    def debug_payload(self):
        """The postmortem detail for one run, JSON-ready.

        This is what the serving layer's flight recorder retains for a
        failed/slow/sampled request (DESIGN.md §6i): the operator digest
        trail, the rendered plan, every candidate and repair attempt,
        the final SQL's error-level diagnostics and plan-lint codes (the
        codes a ledger outcome records), degradations, resilience-visible
        events and LLM call accounting — enough to reconstruct *why* the
        run produced what it did without re-running the question.
        """
        context = self.context
        return {
            "question": self.question,
            "reformulated": context.reformulated,
            "sql": self.sql,
            "success": bool(self.success),
            "error": self.error,
            "failed_operator": context.failed_operator,
            "plan": self.plan.render() if self.plan else "",
            "candidates": list(context.candidates),
            "attempts": [
                {"sql": sql, "error": error}
                for sql, error in context.attempts
            ],
            "degraded": [
                {"operator": name, "reason": reason}
                for name, reason in context.degraded_operators
            ],
            "operator_digests": [
                {"operator": name, "digest": digest}
                for name, digest in context.operator_digests
            ],
            "lint_codes": list(error_codes(
                context.candidate_diagnostics.get(self.sql, ())
            )),
            "plan_codes": list(error_codes(
                context.plan_findings_for(self.sql)
            )),
            "events": [str(event) for event in self.trace],
            "llm_calls": [
                {
                    "operator": call.operator,
                    "model": call.model,
                    "input_tokens": call.input_tokens,
                    "output_tokens": call.output_tokens,
                    "cost_usd": round(call.cost_usd, 10),
                }
                for call in context.meter.calls
            ],
            "cost_usd": round(self.cost_usd, 10),
            "latency_ms": self.latency_ms,
        }
