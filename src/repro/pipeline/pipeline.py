"""GenEdit's SQL generation pipeline (Fig. 1, inference phase).

Wires the operators in order — reformulation, intent classification,
example selection, instruction selection, schema linking, CoT planning, SQL
generation, self-correction — and exposes :meth:`GenEditPipeline.generate`.

Resilience (DESIGN.md §6c): the LLM is always wrapped in a
:class:`~repro.resilience.ResilientLLM` (retries with recorded backoff and
the pipeline's soft per-call ``timeout_ms``, plus the fault injector once
armed; transparent when nothing fails), and
:meth:`GenEditPipeline.generate` never lets an operator exception escape.
Optional operators fail *soft*: their fallback leaves a
degraded-but-usable context, recorded on the operator span
(``degraded=true`` + reason) and in the metrics registry. Required
operators (schema linking, planning, generation) exhaust their retries and
then surface a failed :class:`~repro.pipeline.base.GenerationResult` with
the error text — the harness records an outcome either way.
:meth:`enable_faults` arms seed-deterministic chaos for tests and the
``--faults`` harness flag.
"""

from __future__ import annotations

from ..engine.errors import ExecutionError
from ..engine.executor import Executor
from ..llm.simulated import SimulatedLLM
from ..obs.metrics import get_metrics
from ..resilience import (
    LLM_TIMEOUT_MS,
    FaultInjector,
    FaultyExecutor,
    ResilientLLM,
)
from ..sql.errors import SqlError
from .base import GenerationResult, PipelineContext, operator_output_digest
from .config import DEFAULT_CONFIG
from .correction import SelfCorrectionOperator
from .examples import ExampleSelectionOperator
from .generation import GenerationOperator
from .instructions import InstructionSelectionOperator
from .intents import IntentClassificationOperator
from .plan_lint import PlanLintOperator
from .planning import PlanningOperator
from .reformulate import ReformulateOperator
from .schema_linking import SchemaLinkingOperator


def _degrade_reformulate(context):
    context.reformulated = context.question


def _degrade_intents(context):
    context.intent_ids = []


def _degrade_examples(context):
    context.examples = []
    context.example_pool = []
    context.example_scores = {}


def _degrade_instructions(context):
    context.instructions = []


def _degrade_plan_lint(context):
    # Generation proceeds without plan findings; candidate ranking falls
    # back to GE diagnostics alone.
    context.plan_findings = []


def _degrade_self_correct(context):
    # The generated candidate stands un-corrected; the final check still
    # decides whether the run succeeded, by executing it.
    context.clean_execution = None


#: Degradation matrix: optional operators and the fallback that leaves the
#: context usable when they fail. Operators absent here (schema linking,
#: planning, generation) are required — their failure fails the run.
DEGRADATIONS = {
    "reformulate": _degrade_reformulate,
    "classify_intents": _degrade_intents,
    "select_examples": _degrade_examples,
    "select_instructions": _degrade_instructions,
    "lint_plan": _degrade_plan_lint,
    "self_correct": _degrade_self_correct,
}


class GenEditPipeline:
    """The deployed GenEdit generation pipeline."""

    def __init__(self, database, knowledge, config=None, llm=None,
                 timeout_ms=None, fault_injector=None):
        self.database = database
        self.knowledge = knowledge
        self.config = config or DEFAULT_CONFIG
        self.timeout_ms = LLM_TIMEOUT_MS if timeout_ms is None else timeout_ms
        self.fault_injector = None
        self._base_llm = llm or SimulatedLLM()
        self.llm = ResilientLLM(self._base_llm, self.timeout_ms)
        self.operators = self._build_operators()
        if fault_injector is not None:
            self.enable_faults(injector=fault_injector)

    def _build_operators(self):
        return [
            ReformulateOperator(self.llm),
            IntentClassificationOperator(self.llm),
            ExampleSelectionOperator(),
            InstructionSelectionOperator(),
            SchemaLinkingOperator(self.llm),
            PlanningOperator(self.llm),
            PlanLintOperator(),
            GenerationOperator(self.llm),
            SelfCorrectionOperator(self.llm),
        ]

    def enable_faults(self, config=None, scope="", injector=None):
        """Arm deterministic fault injection on this pipeline.

        Pass either a :class:`~repro.resilience.FaultConfig` (an injector
        scoped to ``scope`` or the database name is built) or a ready
        :class:`~repro.resilience.FaultInjector`. The LLM is re-wrapped with
        the injector, which each retry attempt consults before the call,
        and the operators are rebuilt around it; the executors used by
        self-correction and the final check inject through the same
        injector. Returns the injector.
        """
        if injector is None:
            if config is None:
                raise ValueError("enable_faults needs a config or injector")
            injector = FaultInjector(
                config,
                scope=scope or getattr(self.database, "name", ""),
            )
        self.fault_injector = injector
        self.llm = ResilientLLM(self._base_llm, self.timeout_ms, injector)
        self.operators = self._build_operators()
        return injector

    def _make_executor(self, database):
        executor = Executor(database)
        if self.fault_injector is not None:
            executor = FaultyExecutor(executor, self.fault_injector)
        return executor

    def generate(self, question, config=None):
        """Generate SQL for ``question`` and return a GenerationResult.

        The whole run executes under a root ``generate`` span on the
        context's tracer, with one child span per operator and a
        ``final_check`` span around the closing execution — export the tree
        with :meth:`GenerationResult.trace_records`. Per-operator wall time
        feeds the process-wide metrics registry.

        Operator exceptions never escape: optional operators degrade (see
        :data:`DEGRADATIONS`), required ones end the run as a failed
        result whose ``error`` names the operator and the exception.
        """
        context = PipelineContext(
            question=question,
            database=self.database,
            knowledge=self.knowledge,
            config=config or self.config,
        )
        context.executor_factory = self._make_executor
        metrics = get_metrics()
        with context.span(
            "generate",
            question=question,
            database=getattr(self.database, "name", str(self.database)),
        ) as root:
            failure_text = ""
            for operator in self.operators:
                with context.span(operator.name) as span:
                    try:
                        operator.run(context)
                    except Exception as error:
                        reason = f"{type(error).__name__}: {error}"
                        if operator.name in DEGRADATIONS:
                            self._degrade(context, operator.name, span,
                                          reason, metrics)
                        else:
                            context.failed_operator = operator.name
                            failure_text = f"{operator.name}: {reason}"
                            span.status = "error"
                            span.error = reason
                    if not context.failed_operator:
                        # Digest the operator's (possibly degraded) output
                        # for the run ledger's first-divergence attribution.
                        digest = operator_output_digest(operator.name, context)
                        span.set_attr("digest", digest)
                        context.operator_digests.append(
                            (operator.name, digest)
                        )
                metrics.observe(
                    "pipeline.operator_ms", span.duration_ms,
                    operator=operator.name,
                )
                if context.failed_operator:
                    break
            if context.failed_operator:
                success, error = False, failure_text
                metrics.inc(
                    "pipeline.failed_runs", operator=context.failed_operator
                )
                root.set_attr("failed_operator", context.failed_operator)
                context.add_trace(
                    context.failed_operator,
                    f"required operator failed: {failure_text}",
                )
            else:
                with context.span("final_check") as check:
                    success, error = self._final_check(context)
                    check.set_attr("success", success)
                    if error:
                        check.set_attr("error_text", error)
            root.set_attr("success", success)
            root.set_attr("attempts", len(context.attempts))
            if context.degraded_operators:
                root.set_attr(
                    "degraded",
                    " ".join(
                        name for name, _ in context.degraded_operators
                    ),
                )
            root.inc_attr("llm.cost_usd", context.meter.total_cost_usd)
            root.inc_attr(
                "llm.input_tokens",
                sum(call.input_tokens for call in context.meter.calls),
            )
            root.inc_attr(
                "llm.output_tokens",
                sum(call.output_tokens for call in context.meter.calls),
            )
        metrics.inc("pipeline.runs")
        metrics.observe("pipeline.generate_ms", root.duration_ms)
        # Per-question cost distribution — the SLO engine's cost-per-question
        # objective reads this family's mean (sum/count) from live snapshots.
        metrics.observe(
            "pipeline.cost_usd", context.meter.total_cost_usd,
            buckets=(0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1),
        )
        return GenerationResult(
            question=question,
            sql=context.sql,
            plan=context.plan,
            success=success,
            context=context,
            error=error,
        )

    def _degrade(self, context, name, span, reason, metrics):
        """Apply an optional operator's fallback and record the event."""
        DEGRADATIONS[name](context)
        span.set_attr("degraded", True)
        span.set_attr("degraded_reason", reason)
        context.degraded_operators.append((name, reason))
        metrics.inc("pipeline.operator_degraded", operator=name)
        context.add_trace(name, f"degraded: {reason}")

    def execute(self, sql):
        """Run SQL on the pipeline's database (used by UIs and examples).

        Deliberately unfaulted: chaos covers generation, not result
        display.
        """
        return Executor(self.database).execute(sql)

    def _final_check(self, context):
        """``(success, error text)`` for the run's final SQL.

        Executes ``context.sql`` unless self-correction already executed
        that SQL cleanly on the current database version with no fault
        injector armed (DESIGN.md §6c): the engine is deterministic, so a
        second execution could only repeat that verdict. An armed injector
        always executes, because its fault decisions count occurrences.
        """
        if not context.sql:
            return False, "no SQL generated"
        if (
            self.fault_injector is None
            and context.clean_execution
            == (context.sql, context.database.version)
        ):
            return True, ""
        try:
            self._make_executor(context.database).execute(context.sql)
        except (SqlError, ExecutionError) as error:
            return False, str(error)
        return True, ""
