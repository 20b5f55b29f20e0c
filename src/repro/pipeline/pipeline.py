"""GenEdit's SQL generation pipeline (Fig. 1, inference phase).

Wires the operators in order — reformulation, intent classification,
example selection, instruction selection, schema linking, CoT planning, SQL
generation, self-correction — and exposes :meth:`GenEditPipeline.generate`,
the cold primitive every evaluation target calls, and
:meth:`GenEditPipeline.answer`, the deployed system's entry point, which
reuses an earlier run's outcome on the same inputs (the generation memo,
DESIGN.md §6d).

Resilience (DESIGN.md §6c): the LLM is always wrapped in a
:class:`~repro.resilience.ResilientLLM` (retries with recorded backoff,
plus the fault injector once armed; transparent when nothing fails), and
:meth:`GenEditPipeline.generate` never lets an operator exception escape;
it raises only :class:`~repro.resilience.DeadlineExceeded`, at the first
operator boundary past a served request's deadline.
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

from ..engine.executor import Executor
from ..llm.simulated import SimulatedLLM
from ..obs.metrics import get_metrics
from ..resilience import (
    FaultInjector,
    FaultyExecutor,
    ResilientLLM,
)
from ..resilience.policy import check_deadline
from ..sql.diagnostics import DiagnosticsEngine
from .base import (
    GenerationEntry,
    GenerationResult,
    PipelineContext,
    operator_output_digest,
)
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


#: Degradation matrix: optional operators and the fallback that leaves the
#: context usable when they fail. Operators absent here (schema linking,
#: planning, generation) are required — their failure fails the run.
DEGRADATIONS = {
    "reformulate": _degrade_reformulate,
    "classify_intents": _degrade_intents,
    "select_examples": _degrade_examples,
    "select_instructions": _degrade_instructions,
    "lint_plan": _degrade_plan_lint,
    # The generated candidate stands un-corrected; the final check still
    # decides whether the run succeeded.
    "self_correct": lambda context: None,
}


class GenEditPipeline:
    """The deployed GenEdit generation pipeline."""

    def __init__(self, database, knowledge, config=None, llm=None):
        self.database = database
        self.knowledge = knowledge
        self.config = config or DEFAULT_CONFIG
        self.fault_injector = None
        self._base_llm = llm or SimulatedLLM()
        self.llm = ResilientLLM(self._base_llm)
        self.operators = self._build_operators()
        self._built = tuple(self.operators)

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

    def enable_faults(self, config, scope=""):
        """Arm deterministic fault injection on this pipeline.

        Builds a :class:`~repro.resilience.FaultInjector` from the
        :class:`~repro.resilience.FaultConfig`, scoped to ``scope`` or the
        database name. The LLM is re-wrapped with the injector, which each
        retry attempt consults before the call, and the operators are
        rebuilt around it; the executors used by self-correction and the
        final check inject through the same injector. Returns the injector.
        """
        injector = FaultInjector(
            config, scope=scope or getattr(self.database, "name", ""),
        )
        self.fault_injector = injector
        self.llm = ResilientLLM(self._base_llm, injector)
        self.operators = self._build_operators()
        self._built = tuple(self.operators)
        return injector

    def with_knowledge(self, knowledge):
        """A pipeline like this one over ``knowledge``: same database,
        config and base LLM, so the same generation memo keys, and no
        fault injector (DESIGN.md §6d). A feedback session's regenerate
        and regression answer through these."""
        return GenEditPipeline(
            self.database, knowledge, config=self.config, llm=self._base_llm,
        )

    def _faulty_executor(self, database):
        return FaultyExecutor(Executor(database), self.fault_injector)

    def _generation_memo(self):
        """The database's ``memo("generation")`` when this pipeline's runs
        may be shared, else ``None``.

        They may be shared when the memo key holds every input a run reads
        besides the database: the base LLM is exactly ``SimulatedLLM``
        (deterministic, and described by its two models), no fault
        injector is armed (its decisions count occurrences), and the
        operators are the ones this pipeline built, unpatched.
        """
        if (
            self.fault_injector is not None
            or type(self._base_llm) is not SimulatedLLM
            or tuple(self.operators) != self._built
            or any("run" in vars(operator) for operator in self.operators)
        ):
            return None
        return self.database.memo("generation")

    def _memo_key(self, question):
        return (
            self.knowledge.revision, self.config, self.llm.model,
            self.llm.linking_model, question,
        )

    def answer(self, question):
        """The deployed system's answer to ``question``.

        On a generation-memo hit (an earlier :meth:`generate` of this
        question on the same knowledge revision, database version, config
        and models) the result is rebuilt from the stored
        entry: no operator runs, the meter is empty, and the fresh tracer
        holds one ``generate`` span marked ``generation.memo=hit`` with the
        stored digest trail. On a miss it is :meth:`generate`. The
        registry counts ``generation.memo_hits``/``generation.memo_misses``.
        """
        memo = self._generation_memo()
        if memo is None:
            return self.generate(question)
        entry = memo.get(self._memo_key(question))
        if entry is None:
            get_metrics().inc("generation.memo_misses")
            return self.generate(question)
        get_metrics().inc("generation.memo_hits")
        return self._replay(question, entry)

    def _replay(self, question, entry):
        """A :class:`GenerationResult` rebuilt from a memo entry."""
        plan = entry.plan.copy() if entry.plan is not None else None
        context = PipelineContext(
            question=question,
            database=self.database,
            knowledge=self.knowledge,
            config=self.config,
            reformulated=entry.reformulated,
            intent_ids=list(entry.intent_ids),
            examples=list(entry.examples),
            instructions=list(entry.instructions),
            plan=plan,
            candidates=list(entry.candidates),
            sql=entry.sql,
            attempts=list(entry.attempts),
            lint_caught=entry.lint_caught,
            execution_caught=entry.execution_caught,
            degraded_operators=list(entry.degraded),
            operator_digests=list(entry.operator_digests),
            failed_operator=entry.failed_operator,
        )
        with context.span(
            "generate",
            question=question,
            database=getattr(self.database, "name", str(self.database)),
        ) as root:
            root.set_attr("generation.memo", "hit")
            root.set_attr("digests", " ".join(
                f"{name}:{digest}" for name, digest in entry.operator_digests
            ))
            root.set_attr("success", entry.success)
            root.set_attr("attempts", len(entry.attempts))
            if entry.failed_operator:
                root.set_attr("failed_operator", entry.failed_operator)
            context.add_trace(
                "generate",
                "generation memo hit: the outcome of an earlier run on "
                "this knowledge revision and database version",
            )
        return GenerationResult(
            question=question,
            sql=entry.sql,
            plan=plan,
            success=entry.success,
            context=context,
            error=entry.error,
            entry=entry,
        )

    def generate(self, question):
        """Generate SQL for ``question`` and return a GenerationResult.

        The whole run executes under a root ``generate`` span on the
        context's tracer, with one child span per operator and a
        ``final_check`` span around the closing execution — export the tree
        with :meth:`GenerationResult.trace_records`. Per-operator wall time
        feeds the process-wide metrics registry.

        Operator exceptions never escape: optional operators degrade (see
        :data:`DEGRADATIONS`), required ones end the run as a failed
        result whose ``error`` names the operator and the exception.

        Every run runs the operators: evaluation targets measure what a
        configuration costs, so ``generate`` never reads the generation
        memo. It only records the outcome there, for :meth:`answer`. A run
        cut short at an operator boundary past a served request's deadline
        (:class:`~repro.resilience.DeadlineExceeded`) is not recorded.

        Executions go through the database's execution memo, since an
        outcome reads only the SQL text and the database version
        (DESIGN.md §6d); with a fault injector armed, whose decisions
        count executions, every execution runs.
        """
        memo = self._generation_memo()
        key = None if memo is None else self._memo_key(question)
        context = PipelineContext(
            question=question,
            database=self.database,
            knowledge=self.knowledge,
            config=self.config,
            executor_factory=(
                None if self.fault_injector is None
                else self._faulty_executor
            ),
        )
        metrics = get_metrics()
        with context.span(
            "generate",
            question=question,
            database=getattr(self.database, "name", str(self.database)),
        ) as root:
            failure_text = ""
            for operator in self.operators:
                check_deadline()
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
                check_deadline()
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
        metrics.inc("pipeline.runs")
        metrics.observe("pipeline.generate_ms", root.duration_ms)
        # Per-question cost distribution — the SLO engine's cost-per-question
        # objective reads this family's mean (sum/count) from live snapshots.
        metrics.observe(
            "pipeline.cost_usd", context.meter.total_cost_usd,
            buckets=(0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1),
        )
        result = GenerationResult(
            question=question,
            sql=context.sql,
            plan=context.plan,
            success=success,
            context=context,
            error=error,
        )
        if memo is not None:
            memo.store(key, _entry(result))
        return result

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

    @staticmethod
    def _final_check(context):
        """``(success, error text)`` for the run's final SQL.

        The outcome self-correction memoised when it executed that SQL on
        the current database version is read back, since a second
        execution could only repeat it (DESIGN.md §6c); an armed injector
        always executes, because its fault decisions count occurrences.
        """
        if not context.sql:
            return False, "no SQL generated"
        error = context.verdict(context.sql)
        return not error, error


def _entry(result):
    """The :class:`GenerationEntry` of a generated ``result``.

    The final SQL's codes come from the diagnostics the generation
    operator already ran on each candidate; the engine runs only for a
    final SQL that has none, and its result joins the context so the
    result and the entry report the same codes.
    """
    context = result.context
    sql = result.sql
    if sql and sql not in context.candidate_diagnostics:
        context.candidate_diagnostics[sql] = (
            DiagnosticsEngine(context.database).run_sql(sql)
        )
    return GenerationEntry(
        sql=sql,
        success=result.success,
        error=result.error,
        reformulated=context.reformulated,
        intent_ids=tuple(context.intent_ids),
        examples=tuple(context.examples),
        instructions=tuple(context.instructions),
        plan=context.plan.copy() if context.plan is not None else None,
        candidates=tuple(context.candidates),
        attempts=tuple(context.attempts),
        lint_caught=context.lint_caught,
        execution_caught=context.execution_caught,
        degraded=tuple(context.degraded_operators),
        operator_digests=tuple(context.operator_digests),
        failed_operator=context.failed_operator,
        lint_codes=result.lint_codes,
        plan_codes=result.plan_codes,
    )
