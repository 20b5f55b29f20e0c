"""Evaluation metrics: Execution Accuracy (EX), per the BIRD protocol.

A prediction is correct when executing it returns exactly the same multiset
of rows as executing the gold SQL (column order respected, row order
ignored, ints and equal-valued floats unified) — §3.3.2 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..engine.executor import execution_outcome


def execution_match(database, predicted_sql, gold_sql):
    """True when ``predicted_sql`` and ``gold_sql`` agree on ``database``.

    Each side is :func:`~repro.engine.executor.execution_outcome`, the
    database's execution memo: the gold side, identical for all ~7
    systems of a Table 1 run, executes once per database version rather
    than once per system per question, and a prediction that
    self-correction or the final check already ran is not executed again.
    So ``bench profile``'s ``execute`` stage mostly reads memo hits.
    """
    ran, gold = execution_outcome(database, gold_sql)
    if not ran:  # pragma: no cover - gold must run
        raise AssertionError(f"Gold SQL failed: {gold}\n{gold_sql}")
    if not predicted_sql:
        return False
    ran, predicted = execution_outcome(database, predicted_sql)
    return ran and predicted == gold


@dataclass
class QuestionOutcome:
    """Evaluation record for one question."""

    question_id: str
    difficulty: str
    database: str
    correct: bool
    predicted_sql: str
    gold_sql: str
    features: tuple = ()
    issues: tuple = ()
    cost_usd: float = 0.0
    latency_ms: float = 0.0
    lint_caught: int = 0        # candidates the diagnostics engine rejected
    execution_caught: int = 0   # candidates only execution rejected
    #: Why an incorrect outcome is incorrect: the pipeline's error text, a
    #: harness exception rendered as ``Type: message``, or
    #: ``"result mismatch"`` for SQL that ran cleanly but disagreed with
    #: gold. Always "" for correct outcomes, never "" for incorrect ones.
    error: str = ""
    #: Optional operators that failed soft during generation (resilience).
    degraded: tuple = ()
    #: The question's natural-language text (lets ledger consumers — e.g.
    #: regression baselining — match outcomes without the workload).
    question_text: str = ""
    #: Error-level diagnostic codes (``GE0xx``) on the final SQL.
    lint_codes: tuple = ()
    #: Error-level plan lint codes (``GP0xx``) on the final plan.
    plan_codes: tuple = ()
    #: Self-correction attempts recorded during generation.
    attempts: int = 0
    #: ((operator, output digest), ...) in execution order — the run
    #: ledger's first-divergence trail (see ``repro.pipeline.base``).
    operator_digests: tuple = ()
    #: One ``(operator, model, input_tokens, output_tokens, cost_usd)``
    #: tuple per LLM call of the run (the ledger's accounting source).
    llm_calls: tuple = ()

    @classmethod
    def from_result(cls, result, correct, *, question_id, difficulty,
                    database, gold_sql, question_text, features=()):
        """The outcome of one pipeline run (a ``GenerationResult``).

        The caller decides ``correct``: the EX check for benchmark
        questions, generation success where there is no gold SQL.
        """
        context = result.context
        if correct:
            error = ""
        elif not result.success:
            error = result.error or "generation failed"
        elif not result.sql:
            error = "no SQL generated"
        elif gold_sql:
            error = "result mismatch"
        else:
            error = "no gold SQL supplied"
        return cls(
            question_id=question_id,
            difficulty=difficulty,
            database=database,
            correct=correct,
            predicted_sql=result.sql,
            gold_sql=gold_sql,
            features=features,
            issues=tuple(result.plan.issues) if result.plan else (),
            cost_usd=result.cost_usd,
            latency_ms=result.latency_ms,
            lint_caught=context.lint_caught,
            execution_caught=context.execution_caught,
            error=error,
            degraded=result.degraded_operators,
            question_text=question_text,
            lint_codes=result.lint_codes,
            plan_codes=result.plan_codes,
            attempts=len(context.attempts),
            operator_digests=result.operator_digests,
            llm_calls=tuple(
                (call.operator, call.model, call.input_tokens,
                 call.output_tokens, round(call.cost_usd, 10))
                for call in context.meter.calls
            ),
        )


@dataclass
class EvaluationReport:
    """Aggregated EX per difficulty bucket (the shape of Tables 1 and 2)."""

    system: str
    outcomes: list = field(default_factory=list)

    def add(self, outcome):
        self.outcomes.append(outcome)

    def _bucket(self, difficulty=None):
        if difficulty is None:
            return self.outcomes
        return [
            outcome for outcome in self.outcomes
            if outcome.difficulty == difficulty
        ]

    def accuracy(self, difficulty=None):
        bucket = self._bucket(difficulty)
        if not bucket:
            return 0.0
        return 100.0 * sum(outcome.correct for outcome in bucket) / len(bucket)

    def counts(self, difficulty=None):
        bucket = self._bucket(difficulty)
        return sum(outcome.correct for outcome in bucket), len(bucket)

    @property
    def total_cost_usd(self):
        return sum(outcome.cost_usd for outcome in self.outcomes)

    @property
    def lint_caught(self):
        """Bad candidates the diagnostics engine rejected before execution."""
        return sum(outcome.lint_caught for outcome in self.outcomes)

    @property
    def execution_caught(self):
        """Bad candidates only caught by actually executing them."""
        return sum(outcome.execution_caught for outcome in self.outcomes)

    @property
    def errored(self):
        """Outcomes that failed with a recorded error (never aborted)."""
        return [outcome for outcome in self.outcomes if outcome.error]

    @property
    def degraded_count(self):
        """Total soft operator degradations across the workload."""
        return sum(len(outcome.degraded) for outcome in self.outcomes)

    def row(self):
        """(simple, moderate, challenging, all) EX percentages."""
        return (
            self.accuracy("simple"),
            self.accuracy("moderate"),
            self.accuracy("challenging"),
            self.accuracy(),
        )

    def failures(self, difficulty=None):
        return [
            outcome for outcome in self._bucket(difficulty)
            if not outcome.correct
        ]
