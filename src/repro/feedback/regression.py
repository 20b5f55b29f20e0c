"""Regression testing of staged knowledge-set edits (§4.2.1, §6).

Submitted edits "go through regression testing. If they pass, they are
pending for approval." The regression suite is a set of *golden queries* —
questions with verified SQL — that must not get worse under the staged
knowledge set.

Besides the EX comparison, each result records the error-level diagnostic
codes the staged pipeline's SQL introduces over the live pipeline's
(``new_error_codes``) — a static early-warning that an edit pushed
generation toward broken SQL even when execution accuracy happens to
survive. Lint flags are advisory: they do not affect :attr:`RegressionReport.passed`,
which the review queue gates on.

When a *baseline* run record from the ledger (DESIGN.md §6d) is supplied,
the "before" side is read straight out of the record for every golden
query the baseline already evaluated: recorded correctness and lint codes
stand in for a fresh live-pipeline generation, and the report cites the
baseline run id.

Every other outcome, live or staged, is read through
:meth:`~repro.pipeline.pipeline.GenEditPipeline.answer`, so it comes from
the one generation memo (``database.memo("generation")``, DESIGN.md §6d)
that the deployed pipeline and the feedback session also read. An entry
is keyed on ``(knowledge.revision, config, model, linking model,
question)`` and scoped to ``database.version``.
:attr:`~repro.knowledge.store.KnowledgeSet.revision` changes on every
edit made through the knowledge set's mutators and is shared by a clone,
so the many submits against one deployed set generate its "before" side
once, and a submit generates only what its staged edits can have
changed. Correctness is not memoised here: :func:`execution_match`
compares the answer's SQL with the gold SQL through the database's warm
execution memo, and the error codes are the answer's. The contract
is the knowledge store's: edits go through the mutators, and code that
changes ``table.rows`` directly calls ``database.clear_memos()``. Both
pipelines are built lazily, on the first golden query that needs them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..bench.metrics import execution_match
from ..obs.metrics import get_metrics
from ..obs.tracing import Tracer
from ..pipeline.pipeline import GenEditPipeline
from ..sql.diagnostics.core import error_codes, error_count


@dataclass(frozen=True)
class GoldenQuery:
    """A verified (question, SQL) pair used as a regression anchor."""

    question: str
    gold_sql: str
    label: str = ""


@dataclass
class RegressionResult:
    question: str
    correct_before: bool
    correct_after: bool
    new_error_codes: tuple = ()  # GE0xx codes introduced by the staged SQL

    @property
    def regressed(self):
        return self.correct_before and not self.correct_after

    @property
    def improved(self):
        return not self.correct_before and self.correct_after

    @property
    def lint_flagged(self):
        """True when the staged SQL has error diagnostics the live SQL lacks."""
        return bool(self.new_error_codes)


@dataclass
class RegressionReport:
    results: list = field(default_factory=list)
    #: Ledger run id the "before" side was read from ("" = live pipeline).
    baseline_run_id: str = ""
    #: Golden queries whose before-state came from the baseline record.
    baseline_hits: int = 0

    @property
    def passed(self):
        return not any(result.regressed for result in self.results)

    @property
    def regressions(self):
        return [result for result in self.results if result.regressed]

    @property
    def improvements(self):
        return [result for result in self.results if result.improved]

    @property
    def lint_flags(self):
        return [result for result in self.results if result.lint_flagged]

    def summary(self):
        total = len(self.results)
        regressed = len(self.regressions)
        improved = len(self.improvements)
        status = "PASS" if self.passed else "FAIL"
        line = (
            f"{status}: {total} golden queries, {regressed} regression(s), "
            f"{improved} improvement(s)"
        )
        flagged = len(self.lint_flags)
        if flagged:
            line += f", {flagged} lint flag(s)"
        if self.baseline_run_id:
            line += (
                f" [baseline run {self.baseline_run_id}: "
                f"{self.baseline_hits} reused]"
            )
        return line


def run_regression(database, live_knowledge, staged_knowledge,
                   golden_queries, pipeline=None, tracer=None,
                   baseline=None):
    """Compare golden-query accuracy before/after the staged edits.

    The run is traced: a ``regression`` root span with one
    ``regression.golden`` child per golden query (annotated with
    regressed/improved, any new lint codes, and where each side's outcome
    came from: ``before``/``after`` is ``baseline``, ``memo`` or
    ``generated``) lands on ``tracer`` — the feedback solver passes its
    session tracer; standalone calls get a private one. The memo lookups
    themselves count as ``generation.memo_hits``/``memo_misses``.

    ``baseline`` is an optional ledger run record (the dict shape of
    ``record.json``): golden queries the baseline already evaluated reuse
    its recorded correctness and lint codes for the "before" side ahead of
    the memo, and the report names the run it was compared against.

    Both sides are answered through
    :meth:`~repro.pipeline.pipeline.GenEditPipeline.answer` by
    :meth:`~repro.pipeline.pipeline.GenEditPipeline.with_knowledge` copies
    of ``pipeline``, the session's deployed pipeline: its config and base
    LLM (which the memo key holds), without its fault injector. With no
    ``pipeline`` they are default pipelines.
    """
    baseline_outcomes = {}
    baseline_run_id = ""
    if baseline is not None:
        from ..obs.ledger import outcomes_by_question

        baseline_outcomes = outcomes_by_question(baseline)
        baseline_run_id = baseline.get("run_id", "")
    outcomes = _GoldenOutcomes(database, pipeline)
    report = RegressionReport(baseline_run_id=baseline_run_id)
    tracer = tracer or Tracer()
    with tracer.span("regression", golden=len(golden_queries)) as root:
        for golden in golden_queries:
            with tracer.span(
                "regression.golden", question=golden.question
            ) as span:
                recorded = baseline_outcomes.get(golden.question)
                if recorded is not None:
                    report.baseline_hits += 1
                    span.set_attr("baseline", baseline_run_id)
                    source_before = "baseline"
                    correct_before = bool(recorded["correct"])
                    codes_before = frozenset(recorded.get("lint_codes", ()))
                else:
                    source_before, (correct_before, codes_before) = (
                        outcomes.get(live_knowledge, golden)
                    )
                source_after, (correct_after, codes_after) = outcomes.get(
                    staged_knowledge, golden
                )
                result = RegressionResult(
                    question=golden.question,
                    correct_before=correct_before,
                    correct_after=correct_after,
                    new_error_codes=tuple(sorted(codes_after - codes_before)),
                )
                span.set_attr("before", source_before)
                span.set_attr("after", source_after)
                span.set_attr("regressed", result.regressed)
                span.set_attr("improved", result.improved)
                if result.new_error_codes:
                    span.set_attr(
                        "new_error_codes", " ".join(result.new_error_codes)
                    )
                report.results.append(result)
        root.set_attr("passed", report.passed)
    metrics = get_metrics()
    metrics.inc("regression.runs")
    metrics.inc("regression.regressions", len(report.regressions))
    metrics.inc("regression.improvements", len(report.improvements))
    if report.baseline_hits:
        metrics.inc("regression.baseline_hits", report.baseline_hits)
    return report


class _GoldenOutcomes:
    """One regression run's view of the database.

    :meth:`get` returns a golden query's ``(correct, error codes)`` on a
    knowledge set from the answer of that set's pipeline, built on the
    first golden query that needs it from the session pipeline (a default
    one when there is none).
    """

    def __init__(self, database, session):
        self.database = database
        self.session = session
        self._pipelines = {}

    def get(self, knowledge, golden):
        """``(source, (correct, codes))``; source is memo or generated."""
        pipeline = self._pipelines.get(id(knowledge))
        if pipeline is None:
            pipeline = (
                GenEditPipeline(self.database, knowledge)
                if self.session is None
                else self.session.with_knowledge(knowledge)
            )
            self._pipelines[id(knowledge)] = pipeline
        result = pipeline.answer(golden.question)
        source = "memo" if result.memo_hit else "generated"
        return source, (
            execution_match(self.database, result.sql, golden.gold_sql),
            frozenset(result.lint_codes),
        )


# -- knowledge gate ----------------------------------------------------------


@dataclass
class KnowledgeGateReport:
    """Static gate over a staged knowledge set (DESIGN.md §6f).

    Where :class:`RegressionReport` compares *behaviour* on golden
    queries, this gate compares *artifacts*: the staged knowledge set is
    linted with the ``GK0xx`` rules and any error-level finding absent
    from the live set fails the gate. Findings are keyed by (code,
    component kind, component id), so pre-existing debt on untouched
    components never blocks a submission — only what the edit introduces.
    """

    new_findings: list = field(default_factory=list)
    live_errors: int = 0
    staged_errors: int = 0

    @property
    def passed(self):
        return not self.new_findings

    def summary(self):
        status = "PASS" if self.passed else "FAIL"
        line = (
            f"{status}: knowledge gate, "
            f"{len(self.new_findings)} new error finding(s)"
        )
        if self.new_findings:
            line += f" ({', '.join(error_codes(self.new_findings))})"
        return line


def run_knowledge_gate(database, live_knowledge, staged_knowledge,
                       tracer=None):
    """Lint live vs. staged knowledge; fail on new error-level findings."""
    from ..knowledge.lint import finding_keys, lint_knowledge

    tracer = tracer or Tracer()
    with tracer.span("knowledge_gate") as span:
        live_findings = lint_knowledge(live_knowledge, database)
        staged_findings = lint_knowledge(staged_knowledge, database)
        live_keys = finding_keys(live_findings)
        new_findings = sorted(
            (
                finding for finding in staged_findings
                if finding.is_error
                and (finding.code, finding.component_kind,
                     finding.component_id) not in live_keys
            ),
            key=lambda finding: (
                finding.code, finding.component_kind, finding.component_id
            ),
        )
        report = KnowledgeGateReport(
            new_findings=new_findings,
            live_errors=error_count(live_findings),
            staged_errors=error_count(staged_findings),
        )
        span.set_attr("passed", report.passed)
        if new_findings:
            span.set_attr("codes", " ".join(error_codes(new_findings)))
    metrics = get_metrics()
    metrics.inc("knowledge_gate.runs")
    if not report.passed:
        metrics.inc("knowledge_gate.rejections")
    return report
