"""The Feedback Solver: the interactive session behind Fig. 3 (§4.2.1).

The programmatic equivalent of the paper's UI flow: ask a question, inspect
the generated SQL, give free-text feedback, review the recommended edits,
stage a subset, regenerate against a staging environment that mimics the
deployed system, iterate, then submit — triggering regression tests and the
approval queue.
"""

from __future__ import annotations

from ..obs.metrics import get_metrics
from ..obs.tracing import Tracer
from ..pipeline.pipeline import GenEditPipeline
from .edit_generation import generate_edits
from .edit_planning import plan_edits
from .expand import expand_feedback
from .models import (
    Feedback,
    STATUS_DISMISSED,
    STATUS_STAGED,
    SUBMISSION_PENDING_TESTS,
    Submission,
    next_feedback_id,
)
from .regression import run_knowledge_gate, run_regression
from .review import apply_edit
from .targets import generate_targets


class FeedbackSolver:
    """One SME session over a deployed pipeline."""

    def __init__(self, pipeline: GenEditPipeline, golden_queries=(),
                 approval_queue=None, author="sme", baseline_record=None):
        self.pipeline = pipeline
        self.golden_queries = list(golden_queries)
        self.approval_queue = approval_queue
        self.author = author
        #: Optional ledger run record (DESIGN.md §6d): regression testing
        #: reuses its recorded outcomes as the "before" side and cites the
        #: baseline run id in the regression report.
        self.baseline_record = baseline_record
        #: Session-level tracer: the four recommendation operators and the
        #: submission's regression run record timed spans here.
        self.tracer = Tracer()
        self.question = ""
        self.result = None
        self.feedback = None
        self.recommendations = []
        self._staged_ids = []
        self._iterations = 0
        #: ``((live revision, staged revision), staged edits, staged set)``
        #: of the last :meth:`staging_knowledge`.
        self._staging = (None, None, None)

    # -- generation ----------------------------------------------------------

    def ask(self, question):
        """Answer a question (the session's subject) as the deployed
        pipeline does: from the generation memo when the deployed system
        already answered it on this knowledge revision."""
        self.question = question
        self.result = self.pipeline.answer(question)
        return self.result

    def run_sql(self, sql=None):
        """Execute generated SQL so the user can inspect the output."""
        return self.pipeline.execute(sql or self.result.sql)

    # -- feedback ----------------------------------------------------------

    def give_feedback(self, text):
        """Run the four recommendation operators on free-text feedback."""
        if self.result is None:
            raise RuntimeError("Ask a question before giving feedback")
        self._iterations += 1
        self.feedback = Feedback(
            feedback_id=next_feedback_id(),
            question=self.question,
            generated_sql=self.result.sql,
            text=text,
            author=self.author,
        )
        knowledge = self.pipeline.knowledge
        with self.tracer.span(
            "feedback.recommend",
            feedback_id=self.feedback.feedback_id,
            iteration=self._iterations,
        ) as recommend:
            with self.tracer.span("feedback.targets") as span:
                targets = generate_targets(
                    self.feedback, self.result.context, knowledge
                )
                span.set_attr("targets", len(targets))
            with self.tracer.span("feedback.expand"):
                expanded = expand_feedback(self.feedback, self.result, targets)
            with self.tracer.span("feedback.plan") as span:
                steps, directives = plan_edits(self.feedback, knowledge)
                span.set_attr("steps", len(steps))
            self.last_targets = targets
            self.last_expansion = expanded
            self.last_plan = steps
            intent_ids = tuple(self.result.context.intent_ids)
            with self.tracer.span("feedback.generate_edits") as span:
                self.recommendations = generate_edits(
                    self.feedback, directives, knowledge, intent_ids=intent_ids
                )
                span.set_attr("edits", len(self.recommendations))
            recommend.set_attr("recommended", len(self.recommendations))
        get_metrics().inc(
            "feedback.recommendations", len(self.recommendations)
        )
        return self.recommendations

    # -- staging ----------------------------------------------------------

    def stage(self, *edit_ids):
        """Accept recommendations into the staging environment."""
        wanted = set(edit_ids) if edit_ids else {
            edit.edit_id for edit in self.recommendations
        }
        for edit in self.recommendations:
            if edit.edit_id in wanted:
                edit.status = STATUS_STAGED
                if edit.edit_id not in self._staged_ids:
                    self._staged_ids.append(edit.edit_id)
        return self.staged_edits()

    def dismiss(self, *edit_ids):
        for edit in self.recommendations:
            if edit.edit_id in edit_ids:
                edit.status = STATUS_DISMISSED
                if edit.edit_id in self._staged_ids:
                    self._staged_ids.remove(edit.edit_id)
        return self.staged_edits()

    def staged_edits(self):
        return [
            edit for edit in self.recommendations
            if edit.status == STATUS_STAGED
        ]

    def staging_knowledge(self):
        """A clone of the live knowledge set with staged edits applied.

        One set per list of staged edits: regenerate, the knowledge gate
        and the regression of one list share it, so each edited index is
        refit once. It is rebuilt when the live set's revision changes,
        when the staged edits or the fields :func:`apply_edit` reads of
        them change (a stage, a dismiss, a replaced payload; payloads are
        frozen), or when the staged set itself was edited since.
        """
        live = self.pipeline.knowledge
        edits = [
            (edit, edit.action, edit.kind, edit.payload,
             edit.target_component_id)
            for edit in self.staged_edits()
        ]
        revision, held_edits, staged = self._staging
        if (
            staged is None
            or revision != (live.revision, staged.revision)
            or held_edits != edits
        ):
            staged = live.clone()
            for edit, *_fields in edits:
                apply_edit(staged, edit)
            self._staging = ((live.revision, staged.revision), edits, staged)
        return staged

    # -- regenerate / iterate ----------------------------------------------------------

    def regenerate(self):
        """Regenerate the query in the staging environment (instant
        gratification: the user sees their edits make a difference)."""
        staged = self.staging_knowledge()
        self.result = self.pipeline.with_knowledge(staged).answer(
            self.question
        )
        return self.result

    @property
    def iterations(self):
        return self._iterations

    # -- submit ----------------------------------------------------------

    def submit(self):
        """Submit staged edits: lint gate + regression test, then queue.

        The knowledge gate (DESIGN.md §6f) lints the post-edit knowledge
        set and fails on error-level ``GK`` findings the live set does
        not have; regression testing still runs so the SME sees the full
        behavioural picture either way, but a gate failure rejects the
        submission even when every golden query passes.
        """
        staged_knowledge = self.staging_knowledge()
        gate = run_knowledge_gate(
            self.pipeline.database,
            self.pipeline.knowledge,
            staged_knowledge,
            tracer=self.tracer,
        )
        report = run_regression(
            self.pipeline.database,
            self.pipeline.knowledge,
            staged_knowledge,
            self.golden_queries,
            pipeline=self.pipeline,
            tracer=self.tracer,
            baseline=self.baseline_record,
        )
        submission = Submission(
            feedback=self.feedback,
            edits=self.staged_edits(),
            status=SUBMISSION_PENDING_TESTS,
            regression_report=report,
            knowledge_gate=gate,
        )
        if self.approval_queue is not None:
            self.approval_queue.enqueue(submission)
        else:
            from .models import SUBMISSION_PENDING_APPROVAL, SUBMISSION_REJECTED

            submission.status = (
                SUBMISSION_PENDING_APPROVAL
                if report.passed and gate.passed
                else SUBMISSION_REJECTED
            )
        return submission
