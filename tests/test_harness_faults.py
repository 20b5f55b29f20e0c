"""Harness hardening: worker failures become per-question outcomes.

Pins the behaviour ISSUE 4's satellite demands: an exception inside an
``evaluate_system`` worker — in ``generate``, in the EX check, or while
building the pipeline — yields an incorrect outcome with a populated
``error`` field for the affected question(s), in stable workload order,
instead of aborting the experiment.
"""

from repro.bench.harness import evaluate_system
from repro.pipeline import GenEditPipeline


class _ExplodingPipeline:
    """Delegates to GenEdit but raises for marked questions."""

    def __init__(self, database, knowledge, marker):
        self._inner = GenEditPipeline(database, knowledge)
        self._marker = marker

    def generate(self, question):
        if self._marker in question.lower():
            raise RuntimeError(f"worker blew up on {question!r}")
        return self._inner.generate(question)


def _subset(experiment_context, per_db=3):
    questions = []
    seen = {}
    for question in experiment_context.workload.questions:
        if seen.get(question.database, 0) < per_db:
            seen[question.database] = seen.get(question.database, 0) + 1
            questions.append(question)
    return questions


def _evaluate(experiment_context, make_pipeline, questions,
              trace_sink=None):
    return evaluate_system(
        make_pipeline,
        experiment_context.workload,
        experiment_context.profiles,
        experiment_context.knowledge_sets,
        "hardened",
        questions=questions,
        trace_sink=trace_sink,
    )


class TestWorkerFailureHardening:
    def test_generate_exception_becomes_error_outcome(
        self, experiment_context
    ):
        questions = _subset(experiment_context)
        marker = questions[0].question.split()[-1].strip("?").lower()
        report = _evaluate(
            experiment_context,
            lambda db, ks: _ExplodingPipeline(db, ks, marker),
            questions,
        )
        assert len(report.outcomes) == len(questions)
        assert [o.question_id for o in report.outcomes] == \
            [q.question_id for q in questions]
        exploded = [
            o for o, q in zip(report.outcomes, questions)
            if marker in q.question.lower()
        ]
        assert exploded
        for outcome in exploded:
            assert not outcome.correct
            assert outcome.predicted_sql == ""
            assert outcome.error.startswith("RuntimeError: worker blew up")
        # The untouched questions still evaluated normally.
        assert any(
            o.correct for o, q in zip(report.outcomes, questions)
            if marker not in q.question.lower()
        )

    def test_make_pipeline_failure_marks_whole_group(
        self, experiment_context
    ):
        questions = _subset(experiment_context)
        broken_db = questions[0].database

        def make_pipeline(database, knowledge):
            if database.name == broken_db:
                raise OSError("pipeline bootstrap failed")
            return GenEditPipeline(database, knowledge)

        report = _evaluate(experiment_context, make_pipeline, questions)
        assert len(report.outcomes) == len(questions)
        for outcome in report.outcomes:
            if outcome.database == broken_db:
                assert not outcome.correct
                assert outcome.error == "OSError: pipeline bootstrap failed"
            else:
                assert outcome.correct or outcome.error

    def test_trace_sink_stays_in_workload_order_despite_failures(
        self, experiment_context
    ):
        questions = _subset(experiment_context)
        marker = questions[0].question.split()[-1].strip("?").lower()
        sink = []
        report = _evaluate(
            experiment_context,
            lambda db, ks: _ExplodingPipeline(db, ks, marker),
            questions,
            trace_sink=sink,
        )
        roots = [
            record for record in sink if record.get("parent_id") is None
        ]
        survivors = [
            q.question_id for q in questions
            if marker not in q.question.lower()
        ]
        # One root per surviving question, in workload order; failed
        # questions contribute no records but never disturb the order.
        assert [
            root["attributes"]["question_id"] for root in roots
        ] == survivors
        assert len(report.outcomes) == len(questions)

    def test_incorrect_outcomes_always_carry_an_error(
        self, experiment_context
    ):
        questions = _subset(experiment_context, per_db=4)
        report = _evaluate(
            experiment_context,
            lambda db, ks: GenEditPipeline(db, ks),
            questions,
        )
        for outcome in report.outcomes:
            if outcome.correct:
                assert outcome.error == ""
            else:
                assert outcome.error
