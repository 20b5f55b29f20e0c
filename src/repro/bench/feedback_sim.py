"""Simulated SME feedback sessions (§4.2.3).

The paper evaluates the edits-recommendation module by how many suggested
edits are accepted as-is versus after re-using the solver or manual edits.
This simulator plays the SME: for every fixable GenEdit failure on the dev
sample it writes feedback (sometimes colloquial first, then precise —
mirroring how real users iterate), runs the Feedback Solver, stages the
recommendations, regenerates, and submits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..feedback.models import SUBMISSION_PENDING_APPROVAL
from ..feedback.regression import GoldenQuery
from ..feedback.solver import FeedbackSolver
from ..pipeline.pipeline import GenEditPipeline
from .harness import ExperimentContext, run_genedit
from .metrics import execution_match
from .schemas import DEFAULT_SEED
from .workloads import _TERM_SYNONYMS, _UNKNOWN_ADJECTIVES, _VAGUE_SURFACES


@dataclass
class FeedbackSummary:
    """Aggregate §4.2.3 metrics."""

    sessions: int = 0
    recommended: int = 0
    accepted_as_is: int = 0
    accepted_after_iteration: int = 0
    rejected: int = 0
    fixed: int = 0
    details: list = field(default_factory=list)


def _vague_feedback(spec, colloquial):
    surface = next(
        (
            vague for (db, column), vague in _VAGUE_SURFACES.items()
            if db == spec.database
            and any(metric.column == column for metric in spec.metrics)
        ),
        None,
    )
    column = spec.metrics[0].column if spec.metrics else ""
    if surface is None or not column:
        return None, None
    if colloquial:
        first = (
            f"This is not what I meant by {surface} — the number looks "
            f"completely wrong."
        )
    else:
        first = None
    precise = (
        f"'{surface}' refers to the {column} column in {spec.base_table}."
    )
    return first, precise


def _adjective_feedback(spec, features):
    for entries in _UNKNOWN_ADJECTIVES.values():
        for adjective, table, predicate in entries:
            if f"trap:unknown-adjective" in features and (
                table == spec.base_table
                and any(flt.raw == predicate for flt in spec.filters)
            ):
                return (
                    f"'{adjective}' means a specific company rule; "
                    f"filter {predicate}."
                )
    return None


def _synonym_feedback(spec, features):
    term = next(
        (
            feature.split(":", 2)[2]
            for feature in features
            if feature.startswith("needs:term:")
        ),
        None,
    )
    if term is None:
        return None
    synonym = _TERM_SYNONYMS.get((spec.database, term))
    if synonym is None:
        return None
    return f"'{synonym}' means the same as {term}."

def _pattern_feedback(features):
    pattern = next(
        (
            feature.split(":", 2)[2]
            for feature in features
            if feature.startswith("needs:pattern:")
        ),
        None,
    )
    if pattern is None:
        return None
    return f"use the {pattern} idiom"


def _rare_value_feedback(spec):
    for flt in spec.filters:
        if flt.column and isinstance(flt.value, str):
            return (
                f"'{flt.value}' is a value of "
                f"{spec.base_table}.{flt.column}."
            )
    return None


def simulate_feedback_sessions(seed=DEFAULT_SEED, context=None, limit=None,
                               report=None):
    """Run feedback sessions over fixable GenEdit failures.

    ``report`` is GenEdit's evaluation on ``context`` when the caller
    already has it (``bench all`` passes Table 1's); without one the
    sessions evaluate GenEdit first.
    """
    context = context or ExperimentContext(seed)
    if report is None:
        report = run_genedit(context)
    summary = FeedbackSummary()
    question_index = {
        question.question_id: question
        for question in context.workload.questions
    }
    failures = [
        outcome for outcome in report.failures()
        if _feedback_for(question_index[outcome.question_id]) is not None
    ]
    if limit is not None:
        failures = failures[:limit]
    for session_number, outcome in enumerate(failures):
        question = question_index[outcome.question_id]
        rounds = _feedback_for(question, session_number)
        if rounds is None:
            continue
        profile = context.profiles[question.database]
        knowledge = context.knowledge_sets[question.database].clone()
        pipeline = GenEditPipeline(profile.database, knowledge)
        golden = [
            GoldenQuery(entry.question, entry.sql)
            for entry in context.workload.training_logs[question.database][:3]
        ]
        solver = FeedbackSolver(pipeline, golden_queries=golden)
        solver.ask(question.question)
        summary.sessions += 1
        fixed = False
        iterations_used = 0
        for feedback_text in rounds:
            if feedback_text is None:
                continue
            iterations_used += 1
            recommendations = solver.give_feedback(feedback_text)
            summary.recommended += len(recommendations)
            solver.stage()
            result = solver.regenerate()
            if execution_match(
                profile.database, result.sql, question.gold_sql
            ):
                fixed = True
                break
        if fixed:
            submission = solver.submit()
            accepted = submission.status == SUBMISSION_PENDING_APPROVAL
            if accepted and iterations_used == 1:
                summary.accepted_as_is += len(solver.staged_edits())
            elif accepted:
                summary.accepted_after_iteration += len(solver.staged_edits())
            else:
                summary.rejected += len(solver.staged_edits())
            summary.fixed += 1 if accepted else 0
        else:
            summary.rejected += len(solver.staged_edits())
        summary.details.append(
            (question.question_id, fixed, iterations_used)
        )
    return summary


def _feedback_for(question, session_number=0):
    """The SME's feedback rounds for a failing question, or None."""
    features = question.features
    spec = question.spec
    if "trap:vague" in features:
        colloquial = session_number % 2 == 0
        first, precise = _vague_feedback(spec, colloquial)
        if precise is None:
            return None
        return [first, precise] if first else [precise]
    if "trap:unknown-adjective" in features:
        text = _adjective_feedback(spec, features)
        return [text] if text else None
    if "trap:term-synonym" in features:
        text = _synonym_feedback(spec, features)
        return [text] if text else None
    if "trap:rare-value" in features:
        text = _rare_value_feedback(spec)
        return [text] if text else None
    if any(feature.startswith("needs:pattern:") for feature in features):
        text = _pattern_feedback(features)
        return [text] if text else None
    return None
