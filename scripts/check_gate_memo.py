"""Cold-vs-warm equivalence of the feedback loop's memos over SME sessions.

Replays every simulated feedback session of each seed (the sessions
``repro bench feedback`` runs) and checks each step against a cold
recomputation:

* Each ``ask`` and ``regenerate`` answers as the solver does, from the
  generation memo when it holds the question (``GenEditPipeline.answer``).
  The script then calls ``database.clear_memos()`` and generates the
  question afresh, with a fresh pipeline on a fresh knowledge set rebuilt
  from the same components, and requires the same SQL, success, error
  and operator digest trail.
* The knowledge gate runs as it does in production, with the lint memo
  warm from earlier lints. The script then lints the live and the staged
  set again, warm, and once more cold: with the database's memos and the
  ``parses`` cache cleared before every lint, and near-duplicates
  scored on a fresh TF-IDF fit rather than the example index's vectors.
  It requires identical findings in identical order and an identical
  gate report.
* The regression run reads the generation memo, warm from the session and
  earlier submits. The script recomputes it cold, after
  ``database.clear_memos()``: fresh pipelines on rebuilt live and staged
  sets generate every golden query, a fresh diagnostics engine lints each
  SQL, and fresh executors compare each result with the gold one. It
  requires an identical report, result by result.

Each cold step runs after the warm one, and the warm memos are put back
after it, so the replay's warm steps read what an unchecked replay
reads. Exits 1 on any difference.

The warm steps should also reuse work through the two memos below the
generation memo: a staged run reads a candidate's execution outcome from
the database's execution memo (``execution.memo_hits``) and a repeated
search from its fitted state's result memo (``retrieval.memo_hits``). The
script prints each count, summed over the warm steps only, and exits 1
when either is 0, since then the replay did not exercise that memo.

    PYTHONPATH=src python scripts/check_gate_memo.py 7 41
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import repro.feedback.solver as solver_module
import repro.knowledge.lint as lint_package
from repro.bench.feedback_sim import simulate_feedback_sessions
from repro.engine.errors import ExecutionError
from repro.engine.executor import Executor
from repro.feedback.regression import RegressionReport, RegressionResult
from repro.feedback.solver import FeedbackSolver
from repro.knowledge import KnowledgeSet
from repro.knowledge.lint import checker
from repro.obs.metrics import get_metrics
from repro.pipeline.pipeline import GenEditPipeline
from repro.sql.diagnostics import DiagnosticsEngine
from repro.sql.diagnostics.core import error_codes
from repro.sql.errors import SqlError
from repro.sql.parser import parses
from repro.text.similarity import l2_norm
from repro.text.vectorize import TfIdfVectorizer

#: The mismatch kinds, in report order.
KINDS = ("ask", "regenerate", "gate", "regression")

#: ``counts`` key -> the registry counter of a memo the warm steps read.
WARM_HITS = {
    "execution_hits": "execution.memo_hits",
    "search_hits": "retrieval.memo_hits",
}


def _rebuild(knowledge):
    """A fresh set with ``knowledge``'s components: no shared index,
    fitted state or query memo, and a revision of its own."""
    return KnowledgeSet(knowledge.name).restore(knowledge.snapshot())


@contextmanager
def _memos_cleared(database):
    """``database.clear_memos()`` for the block; the warm memos come back
    after it, so the cold step neither reads an entry nor leaves one, and
    the replay's next warm step reads what it would have read unchecked."""
    held = database._memos
    database.clear_memos()
    try:
        yield
    finally:
        database._memos = held


def _cold_generate(pipeline, knowledge, question):
    """``question`` generated with the database's memos cleared, by a
    fresh copy of ``pipeline`` on a rebuilt copy of ``knowledge``."""
    with _memos_cleared(pipeline.database):
        return pipeline.with_knowledge(_rebuild(knowledge)).generate(
            question
        )


def _outcome(result):
    return (result.sql, result.success, result.error,
            result.operator_digests)


def _fresh_example_vectors(knowledge):
    """Example vectors from a fresh TF-IDF fit, not the example index."""
    examples = knowledge.examples()
    vectorizer = TfIdfVectorizer()
    fitted = vectorizer.fit_transform(
        Counter(vectorizer.terms_for(example.retrieval_text))
        for example in examples
    )
    return {
        example.example_id: (vector, l2_norm(vector))
        for example, vector in zip(examples, fitted)
    }


def _cold_lint(knowledge, database, value_k=5):
    # Every database memo, so GK005 executes each example afresh; the warm
    # memos come back for the regression to read next.
    parses.cache_clear()
    with _memos_cleared(database), \
            mock.patch.object(KnowledgeSet, "example_vectors",
                              _fresh_example_vectors):
        return checker.lint_knowledge(knowledge, database, value_k)


def _cold_match(database, predicted_sql, gold_sql):
    """Execution match through fresh executors, reading no memo."""
    gold = Executor(database).execute(gold_sql).comparable()
    if not predicted_sql:
        return False
    try:
        predicted = Executor(database).execute(predicted_sql).comparable()
    except (SqlError, ExecutionError):
        return False
    return predicted == gold


def _cold_codes(engine, sql):
    """Error-level diagnostic codes of ``sql`` from ``engine``."""
    return frozenset(error_codes(engine.run_sql(sql))) if sql else frozenset()


def _cold_regression(database, live, staged, golden_queries, pipeline=None):
    """The regression report with every golden query generated afresh,
    with the database's memos cleared, by fresh copies of ``pipeline``
    (default pipelines when ``None``)."""
    pipeline = pipeline or GenEditPipeline(database, live)
    with _memos_cleared(database):
        before = pipeline.with_knowledge(_rebuild(live))
        after = pipeline.with_knowledge(_rebuild(staged))
        engine = DiagnosticsEngine(database)
        report = RegressionReport()
        for golden in golden_queries:
            sql_before = before.generate(golden.question).sql
            sql_after = after.generate(golden.question).sql
            codes_before = _cold_codes(engine, sql_before)
            codes_after = _cold_codes(engine, sql_after)
            report.results.append(RegressionResult(
                question=golden.question,
                correct_before=_cold_match(database, sql_before,
                                           golden.gold_sql),
                correct_after=_cold_match(database, sql_after,
                                          golden.gold_sql),
                new_error_codes=tuple(sorted(codes_after - codes_before)),
            ))
        return report


def check_seed(seed, context=None):
    """Replay ``seed``'s sessions; returns ``(counts, mismatches)``.

    ``counts`` maps each of :data:`KINDS` to the steps checked,
    ``"memo_hits"`` to the asks and regenerates answered from the memo,
    and each key of :data:`WARM_HITS` to that memo's hits in the warm
    steps. Each mismatch line names its kind.
    """
    mismatches = []
    counts = dict.fromkeys(KINDS, 0)
    counts["memo_hits"] = 0
    counts.update(dict.fromkeys(WARM_HITS, 0))
    metrics = get_metrics()

    @contextmanager
    def warm_step():
        """Adds the block's memo hits to ``counts``."""
        before = {key: metrics.counter_value(counter)
                  for key, counter in WARM_HITS.items()}
        try:
            yield
        finally:
            for key, counter in WARM_HITS.items():
                counts[key] += metrics.counter_value(counter) - before[key]

    real_gate = solver_module.run_knowledge_gate
    real_regression = solver_module.run_regression
    real_ask = FeedbackSolver.ask
    real_regenerate = FeedbackSolver.regenerate

    def compare(kind, warm, pipeline, knowledge, question):
        counts[kind] += 1
        counts["memo_hits"] += warm.memo_hit
        cold = _cold_generate(pipeline, knowledge, question)
        if _outcome(warm) != _outcome(cold):
            source = "memo" if warm.memo_hit else "generated"
            mismatches.append(f"seed {seed} {kind} {counts[kind]}: the "
                              f"{source} answer to {question!r} differs")
        return warm

    def checked_ask(solver, question):
        with warm_step():
            warm = real_ask(solver, question)
        pipeline = solver.pipeline
        return compare("ask", warm, pipeline, pipeline.knowledge, question)

    def checked_regenerate(solver):
        with warm_step():
            warm = real_regenerate(solver)
        return compare("regenerate", warm, solver.pipeline,
                       solver.staging_knowledge(), solver.question)

    def checked_gate(database, live, staged, tracer=None):
        counts["gate"] += 1
        with warm_step():
            warm_gate = real_gate(database, live, staged, tracer=tracer)
        warm = [checker.lint_knowledge(live, database),
                checker.lint_knowledge(staged, database)]
        cold = [_cold_lint(live, database), _cold_lint(staged, database)]
        with mock.patch.object(lint_package, "lint_knowledge", _cold_lint):
            cold_gate = real_gate(database, live, staged)
        for side, warm_findings, cold_findings in zip(
            ("live", "staged"), warm, cold
        ):
            if warm_findings != cold_findings:
                mismatches.append(f"seed {seed} gate {counts['gate']}: "
                                  f"{side} findings differ")
        if warm_gate != cold_gate or warm_gate.passed != cold_gate.passed:
            mismatches.append(f"seed {seed} gate {counts['gate']}: gate "
                              f"reports differ ({warm_gate.summary()} vs "
                              f"{cold_gate.summary()})")
        return warm_gate

    def checked_regression(database, live, staged, golden_queries,
                           pipeline=None, tracer=None, baseline=None):
        counts["regression"] += 1
        if baseline is not None:
            raise ValueError("the replayed sessions have no baseline record")
        with warm_step():
            warm = real_regression(database, live, staged, golden_queries,
                                   pipeline=pipeline, tracer=tracer)
        cold = _cold_regression(database, live, staged, golden_queries,
                                pipeline)
        if warm.results != cold.results or warm.passed != cold.passed:
            mismatches.append(f"seed {seed} regression "
                              f"{counts['regression']}: reports differ "
                              f"({warm.summary()} vs {cold.summary()})")
        return warm

    with mock.patch.object(solver_module, "run_knowledge_gate",
                           checked_gate), \
            mock.patch.object(solver_module, "run_regression",
                              checked_regression), \
            mock.patch.object(FeedbackSolver, "ask", checked_ask), \
            mock.patch.object(FeedbackSolver, "regenerate",
                              checked_regenerate):
        simulate_feedback_sessions(seed=seed, context=context)
    if counts["regression"] != counts["gate"]:
        mismatches.append(f"seed {seed}: {counts['gate']} gate(s) but "
                          f"{counts['regression']} regression run(s)")
    return counts, mismatches


def main(argv):
    seeds = [int(arg) for arg in argv] or [7]
    failed = False
    for seed in seeds:
        counts, mismatches = check_seed(seed)
        for line in mismatches:
            print(line)
        kinds = {
            kind: sum(1 for line in mismatches if f" {kind} " in line)
            for kind in KINDS
        }
        failed = (failed or bool(mismatches) or not counts["gate"]
                  or not all(counts[key] for key in WARM_HITS))
        print(f"seed {seed}: {counts['ask']} ask(s) and "
              f"{counts['regenerate']} regenerate(s), {counts['memo_hits']} "
              f"from the generation memo; {counts['gate']} submit(s); "
              + ", ".join(f"{kinds[kind]} {kind} mismatch(es)"
                          for kind in KINDS))
        print(f"seed {seed}: warm steps read {counts['execution_hits']} "
              f"execution outcome(s) from the execution memo and "
              f"{counts['search_hits']} search(es) from the result memo")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
