"""Cold-vs-warm equivalence of the submit memos over SME sessions.

Replays every simulated feedback session of each seed (the sessions
``repro bench feedback`` runs). Two memos serve a submit, and the script
checks both at each one:

* The knowledge gate runs as it does in production, with the lint memo
  warm from earlier lints. The script then lints the live and the staged
  set again, warm, and once more cold: with the database's lint memo and
  the ``parses`` cache cleared before every lint, and near-duplicates
  scored on a fresh TF-IDF fit rather than the example index's vectors.
  It requires identical findings in identical order and an identical
  gate report.
* The regression run goes through the golden-query outcome memo, warm
  from earlier submits. The script recomputes it cold, with no memo read:
  fresh live and staged pipelines generate every golden query, and fresh
  executors compare each result with the gold one. It requires an
  identical report, result by result.

Exits 1 on any difference.

    PYTHONPATH=src python scripts/check_gate_memo.py 7 41
"""

from __future__ import annotations

import sys
from collections import Counter
from unittest import mock

import repro.feedback.solver as solver_module
import repro.knowledge.lint as lint_package
from repro.bench.feedback_sim import simulate_feedback_sessions
from repro.engine.errors import ExecutionError
from repro.engine.executor import Executor
from repro.feedback.regression import (
    RegressionReport,
    RegressionResult,
    _error_codes,
)
from repro.knowledge import KnowledgeSet
from repro.knowledge.lint import checker
from repro.pipeline.pipeline import GenEditPipeline
from repro.sql.diagnostics import DiagnosticsEngine
from repro.sql.errors import SqlError
from repro.sql.parser import parses
from repro.text.similarity import l2_norm
from repro.text.vectorize import TfIdfVectorizer


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
    # Only the lint memo: clear_memos() would also drop the regression
    # memo each submit reads next, and the replay would never run warm.
    database.memo("knowledge_lint").clear()
    parses.cache_clear()
    with mock.patch.object(KnowledgeSet, "example_vectors",
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


def _cold_regression(database, live, staged, golden_queries, config=None):
    """The regression report with every golden query generated afresh."""
    before = GenEditPipeline(database, live, config=config)
    after = GenEditPipeline(database, staged, config=config)
    engine = DiagnosticsEngine(database)
    report = RegressionReport()
    for golden in golden_queries:
        sql_before = before.generate(golden.question).sql
        sql_after = after.generate(golden.question).sql
        codes_before = _error_codes(engine, sql_before)
        codes_after = _error_codes(engine, sql_after)
        report.results.append(RegressionResult(
            question=golden.question,
            correct_before=_cold_match(database, sql_before,
                                       golden.gold_sql),
            correct_after=_cold_match(database, sql_after, golden.gold_sql),
            new_error_codes=tuple(sorted(codes_after - codes_before)),
        ))
    return report


def check_seed(seed, context=None):
    """Replay ``seed``'s sessions; returns ``(submits checked, mismatches)``.

    Each mismatch line names its check: ``gate`` or ``regression``.
    """
    mismatches = []
    gates = 0
    regressions = 0
    real_gate = solver_module.run_knowledge_gate
    real_regression = solver_module.run_regression

    def checked_gate(database, live, staged, tracer=None):
        nonlocal gates
        gates += 1
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
                mismatches.append(f"seed {seed} gate {gates}: {side} "
                                  f"findings differ")
        if warm_gate != cold_gate or warm_gate.passed != cold_gate.passed:
            mismatches.append(f"seed {seed} gate {gates}: gate reports "
                              f"differ ({warm_gate.summary()} vs "
                              f"{cold_gate.summary()})")
        return warm_gate

    def checked_regression(database, live, staged, golden_queries,
                           config=None, tracer=None, baseline=None):
        nonlocal regressions
        regressions += 1
        if baseline is not None:
            raise ValueError("the replayed sessions have no baseline record")
        warm = real_regression(database, live, staged, golden_queries,
                               config=config, tracer=tracer)
        cold = _cold_regression(database, live, staged, golden_queries,
                                config=config)
        if warm.results != cold.results or warm.passed != cold.passed:
            mismatches.append(f"seed {seed} regression {regressions}: "
                              f"reports differ ({warm.summary()} vs "
                              f"{cold.summary()})")
        return warm

    with mock.patch.object(solver_module, "run_knowledge_gate",
                           checked_gate), \
            mock.patch.object(solver_module, "run_regression",
                              checked_regression):
        simulate_feedback_sessions(seed=seed, context=context)
    if regressions != gates:
        mismatches.append(f"seed {seed}: {gates} gate(s) but "
                          f"{regressions} regression run(s)")
    return gates, mismatches


def main(argv):
    seeds = [int(arg) for arg in argv] or [7]
    failed = False
    for seed in seeds:
        submits, mismatches = check_seed(seed)
        for line in mismatches:
            print(line)
        counts = {
            kind: sum(1 for line in mismatches if f" {kind} " in line)
            for kind in ("gate", "regression")
        }
        failed = failed or bool(mismatches) or not submits
        print(f"seed {seed}: {submits} submit(s), "
              f"{counts['gate']} gate mismatch(es), "
              f"{counts['regression']} regression mismatch(es)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
