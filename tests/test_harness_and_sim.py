"""Harness, enterprise workload, and feedback-simulator tests."""

import pytest

from repro.bench.enterprise import build_enterprise_workload
from repro.bench.feedback_sim import _feedback_for, simulate_feedback_sessions
from repro.bench.harness import (
    evaluate_system,
    format_table,
    run_genedit,
)
from repro.bench.metrics import execution_match
from repro.pipeline import GenEditPipeline
from repro.pipeline.config import DEFAULT_CONFIG


class TestFormatTable:
    def test_alignment_and_floats(self):
        table = format_table(
            "T", ["A", "Bee"], [("x", 1.0), ("longer", 12.345)]
        )
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "12.35" in table  # floats rendered to 2 decimals
        assert all(
            len(line) == len(lines[1]) for line in lines[2:]
        )


class TestHarnessMain:
    def test_unknown_target_exits_2(self, capsys):
        from repro.bench.harness import main

        with pytest.raises(SystemExit) as exit_info:
            main(["tabel1"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'tabel1'" in capsys.readouterr().err

    def test_unknown_option_exits_2(self):
        from repro.bench.harness import main

        with pytest.raises(SystemExit) as exit_info:
            main(["table1", "--limt", "3"])
        assert exit_info.value.code == 2

    def test_no_target_means_all(self):
        from repro.cli import build_arg_parser

        args = build_arg_parser().parse_args(["bench", "--limit", "3"])
        assert (args.experiment, args.limit) == ("all", 3)


class TestEvaluateSystem:
    def test_subset_evaluation(self, experiment_context):
        questions = experiment_context.workload.questions[:5]
        report = evaluate_system(
            lambda db, ks: GenEditPipeline(db, ks, config=DEFAULT_CONFIG),
            experiment_context.workload,
            experiment_context.profiles,
            experiment_context.knowledge_sets,
            "subset",
            questions=questions,
        )
        assert len(report.outcomes) == 5
        assert all(outcome.predicted_sql is not None
                   for outcome in report.outcomes)

    def test_outcomes_carry_cost(self, experiment_context):
        questions = experiment_context.workload.questions[:2]
        report = evaluate_system(
            lambda db, ks: GenEditPipeline(db, ks),
            experiment_context.workload,
            experiment_context.profiles,
            experiment_context.knowledge_sets,
            "subset",
            questions=questions,
        )
        assert report.total_cost_usd > 0

    def test_run_genedit_deterministic(self, experiment_context):
        first = run_genedit(
            experiment_context,
            questions=experiment_context.workload.questions[:10],
        )
        second = run_genedit(
            experiment_context,
            questions=experiment_context.workload.questions[:10],
        )
        assert [o.correct for o in first.outcomes] == [
            o.correct for o in second.outcomes
        ]


class TestEnterpriseWorkload:
    def test_gold_sql_executes(self, experiment_context):
        workload = build_enterprise_workload()
        database = experiment_context.profiles["sports_holdings"].database
        from repro.engine import Executor

        for question in workload.questions:
            Executor(database).execute(question.gold_sql)

    def test_genedit_dominates_enterprise(self, experiment_context):
        workload = build_enterprise_workload()
        report = evaluate_system(
            lambda db, ks: GenEditPipeline(db, ks),
            workload,
            experiment_context.profiles,
            experiment_context.knowledge_sets,
            "GenEdit",
            questions=workload.questions,
        )
        assert report.accuracy() >= 70.0

    def test_ratio_questions_multi_cte(self):
        workload = build_enterprise_workload()
        ratio = [
            question for question in workload.questions
            if "kind:ratio-delta" in question.features
        ]
        assert all("WITH" in question.gold_sql for question in ratio)
        assert all(
            "NULLIF" in question.gold_sql for question in ratio
        )


class TestFeedbackSimulator:
    def test_feedback_text_for_vague_trap(self, experiment_context):
        question = next(
            q for q in experiment_context.workload.questions
            if "trap:vague" in q.features
        )
        rounds = _feedback_for(question, session_number=1)
        assert rounds
        assert "refers to the" in rounds[-1]

    def test_feedback_for_unknown_adjective(self, experiment_context):
        question = next(
            q for q in experiment_context.workload.questions
            if "trap:unknown-adjective" in q.features
        )
        rounds = _feedback_for(question)
        assert rounds and "filter" in rounds[0]

    def test_feedback_for_pattern_gap(self, experiment_context):
        question = next(
            q for q in experiment_context.workload.questions
            if q.difficulty == "challenging"
            and any(f.startswith("needs:pattern:share") for f in q.features)
        )
        rounds = _feedback_for(question)
        assert rounds and "idiom" in rounds[0]

    def test_plain_failures_have_no_scripted_feedback(
        self, experiment_context
    ):
        question = next(
            q for q in experiment_context.workload.questions
            if not any(f.startswith(("trap:", "needs:")) for f in q.features)
        )
        assert _feedback_for(question) is None

    def test_limited_simulation(self, experiment_context):
        summary = simulate_feedback_sessions(
            context=experiment_context, limit=4
        )
        assert summary.sessions == 4
        assert summary.recommended >= 4
        assert len(summary.details) == 4

    def test_simulation_leaves_live_knowledge_untouched(
        self, experiment_context
    ):
        knowledge_sets = experiment_context.knowledge_sets
        before = knowledge_sets["sports_holdings"].stats()
        revisions = {
            name: knowledge.revision
            for name, knowledge in knowledge_sets.items()
        }
        simulate_feedback_sessions(context=experiment_context, limit=3)
        after = knowledge_sets["sports_holdings"].stats()
        assert before == after
        assert revisions == {
            name: knowledge.revision
            for name, knowledge in knowledge_sets.items()
        }


class TestEngineStatsIsolation:
    """reset_engine_stats() at profile boundaries: back-to-back runs must
    not leak predicate-cache or operator counters into the next payload."""

    COUNTERS = (
        "columnar_selects", "row_fallback_selects", "hash_joins",
        "loop_joins",
    )

    def _run_workload(self, demo_db):
        from repro.engine import Executor

        executor = Executor(demo_db)
        executor.execute(
            "SELECT EMP_NAME FROM EMP WHERE SALARY > 100"
        )
        executor.execute(
            "SELECT DEPT_NAME, BUDGET FROM DEPT WHERE REGION = 'West'"
        )

    def test_reset_zeroes_counters_and_predicate_cache(self, demo_db):
        from repro.engine import (
            engine_snapshot,
            reset_engine_stats,
        )

        reset_engine_stats()
        self._run_workload(demo_db)
        polluted = engine_snapshot()
        assert sum(polluted[key] for key in self.COUNTERS) > 0
        reset_engine_stats()
        clean = engine_snapshot()
        assert all(clean[key] == 0 for key in self.COUNTERS)
        assert clean["rewrite_s"] == 0.0 and clean["compile_s"] == 0.0
        assert clean["predicate_cache"]["entries"] == 0
        assert clean["predicate_cache"]["hits"] == 0

    def test_back_to_back_runs_have_identical_counters(self, demo_db):
        from repro.engine import (
            engine_snapshot,
            reset_engine_stats,
        )

        reset_engine_stats()
        self._run_workload(demo_db)
        first = engine_snapshot()
        reset_engine_stats()
        self._run_workload(demo_db)
        second = engine_snapshot()
        assert [second[key] for key in self.COUNTERS] == [
            first[key] for key in self.COUNTERS
        ]
        assert second["predicate_cache"] == first["predicate_cache"]

    def test_profile_payload_does_not_inherit_pollution(
        self, demo_db, experiment_context
    ):
        from repro.bench.harness import profile
        from repro.engine import engine_snapshot

        # Pollute the process-global counters, then take an empty profile:
        # its engine payload must reflect the reset boundary, not ours.
        self._run_workload(demo_db)
        assert sum(
            engine_snapshot()[key] for key in self.COUNTERS
        ) > 0
        payload = profile(context=experiment_context, limit=0)
        engine = payload["engine"]
        assert all(engine[key] == 0 for key in self.COUNTERS)
        assert engine["predicate_cache"]["entries"] == 0
