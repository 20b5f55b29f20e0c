"""Tests for the schema-aware diagnostics engine and its pipeline wiring."""

from __future__ import annotations

import io
import json
from types import SimpleNamespace

import pytest

from repro.bench.metrics import QuestionOutcome
from repro.knowledge.lint import KNOWLEDGE_RULES
from repro.pipeline.base import (
    GenerationResult, Plan, PlanStep, PipelineContext,
)
from repro.pipeline.config import DEFAULT_CONFIG
from repro.pipeline.correction import SelfCorrectionOperator
from repro.pipeline.generation import GenerationOperator
from repro.pipeline.plan_lint import PLAN_RULES
from repro.sql.diagnostics import (
    RULES,
    DiagnosticsEngine,
    Severity,
    aggregate_functions,
    diagnose,
    error_count,
    severity_score,
    warning_count,
    window_functions,
)
from repro.sql.diagnostics.core import Finding, error_codes

# ---------------------------------------------------------------------------
# Golden pairs: for every rule code, SQL that fires it and SQL that doesn't.
# All run against the demo_db fixture (DEPT/EMP; see conftest.py).
# ---------------------------------------------------------------------------

GOLDEN = {
    "GE000": (
        "SELECT FROM WHERE",
        "SELECT EMP_ID FROM EMP",
    ),
    "GE001": (
        "SELECT 1 FROM NOPE",
        "SELECT 1 FROM EMP",
    ),
    "GE002": (
        "SELECT EMP_NAM FROM EMP",
        "SELECT EMP_NAME FROM EMP",
    ),
    "GE003": (
        "SELECT DEPT_ID FROM EMP JOIN DEPT ON EMP.DEPT_ID = DEPT.DEPT_ID",
        "SELECT EMP.DEPT_ID FROM EMP JOIN DEPT ON EMP.DEPT_ID = DEPT.DEPT_ID",
    ),
    "GE004": (
        "SELECT EMP_NAME FROM EMP WHERE SUM(SALARY) > 10",
        "SELECT DEPT_ID FROM EMP GROUP BY DEPT_ID HAVING SUM(SALARY) > 10",
    ),
    "GE005": (
        "SELECT EMP_ID FROM EMP UNION SELECT DEPT_ID, DEPT_NAME FROM DEPT",
        "SELECT EMP_ID FROM EMP UNION SELECT DEPT_ID FROM DEPT",
    ),
    "GE006": (
        "WITH c(a, b) AS (SELECT EMP_ID FROM EMP) SELECT a FROM c",
        "WITH c(a) AS (SELECT EMP_ID FROM EMP) SELECT a FROM c",
    ),
    "GE007": (
        "SELECT *",
        "SELECT * FROM EMP",
    ),
    "GE008": (
        "SELECT EMP_NAME FROM EMP ORDER BY 5",
        "SELECT EMP_NAME FROM EMP ORDER BY 1",
    ),
    "GE009": (
        "SELECT 1 FROM EMP AS x, DEPT AS x WHERE 1 = 1",
        "SELECT 1 FROM EMP AS x, DEPT AS y WHERE 1 = 1",
    ),
    "GE010": (
        "SELECT HIRED + 1 FROM EMP",
        "SELECT SALARY + 1 FROM EMP",
    ),
    "GE011": (
        "SELECT EMP_NAME FROM EMP WHERE EMP_NAME > 5",
        "SELECT EMP_NAME FROM EMP WHERE SALARY > 5",
    ),
    "GE012": (
        "SELECT EMP_NAME, COUNT(*) FROM EMP GROUP BY DEPT_ID",
        "SELECT DEPT_ID, COUNT(*) FROM EMP GROUP BY DEPT_ID",
    ),
    "GE013": (
        "SELECT EMP_NAME FROM EMP HAVING SALARY > 100",
        "SELECT DEPT_ID FROM EMP GROUP BY DEPT_ID HAVING COUNT(*) > 1",
    ),
    "GE014": (
        "WITH c AS (SELECT EMP_ID AS i FROM EMP) SELECT EMP_ID FROM EMP",
        "WITH c AS (SELECT EMP_ID AS i FROM EMP) SELECT i FROM c",
    ),
    "GE015": (
        "SELECT EMP_NAME FROM EMP, DEPT",
        "SELECT EMP_NAME FROM EMP, DEPT WHERE EMP.DEPT_ID = DEPT.DEPT_ID",
    ),
    "GE016": (
        "SELECT EMP_NAME FROM EMP UNION SELECT DEPT_ID FROM DEPT",
        "SELECT EMP_NAME FROM EMP UNION SELECT DEPT_NAME FROM DEPT",
    ),
    "GE017": (
        "SELECT DEPT_NAME FROM DEPT WHERE REGION = 'west'",
        "SELECT DEPT_NAME FROM DEPT WHERE REGION = 'West'",
    ),
}


def codes(database, sql):
    return {diag.code for diag in diagnose(sql, database)}


class TestRuleRegistry:
    def test_at_least_twelve_rules(self):
        assert len(RULES) >= 12

    def test_codes_are_stable_and_unique(self):
        assert sorted(RULES) == [f"GE{i:03d}" for i in range(len(RULES))]
        for code, rule in RULES.items():
            assert rule.code == code
            assert isinstance(rule.severity, Severity)
            assert rule.summary
            assert rule.slug and rule.slug == rule.slug.lower()

    def test_every_rule_has_a_golden_pair(self):
        assert set(GOLDEN) == set(RULES)


class TestGoldenPairs:
    @pytest.mark.parametrize("code", sorted(GOLDEN))
    def test_rule_fires_on_bad_sql(self, demo_db, code):
        bad_sql, _clean_sql = GOLDEN[code]
        assert code in codes(demo_db, bad_sql)

    @pytest.mark.parametrize("code", sorted(GOLDEN))
    def test_rule_silent_on_clean_sql(self, demo_db, code):
        _bad_sql, clean_sql = GOLDEN[code]
        assert code not in codes(demo_db, clean_sql)

    def test_error_rules_match_engine_behaviour(self, demo_db, executor):
        """The severity contract: error-level SQL also fails execution."""
        from repro.engine.errors import ExecutionError
        from repro.sql.errors import SqlError

        for code, (bad_sql, _clean) in GOLDEN.items():
            if RULES[code].severity is not Severity.ERROR:
                continue
            with pytest.raises((SqlError, ExecutionError)):
                executor.execute(bad_sql)

    def test_warning_rules_execute_cleanly(self, demo_db, executor):
        for code, (bad_sql, _clean) in GOLDEN.items():
            if RULES[code].severity is not Severity.WARNING:
                continue
            executor.execute(bad_sql)  # tolerated by the engine


class TestDiagnosticRecords:
    def test_span_points_at_the_offending_token(self, demo_db):
        diagnostics = diagnose("SELECT EMP_NAM FROM EMP", demo_db)
        (diag,) = [d for d in diagnostics if d.code == "GE002"]
        assert diag.span is not None
        assert (diag.span.line, diag.span.column) == (1, 8)
        assert "1:8" in diag.render()

    def test_syntax_error_carries_span(self, demo_db):
        diagnostics = diagnose("SELECT 1 FROM", demo_db)
        (diag,) = diagnostics
        assert diag.code == "GE000" and diag.is_error
        assert diag.span is not None

    def test_unknown_column_suggestion(self, demo_db):
        (diag,) = [
            d for d in diagnose("SELECT EMP_NAM FROM EMP", demo_db)
            if d.code == "GE002"
        ]
        assert diag.suggestion == "EMP_NAME"
        assert "did you mean" in diag.render()

    def test_value_domain_suggests_profiled_value(self, demo_db):
        (diag,) = [
            d for d in diagnose(
                "SELECT DEPT_NAME FROM DEPT WHERE REGION = 'west'", demo_db
            )
            if d.code == "GE017"
        ]
        assert diag.suggestion == "West"
        assert diag.severity is Severity.WARNING

    def test_order_by_alias_suggestion(self, demo_db):
        diagnostics = diagnose(
            "SELECT SALARY AS pay FROM EMP ORDER BY pey", demo_db
        )
        (diag,) = [d for d in diagnostics if d.code == "GE008"]
        assert diag.suggestion == "PAY"

    def test_severity_score_weights(self, demo_db):
        clean = diagnose("SELECT EMP_ID FROM EMP", demo_db)
        warned = diagnose(
            "SELECT DEPT_NAME FROM DEPT WHERE REGION = 'west'", demo_db
        )
        errored = diagnose("SELECT EMP_NAM FROM EMP", demo_db)
        assert severity_score(clean) == 0
        assert 0 < severity_score(warned) < severity_score(errored)
        assert error_count(errored) == 1 and warning_count(warned) == 1


class TestEngineRegistryAgreement:
    """Satellite: lint function tables cannot drift from the engine's."""

    def test_aggregates_are_the_engine_registry(self):
        from repro.engine.aggregates import AGGREGATE_NAMES

        assert aggregate_functions() is AGGREGATE_NAMES

    def test_window_functions_are_the_engine_registry(self):
        from repro.engine.window import RANKING_FUNCTIONS

        assert window_functions() is RANKING_FUNCTIONS


class TestGoldSweep:
    def test_no_error_diagnostics_on_gold_sql(self, experiment_context):
        """Every gold query of the seed workload lints free of errors."""
        engines = {}
        failures = []
        for question in experiment_context.workload.questions:
            if question.database not in engines:
                database = experiment_context.profiles[
                    question.database
                ].database
                engines[question.database] = DiagnosticsEngine(database)
            diagnostics = engines[question.database].run_sql(
                question.gold_sql
            )
            errors = [diag for diag in diagnostics if diag.is_error]
            if errors:
                failures.append((question.question_id, errors))
        assert not failures, failures


class TestGenerationRanking:
    def test_picks_lowest_severity_score(self, demo_db, monkeypatch):
        """Candidate order: error < warning < clean — clean must win."""
        bad = "SELECT EMP_NAM FROM EMP"
        warned = "SELECT DEPT_NAME FROM DEPT WHERE REGION = 'west'"
        clean = "SELECT DEPT_NAME FROM DEPT"
        monkeypatch.setattr(
            "repro.pipeline.generation.build_sql", lambda spec: spec
        )
        monkeypatch.setattr(
            "repro.pipeline.generation.assemble_prompt",
            lambda *args, **kwargs: SimpleNamespace(prompt="p"),
        )
        context = PipelineContext(
            question="q", database=demo_db, knowledge=None,
            config=DEFAULT_CONFIG,
        )
        context.plan = Plan(steps=[PlanStep("step")])
        context.grounding_candidates = [
            SimpleNamespace(spec=sql) for sql in (bad, warned, clean)
        ]
        context = GenerationOperator().run(context)
        assert context.sql == clean
        assert set(context.candidate_diagnostics) == {bad, warned, clean}
        assert severity_score(context.candidate_diagnostics[bad]) >= 100
        assert any(
            "lint score 0" in event.summary
            for event in context.tracer.iter_events()
        )

    def test_debug_payload_codes_match_the_ledger_outcome(
        self, demo_db, monkeypatch
    ):
        """``lint_codes``/``plan_codes`` mean error-level codes on
        ``/debug/*`` and in the ledger alike, also when the final SQL has
        only warnings."""
        warned = "SELECT DEPT_NAME FROM DEPT WHERE REGION = 'west'"
        monkeypatch.setattr(
            "repro.pipeline.generation.build_sql", lambda spec: spec
        )
        monkeypatch.setattr(
            "repro.pipeline.generation.assemble_prompt",
            lambda *args, **kwargs: SimpleNamespace(prompt="p"),
        )
        context = PipelineContext(
            question="q", database=demo_db, knowledge=None,
            config=DEFAULT_CONFIG,
        )
        context.plan = Plan(steps=[PlanStep("step")])
        context.grounding_candidates = [SimpleNamespace(spec=warned)]
        context = GenerationOperator().run(context)
        assert context.sql == warned
        final = context.candidate_diagnostics[warned]
        assert final and not error_count(final)  # warnings only
        context.candidate_plan_findings[warned] = [
            PLAN_RULES["GP003"].at("outside", step=1),
        ]
        result = GenerationResult(
            question="q", sql=context.sql, plan=context.plan,
            success=True, context=context,
        )
        outcome = QuestionOutcome.from_result(
            result, True, question_id="q1", difficulty="simple",
            database=demo_db.name, gold_sql="", question_text="q",
        )
        payload = result.debug_payload()
        assert payload["lint_codes"] == list(outcome.lint_codes) == []
        assert payload["plan_codes"] == list(outcome.plan_codes) == []


class TestSelfCorrectionLintGate:
    def test_error_candidate_skips_execution(self, demo_db, monkeypatch):
        """An error-level candidate is never executed; lint feeds the retry."""
        from repro.engine.executor import Executor
        from repro.pipeline import correction

        executed = []

        class CountingExecutor:
            def __init__(self, database):
                self._inner = Executor(database)

            def execute(self, sql):
                executed.append(sql)
                return self._inner.execute(sql)

        monkeypatch.setattr(correction, "Executor", CountingExecutor)
        bad = "SELECT EMP_NAM FROM EMP"
        clean = "SELECT EMP_NAME FROM EMP"
        context = PipelineContext(
            question="q", database=demo_db, knowledge=None,
            config=DEFAULT_CONFIG,
        )
        context.candidates = [bad, clean]
        context.sql = bad
        context = SelfCorrectionOperator().run(context)

        assert context.sql == clean
        assert executed == [clean]  # the bad candidate never ran
        assert context.lint_caught == 1
        assert context.execution_caught == 0
        assert any(
            "lint-rejected" in event.summary and "GE002" in event.summary
            for event in context.tracer.iter_events()
        )
        lint_calls = [
            call for call in context.meter.calls
            if call.operator == "self_correct"
        ]
        assert len(lint_calls) == 1  # one simulated regeneration call
        # The lint findings (code + message + suggestion) become the retry
        # context recorded on the attempt.
        assert context.attempts and context.attempts[0][0] == bad
        attempt_error = context.attempts[0][1]
        assert attempt_error.startswith("lint:")
        assert "GE002" in attempt_error
        assert "EMP_NAME" in attempt_error  # suggestion included

    def test_execution_failure_still_counted(self, demo_db):
        """A lint-clean candidate that fails at runtime is execution_caught."""
        # Aggregate of an aggregate parses and lints clean (no rule covers
        # it) but the engine rejects it — exactly the split the two
        # counters measure.
        bad_runtime = "SELECT SUM(COUNT(*)) FROM EMP"
        clean = "SELECT COUNT(*) FROM EMP"
        context = PipelineContext(
            question="q", database=demo_db, knowledge=None,
            config=DEFAULT_CONFIG,
        )
        context.candidates = [bad_runtime, clean]
        context.sql = bad_runtime
        context = SelfCorrectionOperator().run(context)
        assert context.sql == clean
        assert context.execution_caught == 1
        assert context.lint_caught == 0


class TestLintCli:
    def run_cli(self, argv):
        from repro.cli import build_arg_parser

        out = io.StringIO()
        args = build_arg_parser().parse_args(argv)
        code = args.func(args, out=out)
        return code, out.getvalue()

    def test_clean_sql_exits_zero(self):
        code, text = self.run_cli(
            ["lint", "SELECT ORG_NAME FROM SPORTS_ORGS",
             "--db", "sports_holdings"]
        )
        assert code == 0
        assert "clean" in text

    def test_error_sql_exits_nonzero(self):
        code, text = self.run_cli(
            ["lint", "SELECT ORG_NAM FROM SPORTS_ORGS",
             "--db", "sports_holdings"]
        )
        assert code == 1
        assert "GE002" in text and "1 error(s)" in text

    def test_warning_sql_exits_zero(self):
        code, text = self.run_cli(
            ["lint",
             "SELECT ORG_NAME FROM SPORTS_ORGS WHERE COUNTRY = 'canada'",
             "--db", "sports_holdings"]
        )
        assert code == 0
        assert "GE017" in text and "Canada" in text

    def test_no_database_structural_only(self):
        code, text = self.run_cli(["lint", "SELECT X FROM ANYWHERE"])
        assert code == 0  # catalog rules stay silent without --db
        code, text = self.run_cli(["lint", "SELECT *"])
        assert code == 1 and "GE007" in text

    def test_unknown_database_exits(self):
        with pytest.raises(SystemExit, match="Unknown database"):
            self.run_cli(["lint", "SELECT 1", "--db", "nope"])

    def test_json_record_shape(self):
        code, text = self.run_cli(
            ["lint", "SELECT ORG_NAM FROM SPORTS_ORGS",
             "--db", "sports_holdings", "--json"]
        )
        assert code == 1
        [record] = json.loads(text)
        assert list(record) == [
            "code", "slug", "severity", "message", "span", "suggestion",
        ]
        assert record == {
            "code": "GE002",
            "slug": "unknown-column",
            "severity": "error",
            "message": "Cannot resolve column 'ORG_NAM'",
            "span": {"position": 7, "line": 1, "column": 8},
            "suggestion": "ORG_NAME",
        }
        assert list(record["span"]) == ["position", "line", "column"]


class TestOneLintModel:
    """The GE, GK and GP packs share one rule, finding and code helper."""

    PACKS = (RULES, KNOWLEDGE_RULES, PLAN_RULES)

    @staticmethod
    def anchored(rule):
        """One finding per rule, anchored the way its pack anchors."""
        if rule.code.startswith("GE"):
            return rule.at("msg", node=SimpleNamespace(span="1:8"),
                           suggestion="X"), " at 1:8"
        if rule.code.startswith("GK"):
            component = SimpleNamespace(example_id="ex-00001")
            return rule.at("msg", component,
                           suggestion="X"), " at example ex-00001"
        return rule.at("msg", step=2, suggestion="X"), " at step 2"

    def test_codes_unique_across_packs(self):
        codes = [code for pack in self.PACKS for code in pack]
        assert len(codes) == len(set(codes))
        assert all(rule.code == code
                   for pack in self.PACKS for code, rule in pack.items())

    def test_every_rule_renders_one_format(self):
        for pack in self.PACKS:
            for rule in pack.values():
                finding, location = self.anchored(rule)
                assert isinstance(finding, Finding)
                assert finding.render() == (
                    f"{rule.code} {rule.severity.value}{location}: msg "
                    f"(did you mean 'X'?)"
                )
                assert rule.at("msg").render() == (
                    f"{rule.code} {rule.severity.value}: msg"
                )

    def test_error_codes_over_mixed_packs(self):
        findings = [
            RULES["GE017"].at("warning"),
            PLAN_RULES["GP002"].at("plan", step=1),
            KNOWLEDGE_RULES["GK002"].at("stale"),
            RULES["GE002"].at("column"),
            PLAN_RULES["GP002"].at("again", step=3),
            KNOWLEDGE_RULES["GK011"].at("info", kind="table"),
        ]
        assert error_codes(findings) == ("GE002", "GK002", "GP002")
        assert error_codes([]) == ()


class TestSpanStabilityAcrossRewriter:
    """Execution's optimize-for-execution pass memoizes on the shared
    parse-cache AST; diagnostics run after an execution must still anchor
    their spans in the ORIGINAL SQL text, not any rewritten form."""

    @staticmethod
    def _spans(diagnostics):
        return [
            (d.code, d.span.position, d.span.line, d.span.column)
            for d in diagnostics if d.span is not None
        ]

    @staticmethod
    def _assert_spans_index_original(sql, diagnostics):
        line_starts = [0]
        for offset, char in enumerate(sql):
            if char == "\n":
                line_starts.append(offset + 1)
        for diag in diagnostics:
            if diag.span is None:
                continue
            assert 0 <= diag.span.position < len(sql)
            assert diag.span.position == (
                line_starts[diag.span.line - 1] + diag.span.column - 1
            )

    def test_warning_spans_survive_execution(self, demo_db, executor):
        sql = "SELECT EMP_NAME FROM EMP\nWHERE SALARY > 'high'"
        engine = DiagnosticsEngine(demo_db)
        before = engine.run_sql(sql)
        assert self._spans(before)  # the fixture must carry a span
        executor.execute(sql)  # triggers the execution rewrite pass
        after = engine.run_sql(sql)
        assert self._spans(after) == self._spans(before)
        self._assert_spans_index_original(sql, after)

    def test_error_span_survives_execution_attempt(self, demo_db, executor):
        sql = "SELECT EMP_NAM FROM EMP"
        engine = DiagnosticsEngine(demo_db)
        before = engine.run_sql(sql)
        with pytest.raises(Exception):
            executor.execute(sql)
        after = engine.run_sql(sql)
        assert self._spans(after) == self._spans(before)
        (diag,) = [d for d in after if d.code == "GE002"]
        # The offset must still slice the offending token out of the
        # original text.
        start = diag.span.position
        assert sql[start:start + len("EMP_NAM")] == "EMP_NAM"
