"""Plan lint (``GP0xx``): per-rule golden tests plus pipeline wiring."""

import types

from repro.pipeline.base import Plan, PlanStep
from repro.pipeline.plan_lint import PLAN_RULES, lint_plan, plan_error_score
from repro.sql.diagnostics.core import error_codes


def codes(findings):
    return {finding.code for finding in findings}


def make_plan(*steps, spec=None):
    return Plan(
        steps=[
            PlanStep(description=description, pseudo_sql=pseudo)
            for description, pseudo in steps
        ],
        spec=spec,
    )


def subset(*tables):
    return [types.SimpleNamespace(table=table) for table in tables]


CLEAN_PLAN = (
    ("Keep only departments in the West region.",
     "WHERE DEPT.REGION = 'West'"),
    ("Aggregate the rows kept in step 1 per region.",
     "SELECT DEPT.REGION, SUM(DEPT.BUDGET) AS TOTAL_BUDGET FROM DEPT"),
)


class TestRegistry:
    def test_eight_rules_registered(self):
        assert sorted(PLAN_RULES) == [f"GP{n:03d}" for n in range(1, 9)]

    def test_finding_render_names_step(self):
        finding = PLAN_RULES["GP002"].at("references table 'X'", step=3)
        assert "GP002" in finding.render()
        assert "step 3" in finding.render()


class TestCleanPlan:
    def test_clean_plan_has_no_findings(self, demo_db):
        findings = lint_plan(
            make_plan(*CLEAN_PLAN), demo_db, subset("DEPT")
        )
        assert findings == []

    def test_standalone_lint_without_database(self):
        # Catalog checks are skipped; structural checks still run.
        findings = lint_plan(make_plan(*CLEAN_PLAN))
        assert findings == []


class TestRules:
    def test_gp001_empty_plan(self, demo_db):
        findings = lint_plan(make_plan(), demo_db)
        assert codes(findings) == {"GP001"}
        assert findings[0].is_error

    def test_gp002_unknown_table(self, demo_db):
        findings = lint_plan(make_plan(
            ("Scan the warehouse.", "SELECT * FROM WAREHOUSE_OLD"),
        ), demo_db)
        assert codes(findings) == {"GP002"}
        assert findings[0].step == 1

    def test_gp002_clean_on_known_table(self, demo_db):
        findings = lint_plan(make_plan(
            ("Scan departments.", "SELECT * FROM DEPT"),
        ), demo_db)
        assert findings == []

    def test_gp003_table_outside_linked_subset(self, demo_db):
        findings = lint_plan(make_plan(
            ("Join employees.", "SELECT * FROM EMP"),
        ), demo_db, subset("DEPT"))
        assert codes(findings) == {"GP003"}
        assert not findings[0].is_error

    def test_gp003_not_raised_without_subset(self, demo_db):
        findings = lint_plan(make_plan(
            ("Join employees.", "SELECT * FROM EMP"),
        ), demo_db)
        assert findings == []

    def test_gp004_unknown_qualified_column(self, demo_db):
        findings = lint_plan(make_plan(
            ("Project head count.", "SELECT DEPT.HEADCOUNT FROM DEPT"),
        ), demo_db, subset("DEPT"))
        assert codes(findings) == {"GP004"}

    def test_gp004_placeholder_columns_allowed(self, demo_db):
        findings = lint_plan(make_plan(
            ("Rank by the metric.",
             "SELECT DEPT.METRIC_VALUE FROM DEPT"),
        ), demo_db, subset("DEPT"))
        assert findings == []

    def test_gp004_inline_alias_allowed(self, demo_db):
        findings = lint_plan(make_plan(
            ("Compute the total.",
             "SELECT SUM(DEPT.BUDGET) AS GRAND_TOTAL FROM DEPT"),
            ("Reuse the total.", "WHERE DEPT.GRAND_TOTAL > 100"),
        ), demo_db, subset("DEPT"))
        assert findings == []

    def test_gp005_unparseable_pseudo_sql(self, demo_db):
        findings = lint_plan(make_plan(
            ("Rotted step.", "SELECT )) ORDER (("),
        ), demo_db)
        assert codes(findings) == {"GP005"}

    def test_gp005_fragment_heads_parse(self, demo_db):
        for pseudo in (
            "WHERE REGION = 'West'",
            "FROM DEPT",
            "GROUP BY REGION",
            "ORDER BY BUDGET DESC",
            "SUM(BUDGET) AS TOTAL",
        ):
            findings = lint_plan(
                make_plan(("A fragment step.", pseudo)), demo_db
            )
            assert "GP005" not in codes(findings), pseudo

    def test_gp006_dangling_metric_reference(self, demo_db):
        spec = types.SimpleNamespace(
            metrics=[types.SimpleNamespace(alias="TOTAL")],
            order=types.SimpleNamespace(metric_index=3),
            having=[types.SimpleNamespace(metric_index=5)],
        )
        findings = lint_plan(
            make_plan(("Order by the metric.", ""), spec=spec), demo_db
        )
        assert [f.code for f in findings] == ["GP006", "GP006"]

    def test_gp006_in_range_metric_is_clean(self, demo_db):
        spec = types.SimpleNamespace(
            metrics=[types.SimpleNamespace(alias="TOTAL")],
            order=types.SimpleNamespace(metric_index=0),
            having=[types.SimpleNamespace(metric_index=0)],
        )
        findings = lint_plan(
            make_plan(("Order by the metric.", ""), spec=spec), demo_db
        )
        assert findings == []

    def test_gp007_dangling_step_reference(self, demo_db):
        findings = lint_plan(make_plan(
            ("Join the totals computed in step 5.", ""),
        ), demo_db)
        assert codes(findings) == {"GP007"}

    def test_gp007_valid_step_reference_is_clean(self, demo_db):
        findings = lint_plan(make_plan(*CLEAN_PLAN), demo_db)
        assert findings == []

    def test_gp008_template_slot(self, demo_db):
        findings = lint_plan(make_plan(
            ("Filter by the requested region.",
             "WHERE REGION = {region}"),
        ), demo_db)
        assert "GP008" in codes(findings)

    def test_gp008_empty_literal_slot(self, demo_db):
        findings = lint_plan(make_plan(
            ("Filter on an unresolved literal.",
             "WHERE DEPT.REGION = ''"),
        ), demo_db, subset("DEPT"))
        assert codes(findings) == {"GP008"}


class TestScores:
    def test_plan_error_score_counts_errors_only(self, demo_db):
        findings = lint_plan(make_plan(
            ("Scan the warehouse.", "SELECT * FROM WAREHOUSE_OLD"),
            ("Filter on an unresolved literal.", "WHERE REGION = ''"),
        ), demo_db)
        assert codes(findings) == {"GP002", "GP008"}
        assert plan_error_score(findings) == 100
        assert error_codes(findings) == ("GP002",)


class TestPipelineWiring:
    def test_operator_runs_between_plan_and_generate(self, sports_pipeline):
        names = [
            operator.name for operator in sports_pipeline.operators
        ]
        assert names.index("plan") < names.index("lint_plan")
        assert names.index("lint_plan") < names.index("generate_sql")

    def test_benchmark_plans_lint_clean(self, sports_pipeline):
        result = sports_pipeline.generate("How many teams are there?")
        assert result.context.plan_findings == []

    def test_outcome_carries_plan_codes(self, experiment_context):
        from repro.bench.harness import evaluate_system
        from repro.pipeline import GenEditPipeline

        report = evaluate_system(
            lambda db, ks: GenEditPipeline(db, ks),
            experiment_context.workload,
            experiment_context.profiles,
            experiment_context.knowledge_sets,
            "subset",
            questions=experiment_context.workload.questions[:2],
        )
        for outcome in report.outcomes:
            assert outcome.plan_codes == ()
