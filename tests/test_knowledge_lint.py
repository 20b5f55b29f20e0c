"""Knowledge-set lint (``GK0xx``): per-rule golden tests, gate, CLI."""

import dataclasses
import gc
import io
import json
import pathlib
import struct
import weakref
from collections import Counter
from unittest import mock

import pytest

from repro.engine import Column, Database, Table
from repro.knowledge import (
    DecomposedExample,
    Instruction,
    Intent,
    KnowledgeSet,
    Provenance,
    SchemaElement,
)
from repro.knowledge.lint import (
    KNOWLEDGE_RULES,
    finding_keys,
    lint_codes_by_set,
    lint_knowledge,
)
from repro.sql.diagnostics.core import error_codes

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "knowledge_corpus"


def codes(findings):
    return {finding.code for finding in findings}


def base_knowledge():
    """A set that lints completely clean against the demo catalog."""
    knowledge = KnowledgeSet("clean")
    knowledge.add_intent(Intent(
        "int-spend", "department spending", tables=("DEPT",),
        provenance=Provenance("query_log", "q-1"),
    ))
    knowledge.add_example(DecomposedExample(
        "ex-budgets", "Department names with budgets.",
        "SELECT DEPT_NAME, BUDGET FROM DEPT", kind="query",
        intent_ids=("int-spend",), tables=("DEPT",),
        columns=("DEPT_NAME", "BUDGET"),
        provenance=Provenance("query_log", "q-1"),
    ))
    knowledge.add_example(DecomposedExample(
        "ex-salaries", "Employee salaries.",
        "SELECT EMP_NAME, SALARY FROM EMP", kind="query",
        tables=("EMP",), columns=("EMP_NAME", "SALARY"),
        provenance=Provenance("query_log", "q-2"),
    ))
    knowledge.add_schema_element(SchemaElement(
        "se-dept", "DEPT", description="Each row is a department.",
        provenance=Provenance("manual"),
    ))
    knowledge.add_schema_element(SchemaElement(
        "se-emp", "EMP", description="Each row is an employee.",
        provenance=Provenance("manual"),
    ))
    return knowledge


class TestRegistry:
    def test_thirteen_rules_registered(self):
        assert len(KNOWLEDGE_RULES) == 13
        assert sorted(KNOWLEDGE_RULES) == [
            f"GK{n:03d}" for n in range(1, 14)
        ]

    def test_render_carries_component_and_suggestion(self, demo_db):
        knowledge = base_knowledge()
        knowledge.add_schema_element(SchemaElement(
            "se-drift", "EMP", column="SALARY", data_type="TEXT",
            provenance=Provenance("manual"),
        ))
        finding = next(
            f for f in lint_knowledge(knowledge, demo_db)
            if f.code == "GK010"
        )
        rendered = finding.render()
        assert "GK010" in rendered
        assert "se-drift" in rendered
        assert "'FLOAT'" in rendered  # suggestion names the live type


class TestCleanBaseline:
    def test_base_set_lints_clean(self, demo_db):
        assert lint_knowledge(base_knowledge(), demo_db) == []


class TestStaleReferences:
    def test_gk001_intent_table_gone(self, demo_db):
        knowledge = base_knowledge()
        knowledge.add_intent(Intent(
            "int-gone", "legacy", tables=("LEGACY_ORDERS",),
            provenance=Provenance("query_log"),
        ))
        findings = lint_knowledge(knowledge, demo_db)
        assert codes(findings) == {"GK001"}
        assert findings[0].component_id == "int-gone"

    def test_gk001_schema_element_table_gone(self, demo_db):
        knowledge = base_knowledge()
        knowledge.add_schema_element(SchemaElement(
            "se-gone", "LEGACY_ORDERS", provenance=Provenance("manual"),
        ))
        assert "GK001" in codes(lint_knowledge(knowledge, demo_db))

    def test_gk002_schema_element_column_gone(self, demo_db):
        knowledge = base_knowledge()
        knowledge.add_schema_element(SchemaElement(
            "se-col", "DEPT", column="DEPT_COLOR",
            provenance=Provenance("manual"),
        ))
        assert codes(lint_knowledge(knowledge, demo_db)) == {"GK002"}

    def test_gk002_fragment_column_gone(self, demo_db):
        knowledge = base_knowledge()
        knowledge.add_example(DecomposedExample(
            "ex-frag", "Project a renamed column.", "DEPT_COLOR",
            kind="select_item", tables=("DEPT",), columns=("DEPT_COLOR",),
            provenance=Provenance("query_log", "q-9"),
        ))
        assert "GK002" in codes(lint_knowledge(knowledge, demo_db))

    def test_gk002_inline_alias_is_not_stale(self, demo_db):
        knowledge = base_knowledge()
        knowledge.add_example(DecomposedExample(
            "ex-alias", "Total budget.", "SUM(BUDGET) AS TOTAL_BUDGET",
            kind="select_item", tables=("DEPT",),
            columns=("BUDGET", "TOTAL_BUDGET"),
            provenance=Provenance("query_log", "q-9"),
        ))
        assert lint_knowledge(knowledge, demo_db) == []

    def test_gk010_type_drift(self, demo_db):
        knowledge = base_knowledge()
        knowledge.add_schema_element(SchemaElement(
            "se-drift", "EMP", column="SALARY", data_type="TEXT",
            provenance=Provenance("manual"),
        ))
        findings = lint_knowledge(knowledge, demo_db)
        assert codes(findings) == {"GK010"}
        assert findings[0].suggestion == "FLOAT"

    def test_gk010_matching_type_is_clean(self, demo_db):
        knowledge = base_knowledge()
        knowledge.add_schema_element(SchemaElement(
            "se-ok", "EMP", column="SALARY", data_type="float",
            provenance=Provenance("manual"),
        ))
        assert lint_knowledge(knowledge, demo_db) == []

    def test_gk013_stale_top_value(self, demo_db):
        knowledge = base_knowledge()
        knowledge.add_schema_element(SchemaElement(
            "se-top", "DEPT", column="REGION", data_type="TEXT",
            top_values=("Atlantis",), provenance=Provenance("manual"),
        ))
        assert codes(lint_knowledge(knowledge, demo_db)) == {"GK013"}

    def test_gk013_live_top_value_is_clean(self, demo_db):
        knowledge = base_knowledge()
        knowledge.add_schema_element(SchemaElement(
            "se-top", "DEPT", column="REGION", data_type="TEXT",
            top_values=("West", "East"), provenance=Provenance("manual"),
        ))
        assert lint_knowledge(knowledge, demo_db) == []


class TestBrokenExamples:
    def test_gk003_query_example_does_not_parse(self, demo_db):
        knowledge = base_knowledge()
        knowledge.add_example(DecomposedExample(
            "ex-rot", "Rotted.", "SELECT FROM WHERE", kind="query",
            tables=("DEPT",), provenance=Provenance("query_log"),
        ))
        assert codes(lint_knowledge(knowledge, demo_db)) == {"GK003"}

    def test_gk003_fragment_does_not_parse(self, demo_db):
        knowledge = base_knowledge()
        knowledge.add_example(DecomposedExample(
            "ex-frag-rot", "Rotted fragment.", "((", kind="select_item",
            tables=("DEPT",), provenance=Provenance("query_log"),
        ))
        assert codes(lint_knowledge(knowledge, demo_db)) == {"GK003"}

    def test_gk004_query_example_has_error_diagnostics(self, demo_db):
        knowledge = base_knowledge()
        knowledge.add_example(DecomposedExample(
            "ex-lint", "Renamed column.", "SELECT DEPT_COLOR FROM DEPT",
            kind="query", tables=("DEPT",),
            provenance=Provenance("query_log"),
        ))
        findings = lint_knowledge(knowledge, demo_db)
        assert codes(findings) == {"GK004"}
        assert "GE002" in findings[0].message

    def test_gk005_query_example_fails_execution(self, demo_db):
        knowledge = base_knowledge()
        knowledge.add_example(DecomposedExample(
            "ex-exec", "Sums text.", "SELECT SUM(DEPT_NAME) FROM DEPT",
            kind="query", tables=("DEPT",),
            provenance=Provenance("query_log"),
        ))
        assert codes(lint_knowledge(knowledge, demo_db)) == {"GK005"}

    def test_gk005_reads_the_execution_memo(self, demo_db, monkeypatch):
        from repro.engine.executor import Executor, execution_outcome

        sql = "SELECT SUM(DEPT_NAME) FROM DEPT"
        knowledge = base_knowledge()
        knowledge.add_example(DecomposedExample(
            "ex-exec", "Sums text.", sql, kind="query", tables=("DEPT",),
            provenance=Provenance("query_log"),
        ))
        # Every query example's outcome is in the memo before the lint.
        for example in knowledge.examples():
            if example.kind == "query":
                execution_outcome(demo_db, example.sql)
        ran, error = execution_outcome(demo_db, sql)
        assert not ran

        def executed_again(executor, query):
            raise AssertionError(f"{query!r} executed a second time")

        monkeypatch.setattr(Executor, "execute", executed_again)
        (finding,) = lint_knowledge(knowledge, demo_db)
        assert finding.code == "GK005"
        assert finding.message == f"query example fails execution: {error}"


class TestDuplicatesAndContradictions:
    def test_gk006_edited_near_duplicate(self, demo_db):
        knowledge = base_knowledge()
        knowledge.add_example(DecomposedExample(
            "ex-dup", "Department names with budgets.",
            "SELECT DEPT_NAME, BUDGET FROM DEPT", kind="query",
            tables=("DEPT",), columns=("DEPT_NAME", "BUDGET"),
            provenance=Provenance("feedback", "fb-1"),
        ))
        findings = lint_knowledge(knowledge, demo_db)
        assert codes(findings) == {"GK006"}
        assert findings[0].component_id == "ex-dup"
        assert "ex-budgets" in findings[0].message

    def test_gk006_mined_duplicates_are_tolerated(self, demo_db):
        # Mined sets carry identical fragments by construction; only
        # loop-added (feedback/manual) examples are examined.
        knowledge = base_knowledge()
        knowledge.add_example(DecomposedExample(
            "ex-dup", "Department names with budgets.",
            "SELECT DEPT_NAME, BUDGET FROM DEPT", kind="query",
            tables=("DEPT",), columns=("DEPT_NAME", "BUDGET"),
            provenance=Provenance("query_log", "q-3"),
        ))
        assert lint_knowledge(knowledge, demo_db) == []

    def test_gk007_contradictory_term_definitions(self, demo_db):
        knowledge = base_knowledge()
        knowledge.add_instruction(Instruction(
            "in-a", "Active means ACTIVE = TRUE.", kind="term_definition",
            term="active employee", sql_pattern="ACTIVE = TRUE",
            tables=("EMP",), provenance=Provenance("document"),
        ))
        knowledge.add_instruction(Instruction(
            "in-b", "Active means ACTIVE = FALSE.", kind="term_definition",
            term="Active Employee", sql_pattern="ACTIVE = FALSE",
            tables=("EMP",), provenance=Provenance("feedback"),
        ))
        findings = lint_knowledge(knowledge, demo_db)
        assert codes(findings) == {"GK007"}
        assert findings[0].component_id == "in-b"
        assert "in-a" in findings[0].message

    def test_gk007_identical_definitions_are_clean(self, demo_db):
        knowledge = base_knowledge()
        for instruction_id in ("in-a", "in-b"):
            knowledge.add_instruction(Instruction(
                instruction_id, "Active means ACTIVE = TRUE.",
                kind="term_definition", term="active employee",
                sql_pattern="ACTIVE = TRUE", tables=("EMP",),
                provenance=Provenance("document"),
            ))
        assert lint_knowledge(knowledge, demo_db) == []


class TestProvenanceAndRefs:
    def test_gk008_unknown_provenance_kind(self, demo_db):
        knowledge = base_knowledge()
        knowledge.add_instruction(Instruction(
            "in-wiki", "Budgets are in thousands.", tables=("DEPT",),
            provenance=Provenance("wiki"),
        ))
        assert codes(lint_knowledge(knowledge, demo_db)) == {"GK008"}

    def test_gk009_dangling_intent_reference(self, demo_db):
        knowledge = base_knowledge()
        knowledge.add_example(DecomposedExample(
            "ex-ref", "Head count by department.",
            "SELECT DEPT_ID, COUNT(EMP_ID) AS HEADCOUNT "
            "FROM EMP GROUP BY DEPT_ID",
            kind="query", intent_ids=("int-retired",), tables=("EMP",),
            provenance=Provenance("query_log"),
        ))
        findings = lint_knowledge(knowledge, demo_db)
        assert codes(findings) == {"GK009"}
        assert "int-retired" in findings[0].message


class TestCoverage:
    def test_gk011_gk012_on_empty_set(self, demo_db):
        findings = lint_knowledge(KnowledgeSet("empty"), demo_db)
        assert codes(findings) == {"GK011", "GK012"}
        # One GK011 and one GK012 per catalog table.
        assert sum(1 for f in findings if f.code == "GK011") == 2
        assert sum(1 for f in findings if f.code == "GK012") == 2

    def test_coverage_findings_are_not_errors(self, demo_db):
        findings = lint_knowledge(KnowledgeSet("empty"), demo_db)
        assert error_codes(findings) == ()


class TestHelpers:
    def test_error_codes_and_finding_keys(self, demo_db):
        knowledge = base_knowledge()
        knowledge.add_schema_element(SchemaElement(
            "se-col", "DEPT", column="DEPT_COLOR",
            provenance=Provenance("manual"),
        ))
        findings = lint_knowledge(knowledge, demo_db)
        assert error_codes(findings) == ("GK002",)
        assert finding_keys(findings) == {("GK002", "schema", "se-col")}

    def test_lint_codes_by_set(self, demo_db):
        bad = base_knowledge()
        bad.add_schema_element(SchemaElement(
            "se-col", "DEPT", column="DEPT_COLOR",
            provenance=Provenance("manual"),
        ))
        by_set = lint_codes_by_set(
            {"demo": demo_db}, {"demo": bad, "orphan": base_knowledge()}
        )
        assert by_set == {"demo": {"GK002": 1}}


class TestKnowledgeGate:
    def test_gate_passes_on_identical_sets(self, demo_db):
        from repro.feedback.regression import run_knowledge_gate

        live = base_knowledge()
        report = run_knowledge_gate(demo_db, live, live.clone())
        assert report.passed
        assert report.summary().startswith("PASS")

    def test_pre_existing_debt_does_not_block(self, demo_db):
        from repro.feedback.regression import run_knowledge_gate

        live = base_knowledge()
        live.add_schema_element(SchemaElement(
            "se-debt", "DEPT", column="DEPT_COLOR",
            provenance=Provenance("manual"),
        ))
        staged = live.clone()
        staged.add_instruction(Instruction(
            "in-new", "Budgets are in thousands.", tables=("DEPT",),
            provenance=Provenance("feedback"),
        ))
        report = run_knowledge_gate(demo_db, live, staged)
        assert report.passed
        assert report.live_errors == 1
        assert report.staged_errors == 1

    def test_new_error_fails_the_gate(self, demo_db):
        from repro.feedback.regression import run_knowledge_gate

        live = base_knowledge()
        staged = live.clone()
        staged.add_example(DecomposedExample(
            "ex-bad", "Renamed column.", "SELECT DEPT_COLOR FROM DEPT",
            kind="query", tables=("DEPT",),
            provenance=Provenance("feedback"),
        ))
        report = run_knowledge_gate(demo_db, live, staged)
        assert not report.passed
        assert [f.code for f in report.new_findings] == ["GK004"]
        assert "FAIL" in report.summary()
        assert "GK004" in report.summary()


class TestSolverGate:
    @pytest.fixture()
    def solver(self, experiment_context):
        from repro.feedback import ApprovalQueue, FeedbackSolver
        from repro.pipeline import GenEditPipeline

        profile = experiment_context.profiles["sports_holdings"]
        knowledge = experiment_context.knowledge_sets[
            "sports_holdings"
        ].clone()
        pipeline = GenEditPipeline(profile.database, knowledge)
        queue = ApprovalQueue(knowledge)
        return FeedbackSolver(pipeline, approval_queue=queue)

    def _inject_edit(self, solver, payload):
        from repro.feedback.models import (
            ACTION_INSERT,
            COMPONENT_EXAMPLE,
            COMPONENT_INSTRUCTION,
            EditRecommendation,
            next_edit_id,
        )

        kind = (
            COMPONENT_EXAMPLE
            if isinstance(payload, DecomposedExample)
            else COMPONENT_INSTRUCTION
        )
        edit = EditRecommendation(
            edit_id=next_edit_id(), action=ACTION_INSERT, kind=kind,
            summary="injected", payload=payload,
        )
        solver.recommendations.append(edit)
        solver.stage(edit.edit_id)
        return edit

    def test_rejects_edit_with_new_error_finding(self, solver):
        from repro.feedback.models import SUBMISSION_REJECTED

        solver.ask("How many teams are there?")
        solver.give_feedback("The org names look wrong.")
        self._inject_edit(solver, DecomposedExample(
            "ex-gate-bad", "Org names.",
            "SELECT ORG_NAM FROM SPORTS_ORGS", kind="query",
            tables=("SPORTS_ORGS",), provenance=Provenance("feedback"),
        ))
        submission = solver.submit()
        assert submission.status == SUBMISSION_REJECTED
        assert not submission.knowledge_gate.passed
        assert "GK004" in submission.knowledge_gate.summary()
        # Regression still ran so the SME sees the whole picture.
        assert submission.regression_report is not None

    def test_accepts_clean_edit(self, solver):
        from repro.feedback.models import SUBMISSION_PENDING_APPROVAL

        solver.ask("How many teams are there?")
        solver.give_feedback("Needs a unit note.")
        self._inject_edit(solver, Instruction(
            "in-gate-ok", "Arena capacity is seats, not thousands.",
            tables=("SPORTS_ORGS",), provenance=Provenance("feedback"),
        ))
        submission = solver.submit()
        assert submission.knowledge_gate.passed
        assert submission.status == SUBMISSION_PENDING_APPROVAL


def _memo_counters():
    from repro.obs.metrics import get_metrics

    metrics = get_metrics()
    return (metrics.counter_value("knowledge_lint.memo_hits"),
            metrics.counter_value("knowledge_lint.memo_misses"),
            metrics.counter_value("knowledge_lint.set_hits"))


def _region_db(regions, name="regions"):
    """One-table database whose REGION column holds ``regions``."""
    db = Database(name)
    db.create_table(
        "DEPT",
        [Column("DEPT_ID", "INTEGER"), Column("REGION", "TEXT")],
        rows=list(enumerate(regions)),
        description="Each row is a department.",
    )
    return db


def _top_value_set(*top_values):
    knowledge = KnowledgeSet("top")
    knowledge.add_schema_element(SchemaElement(
        "se-region", "DEPT", column="REGION", data_type="TEXT",
        top_values=top_values, provenance=Provenance("manual"),
    ))
    return knowledge


def _stale_top_value(knowledge, database, value_k=5):
    return "GK013" in codes(lint_knowledge(knowledge, database, value_k))


class TestLintMemo:
    """The per-component memo: equal to a cold lint, invalidated by data."""

    def test_warm_lint_equals_cold_lint_over_feedback_sessions(
        self, seed7_memo_replay
    ):
        counts, mismatches, grown = seed7_memo_replay
        assert counts["gate"] == 43
        assert mismatches == []
        assert grown["knowledge_lint.memo_hits"] > 0

    def test_staged_lint_checks_only_the_delta(self, demo_db):
        from repro.feedback.regression import run_knowledge_gate
        from repro.obs.tracing import Tracer

        live = base_knowledge()
        lint_knowledge(live, demo_db)
        staged = live.clone()
        staged.add_example(DecomposedExample(
            "ex-new", "Department regions.",
            "SELECT DEPT_NAME, REGION FROM DEPT", kind="query",
            tables=("DEPT",), provenance=Provenance("feedback"),
        ))
        tracer = Tracer()
        hits, misses, set_hits = _memo_counters()
        assert run_knowledge_gate(demo_db, live, staged, tracer).passed
        # live: one whole-set hit, no component lookups; staged: the 4
        # shared components hit by identity, the new one misses.
        assert _memo_counters() == (hits + 4, misses + 1, set_hits + 1)
        (span,) = [s for s in tracer.finished_spans()
                   if s.name == "knowledge_gate"]
        assert span.attributes["knowledge_lint.memo_hits"] == 4
        assert span.attributes["knowledge_lint.memo_misses"] == 1
        assert span.attributes["knowledge_lint.set_hits"] == 1

    def test_unchanged_revision_runs_no_component_check(self, demo_db):
        from repro.knowledge.lint import checker

        knowledge = base_knowledge()
        first = lint_knowledge(knowledge, demo_db)
        before = _memo_counters()
        refuse = mock.Mock(side_effect=AssertionError("component check ran"))
        with mock.patch.object(checker, "_check_example", refuse), \
                mock.patch.object(checker, "_check_schema_element", refuse):
            second = lint_knowledge(knowledge, demo_db)
            second.append("scribble")
            third = lint_knowledge(knowledge, demo_db)
        assert second[:-1] == first == third
        assert first is not third
        hits, misses, set_hits = before
        assert _memo_counters() == (hits, misses, set_hits + 2)

    def test_edit_version_bump_or_clear_misses(self, demo_db):
        knowledge = base_knowledge()
        lint_knowledge(knowledge, demo_db)

        def relint():
            before = _memo_counters()
            lint_knowledge(knowledge, demo_db)
            return tuple(
                after - earlier
                for after, earlier in zip(_memo_counters(), before)
            )

        assert relint() == (0, 0, 1)
        knowledge.add_instruction(Instruction(
            "in-new", "Budgets are annual.", tables=("DEPT",),
            provenance=Provenance("manual"),
        ))
        assert relint() == (4, 0, 0)  # new revision, same 4 components
        demo_db.table("DEPT").insert((4, "Legal", "East", 50.0))
        assert relint() == (0, 4, 0)  # new version
        demo_db.clear_memos()
        assert relint() == (0, 4, 0)
        assert relint() == (0, 0, 1)

    def test_insert_brings_gk013_back(self):
        db = _region_db(["West", "West", "East"])
        knowledge = _top_value_set("West", "East")
        assert not _stale_top_value(knowledge, db)
        table = db.table("DEPT")
        for number, region in enumerate(
            ["North", "South", "Central", "Coast", "Inland"] * 2, start=10
        ):
            table.insert((number, region))
        assert _stale_top_value(knowledge, db)

    def test_add_table_changes_catalog_verdicts(self):
        db = _region_db(["West"])
        knowledge = _top_value_set("West")
        knowledge.add_schema_element(SchemaElement(
            "se-legacy", "LEGACY", provenance=Provenance("manual"),
        ))
        assert "GK001" in codes(lint_knowledge(knowledge, db))
        db.add_table(Table("LEGACY", [Column("ID", "INTEGER")]))
        assert "GK001" not in codes(lint_knowledge(knowledge, db))

    def test_replacing_a_table_never_reuses_entries(self):
        # DEPT (3 rows) replaced by a same-named 2-row table: the table
        # versions alone would sum back to the old database version.
        db = _region_db(["West", "West", "East"])
        knowledge = _top_value_set("West", "East")
        before = db.version
        assert not _stale_top_value(knowledge, db)
        db.add_table(Table(
            "DEPT", [Column("DEPT_ID", "INTEGER"), Column("REGION", "TEXT")],
            rows=[(1, "North"), (2, "North")],
        ))
        assert db.version > before
        assert _stale_top_value(knowledge, db)

    def test_value_k_is_part_of_the_key(self):
        db = _region_db(["West", "West", "East"])
        knowledge = _top_value_set("East")
        assert not _stale_top_value(knowledge, db, value_k=5)
        assert _stale_top_value(knowledge, db, value_k=1)
        assert not _stale_top_value(knowledge, db, value_k=5)

    def test_same_named_database_never_reuses_entries(self):
        first = _region_db(["West", "West", "East"], name="twin")
        second = _region_db(["North", "North", "South"], name="twin")
        assert first.version == second.version
        knowledge = _top_value_set("West", "East")
        assert not _stale_top_value(knowledge, first)
        assert _stale_top_value(knowledge, second)

    def test_entries_dropped_with_their_database(self):
        db = _region_db(["West"])
        lint_knowledge(base_knowledge(), db)
        assert db.memo("knowledge_lint")
        alive = weakref.ref(db)
        del db
        gc.collect()
        assert alive() is None


class TestCli:
    def _run(self, argv):
        from repro.cli import build_arg_parser

        out = io.StringIO()
        args = build_arg_parser().parse_args(argv)
        code = args.func(args, out=out)
        return code, out.getvalue()

    def test_lint_knowledge_fixture_fails(self):
        code, output = self._run([
            "lint-knowledge", "--db", "sports_holdings",
            "--knowledge", str(FIXTURES / "stale_column_sports.json"),
        ])
        assert code == 1
        assert "GK002" in output
        assert "ORG_NAM" in output

    def test_lint_knowledge_json_records(self):
        code, output = self._run([
            "lint-knowledge", "--db", "sports_holdings",
            "--knowledge", str(FIXTURES / "stale_column_sports.json"),
            "--json",
        ])
        assert code == 1
        records = json.loads(output)
        assert records[0]["code"] == "GK002"
        assert records[0]["component_kind"] == "schema"
        assert records[0]["component_id"] == "se-org-nam"

    def test_lint_knowledge_requires_db_for_file(self):
        code, output = self._run([
            "lint-knowledge",
            "--knowledge", str(FIXTURES / "stale_column_sports.json"),
        ])
        assert code == 2
        assert "--db" in output

    def test_lint_json_structured_output(self):
        code, output = self._run([
            "lint", "SELECT ORG_NAM FROM SPORTS_ORGS",
            "--db", "sports_holdings", "--json",
        ])
        assert code == 1
        records = json.loads(output)
        ge002 = next(r for r in records if r["code"] == "GE002")
        assert ge002["severity"] == "error"
        assert ge002["span"] == {"position": 7, "line": 1, "column": 8}
        assert ge002["suggestion"] == "ORG_NAME"

    def test_lint_json_clean_is_empty_list(self):
        code, output = self._run([
            "lint", "SELECT ORG_NAME FROM SPORTS_ORGS",
            "--db", "sports_holdings", "--json",
        ])
        assert code == 0
        assert json.loads(output) == []


class TestExampleVectors:
    """GK006 reads the example index's vectors instead of fitting again."""

    def test_index_vectors_equal_a_fresh_fit_bit_for_bit(
        self, experiment_context
    ):
        from repro.text.similarity import l2_norm
        from repro.text.vectorize import TfIdfVectorizer

        def bits(values):
            return [struct.pack("d", value) for value in values]

        for name, live in sorted(experiment_context.knowledge_sets.items()):
            staged = live.clone()
            source = staged.examples()[0]
            staged.add_example(dataclasses.replace(
                source, example_id="ex-loop-added",
                provenance=Provenance("feedback"),
            ))
            examples = staged.examples()
            vectorizer = TfIdfVectorizer()
            fresh = vectorizer.fit_transform(
                Counter(vectorizer.terms_for(example.retrieval_text))
                for example in examples
            )
            published = staged.example_vectors()
            assert sorted(published) == [e.example_id for e in examples]
            for example, vector in zip(examples, fresh):
                got, norm = published[example.example_id]
                assert list(got) == list(vector), (name, example.example_id)
                assert bits(got.values()) == bits(vector.values())
                assert bits([norm]) == bits([l2_norm(vector)])
