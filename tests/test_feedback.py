"""Continuous-improvement tests: directives, operators, solver, review."""

from unittest import mock

import pytest

from repro.feedback import (
    ACTION_DELETE,
    ACTION_INSERT,
    ACTION_UPDATE,
    ApprovalQueue,
    FeedbackSolver,
    GoldenQuery,
    SUBMISSION_MERGED,
    SUBMISSION_PENDING_APPROVAL,
    SUBMISSION_REJECTED,
    apply_edit,
    expand_feedback,
    generate_edits,
    generate_targets,
    parse_directives,
    plan_edits,
)
from repro.feedback.models import Feedback, next_feedback_id
from repro.knowledge import Instruction, KnowledgeSet, KnowledgeSetHistory


def make_feedback(text):
    return Feedback(
        feedback_id=next_feedback_id(),
        question="q?",
        generated_sql="SELECT 1",
        text=text,
    )


class TestDirectives:
    def test_refers_to_column(self):
        directives = parse_directives(
            "'outlay' refers to the EXPENSES column in SPORTS_FINANCIALS.",
            None,
        )
        assert directives[0]["sql_pattern"] == (
            "COLUMN SPORTS_FINANCIALS.EXPENSES"
        )
        assert directives[0]["term"] == "outlay"

    def test_value_of(self):
        directives = parse_directives(
            "'Lisbon' is a value of STORES.CITY.", None
        )
        assert directives[0]["sql_pattern"] == "VALUE STORES.CITY"

    def test_means_with_filter(self):
        directives = parse_directives(
            "'premium' means high-value orders; filter AMOUNT > 800.", None
        )
        assert directives[0]["instruction_kind"] == "guideline"
        assert directives[0]["sql_pattern"] == "AMOUNT > 800"

    def test_means_same_as_known_term(self):
        knowledge = KnowledgeSet()
        from repro.knowledge import Instruction

        knowledge.add_instruction(
            Instruction(
                "in1", "AOV means average order value",
                kind="term_definition", term="AOV",
                sql_pattern="AVG(AMOUNT)", tables=("ORDERS",),
            )
        )
        directives = parse_directives(
            "'basket size' means the same as AOV", knowledge
        )
        assert directives[0]["sql_pattern"] == "AVG(AMOUNT)"

    def test_calculated_as(self):
        directives = parse_directives(
            "net margin should be calculated as "
            "SUM(REVENUE) - SUM(EXPENSES).",
            None,
        )
        assert directives[0]["term"] == "net margin"
        assert directives[0]["sql_pattern"].startswith("SUM(REVENUE)")

    def test_use_idiom_canned_fragment(self):
        directives = parse_directives(
            "use the topk_both_ends idiom", None
        )
        assert directives[0]["component"] == "example"
        assert "ROW_NUMBER" in directives[0]["sql"]
        assert directives[0]["pattern"] == "topk_both_ends"

    def test_unknown_idiom_without_fragment_skipped(self):
        assert parse_directives("use the frobnicate idiom", None) == []

    def test_update_component(self):
        directives = parse_directives(
            "ex-00001 should be SUM(X) instead", None
        )
        assert directives[0]["action"] == ACTION_UPDATE
        assert directives[0]["component_id"] == "ex-00001"

    def test_delete_component(self):
        directives = parse_directives("please delete ins-00002", None)
        assert directives[0]["action"] == ACTION_DELETE

    def test_vague_text_yields_no_directives(self):
        assert parse_directives("this looks wrong somehow", None) == []


class TestOperators:
    def test_targets_flag_unknown_quoted_terms(self, sports_pipeline):
        result = sports_pipeline.generate("What is the total revenue?")
        feedback = make_feedback("'wobble' means something undefined")
        targets = generate_targets(
            feedback, result.context, sports_pipeline.knowledge
        )
        assert any(
            not target.component_id and "wobble" in target.reason
            for target in targets
        )

    def test_targets_match_retrieved_instructions(self, sports_pipeline):
        result = sports_pipeline.generate(
            "What is the RPV of our organisations?"
        )
        feedback = make_feedback(
            "the revenue per viewer calculation ignored viewers"
        )
        targets = generate_targets(
            feedback, result.context, sports_pipeline.knowledge
        )
        assert any(target.component_id for target in targets)

    def test_expand_includes_grounding_issues(self, sports_pipeline):
        result = sports_pipeline.generate("What is the total gibberish?")
        feedback = make_feedback("wrong column used")
        targets = generate_targets(
            feedback, result.context, sports_pipeline.knowledge
        )
        expanded = expand_feedback(feedback, result, targets)
        assert "unresolved" in expanded.summary

    def test_plan_and_generate_insert(self):
        knowledge = KnowledgeSet()
        feedback = make_feedback(
            "'outlay' refers to the EXPENSES column in SPORTS_FINANCIALS."
        )
        steps, directives = plan_edits(feedback, knowledge)
        assert steps[0].action == ACTION_INSERT
        edits = generate_edits(feedback, directives, knowledge)
        assert edits[0].payload.term == "outlay"
        assert edits[0].payload.provenance.source_kind == "feedback"

    def test_fallback_guideline_on_vague_feedback(self):
        knowledge = KnowledgeSet()
        feedback = make_feedback("this is just wrong")
        _steps, directives = plan_edits(feedback, knowledge)
        edits = generate_edits(feedback, directives, knowledge)
        assert edits[0].kind == "instruction"
        assert edits[0].payload.text == "this is just wrong"

    def test_update_edit_rewrites_example(self):
        from repro.knowledge import DecomposedExample

        knowledge = KnowledgeSet()
        knowledge.add_example(
            DecomposedExample("ex-77777", "desc", "SUM(WRONG)")
        )
        feedback = make_feedback("ex-77777 should be SUM(RIGHT).")
        _steps, directives = plan_edits(feedback, knowledge)
        edits = generate_edits(feedback, directives, knowledge)
        assert edits[0].action == ACTION_UPDATE
        assert edits[0].payload.sql == "SUM(RIGHT)"

    def test_apply_edit_round_trip(self):
        knowledge = KnowledgeSet()
        feedback = make_feedback("'x' is a value of T.C.")
        _steps, directives = plan_edits(feedback, knowledge)
        edits = generate_edits(feedback, directives, knowledge)
        apply_edit(knowledge, edits[0])
        assert knowledge.stats()["instructions"] == 1


class TestSolverFlow:
    @pytest.fixture()
    def solver(self, experiment_context):
        from repro.pipeline import GenEditPipeline

        profile = experiment_context.profiles["sports_holdings"]
        knowledge = experiment_context.knowledge_sets["sports_holdings"].clone()
        pipeline = GenEditPipeline(profile.database, knowledge)
        golden = [
            GoldenQuery(entry.question, entry.sql)
            for entry in experiment_context.workload.training_logs[
                "sports_holdings"
            ][:2]
        ]
        return FeedbackSolver(pipeline, golden_queries=golden)

    def test_feedback_requires_question(self, solver):
        with pytest.raises(RuntimeError):
            solver.give_feedback("nope")

    def test_full_improvement_loop(self, solver):
        solver.ask("What is the average outlay?")
        recommendations = solver.give_feedback(
            "'outlay' refers to the EXPENSES column in SPORTS_FINANCIALS."
        )
        assert recommendations
        solver.stage()
        result = solver.regenerate()
        assert "EXPENSES" in result.sql
        submission = solver.submit()
        assert submission.status == SUBMISSION_PENDING_APPROVAL
        assert submission.regression_report.passed

    def test_staging_does_not_touch_live_knowledge(self, solver):
        before = solver.pipeline.knowledge.stats()["instructions"]
        solver.ask("What is the average outlay?")
        solver.give_feedback(
            "'outlay' refers to the EXPENSES column in SPORTS_FINANCIALS."
        )
        solver.stage()
        solver.regenerate()
        assert solver.pipeline.knowledge.stats()["instructions"] == before

    def test_dismiss_removes_from_staging(self, solver):
        solver.ask("What is the average outlay?")
        recommendations = solver.give_feedback(
            "'outlay' refers to the EXPENSES column in SPORTS_FINANCIALS."
        )
        solver.stage()
        solver.dismiss(recommendations[0].edit_id)
        assert solver.staged_edits() == []

    def test_regenerate_and_submit_refit_each_edited_index_once(
        self, solver
    ):
        from repro.obs.metrics import get_metrics

        live = solver.pipeline.knowledge
        for search in (live.search_examples, live.search_instructions,
                       live.search_intents):
            search("outlay")        # the live indexes start fitted
        solver.ask("What is the average outlay?")
        solver.give_feedback(
            "'outlay' refers to the EXPENSES column in SPORTS_FINANCIALS."
        )
        edited = {edit.kind for edit in solver.stage()}
        metrics = get_metrics()
        before = metrics.counter_value("retrieval.refits")
        solver.regenerate()
        solver.submit()
        assert metrics.counter_value("retrieval.refits") - before == len(
            edited
        )

    def test_one_staged_set_per_list_of_staged_edits(self, solver):
        solver.ask("What is the average outlay?")
        (edit,) = solver.give_feedback(
            "'outlay' refers to the EXPENSES column in SPORTS_FINANCIALS."
        )
        solver.stage()
        staged = solver.staging_knowledge()
        assert solver.staging_knowledge() is staged
        solver.dismiss(edit.edit_id)
        emptied = solver.staging_knowledge()
        assert emptied is not staged
        assert emptied.revision is solver.pipeline.knowledge.revision
        solver.stage(edit.edit_id)
        restaged = solver.staging_knowledge()
        assert restaged is not emptied
        assert restaged.stats() == staged.stats()
        # An edit to the staged set itself, or to the live set, rebuilds.
        restaged.delete_example(next(iter(restaged._examples)))
        rebuilt = solver.staging_knowledge()
        assert rebuilt is not restaged and rebuilt.stats() == staged.stats()
        solver.pipeline.knowledge.add_instruction(
            Instruction("in-live-edit", "Count distinct organisations.")
        )
        assert solver.staging_knowledge() is not rebuilt

    def test_iteration_counter(self, solver):
        solver.ask("What is the average outlay?")
        solver.give_feedback("hmm")
        solver.give_feedback("'outlay' refers to the EXPENSES column "
                             "in SPORTS_FINANCIALS.")
        assert solver.iterations == 2


class TestStagingPipelines:
    def test_regenerate_and_regression_keep_model_and_deadline(
        self, experiment_context
    ):
        import time

        from repro.llm import GPT_4O, SimulatedLLM
        from repro.pipeline import GenEditPipeline
        from repro.resilience import deadline_scope

        profile = experiment_context.profiles["sports_holdings"]
        live = experiment_context.knowledge_sets["sports_holdings"].clone()
        pipeline = GenEditPipeline(
            profile.database, live, llm=SimulatedLLM(linking_model=GPT_4O),
        )
        golden = [
            GoldenQuery(entry.question, entry.sql)
            for entry in experiment_context.workload.training_logs[
                "sports_holdings"
            ][:2]
        ]
        solver = FeedbackSolver(pipeline, golden_queries=golden)
        question = "What is the average outlay?"
        solver.ask(question)
        solver.give_feedback(
            "'outlay' refers to the EXPENSES column in SPORTS_FINANCIALS."
        )
        solver.stage()
        memo = profile.database.memo("generation")
        before = set(memo)
        # Under a served request's deadline, which the key does not hold.
        with deadline_scope(time.monotonic() + 60.0):
            solver.regenerate()
            solver.submit()
        staged = solver.staging_knowledge().revision
        # (revision, config, model, linking model, question)
        written = set(memo) - before
        assert {(key[0], key[-1]) for key in written} == {
            (staged, question),
            *((revision, query.question)
              for revision in (live.revision, staged) for query in golden),
        }
        assert {key[2:] for key in written} == {
            (pipeline.llm.model, GPT_4O, key[-1]) for key in written
        }


class TestApprovalQueue:
    def test_approve_merges_and_records(self, experiment_context):
        from repro.pipeline import GenEditPipeline

        profile = experiment_context.profiles["sports_holdings"]
        knowledge = experiment_context.knowledge_sets["sports_holdings"].clone()
        history = KnowledgeSetHistory(knowledge)
        queue = ApprovalQueue(knowledge, history)
        pipeline = GenEditPipeline(profile.database, knowledge)
        solver = FeedbackSolver(pipeline, approval_queue=queue)
        solver.ask("What is the average outlay?")
        solver.give_feedback(
            "'outlay' refers to the EXPENSES column in SPORTS_FINANCIALS."
        )
        solver.stage()
        submission = solver.submit()
        assert submission.status == SUBMISSION_PENDING_APPROVAL
        assert queue.pending() == [submission]
        before = knowledge.stats()["instructions"]
        queue.approve(submission, reviewer="alice")
        assert submission.status == SUBMISSION_MERGED
        assert knowledge.stats()["instructions"] == before + 1
        assert history.records()[0].author == "alice"
        # merged edits create a checkpoint for reversion
        assert len(history.checkpoints()) == 2

    def test_reject(self, experiment_context):
        from repro.pipeline import GenEditPipeline

        profile = experiment_context.profiles["sports_holdings"]
        knowledge = experiment_context.knowledge_sets["sports_holdings"].clone()
        queue = ApprovalQueue(knowledge)
        pipeline = GenEditPipeline(profile.database, knowledge)
        solver = FeedbackSolver(pipeline, approval_queue=queue)
        solver.ask("What is the average outlay?")
        solver.give_feedback("'outlay' refers to the EXPENSES column "
                             "in SPORTS_FINANCIALS.")
        solver.stage()
        submission = solver.submit()
        queue.reject(submission)
        assert submission.status == SUBMISSION_REJECTED
        assert queue.pending() == []


def _all_searches(knowledge, queries):
    """Ids and ``==``-comparable scores of all three search methods."""
    return [
        [(hit.doc_id, hit.score) for hit in search(query, k=1000)]
        for search in (
            knowledge.search_examples,
            knowledge.search_instructions,
            knowledge.search_intents,
        )
        for query in queries
    ]


class TestStagingClone:
    def test_clone_searches_equal_snapshot_restore_over_seeded_sessions(
        self, experiment_context, monkeypatch
    ):
        from repro.bench.feedback_sim import simulate_feedback_sessions

        original = FeedbackSolver.staging_knowledge
        compared = []

        def staging_knowledge(solver):
            staged = original(solver)
            live = solver.pipeline.knowledge
            restored = KnowledgeSet(live.name).restore(live.snapshot())
            for edit in solver.staged_edits():
                apply_edit(restored, edit)
            queries = [solver.question, solver.feedback.text]
            assert _all_searches(staged, queries) == _all_searches(
                restored, queries
            )
            compared.append(len(solver.staged_edits()))
            return staged

        monkeypatch.setattr(
            FeedbackSolver, "staging_knowledge", staging_knowledge
        )
        summary = simulate_feedback_sessions(context=experiment_context)
        assert summary.sessions > 0
        assert len(compared) >= summary.sessions
        assert sum(compared) > 0

    def test_sessions_on_clones_match_sessions_on_rebuilds(
        self, experiment_context
    ):
        """Every seeded session staged on clones, then on full rebuilds.

        A rebuild (``restore(snapshot())``) shares nothing with its source
        and gets a new revision, so its submits also miss the regression
        memo. Per-round SQL, gate reports, regression reports and
        submission statuses must not tell the two apart.
        """
        on_clones = _recorded_sessions(experiment_context)
        with mock.patch.object(KnowledgeSet, "clone", _rebuild):
            on_rebuilds = _recorded_sessions(experiment_context)
        assert on_clones == on_rebuilds
        kinds = [record[0] for record in on_clones]
        assert kinds.count("submit") > 10
        assert kinds.count("regenerate") > kinds.count("ask") > 10


def _rebuild(knowledge):
    return KnowledgeSet(knowledge.name).restore(knowledge.snapshot())


def _recorded_sessions(context):
    """What each seeded session showed the SME, in order."""
    from repro.bench.feedback_sim import simulate_feedback_sessions

    for profile in context.profiles.values():
        profile.database.clear_memos()
    records = []
    ask, regenerate, submit = (
        FeedbackSolver.ask, FeedbackSolver.regenerate, FeedbackSolver.submit
    )

    def recorded_ask(solver, question):
        result = ask(solver, question)
        records.append(("ask", question, result.sql))
        return result

    def recorded_regenerate(solver):
        result = regenerate(solver)
        records.append(("regenerate", solver.feedback.text, result.sql))
        return result

    def recorded_submit(solver):
        submission = submit(solver)
        gate = submission.knowledge_gate
        regression = submission.regression_report
        records.append((
            "submit", submission.status, gate, gate.passed,
            regression.results, regression.passed,
        ))
        return submission

    with mock.patch.object(FeedbackSolver, "ask", recorded_ask), \
            mock.patch.object(FeedbackSolver, "regenerate",
                              recorded_regenerate), \
            mock.patch.object(FeedbackSolver, "submit", recorded_submit):
        summary = simulate_feedback_sessions(context=context)
    records.append(("summary", summary))
    return records


def _regression_db(name="regression"):
    """One-table database for golden queries about employees."""
    from repro.engine import Column, Database

    db = Database(name)
    db.create_table(
        "EMP",
        [
            Column("EMP_ID", "INTEGER", "Unique employee id."),
            Column("EMP_NAME", "TEXT", "Employee name."),
            Column("SALARY", "FLOAT", "Annual salary."),
        ],
        rows=[(1, "Ada", 120.0), (2, "Grace", 140.0)],
        description="Each row is an employee.",
    )
    return db


def _regression_knowledge():
    from repro.knowledge import SchemaElement

    knowledge = KnowledgeSet("regression")
    knowledge.add_schema_element(SchemaElement(
        "se-emp", "EMP", description="Each row is an employee.",
    ))
    return knowledge


COUNT_EMPLOYEES = GoldenQuery(
    "How many employees are there?", "SELECT COUNT(*) FROM EMP"
)


def _traced_regression(database, live, staged, golden, **options):
    """``(report, [(before, after) per golden query])``, the sources read
    off the ``regression.golden`` spans."""
    from repro.feedback.regression import run_regression
    from repro.obs.tracing import Tracer

    tracer = Tracer()
    report = run_regression(database, live, staged, golden, tracer=tracer,
                            **options)
    spans = tracer.finished_spans()
    sources = [
        (span.attributes["before"], span.attributes["after"])
        for span in spans if span.name == "regression.golden"
    ]
    return report, sources


class TestRegressionMemo:
    """Golden-query outcomes memoised per (database, revision, config)."""

    def test_warm_report_equals_cold_over_seed7_sessions(
        self, seed7_memo_replay
    ):
        counts, mismatches, grown = seed7_memo_replay
        assert counts["regression"] == 43
        assert mismatches == []
        # Only the asks, the regenerates and the regressions answer
        # through the memo, so the hits beyond the first two are the
        # regressions'.
        assert grown["generation.memo_hits"] > counts["memo_hits"]

    def test_every_session_ask_is_a_memo_hit_equal_to_cold(
        self, seed7_memo_replay
    ):
        # The replay compares every ask and regenerate with a cold
        # generation on a rebuilt set; the GenEdit pass that found the
        # failures already answered each session's question.
        counts, mismatches, grown = seed7_memo_replay
        assert counts["ask"] == 43
        assert counts["regenerate"] > counts["ask"]
        assert not [line for line in mismatches
                    if " ask " in line or " regenerate " in line]
        assert counts["memo_hits"] >= counts["ask"]
        assert grown["generation.memo_hits"] >= counts["memo_hits"]

    def test_warm_steps_reuse_verdicts_and_searches(self, seed7_memo_replay):
        # Every warm answer, regression report and gate equals its cold
        # recomputation (no mismatch), and the warm steps read both memos.
        counts, mismatches, _grown = seed7_memo_replay
        assert mismatches == []
        assert counts["execution_hits"] > 0
        assert counts["search_hits"] > 0

    def test_repeat_submit_regenerates_only_the_staged_side(self):
        from repro.obs.metrics import get_metrics

        db = _regression_db()
        live = _regression_knowledge()
        metrics = get_metrics()
        hits = metrics.counter_value("generation.memo_hits")
        misses = metrics.counter_value("generation.memo_misses")
        _report, sources = _traced_regression(
            db, live, live.clone(), [COUNT_EMPLOYEES]
        )
        # A clone shares the live revision: the staged side hits.
        assert sources == [("generated", "memo")]
        # The registry counts the same two lookups once, as the answers'.
        assert metrics.counter_value("generation.memo_hits") == hits + 1
        assert metrics.counter_value("generation.memo_misses") == misses + 1
        staged = live.clone()
        staged.add_instruction(
            Instruction("in-new", "Count employees.", tables=("EMP",))
        )
        _report, sources = _traced_regression(
            db, live, staged, [COUNT_EMPLOYEES]
        )
        assert sources == [("memo", "generated")]

    def test_edit_that_changes_the_outcome_is_not_served_stale(
        self, experiment_context, check_gate_memo
    ):
        profile = experiment_context.profiles["sports_holdings"]
        live = experiment_context.knowledge_sets["sports_holdings"]
        golden = [
            GoldenQuery(entry.question, entry.sql)
            for entry in experiment_context.workload.training_logs[
                "sports_holdings"
            ][:3]
        ]
        warm_up, _sources = _traced_regression(
            profile.database, live, live.clone(), golden
        )
        assert warm_up.passed
        staged = live.clone()
        for element in staged.schema_elements():
            staged.delete_schema_element(element.element_id)
        report, sources = _traced_regression(
            profile.database, live, staged, golden
        )
        assert sources == [("memo", "generated")] * len(golden)
        assert report.results == check_gate_memo._cold_regression(
            profile.database, live, staged, golden
        ).results
        assert not report.passed

    def test_table_insert_causes_misses(self):
        db = _regression_db()
        live = _regression_knowledge()
        first, _sources = _traced_regression(
            db, live, live, [COUNT_EMPLOYEES]
        )
        db.table("EMP").insert((3, "Alan", 90.0))
        report, sources = _traced_regression(
            db, live, live, [COUNT_EMPLOYEES]
        )
        assert sources == [("generated", "memo")]
        assert report.results == first.results

    def test_add_table_causes_misses(self):
        from repro.engine import Column, Table

        db = _regression_db()
        live = _regression_knowledge()
        _traced_regression(db, live, live, [COUNT_EMPLOYEES])
        db.add_table(Table("DEPT", [Column("DEPT_ID", "INTEGER")]))
        _report, sources = _traced_regression(
            db, live, live, [COUNT_EMPLOYEES]
        )
        assert sources == [("generated", "memo")]

    def test_config_is_part_of_the_key(self):
        from repro.pipeline import DEFAULT_CONFIG, GenEditPipeline

        db = _regression_db()
        live = _regression_knowledge()
        _traced_regression(db, live, live, [COUNT_EMPLOYEES])
        _report, sources = _traced_regression(
            db, live, live, [COUNT_EMPLOYEES],
            pipeline=GenEditPipeline(
                db, live, config=DEFAULT_CONFIG.without("instructions")
            ),
        )
        assert sources == [("generated", "memo")]
        # No pipeline is a default pipeline: the default config.
        _report, sources = _traced_regression(
            db, live, live, [COUNT_EMPLOYEES],
            pipeline=GenEditPipeline(db, live, config=DEFAULT_CONFIG),
        )
        assert sources == [("memo", "memo")]

    def test_new_gold_sql_is_rescored_on_a_memo_hit(self):
        # The memo holds the generation, keyed on the question; the EX
        # check against each golden query's SQL runs on every regression.
        db = _regression_db()
        live = _regression_knowledge()
        first, _sources = _traced_regression(
            db, live, live, [COUNT_EMPLOYEES]
        )
        wrong_gold = GoldenQuery(COUNT_EMPLOYEES.question,
                                 "SELECT COUNT(*) + 1 FROM EMP")
        report, sources = _traced_regression(
            db, live, live, [wrong_gold]
        )
        assert sources == [("memo", "memo")]
        assert report.results[0].correct_before is not (
            first.results[0].correct_before
        )

    def test_same_named_database_never_reuses_entries(self):
        first = _regression_db(name="twin")
        second = _regression_db(name="twin")
        assert first.version == second.version
        live = _regression_knowledge()
        _traced_regression(first, live, live, [COUNT_EMPLOYEES])
        _report, sources = _traced_regression(
            second, live, live, [COUNT_EMPLOYEES]
        )
        assert sources == [("generated", "memo")]

    def test_entries_dropped_with_their_database(self):
        import gc
        import weakref

        db = _regression_db()
        live = _regression_knowledge()
        _traced_regression(db, live, live, [COUNT_EMPLOYEES])
        assert db.memo("generation")
        alive = weakref.ref(db)
        del db
        gc.collect()
        assert alive() is None

    def test_baseline_record_takes_precedence(self):
        db = _regression_db()
        live = _regression_knowledge()
        _traced_regression(db, live, live, [COUNT_EMPLOYEES])
        baseline = {
            "run_id": "run-baseline",
            "systems": {"GenEdit": {"outcomes": [{
                "question": COUNT_EMPLOYEES.question,
                "correct": False,
                "lint_codes": ["GE002"],
            }]}},
        }
        report, sources = _traced_regression(
            db, live, live, [COUNT_EMPLOYEES], baseline=baseline
        )
        assert report.baseline_hits == 1
        assert sources == [("baseline", "memo")]
        assert report.results[0].correct_before is False

