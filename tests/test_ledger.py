"""Run ledger tests: records, determinism, diffing, triage, CLI.

Covers DESIGN.md §6d — the content-addressed run store, run-to-run
diffing with first-divergence attribution, failure triage through the
resilience taxonomy, regression baselining, and the satellite fixes
(``format_table`` alignment, ``_safe_main``, profile ``schema_version``
round-trip).
"""

from __future__ import annotations

import io
import json

import pytest

from repro.bench.harness import (
    PROFILE_SCHEMA_VERSION,
    _knowledge_lint_codes,
    evaluate_system,
    format_table,
)
from repro.bench.metrics import EvaluationReport, QuestionOutcome
from repro.cli import _safe_main, build_arg_parser
from repro.obs.ledger import (
    LEDGER_SCHEMA_VERSION,
    RunLedger,
    build_run_record,
    build_timing,
    config_fingerprint,
    diff_records,
    first_divergence,
    golden_queries_from_record,
    knowledge_fingerprint,
    outcomes_by_question,
    render_diff,
    render_triage,
    triage_record,
)
from repro.pipeline.config import DEFAULT_CONFIG
from repro.pipeline.pipeline import GenEditPipeline
from repro.resilience import categorize_failure


def make_outcome(question_id="q-1", correct=True, error="", cost=0.01,
                 latency=50.0, digests=(), lint_codes=(), degraded=(),
                 question="How many teams?", sql="SELECT 1"):
    return QuestionOutcome(
        question_id=question_id,
        difficulty="simple",
        database="demo",
        correct=correct,
        predicted_sql=sql,
        gold_sql="SELECT 1",
        cost_usd=cost,
        latency_ms=latency,
        error=error,
        degraded=tuple(degraded),
        question_text=question,
        lint_codes=tuple(lint_codes),
        operator_digests=tuple(digests),
        llm_calls=(("generate_sql", "gpt-4o", 100, 10, cost),),
    )


def make_record(outcomes, system="GenEdit", **kwargs):
    report = EvaluationReport(system=system)
    for outcome in outcomes:
        report.add(outcome)
    kwargs.setdefault("kind", "bench")
    kwargs.setdefault("target", "test")
    kwargs.setdefault("seed", 7)
    return build_run_record([report], **kwargs)


TRAIL_A = (("reformulate", "aaa"), ("plan", "bbb"), ("generate_sql", "ccc"))
TRAIL_B = (("reformulate", "aaa"), ("plan", "xxx"), ("generate_sql", "yyy"))


class TestFingerprints:
    def test_knowledge_fingerprint_stable_under_clone(
        self, experiment_context
    ):
        knowledge = experiment_context.knowledge_sets["sports_holdings"]
        assert knowledge_fingerprint(knowledge) == knowledge_fingerprint(
            knowledge.clone()
        )

    def test_knowledge_fingerprint_changes_on_edit(self, experiment_context):
        knowledge = experiment_context.knowledge_sets["sports_holdings"]
        edited = knowledge.clone()
        edited.delete_example(edited.examples()[0].example_id)
        assert knowledge_fingerprint(edited) != knowledge_fingerprint(
            knowledge
        )

    def test_knowledge_fingerprint_pinned_for_seed7(self, monkeypatch):
        import itertools

        import repro.knowledge.models as models
        from repro.bench.harness import ExperimentContext

        # Mined component ids come from a process-wide counter.
        monkeypatch.setattr(models, "_id_counter", itertools.count(1))
        knowledge_sets = ExperimentContext(7).knowledge_sets
        assert {
            name: knowledge_fingerprint(knowledge)
            for name, knowledge in knowledge_sets.items()
        } == {
            "energy_grid": "553d0d98446b98c6",
            "global_logistics": "23b94270149bc022",
            "healthcare_network": "f75c125f427b3bd4",
            "retail_chain": "99fdd773a239a2ca",
            "sports_holdings": "96ad55521a17c445",
            "university": "c133d0de41d2b643",
        }

    def test_config_fingerprint_tracks_config_and_seed(self):
        base = config_fingerprint(DEFAULT_CONFIG, 7)
        assert base == config_fingerprint(DEFAULT_CONFIG, 7)
        assert base != config_fingerprint(DEFAULT_CONFIG, 8)
        assert base != config_fingerprint(
            DEFAULT_CONFIG.without("examples"), 7
        )


class TestRunLedgerStore:
    def test_record_run_roundtrip(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        record = make_record([make_outcome()])
        run_id = ledger.record_run(
            record, timing=build_timing(()), meta={"note": "hi"}
        )
        loaded = ledger.read_record(run_id)
        assert loaded["run_id"] == run_id
        assert loaded["schema_version"] == LEDGER_SCHEMA_VERSION
        assert loaded["systems"]["GenEdit"]["questions"] == 1
        assert ledger.read_meta(run_id)["note"] == "hi"

    def test_identical_content_shares_digest(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        record = make_record([make_outcome()])
        id_a = ledger.record_run(dict(record))
        id_b = ledger.record_run(dict(record))
        assert id_a != id_b
        assert id_a.split("-")[1] == id_b.split("-")[1]

    def test_resolve_latest_prefix_and_errors(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        id_a = ledger.record_run(make_record([make_outcome()]))
        id_b = ledger.record_run(make_record([make_outcome(correct=False,
                                                           error="x: y")]))
        assert ledger.resolve("latest") == id_b
        assert ledger.resolve("latest~1") == id_a
        assert ledger.resolve(id_a) == id_a
        assert ledger.resolve(id_b[: len(id_b) - 2]) == id_b
        with pytest.raises(KeyError, match="No run matching"):
            ledger.resolve("nope")
        with pytest.raises(KeyError, match="cannot resolve"):
            ledger.resolve("latest~9")

    def test_gc_keeps_newest(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        ids = [
            ledger.record_run(make_record([make_outcome(cost=0.01 * n)]))
            for n in range(1, 4)
        ]
        removed = ledger.gc(keep=1)
        assert removed == ids[:2]
        assert ledger.run_ids() == [ids[2]]

    @staticmethod
    def _age_run(ledger, run_id, created_at):
        import os

        meta_path = os.path.join(ledger.run_dir(run_id), "meta.json")
        with open(meta_path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
        meta["created_at"] = created_at
        with open(meta_path, "w", encoding="utf-8") as handle:
            json.dump(meta, handle)

    def test_gc_keep_days_removes_only_old_runs(self, tmp_path):
        import calendar
        import time

        ledger = RunLedger(tmp_path / "runs")
        old_id = ledger.record_run(make_record([make_outcome(cost=0.01)]))
        new_id = ledger.record_run(make_record([make_outcome(cost=0.02)]))
        self._age_run(ledger, old_id, "2026-01-01T00:00:00Z")
        now = calendar.timegm(
            time.strptime("2026-01-20T00:00:00Z", "%Y-%m-%dT%H:%M:%SZ")
        )
        removed = ledger.gc(keep=0, keep_days=7, now=now)
        assert removed == [old_id]
        assert ledger.run_ids() == [new_id]

    def test_gc_keep_days_spares_recent_runs(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        ledger.record_run(make_record([make_outcome()]))
        ledger.record_run(make_record([make_outcome(cost=0.02)]))
        assert ledger.gc(keep=0, keep_days=7) == []
        assert len(ledger.run_ids()) == 2

    def test_gc_count_and_age_policies_compose(self, tmp_path):
        import calendar
        import time

        ledger = RunLedger(tmp_path / "runs")
        ids = [
            ledger.record_run(make_record([make_outcome(cost=0.01 * n)]))
            for n in range(1, 4)
        ]
        # ids[1] is inside the count bound but over the age bound.
        self._age_run(ledger, ids[1], "2026-01-01T00:00:00Z")
        now = calendar.timegm(
            time.strptime("2026-02-01T00:00:00Z", "%Y-%m-%dT%H:%M:%SZ")
        )
        removed = ledger.gc(keep=2, keep_days=7, now=now)
        assert removed == ids[:2]
        assert ledger.run_ids() == [ids[2]]

    def test_list_runs_summaries(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        run_id = ledger.record_run(make_record([make_outcome()]))
        (summary,) = ledger.list_runs()
        assert summary["run_id"] == run_id
        assert summary["questions"] == 1
        assert summary["ex_all"] == 100.0

    def test_env_var_names_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "envruns"))
        assert RunLedger().root == str(tmp_path / "envruns")

    def test_profile_schema_version_roundtrips(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        profile_payload = {
            "schema_version": PROFILE_SCHEMA_VERSION,
            "stages": {"build": 0.1},
        }
        spans = [
            {"type": "span", "name": "generate", "duration_ms": ms}
            for ms in (5.0, 15.0, 10.0)
        ]
        run_id = ledger.record_run(
            make_record([make_outcome()]),
            timing=build_timing(spans, profile=profile_payload),
        )
        timing = json.loads(json.dumps(ledger.read_timing(run_id)))
        assert timing["profile"]["schema_version"] == PROFILE_SCHEMA_VERSION
        rollup = timing["span_rollups"]["generate"]
        assert rollup["count"] == 3
        assert rollup["p50_ms"] == 10.0
        assert rollup["max_ms"] == 15.0


class TestFirstDivergence:
    def test_identical_trails_blame_final_check(self):
        entry = make_record([make_outcome(digests=TRAIL_A)])
        outcome = entry["systems"]["GenEdit"]["outcomes"][0]
        assert first_divergence(outcome, outcome) == "final_check"

    def test_earliest_differing_operator_named(self):
        record_a = make_record([make_outcome(digests=TRAIL_A)])
        record_b = make_record([make_outcome(digests=TRAIL_B)])
        assert first_divergence(
            record_a["systems"]["GenEdit"]["outcomes"][0],
            record_b["systems"]["GenEdit"]["outcomes"][0],
        ) == "plan"

    def test_missing_trail_is_unknown(self):
        assert first_divergence(
            {"operator_digests": []},
            {"operator_digests": [["plan", "x"]]},
        ) == "unknown"

    def test_longer_trail_blames_first_extra_operator(self):
        assert first_divergence(
            {"operator_digests": [["reformulate", "a"]]},
            {"operator_digests": [["reformulate", "a"], ["plan", "b"]]},
        ) == "plan"


class TestDiffRecords:
    def test_identical_records_diff_clean(self):
        record = make_record([make_outcome(digests=TRAIL_A)])
        diff = diff_records(record, record)
        assert diff["flips"] == 0
        assert diff["cost_delta_usd"] == 0.0
        assert not diff["config_changed"]
        assert "total: 0 flip(s)" in render_diff(diff)

    def test_flip_carries_direction_and_divergence(self):
        record_a = make_record(
            [make_outcome(digests=TRAIL_A, cost=0.01)]
        )
        record_b = make_record(
            [make_outcome(correct=False, error="result mismatch",
                          digests=TRAIL_B, cost=0.03,
                          lint_codes=("GE002",))]
        )
        diff = diff_records(record_a, record_b)
        assert diff["flips"] == 1
        (flip,) = diff["systems"]["GenEdit"]["flips"]
        assert flip["direction"] == "broke"
        assert flip["first_divergence"] == "plan"
        assert diff["systems"]["GenEdit"]["new_codes"] == {"GE002": 1}
        assert diff["cost_delta_usd"] == pytest.approx(0.02)
        rendered = render_diff(diff, show_sql=True)
        assert "broke" in rendered and "first divergence: plan" in rendered

    def test_degradation_delta_tracked(self):
        record_a = make_record([make_outcome()])
        record_b = make_record(
            [make_outcome(degraded=("self_correct",))]
        )
        diff = diff_records(record_a, record_b)
        assert diff["systems"]["GenEdit"]["degraded_delta"] == {
            "self_correct": 1
        }


class TestCategorizeFailure:
    @pytest.mark.parametrize("text,category", [
        ("", "none"),
        ("result mismatch", "wrong-result"),
        ("no SQL generated", "no-sql"),
        ("TransientLLMError: backend flaked", "llm-transient"),
        ("plan: LLMTimeoutError: too slow", "llm-timeout"),
        ("RetriesExhaustedError: site=plan attempts=4", "retries-exhausted"),
        ("AssertionError: Gold SQL failed", "harness"),
        ("Expected table name, found '<end of input>'", "sql-invalid"),
        ("Unknown column 'CARRIER_NAME'", "execution"),
        ("something entirely novel", "other"),
    ])
    def test_taxonomy(self, text, category):
        assert categorize_failure(text) == category


class TestTriage:
    def test_clusters_failures_and_ranks_cost(self):
        record = make_record([
            make_outcome("q-1"),
            make_outcome("q-2", correct=False, error="result mismatch",
                         cost=0.5),
            make_outcome("q-3", correct=False, error="result mismatch"),
            make_outcome("q-4", correct=False,
                         error="plan: LLMTimeoutError: deadline",
                         latency=900.0, degraded=("reformulate",)),
        ])
        triage = triage_record(record, top=2)
        assert triage["failures"] == 3
        assert triage["categories"]["wrong-result"]["count"] == 2
        assert triage["categories"]["llm-timeout"]["count"] == 1
        assert triage["degraded"] == {"reformulate": 1}
        assert triage["worst_cost"][0]["question_id"] == "q-2"
        assert triage["slowest"][0]["question_id"] == "q-4"
        rendered = render_triage(triage)
        assert "wrong-result: 2" in rendered
        assert "GenEdit/q-2" in rendered


class TestLedgerDeterminism:
    """Two identical-seed runs produce identical records; a perturbed
    knowledge set produces attributed flips (ISSUE 5 acceptance)."""

    @pytest.fixture(scope="class")
    def sports_questions(self, experiment_context):
        return [
            question
            for question in experiment_context.workload.questions
            if question.database == "sports_holdings"
        ][:10]

    def _evaluate(self, context, questions, ledger, knowledge_sets=None):
        """Evaluate GenEdit and record the run the way ``bench`` does;
        returns the run id."""
        knowledge_sets = knowledge_sets or context.knowledge_sets
        report = evaluate_system(
            lambda database, knowledge: GenEditPipeline(database, knowledge),
            context.workload,
            context.profiles,
            knowledge_sets,
            "GenEdit",
            questions=questions,
        )
        record = build_run_record(
            [report],
            kind="bench",
            target="GenEdit",
            seed=context.seed,
            config=DEFAULT_CONFIG,
            knowledge_sets=knowledge_sets,
            knowledge_lint=_knowledge_lint_codes(
                context.profiles, knowledge_sets
            ),
        )
        return ledger.record_run(record, timing=build_timing(()))

    def test_identical_runs_identical_records(
        self, experiment_context, sports_questions, tmp_path
    ):
        ledger = RunLedger(tmp_path / "runs")
        run_a = self._evaluate(experiment_context, sports_questions, ledger)
        run_b = self._evaluate(experiment_context, sports_questions, ledger)
        assert run_a and run_b
        record_a = ledger.read_record(run_a)
        record_b = ledger.read_record(run_b)
        body_a = {k: v for k, v in record_a.items() if k != "run_id"}
        body_b = {k: v for k, v in record_b.items() if k != "run_id"}
        assert body_a == body_b
        assert run_a.split("-")[1] == run_b.split("-")[1]
        diff = diff_records(record_a, record_b)
        assert diff["flips"] == 0
        assert diff["cost_delta_usd"] == 0.0
        assert not diff["knowledge_changes"]

    def test_perturbed_knowledge_attributes_flips(
        self, experiment_context, sports_questions, tmp_path
    ):
        ledger = RunLedger(tmp_path / "runs")
        run_a = self._evaluate(experiment_context, sports_questions, ledger)
        perturbed = dict(experiment_context.knowledge_sets)
        clone = perturbed["sports_holdings"].clone()
        for example in list(clone.examples()):
            clone.delete_example(example.example_id)
        for instruction in list(clone.instructions()):
            clone.delete_instruction(instruction.instruction_id)
        perturbed["sports_holdings"] = clone
        run_b = self._evaluate(experiment_context, sports_questions,
                               ledger, knowledge_sets=perturbed)
        diff = diff_records(ledger.read_record(run_a),
                            ledger.read_record(run_b))
        assert "sports_holdings" in diff["knowledge_changes"]
        assert diff["flips"] >= 1
        operators = {
            flip["first_divergence"]
            for flip in diff["systems"]["GenEdit"]["flips"]
        }
        assert operators <= {
            "reformulate", "classify_intents", "select_examples",
            "select_instructions", "link_schema", "plan", "generate_sql",
            "self_correct", "final_check",
        }
        assert "select_examples" in operators or (
            "select_instructions" in operators
        )


class TestRegressionBaseline:
    def test_run_regression_reuses_baseline_outcomes(
        self, experiment_context, tmp_path
    ):
        from repro.feedback.regression import GoldenQuery, run_regression

        profile = experiment_context.profiles["sports_holdings"]
        knowledge = experiment_context.knowledge_sets["sports_holdings"]
        logged = experiment_context.workload.training_logs[
            "sports_holdings"
        ][0]
        golden = GoldenQuery(logged.question, logged.sql)
        ledger = RunLedger(tmp_path / "runs")
        run_id = ledger.record_run(make_record([
            make_outcome(question=golden.question,
                         sql=golden.gold_sql),
        ]))
        baseline = ledger.read_record(run_id)
        report = run_regression(
            profile.database, knowledge, knowledge, [golden],
            baseline=baseline,
        )
        assert report.baseline_run_id == run_id
        assert report.baseline_hits == 1
        assert f"baseline run {run_id}" in report.summary()
        assert report.results[0].correct_before is True

    def test_outcomes_by_question_and_golden_queries(self):
        record = make_record([
            make_outcome("q-1", question="alpha?", sql="SELECT 1"),
            make_outcome("q-2", question="beta?", correct=False,
                         error="result mismatch"),
        ])
        record["run_id"] = "test-run"
        index = outcomes_by_question(record)
        assert set(index) == {"alpha?", "beta?"}
        anchors = golden_queries_from_record(record)
        assert anchors == [("alpha?", "SELECT 1")]


class TestFormatTable:
    def test_numeric_columns_right_aligned(self):
        table = format_table(
            "t", ("Name", "EX"),
            [("GenEdit", 65.15), ("C3", 5.5)],
        )
        lines = table.splitlines()
        assert lines[1] == "Name    |    EX"
        assert lines[3] == "GenEdit | 65.15"
        assert lines[4] == "C3      |  5.50"

    def test_float_precision_consistent(self):
        table = format_table("t", ("Stage", "s"), [("a", 0.5)], precision=4)
        assert "0.5000" in table

    def test_mixed_column_stays_left_aligned(self):
        table = format_table(
            "t", ("K", "V"), [("a", 1), ("b", "text")]
        )
        assert "1   " in table or "1  " in table.splitlines()[3]


class TestSafeMain:
    def test_passes_through_return_value(self):
        assert _safe_main(lambda value: value, 3) == 3

    def test_broken_pipe_exits_clean(self, monkeypatch):
        import os as os_module

        monkeypatch.setattr(os_module, "dup2", lambda *a: None)

        def explode():
            raise BrokenPipeError()

        assert _safe_main(explode) == 0


class TestLedgerCli:
    def _run(self, argv):
        out = io.StringIO()
        args = build_arg_parser().parse_args(argv)
        code = args.func(args, out=out)
        return code, out.getvalue()

    @pytest.fixture()
    def seeded_ledger(self, tmp_path):
        root = str(tmp_path / "runs")
        ledger = RunLedger(root)
        id_a = ledger.record_run(
            make_record([make_outcome(digests=TRAIL_A)]),
            timing=build_timing(()),
        )
        id_b = ledger.record_run(
            make_record([
                make_outcome(correct=False, error="result mismatch",
                             digests=TRAIL_B),
            ]),
            timing=build_timing(()),
        )
        return root, id_a, id_b

    def test_runs_list_and_empty(self, seeded_ledger, tmp_path):
        root, id_a, _id_b = seeded_ledger
        code, text = self._run(["runs", "--ledger-dir", root])
        assert code == 0 and id_a in text
        code, text = self._run(
            ["runs", "--ledger-dir", str(tmp_path / "void")]
        )
        assert code == 1 and "no runs recorded" in text

    def test_runs_show_with_triage(self, seeded_ledger):
        root, _id_a, id_b = seeded_ledger
        code, text = self._run(
            ["runs", "show", "latest", "--ledger-dir", root, "--triage"]
        )
        assert code == 0
        assert f"run {id_b}" in text
        assert "cost/token accounting (per operator)" in text
        assert "wrong-result: 1" in text

    def test_diff_latest_reports_flip(self, seeded_ledger):
        root, id_a, id_b = seeded_ledger
        code, text = self._run(["diff", "--latest", "--ledger-dir", root])
        assert code == 1
        assert f"run diff: {id_a} -> {id_b}" in text
        assert "first divergence: plan" in text
        code, text = self._run(["diff", id_a, id_a, "--ledger-dir", root])
        assert code == 0 and "total: 0 flip(s)" in text

    def test_diff_errors(self, seeded_ledger):
        root, _id_a, _id_b = seeded_ledger
        code, text = self._run(["diff", "--ledger-dir", root])
        assert code == 2 and "diff needs" in text
        code, text = self._run(["diff", "nope", "latest",
                                "--ledger-dir", root])
        assert code == 2 and "No run matching" in text

    def test_triage_cli(self, seeded_ledger):
        root, _id_a, id_b = seeded_ledger
        code, text = self._run(["triage", "--ledger-dir", root])
        assert code == 0
        assert f"triage: run {id_b}" in text
        assert "wrong-result" in text

    def test_runs_gc(self, seeded_ledger):
        root, _id_a, id_b = seeded_ledger
        code, text = self._run(
            ["runs", "gc", "--keep", "1", "--ledger-dir", root]
        )
        assert code == 0 and "removed 1 run(s)" in text
        assert RunLedger(root).run_ids() == [id_b]

    def test_ask_records_run(self, tmp_path):
        root = str(tmp_path / "runs")
        code, text = self._run([
            "ask", "sports_holdings", "How many teams are there?",
            "--ledger", "--ledger-dir", root,
        ])
        assert code == 0 and "recorded run" in text
        ledger = RunLedger(root)
        record = ledger.read_record("latest")
        assert record["kind"] == "ask"
        assert record["systems"]["ask"]["questions"] == 1
        assert record["accounting"]["total"]["calls"] > 0


class TestProfileSchemaCompat:
    """Profile schema v3+: engine section, v2 payloads keep loading."""

    def test_committed_v2_baseline_still_loads(self, tmp_path):
        import pathlib

        baseline_path = (
            pathlib.Path(__file__).resolve().parent.parent
            / "BENCH_baseline.json"
        )
        baseline = json.loads(baseline_path.read_text())
        assert baseline["schema_version"] == 2
        assert "engine" not in baseline
        ledger = RunLedger(tmp_path / "runs")
        run_id = ledger.record_run(
            make_record([make_outcome()]),
            timing=build_timing([], profile=baseline),
        )
        timing = ledger.read_timing(run_id)
        # The embedded payload keeps its own (older) schema version and the
        # reader does not require the v3-only section.
        assert timing["profile"]["schema_version"] == 2
        assert timing["profile"].get("engine") is None
        assert timing["profile"]["stages"]["generate"] > 0

    @staticmethod
    def _cold(context):
        """Clears the context's database memos, so the profiled run's
        statements reach the engine rather than the execution memo."""
        for entry in context.profiles.values():
            entry.database.clear_memos()
        return context

    def test_profile_reports_engine_breakdown(self, experiment_context):
        from repro.bench.harness import profile

        payload = profile(context=self._cold(experiment_context), limit=2)
        assert payload["schema_version"] == PROFILE_SCHEMA_VERSION == 4
        assert payload["wall_s"] >= sum(payload["stages"].values())
        assert payload["operators"]["generate"]["calls"] == 2
        engine = payload["engine"]
        assert set(engine) >= {
            "rewrite_s", "compile_s", "columnar_selects",
            "row_fallback_selects", "hash_joins", "loop_joins",
            "predicate_cache",
        }
        assert engine["columnar_selects"] > 0
        cache = engine["predicate_cache"]
        assert set(cache) >= {"hits", "misses", "fallbacks", "entries"}
        # Counters are integers reset at the profile boundary (the
        # compiled-predicate cache is process-wide, so a warm one may
        # leave misses at zero).
        assert all(
            isinstance(cache[key], int)
            for key in ("hits", "misses", "fallbacks", "entries")
        )

    def test_engine_counters_in_registry(self, experiment_context):
        from repro.bench.harness import profile
        from repro.obs.metrics import get_metrics

        payload = profile(context=self._cold(experiment_context), limit=1)
        registry = get_metrics()
        engine = payload["engine"]
        assert registry.counter_value("engine.columnar_selects") == \
            engine["columnar_selects"] > 0
        for key in ("hits", "misses", "fallbacks"):
            assert registry.counter_value(f"engine.predicate_cache.{key}") \
                == engine["predicate_cache"][key]

    def test_diff_across_schema_versions_degrades_gracefully(self):
        # A record written by an older ledger (schema v1-era: no faults or
        # accounting blocks, older profile embedded) diffs cleanly against
        # a current one — unknown fields ignored, missing fields defaulted.
        old = make_record([make_outcome()])
        old["schema_version"] = LEDGER_SCHEMA_VERSION - 1
        old.pop("accounting", None)
        old.pop("faults", None)
        new = make_record(
            [make_outcome(correct=False, error="boom: mismatch")]
        )
        diff = diff_records(old, new)
        assert diff["flips"] == 1
        (flip,) = diff["systems"]["GenEdit"]["flips"]
        assert flip["direction"] == "broke"
        rendered = render_diff(diff)
        assert "broke" in rendered


class TestKnowledgeCodeDiff:
    """`repro diff` surfaces new/resolved GK codes between two records."""

    @staticmethod
    def _record(lint_codes):
        from repro.knowledge import KnowledgeSet

        return make_record(
            [make_outcome()],
            knowledge_sets={"demo": KnowledgeSet("demo")},
            knowledge_lint={"demo": lint_codes},
        )

    def test_record_carries_sorted_lint_codes(self):
        record = self._record({"GK010": 2, "GK002": 1})
        assert record["knowledge"]["demo"]["lint_codes"] == {
            "GK002": 1, "GK010": 2,
        }

    def test_new_and_resolved_knowledge_codes(self):
        diff = diff_records(
            self._record({"GK002": 1}), self._record({"GK010": 2})
        )
        change = diff["knowledge_changes"]["demo"]
        assert change["new_codes"] == {"GK010": 2}
        assert change["resolved_codes"] == {"GK002": 1}
        rendered = render_diff(diff)
        assert "knowledge[demo] new knowledge codes: GK010 (x2)" in rendered
        assert (
            "knowledge[demo] resolved knowledge codes: GK002 (x1)"
            in rendered
        )
        # Same fingerprint on both sides: no misleading fingerprint line.
        assert "knowledge[demo]:" not in rendered

    def test_identical_codes_diff_clean(self):
        diff = diff_records(
            self._record({"GK011": 1}), self._record({"GK011": 1})
        )
        assert diff["knowledge_changes"] == {}
        assert "knowledge: identical" in render_diff(diff)

    def test_plan_codes_fold_into_question_code_diff(self):
        record_a = make_record([make_outcome()])
        record_b = make_record([make_outcome(correct=False,
                                             error="result mismatch")])
        record_b["systems"]["GenEdit"]["outcomes"][0]["plan_codes"] = [
            "GP002"
        ]
        diff = diff_records(record_a, record_b)
        assert diff["systems"]["GenEdit"]["new_codes"] == {"GP002": 1}
