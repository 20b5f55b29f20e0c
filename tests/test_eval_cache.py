"""Evaluation fast path: the database memos, and memoised/fresh equivalence."""

import gc
import json
import pathlib
import sys
import threading
import weakref

import pytest

from repro.bench.harness import evaluate_system, profile
from repro.bench.metrics import execution_match
from repro.bench.schemas import build_all
from repro.engine import Column, Database, ExecutionError, Executor
from repro.llm.simulated import _token_set
from repro.obs import get_metrics
from repro.pipeline import GenEditPipeline
from repro.sql import to_cte_form
from repro.sql.errors import SqlError
from repro.sql.parser import parse, parse_cached
from repro.text import TfIdfVectorizer
from repro.text.normalize import _normalized
from repro.text.vectorize import _terms


@pytest.fixture()
def tiny_db():
    db = Database("tiny")
    db.create_table(
        "T",
        [Column("A", "INTEGER", ""), Column("B", "TEXT", "")],
        rows=[(1, "x"), (2, "y")],
    )
    return db


def _memo_counts():
    registry = get_metrics()
    return (registry.counter_value("execution.memo_hits"),
            registry.counter_value("execution.memo_misses"))


def _fresh_match(database, predicted_sql, gold_sql):
    """Execution match through fresh executors, reading no memo."""
    gold = Executor(database).execute(gold_sql).comparable()
    if not predicted_sql:
        return False
    try:
        predicted = Executor(database).execute(predicted_sql).comparable()
    except (SqlError, ExecutionError):
        return False
    return predicted == gold


class TestDatabaseMemo:
    def test_contract(self, tiny_db, monkeypatch):
        from repro.engine import database as database_module
        from repro.feedback.regression import GoldenQuery, run_regression
        from repro.knowledge import KnowledgeSet, SchemaElement
        from repro.knowledge.lint import lint_knowledge

        names = ("execution", "knowledge_lint", "generation")

        def fill(db):
            for name in names:
                db.memo(name).store("key", name)

        def held(db):
            return [name for name in names if "key" in db.memo(name)]

        fill(tiny_db)
        assert held(tiny_db) == list(names)
        # Table.insert and add_table each drop every named memo.
        tiny_db.table("T").insert((3, "z"))
        assert held(tiny_db) == []
        fill(tiny_db)
        tiny_db.create_table("U", [Column("C", "INTEGER", "")])
        assert held(tiny_db) == []
        # The cap clears a full memo before the next store.
        monkeypatch.setattr(database_module, "_MEMO_CAP", 2)
        memo = tiny_db.memo("execution")
        for number in range(3):
            memo.store(number, number)
        assert dict(memo) == {2: 2}
        # clear_memos() empties them all.
        fill(tiny_db)
        tiny_db.clear_memos()
        assert held(tiny_db) == []
        # The memos go with their database.
        monkeypatch.undo()
        db = Database("gc")
        db.create_table("EMP", [Column("EMP_ID", "INTEGER", "")],
                        rows=[(1,), (2,)])
        live = KnowledgeSet("live")
        live.add_schema_element(SchemaElement("se-EMP", "EMP"))
        gold = "SELECT COUNT(*) FROM EMP"
        execution_match(db, "SELECT 2", gold)
        lint_knowledge(live, db)
        run_regression(db, live, live.clone(), [
            GoldenQuery("How many employees are there?", gold),
        ])
        assert all(db.memo(name) for name in names)
        alive = weakref.ref(db)
        del db
        gc.collect()
        assert alive() is None


class TestEvaluationCache:
    """The EX check reads ``database.memo("execution")``."""

    def test_gold_result_memoized(self, tiny_db):
        before = _memo_counts()
        sql = "SELECT A FROM T"
        assert execution_match(tiny_db, sql, sql)
        assert execution_match(tiny_db, sql, sql)
        assert tiny_db.memo("execution")[sql] == (True, [(1,), (2,)])
        hits, misses = _memo_counts()
        assert (hits - before[0], misses - before[1]) == (3, 1)

    def test_failure_memoized_and_replayed(self, tiny_db):
        before = _memo_counts()
        gold, bad = "SELECT A FROM T", "SELECT NOPE FROM T"
        for _ in range(2):
            assert not execution_match(tiny_db, bad, gold)
        ran, error = tiny_db.memo("execution")[bad]
        assert not ran and "NOPE" in error
        hits, misses = _memo_counts()
        assert (hits - before[0], misses - before[1]) == (2, 2)

    def test_row_insert_invalidates(self, tiny_db):
        sql = "SELECT COUNT(*) AS N FROM T"
        assert execution_match(tiny_db, "SELECT 2", sql)
        tiny_db.table("T").insert((3, "z"))
        assert execution_match(tiny_db, "SELECT 3", sql)
        assert not execution_match(tiny_db, "SELECT 2", sql)

    def test_add_table_invalidates(self, tiny_db):
        sql = "SELECT COUNT(*) AS N FROM T"
        execution_match(tiny_db, sql, sql)
        before = tiny_db.version
        tiny_db.create_table("U", [Column("C", "INTEGER", "")], rows=[(9,)])
        assert tiny_db.version > before
        assert sql not in tiny_db.memo("execution")
        hits, misses = _memo_counts()
        execution_match(tiny_db, sql, sql)
        assert _memo_counts() == (hits + 1, misses + 1)

    def test_stale_versions_evicted(self, tiny_db):
        sql = "SELECT A FROM T"
        execution_match(tiny_db, sql, sql)
        tiny_db.table("T").insert((3, "z"))
        execution_match(tiny_db, sql, sql)
        assert list(tiny_db.memo("execution")) == [sql]

    def test_explicit_invalidate(self, tiny_db):
        sql = "SELECT A FROM T"
        execution_match(tiny_db, sql, sql)
        # Out-of-band mutation the version counter cannot see.
        tiny_db.table("T").rows.append((3, "z"))
        tiny_db.clear_memos()
        assert execution_match(tiny_db, sql, sql)
        assert tiny_db.memo("execution")[sql] == (True, [(1,), (2,), (3,)])

    def test_hit_miss_counters_feed_metrics_registry(self, tiny_db):
        hits, misses = _memo_counts()
        execution_match(tiny_db, "", "SELECT B FROM T")
        execution_match(tiny_db, "", "SELECT B FROM T")
        assert _memo_counts() == (hits + 1, misses + 1)

    def test_concurrent_misses_on_separate_databases(self):
        # The harness runs per-database worker threads. Many concurrent
        # misses with a tiny switch interval must neither raise (e.g.
        # "dictionary changed size during iteration") nor lose an entry.
        threads_n, statements = 8, 300
        databases = []
        for index in range(threads_n):
            db = Database(f"race{index}")
            db.create_table("T", [Column("A", "INTEGER", "")], rows=[(1,)])
            databases.append(db)
        barrier = threading.Barrier(threads_n)
        errors = []

        def worker(db):
            try:
                barrier.wait()
                for number in range(statements):
                    sql = f"SELECT A + {number} AS V FROM T"
                    assert execution_match(db, sql, sql)
            except Exception as error:  # pragma: no cover - the bug
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(db,))
                for db in databases
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert [len(db.memo("execution")) for db in databases] == (
            [statements] * threads_n
        )


class TestExecutionMatchFastPath:
    def test_cached_equals_uncached(self, tiny_db):
        cases = [
            ("SELECT A FROM T", "SELECT A FROM T ORDER BY A DESC", True),
            ("SELECT A FROM T WHERE A = 1", "SELECT A FROM T", False),
            ("", "SELECT A FROM T", False),
            ("SELECT NOPE FROM T", "SELECT A FROM T", False),
        ]
        for predicted, gold, expected in cases:
            assert _fresh_match(tiny_db, predicted, gold) is expected
            for _ in range(2):  # a miss, then a hit
                assert execution_match(tiny_db, predicted, gold) is expected


class TestEvaluateSystemEquivalence:
    def _run(self, context, **kwargs):
        return evaluate_system(
            lambda db, ks: GenEditPipeline(db, ks),
            context.workload,
            context.profiles,
            context.knowledge_sets,
            "equiv",
            questions=context.workload.questions[:12],
            **kwargs,
        )

    def test_cached_and_uncached_rows_identical(self, experiment_context):
        report = self._run(experiment_context)
        fresh = [
            _fresh_match(
                experiment_context.profiles[outcome.database].database,
                outcome.predicted_sql, outcome.gold_sql,
            )
            for outcome in report.outcomes
        ]
        assert [o.correct for o in report.outcomes] == fresh

    def test_shared_cache_hits_across_systems(self, experiment_context):
        self._run(experiment_context)
        hits, misses = _memo_counts()
        self._run(experiment_context)
        after_hits, after_misses = _memo_counts()
        assert after_misses == misses  # second system: all hits
        assert after_hits > hits


class TestOneExecutionPerStatement:
    def test_genedit_run_executes_each_statement_once(
        self, experiment_context, monkeypatch
    ):
        # Databases of its own: ``build_all`` hands every test the same
        # ones, whose execution memos earlier tests have filled.
        profiles = build_all.__wrapped__(experiment_context.seed)
        calls = []
        original = Executor.execute

        def counting(executor, query):
            calls.append((executor.database.name, query))
            return original(executor, query)

        monkeypatch.setattr(Executor, "execute", counting)
        report = evaluate_system(
            lambda db, ks: GenEditPipeline(db, ks),
            experiment_context.workload,
            profiles,
            experiment_context.knowledge_sets,
            "GenEdit",
        )
        assert len(report.outcomes) == 132
        # Self-correction, the final check and both sides of the EX check
        # share one outcome per (database, statement).
        assert calls and len(calls) == len(set(calls))
        assert report.accuracy() == pytest.approx(65.15, abs=0.005)


class TestParseCache:
    def test_repeated_parse_shares_ast(self):
        sql = "SELECT A FROM T WHERE A > 1"
        assert parse_cached(sql) is parse_cached(sql)

    def test_cached_ast_equals_fresh_parse(self):
        sql = "WITH C AS (SELECT A FROM T) SELECT * FROM C"
        assert parse_cached(sql) == parse(sql)

    def test_errors_reraise_every_call(self):
        from repro.sql.errors import SqlError

        for _ in range(2):
            with pytest.raises(SqlError):
                parse_cached("SELECT FROM WHERE")

    def test_rewriter_does_not_corrupt_cached_ast(self):
        sql = "SELECT X FROM (SELECT A AS X FROM T) D"
        before = parse_cached(sql)
        to_cte_form(before)  # deep-copies internally; must not mutate input
        assert parse_cached(sql) == parse(sql)

    def test_parse_cache_info_counts_hits(self):
        from repro.sql import parse_cache_info

        before = parse_cache_info()
        sql = "SELECT A, B FROM T WHERE B = 'x'"
        parse_cached(sql)  # may hit or miss depending on suite order
        parse_cached(sql)  # second call is a guaranteed hit
        after = parse_cache_info()
        assert after.hits >= before.hits + 1
        assert after.currsize >= 1

    def test_global_snapshot_reports_cache_gauges(self, tiny_db):
        from repro.obs import global_snapshot

        sql = "SELECT A FROM T"
        execution_match(tiny_db, "", sql)
        parse_cached(sql)
        parse_cached(sql)
        TfIdfVectorizer().fit(["regional sales"]).transform("regional sales")
        snapshot = global_snapshot()
        assert snapshot["counters"]["execution.memo_misses"] >= 1
        assert not any(key.startswith("execution.memo_")
                       for key in snapshot["gauges"])
        assert snapshot["gauges"]["parse_cache.hits"] >= 1
        info = _terms.cache_info()
        gauges = snapshot["gauges"]
        assert gauges["text.terms_cache.hits"] == info.hits >= 1
        assert gauges["text.terms_cache.misses"] == info.misses
        assert gauges["text.terms_cache.currsize"] == info.currsize >= 1
        for prefix, memo in (
            ("text.normalized_cache", _normalized),
            ("llm.token_set_cache", _token_set),
        ):
            info = memo.cache_info()
            assert gauges[f"{prefix}.hits"] == info.hits
            assert gauges[f"{prefix}.misses"] == info.misses
            assert gauges[f"{prefix}.currsize"] == info.currsize


class TestProfileSnapshot:
    def test_profile_payload_matches_committed_baseline(
        self, experiment_context
    ):
        baseline_path = (
            pathlib.Path(__file__).resolve().parent.parent
            / "BENCH_baseline.json"
        )
        baseline = json.loads(baseline_path.read_text())
        payload = profile(experiment_context, limit=3)
        # The committed baseline is schema v2. v4 drops its hand-timed
        # ``total_s`` and ``retrieve`` stage; every other change is an
        # addition (v3's ``engine``, v4's span-derived fields).
        assert set(payload) == (
            set(baseline) - {"total_s"} | {"engine", "wall_s", "operators"}
        )
        assert set(payload["stages"]) == set(baseline["stages"]) - {"retrieve"}
        assert payload["schema_version"] == baseline["schema_version"] + 2
        assert baseline["questions"] == 132
        assert baseline["ex_all"] == pytest.approx(65.15)

    def test_profile_stage_timings_populated(self, experiment_context):
        payload = profile(experiment_context, limit=2)
        assert payload["questions"] == 2
        stages = payload["stages"]
        assert list(stages) == ["build", "mine", "generate", "execute"]
        assert all(seconds >= 0.0 for seconds in stages.values())
        # Stages are child spans of the measured root, not its definition.
        assert payload["wall_s"] >= sum(stages.values())
        operators = payload["operators"]
        assert operators["generate"]["calls"] == 2
        assert set(operators["select_examples"]) == {
            "calls", "self_ms", "total_ms"
        }
