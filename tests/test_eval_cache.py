"""Evaluation fast path: cache correctness and cached/uncached equivalence."""

import json
import pathlib
import sys
import threading

import pytest

from repro.bench.cache import CachedExecutionError, EvaluationCache
from repro.bench.harness import evaluate_system, profile
from repro.bench.metrics import execution_match
from repro.engine import Column, Database
from repro.pipeline import GenEditPipeline
from repro.sql import to_cte_form
from repro.sql.parser import parse, parse_cached


@pytest.fixture()
def tiny_db():
    db = Database("tiny")
    db.create_table(
        "T",
        [Column("A", "INTEGER", ""), Column("B", "TEXT", "")],
        rows=[(1, "x"), (2, "y")],
    )
    return db


class TestEvaluationCache:
    def test_executor_reused_per_database(self, tiny_db):
        cache = EvaluationCache()
        assert cache.executor(tiny_db) is cache.executor(tiny_db)

    def test_gold_result_memoized(self, tiny_db):
        cache = EvaluationCache()
        first = cache.comparable(tiny_db, "SELECT A FROM T")
        second = cache.comparable(tiny_db, "SELECT A FROM T")
        assert first == second == [(1,), (2,)]
        assert cache.hits == 1 and cache.misses == 1

    def test_failure_memoized_and_replayed(self, tiny_db):
        cache = EvaluationCache()
        for _ in range(2):
            with pytest.raises(CachedExecutionError):
                cache.comparable(tiny_db, "SELECT NOPE FROM T")
        assert cache.hits == 1 and cache.misses == 1

    def test_row_insert_invalidates(self, tiny_db):
        cache = EvaluationCache()
        sql = "SELECT COUNT(*) AS N FROM T"
        assert cache.comparable(tiny_db, sql) == [(2,)]
        tiny_db.table("T").insert((3, "z"))
        assert cache.comparable(tiny_db, sql) == [(3,)]
        assert cache.misses == 2

    def test_add_table_invalidates(self, tiny_db):
        cache = EvaluationCache()
        sql = "SELECT COUNT(*) AS N FROM T"
        cache.comparable(tiny_db, sql)
        before = tiny_db.version
        tiny_db.create_table("U", [Column("C", "INTEGER", "")], rows=[(9,)])
        assert tiny_db.version > before
        cache.comparable(tiny_db, sql)
        assert cache.hits == 0 and cache.misses == 2

    def test_stale_versions_evicted(self, tiny_db):
        cache = EvaluationCache()
        sql = "SELECT A FROM T"
        cache.comparable(tiny_db, sql)
        tiny_db.table("T").insert((3, "z"))
        cache.comparable(tiny_db, sql)
        assert cache.stats()["entries"] == 1

    def test_explicit_invalidate(self, tiny_db):
        cache = EvaluationCache()
        sql = "SELECT A FROM T"
        cache.comparable(tiny_db, sql)
        # Out-of-band mutation the version counter cannot see.
        tiny_db.table("T").rows.append((3, "z"))
        cache.invalidate(tiny_db)
        assert cache.comparable(tiny_db, sql) == [(1,), (2,), (3,)]

    def test_cache_info_mirrors_lru_cache_shape(self, tiny_db):
        cache = EvaluationCache()
        sql = "SELECT A FROM T"
        cache.comparable(tiny_db, sql)
        cache.comparable(tiny_db, sql)
        info = cache.cache_info()
        assert info.hits == 1 and info.misses == 1
        assert info.maxsize is None and info.currsize == 1

    def test_hit_miss_counters_feed_metrics_registry(self, tiny_db):
        from repro.obs import get_metrics

        registry = get_metrics()
        hits_before = registry.counter_value("eval_cache.hits")
        misses_before = registry.counter_value("eval_cache.misses")
        cache = EvaluationCache()
        sql = "SELECT B FROM T"
        cache.comparable(tiny_db, sql)
        cache.comparable(tiny_db, sql)
        assert registry.counter_value("eval_cache.hits") == hits_before + 1
        assert (
            registry.counter_value("eval_cache.misses") == misses_before + 1
        )

    def test_concurrent_misses_on_separate_databases(self):
        # The harness shares one cache across per-database worker threads.
        # Many concurrent misses with a tiny switch interval must neither
        # raise (e.g. "dictionary changed size during iteration") nor lose
        # an entry.
        threads_n, statements = 8, 300
        databases = []
        for index in range(threads_n):
            db = Database(f"race{index}")
            db.create_table("T", [Column("A", "INTEGER", "")], rows=[(1,)])
            databases.append(db)
        cache = EvaluationCache()
        barrier = threading.Barrier(threads_n)
        errors = []

        def worker(db):
            try:
                barrier.wait()
                for number in range(statements):
                    cache.comparable(db, f"SELECT A + {number} AS V FROM T")
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
        assert cache.stats()["entries"] == threads_n * statements


class TestExecutionMatchFastPath:
    def test_cached_equals_uncached(self, tiny_db):
        cache = EvaluationCache()
        cases = [
            ("SELECT A FROM T", "SELECT A FROM T ORDER BY A DESC", True),
            ("SELECT A FROM T WHERE A = 1", "SELECT A FROM T", False),
            ("", "SELECT A FROM T", False),
            ("SELECT NOPE FROM T", "SELECT A FROM T", False),
        ]
        for predicted, gold, expected in cases:
            assert execution_match(tiny_db, predicted, gold) is expected
            assert execution_match(
                tiny_db, predicted, gold, cache=cache
            ) is expected

    def test_executor_reuse_without_memoization(self, tiny_db):
        from repro.engine import Executor

        executor = Executor(tiny_db)
        assert execution_match(
            tiny_db, "SELECT A FROM T", "SELECT A FROM T", executor=executor
        )


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
        cached = self._run(experiment_context, cache=EvaluationCache())
        uncached = self._run(experiment_context, cache=False)
        assert cached.row() == uncached.row()
        assert [o.correct for o in cached.outcomes] == [
            o.correct for o in uncached.outcomes
        ]
        assert [o.predicted_sql for o in cached.outcomes] == [
            o.predicted_sql for o in uncached.outcomes
        ]

    def test_parallel_and_sequential_identical(self, experiment_context):
        sequential = self._run(experiment_context, max_workers=1)
        parallel = self._run(experiment_context, max_workers=4)
        assert sequential.row() == parallel.row()
        assert [o.question_id for o in sequential.outcomes] == [
            o.question_id for o in parallel.outcomes
        ]

    def test_shared_cache_hits_across_systems(self, experiment_context):
        cache = EvaluationCache()
        self._run(experiment_context, cache=cache)
        misses_after_first = cache.misses
        self._run(experiment_context, cache=cache)
        assert cache.misses == misses_after_first  # second system: all hits
        assert cache.hits > 0


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

        cache = EvaluationCache()
        sql = "SELECT A FROM T"
        cache.comparable(tiny_db, sql)
        cache.comparable(tiny_db, sql)
        parse_cached(sql)
        parse_cached(sql)
        snapshot = global_snapshot(eval_cache=cache)
        assert snapshot["gauges"]["eval_cache.hits"] == 1
        assert snapshot["gauges"]["eval_cache.misses"] == 1
        assert snapshot["gauges"]["parse_cache.hits"] >= 1


class TestProfileSnapshot:
    def test_profile_payload_matches_committed_baseline(
        self, experiment_context
    ):
        baseline_path = (
            pathlib.Path(__file__).resolve().parent.parent
            / "BENCH_baseline.json"
        )
        baseline = json.loads(baseline_path.read_text())
        payload = profile(experiment_context, limit=3, verbose=False)
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
        payload = profile(experiment_context, limit=2, verbose=False)
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
