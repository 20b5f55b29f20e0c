"""Differential suite: columnar executor vs the frozen row-at-a-time oracle.

Every statement in ``tests/fixtures/sql_corpus/``, every workload gold
query, every training-log query, and a set of handwritten stress queries
runs through both :class:`repro.engine.Executor` (columnar, rewritten
plans, hash joins) and :class:`repro.engine.reference.ReferenceExecutor`
(the pre-columnar engine, preserved verbatim). The two must agree exactly:
same ``Result.comparable()`` and columns on success, same exception type
and message on failure. This is the evidence that the columnar fast paths
are safe to trust for the EX metric.
"""

from __future__ import annotations

import datetime
import pathlib

import pytest

from repro.engine import (
    Column,
    Database,
    ExecutionError,
    Executor,
    Result,
    engine_snapshot,
)
from repro.engine.evaluator import reset_vector_cache
from repro.engine.reference import ReferenceExecutor
from repro.engine.values import _stable_key, comparable_cell
from repro.sql.errors import SqlError
from repro.sql.parser import parse, parse_cached
from repro.sql.printer import to_sql
from repro.sql.rewriter import optimize_for_execution

CORPUS_DIR = pathlib.Path(__file__).parent / "fixtures" / "sql_corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.sql"))

#: Handwritten queries stressing exactly the surfaces the columnar engine
#: rewrote: hash joins (equi and non-equi fallback), outer joins with
#: NULL padding, hash grouping, correlated subqueries (row fallback),
#: window functions, set operations, DISTINCT + ORDER BY, ordinals.
STRESS_QUERIES = [
    "SELECT * FROM EMP",
    "SELECT EMP_NAME, SALARY FROM EMP WHERE SALARY > 90 ORDER BY SALARY DESC",
    "SELECT EMP_NAME FROM EMP WHERE SALARY IS NULL",
    "SELECT EMP_NAME FROM EMP WHERE NOT (ACTIVE AND SALARY > 100)",
    # Equi-joins take the hash path; the ON residual must still apply.
    "SELECT E.EMP_NAME, D.DEPT_NAME FROM EMP E JOIN DEPT D"
    " ON E.DEPT_ID = D.DEPT_ID ORDER BY E.EMP_ID",
    "SELECT E.EMP_NAME, D.DEPT_NAME FROM EMP E JOIN DEPT D"
    " ON E.DEPT_ID = D.DEPT_ID AND D.BUDGET > 500",
    # Non-equi join predicate: must fall back to the loop join.
    "SELECT E.EMP_NAME, D.DEPT_NAME FROM EMP E JOIN DEPT D"
    " ON E.SALARY > D.BUDGET",
    "SELECT E.EMP_NAME, D.DEPT_NAME FROM EMP E LEFT JOIN DEPT D"
    " ON E.DEPT_ID = D.DEPT_ID AND D.REGION = 'West'",
    "SELECT D.DEPT_NAME, E.EMP_NAME FROM DEPT D LEFT JOIN EMP E"
    " ON D.DEPT_ID = E.DEPT_ID AND E.SALARY > 100 ORDER BY D.DEPT_ID",
    # NULL join keys never match but LEFT rows must survive padded.
    "SELECT E1.EMP_NAME, E2.EMP_NAME FROM EMP E1 LEFT JOIN EMP E2"
    " ON E1.SALARY = E2.SALARY AND E1.EMP_ID <> E2.EMP_ID",
    "SELECT DEPT_ID, COUNT(*), SUM(SALARY), AVG(SALARY), MIN(HIRED),"
    " MAX(EMP_NAME) FROM EMP GROUP BY DEPT_ID ORDER BY DEPT_ID",
    "SELECT ACTIVE, COUNT(DISTINCT DEPT_ID) FROM EMP GROUP BY ACTIVE",
    # Grouping on an expression and on a nullable column.
    "SELECT SALARY, COUNT(*) FROM EMP GROUP BY SALARY ORDER BY COUNT(*)",
    "SELECT DEPT_ID, ACTIVE, COUNT(*) FROM EMP GROUP BY DEPT_ID, ACTIVE"
    " HAVING COUNT(*) > 1",
    "SELECT COUNT(*) FROM EMP WHERE SALARY > 1000",
    "SELECT DISTINCT REGION FROM DEPT ORDER BY REGION",
    "SELECT DISTINCT DEPT_ID, ACTIVE FROM EMP ORDER BY 1 DESC, 2",
    # Correlated subqueries force the executor's row fallback.
    "SELECT EMP_NAME FROM EMP E WHERE SALARY > (SELECT AVG(SALARY)"
    " FROM EMP WHERE DEPT_ID = E.DEPT_ID)",
    "SELECT EMP_NAME FROM EMP E WHERE EXISTS (SELECT 1 FROM DEPT D"
    " WHERE D.DEPT_ID = E.DEPT_ID AND D.REGION = 'West')",
    "SELECT EMP_NAME FROM EMP WHERE DEPT_ID IN (SELECT DEPT_ID FROM DEPT"
    " WHERE BUDGET > 500)",
    "SELECT EMP_NAME FROM EMP WHERE DEPT_ID NOT IN (SELECT DEPT_ID"
    " FROM DEPT WHERE REGION = 'East')",
    # Window functions always run on the row path.
    "SELECT EMP_NAME, RANK() OVER (PARTITION BY DEPT_ID ORDER BY SALARY"
    " DESC) FROM EMP",
    "SELECT EMP_NAME, SUM(SALARY) OVER (ORDER BY EMP_ID) FROM EMP",
    "SELECT EMP_ID FROM EMP WHERE ACTIVE UNION SELECT DEPT_ID FROM DEPT",
    "SELECT DEPT_ID FROM EMP INTERSECT SELECT DEPT_ID FROM DEPT",
    "SELECT DEPT_ID FROM DEPT EXCEPT SELECT DEPT_ID FROM EMP WHERE ACTIVE",
    "SELECT EMP_ID FROM EMP UNION ALL SELECT EMP_ID FROM EMP"
    " ORDER BY EMP_ID LIMIT 4 OFFSET 2",
    "WITH west AS (SELECT DEPT_ID FROM DEPT WHERE REGION = 'West'),"
    " staff AS (SELECT * FROM EMP WHERE DEPT_ID IN (SELECT DEPT_ID"
    " FROM west)) SELECT COUNT(*) FROM staff",
    "SELECT T.DEPT_ID, T.TOTAL FROM (SELECT DEPT_ID, SUM(SALARY) AS TOTAL"
    " FROM EMP GROUP BY DEPT_ID) T WHERE T.TOTAL > 150",
    # Constant folding and pushdown targets: the rewrite must not change
    # results even when predicates are partially constant.
    "SELECT EMP_NAME FROM EMP WHERE 1 = 1 AND SALARY > 40 + 50",
    "SELECT EMP_NAME FROM EMP WHERE 1 = 0 OR DEPT_ID = 1",
    "SELECT UPPER(EMP_NAME), LENGTH(EMP_NAME) FROM EMP"
    " WHERE LOWER(EMP_NAME) LIKE 'a%'",
    "SELECT EMP_NAME, CASE WHEN SALARY IS NULL THEN 'unknown'"
    " WHEN SALARY > 100 THEN 'high' ELSE 'low' END FROM EMP",
    "SELECT EMP_NAME, HIRED FROM EMP WHERE HIRED >= '2020-01-01'"
    " ORDER BY HIRED",
]


def _read_corpus_sql(path):
    lines = path.read_text().splitlines()
    return "\n".join(
        line for line in lines if not line.lstrip().startswith("--")
    ).strip()


def _outcome(make_engine, database, sql):
    """Run ``sql`` and normalise to a comparable outcome tuple."""
    try:
        result = make_engine(database).execute(sql)
    except (SqlError, ExecutionError) as error:
        return ("error", type(error).__name__, str(error))
    return ("ok", list(result.columns), result.comparable())


def assert_equivalent(database, sql):
    columnar = _outcome(Executor, database, sql)
    reference = _outcome(ReferenceExecutor, database, sql)
    assert columnar == reference, (
        f"engines disagree on {sql!r}:\n"
        f"  columnar:  {columnar!r}\n  reference: {reference!r}"
    )
    return columnar


class TestCorpusEquivalence:
    """Every corpus statement — valid or not — behaves identically."""

    @pytest.mark.parametrize(
        "path", CORPUS_FILES, ids=[path.stem for path in CORPUS_FILES]
    )
    def test_corpus_statement(self, demo_db, path):
        sql = _read_corpus_sql(path)
        assert sql, f"{path.name} has no SQL after stripping comments"
        assert_equivalent(demo_db, sql)

    def test_corpus_is_nonempty(self):
        assert len(CORPUS_FILES) >= 19


class TestStressEquivalence:
    """Handwritten queries aimed at each columnar fast path."""

    @pytest.mark.parametrize("sql", STRESS_QUERIES)
    def test_stress_query(self, demo_db, sql):
        outcome = assert_equivalent(demo_db, sql)
        # Stress queries are all valid SQL; a silent parse/exec error on
        # both sides would make the equivalence vacuous.
        assert outcome[0] == "ok", f"stress query failed: {outcome!r}"


class TestWorkloadEquivalence:
    """Every gold and training-log query from the table1 workload."""

    def test_gold_queries_agree(self, experiment_context):
        workload = experiment_context.workload
        databases = {
            name: profile.database
            for name, profile in experiment_context.profiles.items()
        }
        checked = 0
        for question in workload.questions:
            outcome = assert_equivalent(
                databases[question.database], question.gold_sql
            )
            assert outcome[0] == "ok", (
                f"gold SQL for {question.question_id} failed: {outcome!r}"
            )
            checked += 1
        assert checked >= 100

    def test_training_log_queries_agree(self, experiment_context):
        workload = experiment_context.workload
        databases = {
            name: profile.database
            for name, profile in experiment_context.profiles.items()
        }
        checked = 0
        for db_name, logged_queries in workload.training_logs.items():
            for logged in logged_queries:
                assert_equivalent(databases[db_name], logged.sql)
                checked += 1
        assert checked >= 20


class TestComparableContract:
    """``Result.comparable()`` output is unchanged by the DSU rewrite."""

    def test_matches_naive_key_sort(self):
        rows = [
            (2, "b", None),
            (1, "a", 3.14159265),
            (None, "a", 1.0),
            (1, None, True),
            (2, "a", datetime.date(2020, 1, 1)),
        ]
        result = Result(["X", "Y", "Z"], rows)
        normalised = [
            tuple(comparable_cell(value) for value in row) for row in rows
        ]
        naive = sorted(
            normalised, key=lambda row: tuple(map(_stable_key, row))
        )
        assert result.comparable() == naive

    def test_duplicates_and_float_rounding_survive(self):
        rows = [(1.0000001, "x"), (1.0000002, "x"), (None, "y")]
        result = Result(["A", "B"], rows)
        comparable = result.comparable()
        # comparable_cell rounds floats to 6 places: both rows collapse to
        # the same normalised tuple and the multiset keeps both copies.
        assert comparable.count((1.0, "x")) == 2
        assert len(comparable) == 3


_PATH_COUNTERS = (
    "columnar_selects", "row_fallback_selects", "hash_joins", "loop_joins",
    "error_reruns",
)


def _path_deltas(database, sql):
    """Run ``sql`` on the executor; return (outcome, engine counter deltas)."""
    before = engine_snapshot()
    outcome = _outcome(Executor, database, sql)
    after = engine_snapshot()
    return outcome, {key: after[key] - before[key] for key in _PATH_COUNTERS}


class TestExecutionPaths:
    """Each query shape takes the path the executor promises for it.

    Equivalence alone cannot see a query silently moving between the
    columnar engine, the row fallback and the error rerun; the engine
    counters can.
    """

    def test_correlated_subquery_falls_back_but_inner_stays_columnar(
        self, demo_db
    ):
        outcome, deltas = _path_deltas(
            demo_db,
            "SELECT EMP_NAME FROM EMP E WHERE SALARY > (SELECT AVG(SALARY)"
            " FROM EMP WHERE DEPT_ID = E.DEPT_ID)",
        )
        assert outcome[0] == "ok"
        assert deltas["row_fallback_selects"] == 1
        # The row path reaches the subquery through the executor's own
        # _execute_select, so each inner SELECT still runs columnar.
        assert deltas["columnar_selects"] >= 1
        assert deltas["error_reruns"] == 0

    def test_window_function_falls_back(self, demo_db):
        outcome, deltas = _path_deltas(
            demo_db,
            "SELECT EMP_NAME, RANK() OVER (PARTITION BY DEPT_ID ORDER BY"
            " SALARY DESC) FROM EMP",
        )
        assert outcome[0] == "ok"
        assert deltas["row_fallback_selects"] == 1
        assert deltas["columnar_selects"] == 0
        assert deltas["error_reruns"] == 0

    def test_equi_join_hashes(self, demo_db):
        outcome, deltas = _path_deltas(
            demo_db,
            "SELECT E.EMP_NAME, D.DEPT_NAME FROM EMP E JOIN DEPT D"
            " ON E.DEPT_ID = D.DEPT_ID",
        )
        assert outcome[0] == "ok"
        assert deltas == {
            "columnar_selects": 1, "row_fallback_selects": 0,
            "hash_joins": 1, "loop_joins": 0, "error_reruns": 0,
        }

    def test_error_reruns_once_on_the_row_engine(self, demo_db):
        sql = "SELECT NOPE FROM EMP"
        outcome, deltas = _path_deltas(demo_db, sql)
        assert outcome[0] == "error"
        assert deltas["error_reruns"] == 1
        assert outcome == _outcome(ReferenceExecutor, demo_db, sql)

    def test_same_named_twin_catalog_gets_its_own_plan(self):
        # Same name, same version, different columns: A sits in T in the
        # first database and in U in the second, so the pushdown differs.
        def twin(t_column, u_column, name="twin"):
            db = Database(name)
            db.create_table(
                "T", [Column("ID", "INTEGER"), Column(t_column, "INTEGER")],
                rows=[(1, 10), (2, 20)],
            )
            db.create_table(
                "U", [Column("TID", "INTEGER"), Column(u_column, "INTEGER")],
                rows=[(1, 10), (2, 30)],
            )
            return db

        first, second = twin("A", "B"), twin("B", "A")
        assert first.name == second.name
        assert first.version == second.version
        sql = "SELECT T.ID FROM T JOIN U ON T.ID = U.TID WHERE A = 10"
        Executor(first).execute(sql)  # memoises first's plan on the AST
        outcome, deltas = _path_deltas(second, sql)
        assert outcome == _outcome(ReferenceExecutor, second, sql)
        assert deltas["error_reruns"] == 0
        warm = optimize_for_execution(parse_cached(sql), second)
        fresh = optimize_for_execution(parse(sql), second)
        assert to_sql(warm) == to_sql(fresh)
        # A database with the first's schema shares its plan, whatever
        # its name.
        other = twin("A", "B", name="other")
        assert optimize_for_execution(parse_cached(sql), other) is \
            optimize_for_execution(parse_cached(sql), first)


def _misses():
    return engine_snapshot()["predicate_cache"]["misses"]


class TestCompiledExpressionKey:
    """Compiled closures are keyed on the FROM schema, not the database."""

    SQL = "SELECT ID, A + 1 FROM T WHERE A = 10 ORDER BY ID"

    @staticmethod
    def _db(name, columns, rows):
        db = Database(name)
        db.create_table(
            "T", [Column(column, "INTEGER") for column in columns], rows=rows
        )
        return db

    def test_same_schema_databases_share_one_compiled_entry(self):
        first = self._db("first", ("ID", "A"), [(1, 10), (2, 20)])
        second = self._db("second", ("ID", "A"), [(1, 30), (2, 10)])
        second.table("T").insert((3, 10))
        assert first.name != second.name
        assert first.version != second.version
        reset_vector_cache()  # no cap-triggered clear between the runs
        Executor(first).execute(self.SQL)
        misses = _misses()
        outcome = _outcome(Executor, second, self.SQL)
        assert _misses() == misses
        assert outcome == _outcome(ReferenceExecutor, second, self.SQL)
        assert outcome[2] == [(2, 11), (3, 11)]

    def test_same_named_database_with_other_columns_gets_its_own_entry(
        self
    ):
        first = self._db("twin", ("ID", "A"), [(1, 10), (2, 20)])
        second = self._db("twin", ("ID", "B", "A"), [(1, 10, 20), (2, 0, 10)])
        assert first.name == second.name
        assert first.version == second.version
        reset_vector_cache()
        Executor(first).execute(self.SQL)
        misses = _misses()
        outcome = _outcome(Executor, second, self.SQL)
        assert _misses() > misses
        assert outcome == _outcome(ReferenceExecutor, second, self.SQL)
        assert outcome[2] == [(2, 11)]
