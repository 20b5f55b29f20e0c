"""CTE rewriter and decomposer tests (§3.2.1 behaviour)."""

import sys

import pytest

from repro.sql import ast_nodes as ast
from repro.sql.decompose import (
    KIND_CASE,
    KIND_EXPR_SUBQUERY,
    KIND_FROM,
    KIND_GROUP_BY,
    KIND_HAVING,
    KIND_ORDER_BY,
    KIND_PROJECTION,
    KIND_QUERY,
    KIND_SELECT_ITEM,
    KIND_SUBQUERY,
    KIND_WHERE,
    KIND_WINDOW,
    decompose,
    fragment_parses,
)
from repro.sql.parser import parse, parses
from repro.sql.printer import to_sql
from repro.sql.rewriter import to_cte_form


class TestRewriter:
    def test_derived_table_hoisted(self):
        query = to_cte_form(
            parse("SELECT x FROM (SELECT a AS x FROM t) AS sub")
        )
        assert [cte.name for cte in query.ctes] == ["SUB"]
        assert isinstance(query.body.from_clause, ast.TableRef)
        assert query.body.from_clause.name == "SUB"

    def test_alias_preserved_after_hoist(self):
        query = to_cte_form(
            parse("SELECT sub.x FROM (SELECT a AS x FROM t) AS sub")
        )
        assert query.body.from_clause.alias == "sub"

    def test_existing_ctes_kept(self):
        query = to_cte_form(parse("WITH c AS (SELECT 1) SELECT * FROM c"))
        assert [cte.name for cte in query.ctes] == ["C"]

    def test_nested_with_flattened(self):
        query = to_cte_form(
            parse(
                "WITH outer_cte AS (WITH inner_cte AS (SELECT 1 AS x) "
                "SELECT x FROM inner_cte) SELECT * FROM outer_cte"
            )
        )
        names = [cte.name for cte in query.ctes]
        assert names == ["INNER_CTE", "OUTER_CTE"]
        # outer references the hoisted inner
        assert not query.ctes[1].query.ctes

    def test_name_collision_renamed(self):
        query = to_cte_form(
            parse(
                "WITH sub AS (SELECT 1 AS x) "
                "SELECT * FROM (SELECT 2 AS y) AS sub"
            )
        )
        names = [cte.name for cte in query.ctes]
        assert len(set(names)) == 2
        assert "SUB" in names and "SUB_2" in names

    def test_join_of_two_derived_tables(self):
        query = to_cte_form(
            parse(
                "SELECT a.x, b.y FROM (SELECT 1 AS x) AS a "
                "JOIN (SELECT 2 AS y) AS b ON a.x = b.y"
            )
        )
        assert len(query.ctes) == 2

    def test_rewrite_does_not_mutate_input(self):
        original = parse("SELECT x FROM (SELECT 1 AS x) AS s")
        before = to_sql(original)
        to_cte_form(original)
        assert to_sql(original) == before

    def test_rewritten_query_executes_identically(self, demo_db):
        from repro.engine import Executor

        sql = (
            "SELECT d.DEPT_NAME, t.total FROM DEPT d JOIN "
            "(SELECT DEPT_ID, SUM(SALARY) AS total FROM EMP "
            "GROUP BY DEPT_ID) t ON d.DEPT_ID = t.DEPT_ID "
            "ORDER BY t.total DESC"
        )
        executor = Executor(demo_db)
        original = executor.execute(sql)
        rewritten = executor.execute(to_sql(to_cte_form(parse(sql))))
        assert rewritten.comparable() == original.comparable()


class TestDecompose:
    SQL = (
        "WITH agg AS (SELECT DEPT_ID, SUM(SALARY) AS total FROM EMP "
        "WHERE ACTIVE = TRUE GROUP BY DEPT_ID) "
        "SELECT DEPT_ID, total FROM agg ORDER BY total DESC LIMIT 3"
    )

    def test_unit_kinds_present(self):
        kinds = {unit.kind for unit in decompose(parse(self.SQL))}
        assert {
            KIND_QUERY, KIND_SUBQUERY, KIND_PROJECTION, KIND_FROM,
            KIND_WHERE, KIND_GROUP_BY, KIND_ORDER_BY,
        } <= kinds

    def test_query_unit_first(self):
        units = decompose(parse(self.SQL))
        assert units[0].kind == KIND_QUERY

    def test_cte_units_tagged_with_name(self):
        units = decompose(parse(self.SQL))
        cte_units = [unit for unit in units if unit.cte_name == "AGG"]
        assert cte_units

    def test_final_select_units_have_no_cte_name(self):
        units = decompose(parse(self.SQL))
        final = [
            unit for unit in units
            if unit.cte_name is None and unit.kind == KIND_ORDER_BY
        ]
        assert final and "LIMIT 3" in final[0].sql

    def test_pseudo_sql_wrapped_in_dots(self):
        unit = decompose(parse(self.SQL))[2]
        assert unit.pseudo_sql.startswith("... ")
        assert unit.pseudo_sql.endswith(" ...")

    def test_tables_and_columns_collected(self):
        units = decompose(parse(self.SQL))
        from_unit = next(
            unit for unit in units
            if unit.kind == KIND_FROM and unit.cte_name == "AGG"
        )
        assert from_unit.tables == ["EMP"]

    def test_select_item_unit_for_aggregate(self):
        units = decompose(parse(self.SQL))
        items = [unit for unit in units if unit.kind == KIND_SELECT_ITEM]
        assert any("SUM(SALARY)" in unit.sql for unit in items)

    def test_window_unit(self):
        sql = (
            "SELECT a, ROW_NUMBER() OVER (ORDER BY b) AS r FROM t"
        )
        units = decompose(parse(sql))
        assert any(unit.kind == KIND_WINDOW for unit in units)

    def test_derived_table_decomposed_via_cte_form(self):
        sql = "SELECT x FROM (SELECT a AS x FROM t WHERE a > 1) AS s"
        units = decompose(parse(sql))
        assert any(
            unit.kind == KIND_WHERE and unit.cte_name == "S"
            for unit in units
        )

    def test_fragments_are_nonempty(self):
        for unit in decompose(parse(self.SQL)):
            assert unit.sql.strip()


class TestPatternDetection:
    @pytest.mark.parametrize("sql,pattern", [
        ("SUM(CASE WHEN TO_CHAR(M, 'YYYY\"Q\"Q') = '2023Q1' THEN V "
         "ELSE 0 END)", "quarter_pivot"),
        ("SUM(CASE WHEN STATUS = 'returned' THEN 1 ELSE 0 END)",
         "conditional_aggregation"),
        ("CAST(A AS FLOAT) / NULLIF(B, 0)", "safe_ratio"),
        ("ROW_NUMBER() OVER (ORDER BY X DESC)", "topk"),
        ("ROW_NUMBER() OVER (ORDER BY X DESC) AS B, "
         "ROW_NUMBER() OVER (ORDER BY X ASC) AS W", "topk_both_ends"),
        ("ORDER BY total DESC LIMIT 5", "topk"),
        ("CAST(V AS FLOAT) / NULLIF(SUM(V) OVER (), 0)", "share_of_total"),
        ("SELECT a FROM t", ""),
    ])
    def test_detect_pattern(self, sql, pattern):
        from repro.knowledge.decomposition import detect_pattern

        assert detect_pattern(sql) == pattern


# -- the shared fragment-parse check ------------------------------------------


def _knowledge_candidates(sql, kind):
    """The knowledge linter's wrappings before the shared helper (frozen)."""
    stripped = sql.strip()
    head = stripped.split(None, 1)[0].upper() if stripped else ""
    if kind in (KIND_SUBQUERY, KIND_EXPR_SUBQUERY) or head == "SELECT":
        yield stripped
        yield f"{stripped} FROM _K"
        return
    if kind == KIND_FROM or head in ("FROM", "JOIN"):
        if head == "FROM":
            yield f"SELECT * {stripped}"
        yield f"SELECT * FROM _K {stripped}"
        return
    if head in ("WHERE", "HAVING", "ORDER", "GROUP"):
        yield f"SELECT * FROM _K {stripped}"
        return
    yield f"SELECT {stripped} FROM _K"
    yield f"SELECT * FROM _K WHERE {stripped}"


def _knowledge_parses(sql, kind):
    return bool(sql.strip()) and any(
        map(parses, _knowledge_candidates(sql, kind))
    )


def _plan_candidates(pseudo):
    """The plan linter's wrappings before the shared helper (frozen)."""
    head = pseudo.split(None, 1)[0].upper() if pseudo else ""
    if head == "SELECT":
        yield pseudo
        yield f"{pseudo} FROM _K"
        return
    if head == "FROM":
        yield f"SELECT * {pseudo}"
        return
    if head in ("JOIN", "WHERE", "HAVING", "ORDER", "GROUP"):
        yield f"SELECT * FROM _K {pseudo}"
        return
    yield f"SELECT {pseudo} FROM _K"
    yield f"SELECT * FROM _K WHERE {pseudo}"


#: A parsing and a broken fragment per head keyword, expression fragments
#: (no head keyword), lower-case heads, padding and empty text.
FRAGMENTS = (
    "SELECT A, B", "SELECT A FROM T WHERE B > 1", "SELECT (",
    "FROM T", "FROM T JOIN U ON T.A = U.A", "FROM (", "FROM T WHERE",
    "JOIN U ON T.A = U.A", "JOIN",
    "WHERE A = 1", "WHERE A =",
    "HAVING COUNT(*) > 1", "HAVING",
    "ORDER BY A DESC", "ORDER A",
    "GROUP BY A, B", "GROUP A",
    "SUM(A) AS TOTAL", "CASE WHEN A > 1 THEN 1 ELSE 0 END",
    "A > 1 AND B < 2", "RANK() OVER (ORDER BY A)",
    "(SELECT MAX(A) FROM T)", ") (",
    "from t", "where a = 1", "  WHERE A = 1  ", "", "   ",
)
KINDS = (
    "", KIND_QUERY, KIND_SUBQUERY, KIND_PROJECTION, KIND_FROM, KIND_WHERE,
    KIND_GROUP_BY, KIND_HAVING, KIND_ORDER_BY, KIND_SELECT_ITEM, KIND_CASE,
    KIND_WINDOW, KIND_EXPR_SUBQUERY,
)


class TestFragmentParses:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("text", FRAGMENTS)
    def test_matches_the_knowledge_linter_check(self, text, kind):
        assert fragment_parses(text, kind) == _knowledge_parses(text, kind)

    @pytest.mark.parametrize(
        "pseudo", sorted({text.strip() for text in FRAGMENTS} - {""})
    )
    def test_matches_the_plan_linter_check_call_for_call(
        self, pseudo, monkeypatch
    ):
        # The plan linter passes stripped, non-empty pseudo-SQL and no
        # kind: same verdict from the same ``parses`` calls.
        calls = []

        def recording_parses(text):
            calls.append(text)
            return parses(text)

        monkeypatch.setattr(
            sys.modules["repro.sql.decompose"], "parses", recording_parses
        )
        verdict = fragment_parses(pseudo)
        frozen_calls = []
        frozen = any(
            frozen_calls.append(text) or parses(text)
            for text in _plan_candidates(pseudo)
        )
        assert (verdict, calls) == (frozen, frozen_calls)
