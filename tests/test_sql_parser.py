"""Parser tests: every construct of the dialect."""

from unittest import mock

import pytest

from repro.sql import ast_nodes as ast
from repro.sql.errors import SqlSyntaxError
from repro.sql import parser as parser_module
from repro.sql.parser import parse, parse_expression, parses


def body(sql):
    return parse(sql).body


class TestSelectCore:
    def test_minimal_select(self):
        select = body("SELECT 1")
        assert isinstance(select, ast.Select)
        assert isinstance(select.items[0].expr, ast.Literal)
        assert select.from_clause is None

    def test_select_star(self):
        select = body("SELECT * FROM t")
        assert isinstance(select.items[0].expr, ast.Star)

    def test_qualified_star(self):
        select = body("SELECT t.* FROM t")
        assert select.items[0].expr.table == "t"

    def test_column_alias_with_as(self):
        select = body("SELECT a AS x FROM t")
        assert select.items[0].alias == "x"

    def test_column_alias_without_as(self):
        select = body("SELECT a x FROM t")
        assert select.items[0].alias == "x"

    def test_distinct(self):
        assert body("SELECT DISTINCT a FROM t").distinct

    def test_multiple_items(self):
        select = body("SELECT a, b, c FROM t")
        assert len(select.items) == 3

    def test_qualified_column(self):
        select = body("SELECT t.a FROM t")
        expr = select.items[0].expr
        assert expr.table == "t" and expr.name == "a"

    def test_where(self):
        select = body("SELECT a FROM t WHERE a > 1")
        assert isinstance(select.where, ast.BinaryOp)

    def test_group_by_and_having(self):
        select = body("SELECT a FROM t GROUP BY a, b HAVING COUNT(*) > 2")
        assert len(select.group_by) == 2
        assert select.having is not None

    def test_order_limit_offset(self):
        select = body("SELECT a FROM t ORDER BY a DESC LIMIT 5 OFFSET 2")
        assert select.order_by[0].ascending is False
        assert select.limit == 5
        assert select.offset == 2

    def test_order_nulls(self):
        select = body("SELECT a FROM t ORDER BY a ASC NULLS FIRST")
        assert select.order_by[0].nulls_first is True

    def test_trailing_semicolon(self):
        assert isinstance(body("SELECT 1;"), ast.Select)


class TestFromClause:
    def test_table_alias(self):
        select = body("SELECT x FROM t AS alias")
        assert select.from_clause.alias == "alias"

    def test_implicit_alias(self):
        select = body("SELECT x FROM t alias")
        assert select.from_clause.alias == "alias"

    def test_inner_join(self):
        join = body("SELECT 1 FROM a JOIN b ON a.id = b.id").from_clause
        assert isinstance(join, ast.Join)
        assert join.kind == "INNER"

    @pytest.mark.parametrize("kw,kind", [
        ("LEFT JOIN", "LEFT"), ("LEFT OUTER JOIN", "LEFT"),
        ("RIGHT JOIN", "RIGHT"), ("FULL OUTER JOIN", "FULL"),
        ("INNER JOIN", "INNER"),
    ])
    def test_join_kinds(self, kw, kind):
        join = body(f"SELECT 1 FROM a {kw} b ON a.id = b.id").from_clause
        assert join.kind == kind

    def test_cross_join_no_condition(self):
        join = body("SELECT 1 FROM a CROSS JOIN b").from_clause
        assert join.kind == "CROSS"
        assert join.condition is None

    def test_comma_join_is_cross(self):
        join = body("SELECT 1 FROM a, b").from_clause
        assert join.kind == "CROSS"

    def test_chained_joins_left_deep(self):
        join = body(
            "SELECT 1 FROM a JOIN b ON a.i = b.i JOIN c ON b.j = c.j"
        ).from_clause
        assert isinstance(join.left, ast.Join)
        assert join.right.name == "c"

    def test_derived_table(self):
        select = body("SELECT 1 FROM (SELECT a FROM t) AS sub")
        assert isinstance(select.from_clause, ast.SubqueryRef)
        assert select.from_clause.alias == "sub"

    def test_derived_table_requires_alias(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT 1 FROM (SELECT a FROM t)")


class TestCtes:
    def test_single_cte(self):
        query = parse("WITH c AS (SELECT 1) SELECT * FROM c")
        assert query.ctes[0].name == "c"

    def test_multiple_ctes(self):
        query = parse(
            "WITH a AS (SELECT 1), b AS (SELECT 2) SELECT * FROM b"
        )
        assert [cte.name for cte in query.ctes] == ["a", "b"]

    def test_cte_column_list(self):
        query = parse("WITH c(x, y) AS (SELECT 1, 2) SELECT * FROM c")
        assert query.ctes[0].columns == ["x", "y"]

    def test_nested_with_inside_cte(self):
        query = parse(
            "WITH outer_cte AS (WITH inner_cte AS (SELECT 1) "
            "SELECT * FROM inner_cte) SELECT * FROM outer_cte"
        )
        assert query.ctes[0].query.ctes[0].name == "inner_cte"


class TestSetOperations:
    def test_union(self):
        operation = body("SELECT a FROM t UNION SELECT b FROM u")
        assert isinstance(operation, ast.SetOperation)
        assert operation.op == "UNION" and not operation.all

    def test_union_all(self):
        assert body("SELECT 1 UNION ALL SELECT 2").all

    @pytest.mark.parametrize("op", ["INTERSECT", "EXCEPT"])
    def test_other_set_ops(self, op):
        assert body(f"SELECT 1 {op} SELECT 2").op == op

    def test_order_by_binds_to_set_operation(self):
        operation = body("SELECT a FROM t UNION SELECT a FROM u ORDER BY a")
        assert operation.order_by
        assert not operation.left.order_by

    def test_chained_set_ops_left_assoc(self):
        operation = body("SELECT 1 UNION SELECT 2 UNION SELECT 3")
        assert isinstance(operation.left, ast.SetOperation)


class TestExpressions:
    def test_precedence_mul_over_add(self):
        expr = parse_expression("1 + 2 * 3")
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_parentheses_override(self):
        expr = parse_expression("(1 + 2) * 3")
        assert expr.op == "*"

    def test_and_or_precedence(self):
        expr = parse_expression("a = 1 OR b = 2 AND c = 3")
        assert expr.op == "OR"
        assert expr.right.op == "AND"

    def test_not(self):
        expr = parse_expression("NOT a = 1")
        assert isinstance(expr, ast.UnaryOp) and expr.op == "NOT"

    def test_unary_minus(self):
        expr = parse_expression("-x + 1")
        assert expr.op == "+"
        assert isinstance(expr.left, ast.UnaryOp)

    def test_comparison_chain_not_allowed_silently(self):
        # one comparison per level; "a = b" parses, then stops
        expr = parse_expression("a = b")
        assert expr.op == "="

    def test_concat_operator(self):
        expr = parse_expression("a || b")
        assert expr.op == "||"

    @pytest.mark.parametrize("literal,value", [
        ("NULL", None), ("TRUE", True), ("FALSE", False),
        ("42", 42), ("4.5", 4.5), ("'x'", "x"),
    ])
    def test_literals(self, literal, value):
        expr = parse_expression(literal)
        assert isinstance(expr, ast.Literal)
        assert expr.value == value


class TestPredicates:
    def test_between(self):
        expr = parse_expression("x BETWEEN 1 AND 5")
        assert isinstance(expr, ast.Between) and not expr.negated

    def test_not_between(self):
        assert parse_expression("x NOT BETWEEN 1 AND 5").negated

    def test_in_list(self):
        expr = parse_expression("x IN (1, 2, 3)")
        assert isinstance(expr, ast.InList)
        assert len(expr.items) == 3

    def test_not_in_list(self):
        assert parse_expression("x NOT IN (1)").negated

    def test_in_subquery(self):
        expr = parse_expression("x IN (SELECT y FROM t)")
        assert isinstance(expr, ast.InSubquery)

    def test_like(self):
        expr = parse_expression("name LIKE 'A%'")
        assert isinstance(expr, ast.Like)

    def test_is_null_and_not_null(self):
        assert not parse_expression("x IS NULL").negated
        assert parse_expression("x IS NOT NULL").negated

    def test_exists(self):
        expr = parse_expression("EXISTS (SELECT 1 FROM t)")
        assert isinstance(expr, ast.Exists)

    def test_not_exists(self):
        expr = parse_expression("NOT EXISTS (SELECT 1 FROM t)")
        assert isinstance(expr, ast.UnaryOp)
        assert isinstance(expr.operand, ast.Exists)

    def test_scalar_subquery(self):
        expr = parse_expression("(SELECT MAX(x) FROM t)")
        assert isinstance(expr, ast.ScalarSubquery)


class TestFunctionsAndCase:
    def test_function_call(self):
        expr = parse_expression("SUM(x)")
        assert isinstance(expr, ast.FunctionCall)
        assert expr.name == "SUM"

    def test_count_star(self):
        expr = parse_expression("COUNT(*)")
        assert isinstance(expr.args[0], ast.Star)

    def test_count_distinct(self):
        assert parse_expression("COUNT(DISTINCT x)").distinct

    def test_nested_calls(self):
        expr = parse_expression("NULLIF(SUM(x), 0)")
        assert isinstance(expr.args[0], ast.FunctionCall)

    def test_cast(self):
        expr = parse_expression("CAST(x AS FLOAT)")
        assert isinstance(expr, ast.Cast)
        assert expr.target_type == "FLOAT"

    def test_cast_with_precision(self):
        expr = parse_expression("CAST(x AS DECIMAL(10, 2))")
        assert expr.target_type == "DECIMAL"

    def test_searched_case(self):
        expr = parse_expression(
            "CASE WHEN x > 0 THEN 'pos' WHEN x < 0 THEN 'neg' ELSE 'zero' END"
        )
        assert isinstance(expr, ast.CaseExpression)
        assert expr.operand is None
        assert len(expr.whens) == 2
        assert expr.default is not None

    def test_simple_case(self):
        expr = parse_expression("CASE x WHEN 1 THEN 'one' END")
        assert expr.operand is not None

    def test_case_requires_when(self):
        with pytest.raises(SqlSyntaxError):
            parse_expression("CASE ELSE 1 END")

    def test_window_function(self):
        expr = parse_expression(
            "ROW_NUMBER() OVER (PARTITION BY a ORDER BY b DESC)"
        )
        assert isinstance(expr, ast.WindowFunction)
        assert len(expr.window.partition_by) == 1
        assert expr.window.order_by[0].ascending is False

    def test_window_empty_over(self):
        expr = parse_expression("SUM(x) OVER ()")
        assert isinstance(expr, ast.WindowFunction)
        assert not expr.window.partition_by


class TestSyntaxErrors:
    @pytest.mark.parametrize("sql", [
        "SELECT",
        "SELECT FROM t",
        "SELECT a FROM",
        "SELECT a FROM t WHERE",
        "SELECT a FROM t GROUP a",
        "WITH c AS SELECT 1 SELECT 2",
        "SELECT a FROM t LIMIT x",
        "SELECT a b c FROM t",
        "SELECT a FROM t JOIN u",
    ])
    def test_malformed_sql_raises(self, sql):
        with pytest.raises(SqlSyntaxError):
            parse(sql)

    def test_error_message_mentions_found_token(self):
        with pytest.raises(SqlSyntaxError, match="found"):
            parse("SELECT a FROM t WHERE ORDER")


class TestWalk:
    def test_walk_visits_subqueries(self):
        query = parse(
            "WITH c AS (SELECT a FROM t) SELECT * FROM c WHERE a IN "
            "(SELECT b FROM u)"
        )
        tables = {
            node.name for node in query.walk()
            if isinstance(node, ast.TableRef)
        }
        assert tables == {"t", "c", "u"}


class TestParses:
    def test_answers_and_caches_failures(self):
        parses.cache_clear()
        assert parses("SELECT 1") is True
        assert parses("SELECT FROM WHERE") is False
        assert parses("SELECT FROM WHERE") is False
        info = parses.cache_info()
        assert (info.hits, info.misses) == (1, 2)

    def test_other_exceptions_propagate_uncached(self):
        parses.cache_clear()
        with mock.patch.object(parser_module, "parse",
                               side_effect=RuntimeError("boom")):
            with pytest.raises(RuntimeError, match="boom"):
                parses("SELECT 2")
        assert parses("SELECT 2") is True
