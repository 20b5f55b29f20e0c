"""Decompose SQL queries into sub-statements (paper §3.2.1).

GenEdit represents knowledge-set examples not as full queries but as
*decomposed* sub-statements: the query is first rewritten into CTE form,
then split into subqueries (one per CTE plus the final select), and finally
into clause-level sub-statements (projection, FROM, WHERE, GROUP BY, ...)
and expression-level sub-statements (CASE blocks, window functions,
conditional aggregations). Each unit carries a ``pseudo_sql`` form — the
fragment wrapped in ``...`` markers — exactly the representation the CoT
plan steps use in Fig. 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ast_nodes as ast
from .printer import to_sql
from .rewriter import to_cte_form

#: Unit kinds, ordered roughly from coarse to fine granularity.
KIND_QUERY = "query"
KIND_SUBQUERY = "subquery"
KIND_PROJECTION = "projection"
KIND_FROM = "from"
KIND_WHERE = "where"
KIND_GROUP_BY = "group_by"
KIND_HAVING = "having"
KIND_ORDER_BY = "order_by"
KIND_SELECT_ITEM = "select_item"
KIND_CASE = "case_expression"
KIND_WINDOW = "window_function"
KIND_EXPR_SUBQUERY = "expression_subquery"


@dataclass
class SqlUnit:
    """One decomposed sub-statement of a SQL query."""

    kind: str
    sql: str
    cte_name: str | None = None
    tables: list = field(default_factory=list)
    columns: list = field(default_factory=list)

    @property
    def pseudo_sql(self):
        """The ``... fragment ...`` form used inside CoT plan steps."""
        return f"... {self.sql} ..."

    def __str__(self):
        origin = f" [{self.cte_name}]" if self.cte_name else ""
        return f"{self.kind}{origin}: {self.sql}"


def decompose(query):
    """Decompose a parsed :class:`Query` into :class:`SqlUnit` fragments.

    The query is canonicalised to CTE form first; the returned list starts
    with one ``query`` unit for the whole (canonicalised) statement, then a
    ``subquery`` unit per CTE and for the final body, then clause and
    expression units in source order.
    """
    canonical = to_cte_form(query)
    units = [_unit(KIND_QUERY, to_sql(canonical), [canonical], None)]
    for cte in canonical.ctes:
        units.append(
            _unit(KIND_SUBQUERY, to_sql(cte.query), [cte.query], cte.name)
        )
        units.extend(_decompose_body(cte.query.body, cte.name))
    units.append(
        _unit(KIND_SUBQUERY, to_sql(canonical.body), [canonical.body], None)
    )
    units.extend(_decompose_body(canonical.body, None))
    return units


def _decompose_body(body, cte_name):
    if isinstance(body, ast.SetOperation):
        return _decompose_body(body.left, cte_name) + _decompose_body(
            body.right, cte_name
        )
    return list(_decompose_select(body, cte_name))


def _decompose_select(select, cte_name):
    projection = ", ".join(to_sql(item) for item in select.items)
    yield _unit(KIND_PROJECTION, f"SELECT {projection}", select.items, cte_name)
    if select.from_clause is not None:
        yield _unit(
            KIND_FROM,
            f"FROM {to_sql(select.from_clause)}",
            [select.from_clause],
            cte_name,
        )
    if select.where is not None:
        yield _unit(
            KIND_WHERE, f"WHERE {to_sql(select.where)}", [select.where], cte_name
        )
    if select.group_by:
        rendered = ", ".join(to_sql(expr) for expr in select.group_by)
        yield _unit(
            KIND_GROUP_BY, f"GROUP BY {rendered}", select.group_by, cte_name
        )
    if select.having is not None:
        yield _unit(
            KIND_HAVING,
            f"HAVING {to_sql(select.having)}",
            [select.having],
            cte_name,
        )
    if select.order_by:
        rendered = ", ".join(to_sql(item) for item in select.order_by)
        suffix = ""
        if select.limit is not None:
            suffix = f" LIMIT {select.limit}"
        yield _unit(
            KIND_ORDER_BY,
            f"ORDER BY {rendered}{suffix}",
            select.order_by,
            cte_name,
        )
    # Expression-granularity units: individually meaningful select items and
    # notable sub-expressions. These are the fragments that most often carry
    # business meaning (e.g. the RPV calculation in Fig. 2).
    for item in select.items:
        if isinstance(item.expr, ast.Star):
            continue
        if _is_complex(item.expr) or item.alias:
            yield _unit(KIND_SELECT_ITEM, to_sql(item), [item], cte_name)
        for node in item.expr.walk():
            if isinstance(node, ast.CaseExpression):
                yield _unit(KIND_CASE, to_sql(node), [node], cte_name)
            elif isinstance(node, ast.WindowFunction):
                yield _unit(KIND_WINDOW, to_sql(node), [node], cte_name)
    for root in _predicate_roots(select):
        for node in root.walk():
            if isinstance(node, (ast.ScalarSubquery, ast.InSubquery, ast.Exists)):
                yield _unit(
                    KIND_EXPR_SUBQUERY, to_sql(node), [node], cte_name
                )


def _predicate_roots(select):
    roots = []
    if select.where is not None:
        roots.append(select.where)
    if select.having is not None:
        roots.append(select.having)
    return roots


def _is_complex(expr):
    """True for expressions beyond a bare column or literal."""
    return not isinstance(expr, (ast.ColumnRef, ast.Literal, ast.Star))


def _unit(kind, sql, nodes, cte_name):
    """A unit over ``nodes``, with the tables and columns they reference,
    each in first-reference order, from one walk per node."""
    tables = []
    columns = []
    for node in nodes:
        for descendant in node.walk():
            if isinstance(descendant, ast.TableRef):
                tables.append(descendant.name.upper())
            elif isinstance(descendant, ast.ColumnRef):
                columns.append(descendant.name.upper())
    return SqlUnit(
        kind=kind,
        sql=sql,
        cte_name=cte_name,
        tables=list(dict.fromkeys(tables)),
        columns=list(dict.fromkeys(columns)),
    )
