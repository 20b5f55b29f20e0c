"""Row-at-a-time engine: the differential-testing oracle and the row path.

Every relation is a list of per-row binding dicts, every predicate and
projection is evaluated one row environment at a time through
:class:`~repro.engine.evaluator.Evaluator`, joins are nested loops, and
grouping is a sequential scan. This is the original "straightforward
iterator-free materialising engine" the columnar rework started from.

It has two jobs:

* **Oracle.** The equivalence suite (``tests/test_engine_equivalence.py``)
  executes every statement through both :class:`ReferenceExecutor` and the
  columnar :class:`~repro.engine.executor.Executor` and asserts identical
  ``Result.comparable()`` output and identical errors. The columnar fast
  paths (hash joins, vectorized predicates, hash grouping, the logical
  rewrite pass) are trusted only because this engine agrees with them.
* **Row path.** :class:`~repro.engine.executor.Executor` subclasses
  :class:`ReferenceExecutor`: whatever stage the vector compiler cannot
  express (window functions, correlated subqueries, ambiguous references)
  continues in :meth:`ReferenceExecutor._select_rows`. That per-SELECT
  fallback is the only way into the row path: a statement executes once,
  and its error comes from whichever path ran the failing stage.

Do not "optimise" this module: its value is that it stays dumb, and that
now protects both the oracle and the executor's fallback.

Supported: CTEs (including references between CTEs), derived tables, all
join kinds, WHERE/GROUP BY/HAVING, aggregates (with DISTINCT), window
functions, correlated subqueries (scalar/IN/EXISTS), set operations,
DISTINCT, ORDER BY (expressions, output aliases, ordinals), LIMIT/OFFSET.
"""

from __future__ import annotations

from ..sql import ast_nodes as ast
from ..sql.parser import parse_cached
from ..sql.printer import to_sql
from .database import Database
from .errors import ExecutionError, UnknownTableError
from .evaluator import (
    Environment,
    Evaluator,
    contains_aggregate,
    find_window_functions,
)
from .values import Result, group_key, sort_key
from .window import evaluate_window, order_key_tuple


class _CteScope:
    """Chained mapping of CTE name -> materialised Result."""

    def __init__(self, parent=None):
        self.parent = parent
        self._relations = {}

    def define(self, name, result):
        self._relations[name.upper()] = result

    def resolve(self, name):
        scope = self
        while scope is not None:
            result = scope._relations.get(name.upper())
            if result is not None:
                return result
            scope = scope.parent
        return None


class ReferenceExecutor:
    """Executes queries against one database, row at a time."""

    def __init__(self, database: Database):
        self.database = database
        self._evaluator = Evaluator(self._run_subquery)
        self._scopes = [_CteScope()]

    # -- public API ----------------------------------------------------------

    def execute(self, query):
        """Execute ``query`` (SQL text or a parsed Query) and return a Result."""
        if isinstance(query, str):
            query = parse_cached(query)
        return self._execute_query(query, outer_env=None)

    # -- query / body ----------------------------------------------------------

    def _run_subquery(self, query, env):
        return self._execute_query(query, outer_env=env)

    def _execute_query(self, query, outer_env):
        scope = _CteScope(parent=self._scopes[-1])
        self._scopes.append(scope)
        try:
            for cte in query.ctes:
                result = self._execute_query(cte.query, outer_env)
                if cte.columns:
                    if len(cte.columns) != len(result.columns):
                        raise ExecutionError(
                            f"CTE {cte.name} declares {len(cte.columns)} "
                            f"columns but its query returns {len(result.columns)}"
                        )
                    result = Result(cte.columns, result.rows)
                scope.define(cte.name, result)
            return self._execute_body(query.body, outer_env)
        finally:
            self._scopes.pop()

    def _execute_body(self, body, outer_env):
        if isinstance(body, ast.SetOperation):
            return self._execute_set_operation(body, outer_env)
        return self._execute_select(body, outer_env)

    # -- set operations ----------------------------------------------------------

    def _execute_set_operation(self, node, outer_env):
        left = self._execute_body(node.left, outer_env)
        right = self._execute_body(node.right, outer_env)
        if len(left.columns) != len(right.columns):
            raise ExecutionError(
                f"{node.op} operands have different column counts "
                f"({len(left.columns)} vs {len(right.columns)})"
            )
        left_keys = [_row_key(row) for row in left.rows]
        right_keys = [_row_key(row) for row in right.rows]
        if node.op == "UNION":
            if node.all:
                rows = left.rows + right.rows
            else:
                rows = _dedupe(left.rows + right.rows)
        elif node.op == "INTERSECT":
            right_set = set(right_keys)
            rows = _dedupe(
                row for row, key in zip(left.rows, left_keys)
                if key in right_set
            )
        elif node.op == "EXCEPT":
            right_set = set(right_keys)
            rows = _dedupe(
                row for row, key in zip(left.rows, left_keys)
                if key not in right_set
            )
        else:
            raise ExecutionError(f"Unknown set operation {node.op!r}")
        result = Result(left.columns, rows)
        if node.order_by:
            result = self._order_output_only(result, node.order_by)
        if node.limit is not None:
            result = Result(result.columns, result.rows[: node.limit])
        return result

    def _order_output_only(self, result, order_items):
        decorated = []
        for row in result.rows:
            keys = []
            for item in order_items:
                value = self._output_order_value(item.expr, result.columns, row)
                keys.append(sort_key(value, item.ascending, item.nulls_first))
            decorated.append((tuple(keys), row))
        decorated.sort(key=lambda pair: pair[0])
        return Result(result.columns, [row for _keys, row in decorated])

    def _output_order_value(self, expr, columns, row):
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            position = expr.value - 1
            if not 0 <= position < len(columns):
                raise ExecutionError(f"ORDER BY position {expr.value} out of range")
            return row[position]
        if isinstance(expr, ast.ColumnRef) and expr.table is None:
            upper = [column.upper() for column in columns]
            if expr.name.upper() in upper:
                return row[upper.index(expr.name.upper())]
        raise ExecutionError(
            "ORDER BY after a set operation must use output columns"
        )

    # -- SELECT ----------------------------------------------------------

    def _execute_select(self, select, outer_env):
        schema, row_envs = self._resolve_from(select.from_clause, outer_env)
        return self._select_rows(
            select, schema, row_envs, outer_env, apply_where=True
        )

    def _select_rows(self, select, schema, row_envs, outer_env, apply_where):
        """Run a SELECT over already-resolved FROM rows.

        ``apply_where`` is False when the caller has filtered ``row_envs``
        by WHERE already (the executor's columnar stages do).
        """
        if apply_where and select.where is not None:
            row_envs = [
                env for env in row_envs
                if self._evaluator.evaluate_predicate(select.where, env)
            ]
        grouped = self._needs_grouping(select)
        if grouped:
            row_envs = self._group(select, schema, row_envs, outer_env)
            if select.having is not None:
                row_envs = [
                    env for env in row_envs
                    if self._evaluator.evaluate_predicate(select.having, env)
                ]
        elif select.having is not None:
            raise ExecutionError("HAVING without GROUP BY or aggregates")
        self._compute_windows(select, row_envs)
        columns, projected = self._project(select, schema, row_envs)
        rows_with_envs = list(zip(projected, row_envs))
        if select.distinct:
            rows_with_envs = _dedupe_pairs(rows_with_envs)
        if select.order_by:
            rows_with_envs = self._order(
                select.order_by, columns, rows_with_envs
            )
        rows = [row for row, _env in rows_with_envs]
        if select.offset is not None:
            rows = rows[select.offset:]
        if select.limit is not None:
            rows = rows[: select.limit]
        return Result(columns, rows)

    # -- FROM ----------------------------------------------------------

    def _resolve_from(self, node, outer_env):
        """Return (schema, row environments).

        ``schema`` is an ordered list of (binding, column names); each row
        environment binds every relation in scope for that row.
        """
        if node is None:
            return [], [Environment({}, parent=outer_env)]
        schema, rows = self._from_item(node, outer_env)
        envs = [Environment(bindings, parent=outer_env) for bindings in rows]
        return schema, envs

    def _from_item(self, node, outer_env):
        if isinstance(node, ast.TableRef):
            return self._table_rows(node)
        if isinstance(node, ast.SubqueryRef):
            result = self._execute_query(node.query, outer_env)
            return self._result_rows(node.binding_name, result)
        if isinstance(node, ast.Join):
            return self._join(node, outer_env)
        raise ExecutionError(f"Unsupported FROM item {type(node).__name__}")

    def _table_rows(self, ref):
        materialised = self._scopes[-1].resolve(ref.name)
        if materialised is not None:
            return self._result_rows(ref.binding_name, materialised)
        try:
            table = self.database.table(ref.name)
        except UnknownTableError:
            raise
        binding = ref.binding_name.upper()
        columns = [column.name.upper() for column in table.columns]
        schema = [(binding, [column.name for column in table.columns])]
        rows = [
            {binding: dict(zip(columns, row))} for row in table.rows
        ]
        return schema, rows

    def _result_rows(self, binding_name, result):
        binding = binding_name.upper()
        columns = [column.upper() for column in result.columns]
        schema = [(binding, list(result.columns))]
        rows = [
            {binding: dict(zip(columns, row))} for row in result.rows
        ]
        return schema, rows

    def _join(self, node, outer_env):
        left_schema, left_rows = self._from_item(node.left, outer_env)
        right_schema, right_rows = self._from_item(node.right, outer_env)
        overlap = {name for name, _cols in left_schema} & {
            name for name, _cols in right_schema
        }
        if overlap:
            raise ExecutionError(
                f"Duplicate relation binding(s) in join: {sorted(overlap)}"
            )
        schema = left_schema + right_schema
        null_right = _null_bindings(right_schema)
        null_left = _null_bindings(left_schema)

        def matches(left_bindings, right_bindings):
            if node.kind == "CROSS" or node.condition is None:
                return True
            env = Environment(
                {**left_bindings, **right_bindings}, parent=outer_env
            )
            return self._evaluator.evaluate_predicate(node.condition, env)

        joined = []
        matched_right = [False] * len(right_rows)
        for left_bindings in left_rows:
            found = False
            for position, right_bindings in enumerate(right_rows):
                if matches(left_bindings, right_bindings):
                    joined.append({**left_bindings, **right_bindings})
                    matched_right[position] = True
                    found = True
            if not found and node.kind in ("LEFT", "FULL"):
                joined.append({**left_bindings, **null_right})
        if node.kind in ("RIGHT", "FULL"):
            for position, right_bindings in enumerate(right_rows):
                if not matched_right[position]:
                    joined.append({**null_left, **right_bindings})
        return schema, joined

    # -- grouping ----------------------------------------------------------

    def _needs_grouping(self, select):
        if select.group_by:
            return True
        if any(contains_aggregate(item.expr) for item in select.items
               if not isinstance(item.expr, ast.Star)):
            return True
        if select.having is not None and contains_aggregate(select.having):
            return True
        return False

    def _group(self, select, schema, row_envs, outer_env):
        group_exprs = [
            self._resolve_group_expr(expr, select, row_envs)
            for expr in select.group_by
        ]
        if not group_exprs:
            representative = self._representative_env(
                schema, row_envs, outer_env
            )
            representative.group_rows = list(row_envs)
            return [representative]
        groups = {}
        order = []
        for env in row_envs:
            key = tuple(
                group_key(self._evaluator.evaluate(expr, env))
                for expr in group_exprs
            )
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(env)
        group_envs = []
        for key in order:
            members = groups[key]
            representative = members[0]
            representative.group_rows = members
            group_envs.append(representative)
        return group_envs

    def _resolve_group_expr(self, expr, select, row_envs):
        """Allow GROUP BY to reference select aliases and ordinals."""
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            position = expr.value - 1
            if 0 <= position < len(select.items):
                return select.items[position].expr
            raise ExecutionError(f"GROUP BY position {expr.value} out of range")
        if isinstance(expr, ast.ColumnRef) and expr.table is None:
            if row_envs and row_envs[0].has_column(None, expr.name):
                return expr
            for item in select.items:
                if item.alias and item.alias.upper() == expr.name.upper():
                    return item.expr
        return expr

    def _representative_env(self, schema, row_envs, outer_env):
        if row_envs:
            return row_envs[0]
        bindings = {
            binding: {column.upper(): None for column in columns}
            for binding, columns in schema
        }
        return Environment(bindings, parent=outer_env)

    # -- windows ----------------------------------------------------------

    def _window_nodes(self, select):
        nodes = []
        for item in select.items:
            nodes.extend(find_window_functions(item.expr))
        for order_item in select.order_by:
            nodes.extend(find_window_functions(order_item.expr))
        if select.having is not None:
            nodes.extend(find_window_functions(select.having))
        return nodes

    def _compute_windows(self, select, row_envs):
        nodes = self._window_nodes(select)
        if not nodes:
            return
        for env in row_envs:
            if env.window_values is None:
                env.window_values = {}
        for node in nodes:
            self._compute_one_window(node, row_envs)

    def _compute_one_window(self, node, row_envs):
        partition_keys = []
        order_keys = []
        arg_values = []
        count_star = bool(node.function.args) and isinstance(
            node.function.args[0], ast.Star
        )
        for env in row_envs:
            partition_keys.append(
                tuple(
                    group_key(self._evaluator.evaluate(expr, env))
                    for expr in node.window.partition_by
                )
            )
            order_keys.append(
                order_key_tuple(
                    [
                        (
                            self._evaluator.evaluate(item.expr, env),
                            item.ascending,
                            item.nulls_first,
                        )
                        for item in node.window.order_by
                    ]
                )
            )
            if count_star:
                arg_values.append([None])
            else:
                arg_values.append(
                    [
                        self._evaluator.evaluate(arg, env)
                        for arg in node.function.args
                    ]
                )
        results = evaluate_window(
            node.function.name,
            row_envs,
            partition_keys,
            order_keys,
            arg_values,
            distinct=node.function.distinct,
            count_star=count_star,
        )
        for env, value in zip(row_envs, results):
            env.window_values[id(node)] = value

    # -- projection ----------------------------------------------------------

    def _project(self, select, schema, row_envs):
        columns = []
        extractors = []
        for item in select.items:
            if isinstance(item.expr, ast.Star):
                star_columns, star_extractors = self._expand_star(
                    item.expr, schema
                )
                columns.extend(star_columns)
                extractors.extend(star_extractors)
                continue
            columns.append(self._output_name(item))
            expr = item.expr
            extractors.append(
                lambda env, expr=expr: self._evaluator.evaluate(expr, env)
            )
        rows = [
            tuple(extract(env) for extract in extractors) for env in row_envs
        ]
        return columns, rows

    def _expand_star(self, star, schema):
        columns = []
        extractors = []
        wanted = star.table.upper() if star.table else None
        matched = False
        for binding, relation_columns in schema:
            if wanted is not None and binding != wanted:
                continue
            matched = True
            for column in relation_columns:
                columns.append(column)
                extractors.append(
                    lambda env, binding=binding, column=column: env.lookup(
                        binding, column
                    )
                )
        if wanted is not None and not matched:
            raise ExecutionError(f"Unknown relation {star.table!r} in star")
        if not schema:
            raise ExecutionError("SELECT * with no FROM clause")
        return columns, extractors

    def _output_name(self, item):
        if item.alias:
            return item.alias
        if isinstance(item.expr, ast.ColumnRef):
            return item.expr.name
        return to_sql(item.expr)

    # -- ordering ----------------------------------------------------------

    def _order(self, order_items, columns, rows_with_envs):
        upper_columns = [column.upper() for column in columns]

        def order_value(item, row, env):
            expr = item.expr
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                position = expr.value - 1
                if not 0 <= position < len(row):
                    raise ExecutionError(
                        f"ORDER BY position {expr.value} out of range"
                    )
                return row[position]
            if isinstance(expr, ast.ColumnRef) and expr.table is None:
                upper = expr.name.upper()
                if upper in upper_columns and not env.has_column(
                    None, expr.name
                ):
                    return row[upper_columns.index(upper)]
            return self._evaluator.evaluate(expr, env)

        decorated = []
        for row, env in rows_with_envs:
            keys = tuple(
                sort_key(
                    order_value(item, row, env),
                    item.ascending,
                    item.nulls_first,
                )
                for item in order_items
            )
            decorated.append((keys, row, env))
        decorated.sort(key=lambda entry: entry[0])
        return [(row, env) for _keys, row, env in decorated]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _null_bindings(schema):
    return {
        binding: {column.upper(): None for column in columns}
        for binding, columns in schema
    }


def _row_key(row):
    return tuple(map(group_key, row))


def _dedupe(rows):
    seen = set()
    output = []
    for row in rows:
        key = _row_key(row)
        if key not in seen:
            seen.add(key)
            output.append(row)
    return output


def _dedupe_pairs(rows_with_envs):
    seen = set()
    output = []
    for row, env in rows_with_envs:
        key = _row_key(row)
        if key not in seen:
            seen.add(key)
            output.append((row, env))
    return output
