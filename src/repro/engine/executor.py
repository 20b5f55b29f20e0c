"""Relational query execution.

:class:`Executor` runs a parsed :class:`~repro.sql.ast_nodes.Query` against a
:class:`~repro.engine.database.Database` and returns a :class:`Result`.

Execution is columnar-first: each SELECT is planned over
:class:`~repro.engine.columnar.ColumnarRelation` arrays — hash equi-joins,
vectorized WHERE/HAVING/projection closures (compiled once per schema and
expression, cached across executors), and hash grouping with batched
aggregates. Whatever the vector compiler cannot express (window functions,
correlated subqueries, ambiguous references) falls back per-stage to the
row-at-a-time path, which :class:`Executor` inherits from
:class:`~repro.engine.reference.ReferenceExecutor`. There is one row engine:
the fallback and the differential-testing oracle are the same code. Because
the row path reaches subqueries and derived tables through the overridden
:meth:`Executor._execute_select`, they still run columnar first.

Column kernels: where a batch's exact set of value types
(:func:`~repro.engine.evaluator.value_kinds`) is plain, grouped SUM/AVG/
TOTAL/MIN/MAX, group keys and hash-join keys go through C builtins
instead of one Python call per value; any other batch takes the generic
code. Results are bit-identical either way, and the inherited row path
never uses a kernel (DESIGN.md §6e).

Supported: CTEs (including references between CTEs), derived tables, all
join kinds, WHERE/GROUP BY/HAVING, aggregates (with DISTINCT), window
functions, correlated subqueries (scalar/IN/EXISTS), set operations,
DISTINCT, ORDER BY (expressions, output aliases, ordinals), LIMIT/OFFSET.
"""

from __future__ import annotations

import datetime
import operator
from functools import partial, reduce
from operator import itemgetter

from ..obs.metrics import METRICS
from ..obs.tracing import current_span
from ..sql import ast_nodes as ast
from ..sql.errors import SqlError
from ..sql.parser import parse_cached
from ..sql.rewriter import optimize_for_execution
from .aggregates import compute_aggregate, is_aggregate_function
from .columnar import ColumnarRelation
from .errors import ExecutionError
from .evaluator import (
    _NULL_KIND,
    _NUMBER_KINDS,
    Environment,
    VectorContext,
    VectorFallback,
    compiled_expression,
    contains_aggregate,
    value_kinds,
)
from .reference import ReferenceExecutor, _row_key
from .values import Result, group_key, sort_key

_EMPTY_MATCHES = ()


class Executor(ReferenceExecutor):
    """Executes queries against one database, columnar first."""

    # -- public API ----------------------------------------------------------

    def execute(self, query):
        """Execute ``query`` (SQL text or a parsed Query) and return a Result.

        Text goes through the shared parse cache — execution never mutates
        the AST, so the same tree can safely serve the self-correction loop,
        the final check, and the EX metric. The tree is logically rewritten
        (constant folding, predicate pushdown) and executed once; an error
        comes from whichever path ran the failing stage.
        """
        if isinstance(query, str):
            query = parse_cached(query)
        optimized = optimize_for_execution(query, self.database)
        return self._execute_query(optimized, outer_env=None)

    # -- columnar SELECT -------------------------------------------------------

    def _execute_select(self, select, outer_env):
        """Run ``select`` columnar. A stage the vector compiler cannot
        express finishes on the inherited row path (:meth:`_row_fallback`);
        a residual join predicate it cannot express runs row by row in
        :meth:`_filter_pairs`."""
        relation = self._from_columnar(select.from_clause, outer_env)
        has_outer = outer_env is not None
        if select.where is not None:
            try:
                closure = compiled_expression(
                    select.where, relation.schema, has_outer
                )
            except VectorFallback:
                return self._row_fallback(
                    select, relation, outer_env, apply_where=True
                )
            if relation.count:
                selection = list(range(relation.count))
                values = closure(
                    VectorContext(relation, outer_env), selection
                )
                keep = [
                    index for index, value in zip(selection, values)
                    if value is True
                ]
                if len(keep) != relation.count:
                    relation = relation.take(keep)
        if self._window_nodes(select):
            return self._row_fallback(
                select, relation, outer_env, apply_where=False
            )
        if self._needs_grouping(select):
            try:
                result = self._grouped_columnar(select, relation, outer_env)
            except VectorFallback:
                return self._row_fallback(
                    select, relation, outer_env, apply_where=False
                )
            METRICS.inc("engine.columnar_selects")
            return result
        if select.having is not None:
            raise ExecutionError("HAVING without GROUP BY or aggregates")
        try:
            result = self._project_columnar(
                select, relation, outer_env, bound=None,
                bound_ids=frozenset(),
            )
        except VectorFallback:
            return self._row_fallback(
                select, relation, outer_env, apply_where=False
            )
        METRICS.inc("engine.columnar_selects")
        return result

    def _row_fallback(self, select, relation, outer_env, apply_where):
        """Finish ``select`` on the inherited row path over ``relation``."""
        METRICS.inc("engine.row_fallback_selects")
        return self._select_rows(
            select, relation.schema,
            self._relation_envs(relation, outer_env),
            outer_env, apply_where=apply_where,
        )

    def _relation_envs(self, relation, outer_env):
        return [
            Environment(bindings, parent=outer_env)
            for bindings in relation.binding_rows()
        ]

    def _relation_has_column(self, relation, outer_env, name):
        """Mirror of ``Environment.has_column(None, name)`` over a relation."""
        upper = name.upper()
        matches = 0
        for _binding, columns in relation.schema:
            if any(column.upper() == upper for column in columns):
                matches += 1
        if matches == 1:
            return True
        if matches > 1:
            return False
        if outer_env is not None:
            return outer_env.has_column(None, name)
        return False

    # -- columnar FROM ---------------------------------------------------------

    def _from_columnar(self, node, outer_env):
        if node is None:
            return ColumnarRelation([], 1)
        if isinstance(node, ast.TableRef):
            materialised = self._scopes[-1].resolve(node.name)
            if materialised is not None:
                return ColumnarRelation.from_result(
                    node.binding_name, materialised
                )
            table = self.database.table(node.name)
            return ColumnarRelation.from_table(node.binding_name, table)
        if isinstance(node, ast.SubqueryRef):
            result = self._execute_query(node.query, outer_env)
            return ColumnarRelation.from_result(node.binding_name, result)
        if isinstance(node, ast.Join):
            return self._join_columnar(node, outer_env)
        raise ExecutionError(f"Unsupported FROM item {type(node).__name__}")

    def _join_columnar(self, node, outer_env):
        left = self._from_columnar(node.left, outer_env)
        right = self._from_columnar(node.right, outer_env)
        overlap = {name for name, _cols in left.schema} & {
            name for name, _cols in right.schema
        }
        if overlap:
            raise ExecutionError(
                f"Duplicate relation binding(s) in join: {sorted(overlap)}"
            )
        pairs = self._join_pairs(node, left, right, outer_env)
        return ColumnarRelation.join(left, right, pairs)

    def _join_pairs(self, node, left, right, outer_env):
        """Output (left_index, right_index) pairs in legacy join order."""
        kind = node.kind
        condition = node.condition
        if kind == "CROSS" or condition is None:
            all_right = list(range(right.count))
            matches_per_left = [all_right] * left.count
            return _assemble_pairs(
                kind, left.count, right.count, matches_per_left
            )
        conjuncts = _flatten_and(condition)
        keys = []
        for conjunct in conjuncts:
            pair = self._equi_key(conjunct, left, right)
            if pair is None:
                break
            keys.append(pair)
        if keys and not _hashable_key_columns(keys, left, right):
            keys = []
        residual = conjuncts[len(keys):]
        if keys:
            METRICS.inc("engine.hash_joins")
            matches_per_left = _hash_matches(
                [left.array(*left_key) for left_key, _ in keys],
                [right.array(*right_key) for _, right_key in keys],
            )
        else:
            METRICS.inc("engine.loop_joins")
            all_right = list(range(right.count))
            matches_per_left = [all_right] * left.count
        if residual:
            candidates = [
                (left_index, right_index)
                for left_index in range(left.count)
                for right_index in matches_per_left[left_index]
            ]
            if len(residual) == 1:
                residual_expr = residual[0]
            elif len(residual) == len(conjuncts):
                residual_expr = condition
            else:
                residual_expr = residual[0]
                for conjunct in residual[1:]:
                    residual_expr = ast.BinaryOp(
                        op="AND", left=residual_expr, right=conjunct
                    )
            surviving = self._filter_pairs(
                left, right, candidates, residual_expr, outer_env
            )
            matches_per_left = [[] for _ in range(left.count)]
            for left_index, right_index in surviving:
                matches_per_left[left_index].append(right_index)
        return _assemble_pairs(kind, left.count, right.count, matches_per_left)

    def _filter_pairs(self, left, right, candidates, residual_expr, outer_env):
        if not candidates:
            return []
        pair_relation = ColumnarRelation.join(left, right, candidates)
        try:
            closure = compiled_expression(
                residual_expr, pair_relation.schema, outer_env is not None
            )
        except VectorFallback:
            evaluate = self._evaluator.evaluate_predicate
            return [
                pair for pair, bindings in zip(
                    candidates, pair_relation.binding_rows()
                )
                if evaluate(
                    residual_expr, Environment(bindings, parent=outer_env)
                )
            ]
        selection = list(range(len(candidates)))
        values = closure(
            VectorContext(pair_relation, outer_env), selection
        )
        return [
            pair for pair, value in zip(candidates, values) if value is True
        ]

    def _equi_key(self, conjunct, left, right):
        """``((left_binding, col), (right_binding, col))`` or None."""
        if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
            return None
        first, second = conjunct.left, conjunct.right
        if not (
            isinstance(first, ast.ColumnRef)
            and isinstance(second, ast.ColumnRef)
        ):
            return None
        resolved_first = _resolve_join_ref(first, left, right)
        resolved_second = _resolve_join_ref(second, left, right)
        if resolved_first is None or resolved_second is None:
            return None
        side_first, key_first = resolved_first
        side_second, key_second = resolved_second
        if side_first == side_second:
            return None
        if side_first == "left":
            return key_first, key_second
        return key_second, key_first

    # -- columnar grouping -----------------------------------------------------

    def _grouped_columnar(self, select, relation, outer_env):
        has_outer = outer_env is not None
        group_exprs = [
            self._resolve_group_expr_columnar(expr, select, relation, outer_env)
            for expr in select.group_by
        ]
        aggregate_nodes = []
        for item in select.items:
            if isinstance(item.expr, ast.Star):
                continue
            _collect_aggregates(item.expr, aggregate_nodes)
        if select.having is not None:
            _collect_aggregates(select.having, aggregate_nodes)
        for order_item in select.order_by:
            _collect_aggregates(order_item.expr, aggregate_nodes)
        specs = {}
        for node in aggregate_nodes:
            if id(node) in specs:
                continue
            if any(contains_aggregate(arg) for arg in node.args):
                raise VectorFallback("nested aggregate")
            count_star = bool(node.args) and isinstance(
                node.args[0], ast.Star
            )
            if count_star or not node.args:
                closure = None
            else:
                closure = compiled_expression(
                    node.args[0], relation.schema, has_outer
                )
            specs[id(node)] = (node, closure)
        key_closures = [
            compiled_expression(expr, relation.schema, has_outer)
            for expr in group_exprs
        ]
        context = VectorContext(relation, outer_env)
        selection = list(range(relation.count))
        if group_exprs:
            member_lists = _group_members([
                closure(context, selection) for closure in key_closures
            ])
            grouped = relation.take([members[0] for members in member_lists])
        elif relation.count:
            member_lists = [selection]
            grouped = relation.take([0])
        else:
            member_lists = [[]]
            grouped = ColumnarRelation(
                relation.schema, 1,
                arrays={key: [None] for key in relation.column_keys()},
            )
        bound = {}
        for node_id, (node, closure) in specs.items():
            if closure is None:
                bound[node_id] = [
                    compute_aggregate(
                        node.name, [None] * len(members),
                        distinct=node.distinct, count_star=True,
                    )
                    for members in member_lists
                ]
            else:
                bound[node_id] = _aggregate_groups(
                    node, closure(context, selection), member_lists
                )
        bound_ids = frozenset(specs)
        if select.having is not None:
            having_closure = compiled_expression(
                select.having, grouped.schema, has_outer, bound_ids
            )
            group_selection = list(range(grouped.count))
            values = having_closure(
                VectorContext(grouped, outer_env, bound), group_selection
            )
            keep = [
                index for index, value in zip(group_selection, values)
                if value is True
            ]
            if len(keep) != grouped.count:
                grouped = grouped.take(keep)
                bound = {
                    node_id: [array[index] for index in keep]
                    for node_id, array in bound.items()
                }
        return self._project_columnar(
            select, grouped, outer_env, bound, bound_ids
        )

    def _resolve_group_expr_columnar(self, expr, select, relation, outer_env):
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            position = expr.value - 1
            if 0 <= position < len(select.items):
                return select.items[position].expr
            raise ExecutionError(f"GROUP BY position {expr.value} out of range")
        if isinstance(expr, ast.ColumnRef) and expr.table is None:
            if relation.count and self._relation_has_column(
                relation, outer_env, expr.name
            ):
                return expr
            for item in select.items:
                if item.alias and item.alias.upper() == expr.name.upper():
                    return item.expr
        return expr

    # -- columnar projection / ordering ---------------------------------------

    def _project_columnar(self, select, relation, outer_env, bound, bound_ids):
        has_outer = outer_env is not None
        schema = relation.schema
        columns = []
        plans = []
        for item in select.items:
            if isinstance(item.expr, ast.Star):
                wanted = item.expr.table.upper() if item.expr.table else None
                matched = False
                for binding, relation_columns in schema:
                    if wanted is not None and binding != wanted:
                        continue
                    matched = True
                    for column in relation_columns:
                        columns.append(column)
                        plans.append(("array", (binding, column.upper())))
                if wanted is not None and not matched:
                    raise ExecutionError(
                        f"Unknown relation {item.expr.table!r} in star"
                    )
                if not schema:
                    raise ExecutionError("SELECT * with no FROM clause")
                continue
            columns.append(self._output_name(item))
            plans.append((
                "closure",
                compiled_expression(item.expr, schema, has_outer, bound_ids),
            ))
        upper_columns = [column.upper() for column in columns]
        order_plans = []
        for order_item in select.order_by:
            expr = order_item.expr
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                order_plans.append(("ordinal", expr.value))
                continue
            if (
                isinstance(expr, ast.ColumnRef)
                and expr.table is None
                and expr.name.upper() in upper_columns
                and not self._relation_has_column(
                    relation, outer_env, expr.name
                )
            ):
                order_plans.append(
                    ("output", upper_columns.index(expr.name.upper()))
                )
                continue
            order_plans.append((
                "closure",
                compiled_expression(expr, schema, has_outer, bound_ids),
            ))
        context = VectorContext(relation, outer_env, bound)
        selection = list(range(relation.count))
        value_arrays = []
        for kind, payload in plans:
            if kind == "array":
                value_arrays.append(relation.array(*payload))
            else:
                value_arrays.append(payload(context, selection))
        rows = [tuple(row) for row in zip(*value_arrays)]
        kept = selection
        if select.distinct:
            seen = set()
            deduped = []
            kept = []
            for index, row in zip(selection, rows):
                key = _row_key(row)
                if key not in seen:
                    seen.add(key)
                    deduped.append(row)
                    kept.append(index)
            rows = deduped
        if select.order_by:
            order_arrays = []
            for (kind, payload), order_item in zip(
                order_plans, select.order_by
            ):
                if kind == "ordinal":
                    position = payload - 1
                    if rows and not 0 <= position < len(rows[0]):
                        raise ExecutionError(
                            f"ORDER BY position {payload} out of range"
                        )
                    order_arrays.append([row[position] for row in rows])
                elif kind == "output":
                    order_arrays.append([row[payload] for row in rows])
                else:
                    order_arrays.append(payload(context, kept))
            decorated = []
            for position, row in enumerate(rows):
                keys = tuple(
                    sort_key(
                        array[position],
                        order_item.ascending,
                        order_item.nulls_first,
                    )
                    for array, order_item in zip(
                        order_arrays, select.order_by
                    )
                )
                decorated.append((keys, row))
            decorated.sort(key=itemgetter(0))
            rows = [row for _keys, row in decorated]
        if select.offset is not None:
            rows = rows[select.offset:]
        if select.limit is not None:
            rows = rows[: select.limit]
        return Result(columns, rows)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _flatten_and(expr):
    """Flatten an AND tree into conjuncts, in evaluation order."""
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return _flatten_and(expr.left) + _flatten_and(expr.right)
    return [expr]


def _assemble_pairs(kind, left_count, right_count, matches_per_left):
    """Assemble join index pairs in the legacy nested-loop output order:
    left-major with matches in right order, LEFT/FULL null extensions
    inline, RIGHT/FULL unmatched right rows appended at the end."""
    pairs = []
    matched_right = [False] * right_count
    for left_index in range(left_count):
        matches = matches_per_left[left_index]
        if matches:
            for right_index in matches:
                pairs.append((left_index, right_index))
                matched_right[right_index] = True
        elif kind in ("LEFT", "FULL"):
            pairs.append((left_index, None))
    if kind in ("RIGHT", "FULL"):
        for right_index in range(right_count):
            if not matched_right[right_index]:
                pairs.append((None, right_index))
    return pairs


def _resolve_join_ref(ref, left, right):
    """Resolve a join-key ColumnRef to ('left'|'right', (binding, col))."""
    name = ref.name.upper()
    if ref.table is not None:
        table = ref.table.upper()
        for side, relation in (("left", left), ("right", right)):
            for binding, columns in relation.schema:
                if binding == table:
                    if any(column.upper() == name for column in columns):
                        return side, (binding, name)
                    return None
        return None
    matches = []
    for side, relation in (("left", left), ("right", right)):
        for binding, columns in relation.schema:
            if any(column.upper() == name for column in columns):
                matches.append((side, (binding, name)))
    if len(matches) == 1:
        return matches[0]
    return None


def _hashable_key_columns(keys, left, right):
    """True when every key column pair is homogeneous within one type class.

    Python dict key equality matches SQL equality for numbers (bool/int/
    float unify), text, and dates — but not across classes (SQL coerces
    ``'5' = 5`` to true, Python does not) and not for NaN (SQL's ``compare``
    treats NaN as equal to itself, Python does not). Mixed-class or NaN key
    columns send the join to the residual-predicate path instead.
    """
    for left_key, right_key in keys:
        classes = set()
        for array in (left.array(*left_key), right.array(*right_key)):
            if not _scan_key_class(array, classes):
                return False
        if len(classes) > 1:
            return False
    return True


#: Hash-join key class of each kind: number, text or date.
_KEY_CLASSES = ((int, "n"), (float, "n"), (str, "s"), (datetime.date, "d"))


def _scan_key_class(array, classes):
    """Add the key classes of ``array``'s values to ``classes``; False when
    a value cannot key a hash join (a NaN, or a kind outside the three)."""
    kinds = value_kinds(array) - _NULL_KIND
    for kind in kinds:
        for base, key_class in _KEY_CLASSES:
            if issubclass(kind, base):
                classes.add(key_class)
                break
        else:
            return False
    floats = any(issubclass(kind, float) for kind in kinds)
    return not (floats and any(map(operator.ne, array, array)))


# -- column kernels --------------------------------------------------------------
#
# As in the evaluator: a batch's exact set of types (value_kinds) picks a
# C-builtin kernel where one does exactly what the generic code does, and
# anything else keeps the generic code. The row path never sees a kernel.

def _hash_matches(left_arrays, right_arrays):
    """Per left row, the right rows whose key columns equal its own.

    Build on the right, probe from the left; a key with a NULL in it
    matches nothing. ``zip`` builds the key tuples in C.
    """
    index = {}
    for right_index, key in enumerate(zip(*right_arrays)):
        if None in key:
            continue
        members = index.get(key)
        if members is None:
            index[key] = [right_index]
        else:
            members.append(right_index)
    return [
        _EMPTY_MATCHES if None in key else index.get(key, _EMPTY_MATCHES)
        for key in zip(*left_arrays)
    ]


#: Key kinds for which group_key is the identity.
_PLAIN_KEY_KINDS = frozenset({int, str, type(None)})
#: Kinds on which builtin min/max replace on strict < / > as _extreme does.
_MIN_MAX_KINDS = frozenset(map(frozenset, (
    {int}, {float}, {int, float}, {str}, {datetime.date},
)))
_is_present = partial(operator.is_not, None)


def _sum_present(present):
    # The additions _sum makes, in its order, without its per-value checks.
    return reduce(operator.add, present, 0)


_AGGREGATE_KERNELS = {
    "SUM": lambda present: _sum_present(present) if present else None,
    "TOTAL": lambda present: (
        float(_sum_present(present)) if present else 0.0
    ),
    "AVG": lambda present: (
        _sum_present(present) / len(present) if present else None
    ),
    "MIN": lambda present: min(present, default=None),
    "MAX": lambda present: max(present, default=None),
}


def _aggregate_groups(node, values, member_lists):
    """``node`` (a non-COUNT(*) aggregate) over each group of ``values``.

    SUM/AVG/TOTAL over numbers and MIN/MAX over one ordered kind run as
    C builtins per group; everything else, DISTINCT included, goes
    through :func:`compute_aggregate` per group.
    """
    name = node.name.upper()
    kinds = value_kinds(values)
    present_kinds = kinds - _NULL_KIND
    plain = not node.distinct and (
        (name in ("SUM", "AVG", "TOTAL") and present_kinds <= _NUMBER_KINDS)
        or (name in ("MIN", "MAX") and present_kinds in _MIN_MAX_KINDS)
    )
    if not plain:
        return [
            compute_aggregate(
                node.name, [values[index] for index in members],
                distinct=node.distinct, count_star=False,
            )
            for members in member_lists
        ]
    kernel = _AGGREGATE_KERNELS[name]
    gather = values.__getitem__
    if kinds == present_kinds:
        return [kernel(list(map(gather, members))) for members in member_lists]
    return [
        kernel(list(filter(_is_present, map(gather, members))))
        for members in member_lists
    ]


def _group_members(key_arrays):
    """Row indices of each group, in first-appearance order.

    A key column whose kinds are all plain (int, str, NULL) keys as it is,
    since :func:`group_key` would return every value unchanged.
    """
    columns = [
        array if value_kinds(array) <= _PLAIN_KEY_KINDS
        else list(map(group_key, array))
        for array in key_arrays
    ]
    groups = {}
    for index, key in enumerate(zip(*columns)):
        members = groups.get(key)
        if members is None:
            groups[key] = [index]
        else:
            members.append(index)
    return list(groups.values())


def _collect_aggregates(node, out):
    """Aggregate FunctionCall nodes, mirroring contains_aggregate's walk."""
    if isinstance(node, ast.WindowFunction):
        raise VectorFallback("window function in grouped expression")
    if isinstance(node, (ast.ScalarSubquery, ast.InSubquery, ast.Exists)):
        return
    if isinstance(node, ast.FunctionCall) and is_aggregate_function(node.name):
        out.append(node)
        return
    for child in node.children():
        _collect_aggregates(child, out)


def execute_sql(database, sql):
    """Convenience helper: parse and execute ``sql`` against ``database``."""
    return Executor(database).execute(sql)


def execution_outcome(database, sql, executor=None):
    """``(True, comparable rows)`` or ``(False, error text)`` of running
    ``sql`` on ``database``: the one execution behind self-correction,
    the final check, the EX check and the knowledge gate's GK005.

    With no ``executor`` the outcome is memoised in the database's
    ``memo("execution")`` under the SQL text (DESIGN.md §6d): execution
    reads nothing else, since data and catalog are the version. The memo
    is fetched before executing, so an outcome lands in the memo of the
    version the execution started on. Lookups count
    ``execution.memo_hits``/``execution.memo_misses`` in the registry,
    and a hit adds ``execution.memo_hits`` to the current span. With an
    ``executor`` (a fault-injecting one, whose decisions count
    executions) the statement runs every time and no memo is read or
    stored. Only :class:`~repro.sql.errors.SqlError` and
    :class:`~repro.engine.errors.ExecutionError` become an outcome; any
    other exception propagates and stores nothing.
    """
    memo = None
    if executor is None:
        memo = database.memo("execution")
        outcome = memo.get(sql)
        if outcome is not None:
            METRICS.inc("execution.memo_hits")
            span = current_span()
            if span is not None:
                span.inc_attr("execution.memo_hits", 1)
            return outcome
        METRICS.inc("execution.memo_misses")
        executor = Executor(database)
    try:
        outcome = (True, executor.execute(sql).comparable())
    except (SqlError, ExecutionError) as error:
        outcome = (False, str(error))
    return outcome if memo is None else memo.store(sql, outcome)
