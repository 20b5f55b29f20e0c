"""Expression evaluation over row environments.

The evaluator turns an expression AST into a value given an
:class:`Environment` — the set of relation bindings visible to the current
row, chained to outer environments so correlated subqueries resolve outer
columns. Aggregate context (a group of rows) and pre-computed window values
ride along on the environment.

Subquery execution is delegated back to the executor through a callback so
this module stays free of relational logic.
"""

from __future__ import annotations

import datetime
import re
import threading
from time import perf_counter

from ..obs.metrics import METRICS
from ..sql import ast_nodes as ast
from .aggregates import compute_aggregate, is_aggregate_function
from .errors import (
    AmbiguousColumnError,
    ExecutionError,
    TypeMismatchError,
    UnknownColumnError,
    UnknownFunctionError,
)
from .functions import call_scalar, is_scalar_function
from .values import (
    arithmetic,
    cast_value,
    compare,
    equals,
    is_true,
    logical_and,
    logical_not,
    logical_or,
)


class Environment:
    """Visible relation bindings for one logical row.

    ``bindings`` maps binding name (upper-case) to a column→value dict.
    ``parent`` is the enclosing query's environment for correlated lookups.
    ``group_rows`` is set when this environment represents a whole group
    (aggregate evaluation); ``window_values`` maps a WindowFunction node id
    to that row's pre-computed window result.
    """

    __slots__ = ("bindings", "parent", "group_rows", "window_values")

    def __init__(self, bindings=None, parent=None):
        self.bindings = bindings or {}
        self.parent = parent
        self.group_rows = None
        self.window_values = None

    def child(self, bindings):
        return Environment(bindings, parent=self)

    def lookup(self, table, name):
        """Resolve a column reference; falls through to outer environments."""
        upper_name = name.upper()
        if table is not None:
            upper_table = table.upper()
            environment = self
            while environment is not None:
                row = environment.bindings.get(upper_table)
                if row is not None:
                    if upper_name in row:
                        return row[upper_name]
                    raise UnknownColumnError(
                        f"Relation {table!r} has no column {name!r}"
                    )
                environment = environment.parent
            raise UnknownColumnError(f"Unknown relation {table!r}")
        environment = self
        while environment is not None:
            matches = [
                row[upper_name]
                for row in environment.bindings.values()
                if upper_name in row
            ]
            if len(matches) == 1:
                return matches[0]
            if len(matches) > 1:
                raise AmbiguousColumnError(
                    f"Column reference {name!r} is ambiguous"
                )
            environment = environment.parent
        raise UnknownColumnError(f"Unknown column {name!r}")

    def has_column(self, table, name):
        try:
            self.lookup(table, name)
        except (UnknownColumnError, AmbiguousColumnError):
            return False
        return True


class Evaluator:
    """Evaluates expression ASTs. ``run_subquery(query, env)`` executes a
    nested query and returns a Result (injected by the executor)."""

    def __init__(self, run_subquery):
        self._run_subquery = run_subquery

    # -- public API ----------------------------------------------------------

    def evaluate(self, node, env):
        method = self._DISPATCH.get(type(node))
        if method is None:
            raise ExecutionError(
                f"Cannot evaluate node {type(node).__name__}"
            )
        return method(self, node, env)

    def evaluate_predicate(self, node, env):
        """Evaluate as a WHERE/HAVING predicate (NULL rejects the row)."""
        return is_true(self.evaluate(node, env))

    # -- leaves ----------------------------------------------------------------

    def _literal(self, node, env):
        return node.value

    def _column(self, node, env):
        return env.lookup(node.table, node.name)

    def _star(self, node, env):
        raise ExecutionError("'*' is only valid in a select list or COUNT(*)")

    # -- operators -------------------------------------------------------------

    def _unary(self, node, env):
        if node.op == "NOT":
            return logical_not(self.evaluate(node.operand, env))
        value = self.evaluate(node.operand, env)
        if value is None:
            return None
        if node.op == "-":
            if isinstance(value, bool):
                value = int(value)
            if not isinstance(value, (int, float)):
                raise TypeMismatchError(f"Cannot negate {value!r}")
            return -value
        return value  # unary plus

    _COMPARISONS = {
        "=": lambda ordering: ordering == 0,
        "<>": lambda ordering: ordering != 0,
        "<": lambda ordering: ordering < 0,
        ">": lambda ordering: ordering > 0,
        "<=": lambda ordering: ordering <= 0,
        ">=": lambda ordering: ordering >= 0,
    }

    def _binary(self, node, env):
        if node.op == "AND":
            left = self.evaluate(node.left, env)
            if left is False:
                return False
            return logical_and(left, self.evaluate(node.right, env))
        if node.op == "OR":
            left = self.evaluate(node.left, env)
            if left is True:
                return True
            return logical_or(left, self.evaluate(node.right, env))
        left = self.evaluate(node.left, env)
        right = self.evaluate(node.right, env)
        check = self._COMPARISONS.get(node.op)
        if check is not None:
            ordering = compare(left, right)
            if ordering is None:
                return None
            return check(ordering)
        return arithmetic(node.op, left, right)

    # -- functions ----------------------------------------------------------------

    def _call(self, node, env):
        name = node.name.upper()
        if is_aggregate_function(name):
            return self._aggregate(node, env)
        if is_scalar_function(name):
            args = [self.evaluate(arg, env) for arg in node.args]
            return call_scalar(name, args)
        raise UnknownFunctionError(f"Unknown function {node.name!r}")

    def _aggregate(self, node, env):
        group_rows = env.group_rows
        if group_rows is None:
            raise ExecutionError(
                f"Aggregate {node.name} used outside GROUP BY context"
            )
        count_star = bool(node.args) and isinstance(node.args[0], ast.Star)
        if count_star or not node.args:
            values = [None] * len(group_rows)
            return compute_aggregate(
                node.name, values, distinct=node.distinct, count_star=True
            )
        values = [
            self.evaluate(node.args[0], row_env) for row_env in group_rows
        ]
        return compute_aggregate(
            node.name, values, distinct=node.distinct, count_star=False
        )

    def _window(self, node, env):
        if env.window_values is None or id(node) not in env.window_values:
            raise ExecutionError(
                "Window function evaluated without window context"
            )
        return env.window_values[id(node)]

    # -- compound expressions --------------------------------------------------

    def _case(self, node, env):
        if node.operand is not None:
            operand = self.evaluate(node.operand, env)
            for condition, result in node.whens:
                if is_true(equals(operand, self.evaluate(condition, env))):
                    return self.evaluate(result, env)
        else:
            for condition, result in node.whens:
                if self.evaluate_predicate(condition, env):
                    return self.evaluate(result, env)
        if node.default is not None:
            return self.evaluate(node.default, env)
        return None

    def _cast(self, node, env):
        return cast_value(self.evaluate(node.expr, env), node.target_type)

    def _in_list(self, node, env):
        needle = self.evaluate(node.expr, env)
        if needle is None:
            return None
        saw_null = False
        for item in node.items:
            value = self.evaluate(item, env)
            verdict = equals(needle, value)
            if verdict is True:
                return not node.negated if node.negated else True
            if verdict is None:
                saw_null = True
        if node.negated:
            return None if saw_null else True
        return None if saw_null else False

    def _in_subquery(self, node, env):
        needle = self.evaluate(node.expr, env)
        if needle is None:
            return None
        result = self._run_subquery(node.query, env)
        if result.columns and len(result.columns) != 1:
            raise ExecutionError("IN subquery must return one column")
        saw_null = False
        for row in result.rows:
            verdict = equals(needle, row[0])
            if verdict is True:
                return False if node.negated else True
            if verdict is None:
                saw_null = True
        if saw_null:
            return None
        return True if node.negated else False

    def _between(self, node, env):
        value = self.evaluate(node.expr, env)
        low = self.evaluate(node.low, env)
        high = self.evaluate(node.high, env)
        lower_check = compare(value, low)
        upper_check = compare(value, high)
        if lower_check is None or upper_check is None:
            return None
        inside = lower_check >= 0 and upper_check <= 0
        return not inside if node.negated else inside

    def _like(self, node, env):
        value = self.evaluate(node.expr, env)
        pattern = self.evaluate(node.pattern, env)
        if value is None or pattern is None:
            return None
        if not isinstance(value, str) or not isinstance(pattern, str):
            raise TypeMismatchError("LIKE expects text operands")
        matched = _like_match(value, pattern)
        return not matched if node.negated else matched

    def _is_null(self, node, env):
        value = self.evaluate(node.expr, env)
        verdict = value is None
        return not verdict if node.negated else verdict

    def _exists(self, node, env):
        result = self._run_subquery(node.query, env)
        verdict = bool(result.rows)
        return not verdict if node.negated else verdict

    def _scalar_subquery(self, node, env):
        result = self._run_subquery(node.query, env)
        if not result.rows:
            return None
        if len(result.rows) > 1:
            raise ExecutionError("Scalar subquery returned more than one row")
        if len(result.rows[0]) != 1:
            raise ExecutionError("Scalar subquery must return one column")
        return result.rows[0][0]

    _DISPATCH = {
        ast.Literal: _literal,
        ast.ColumnRef: _column,
        ast.Star: _star,
        ast.UnaryOp: _unary,
        ast.BinaryOp: _binary,
        ast.FunctionCall: _call,
        ast.WindowFunction: _window,
        ast.CaseExpression: _case,
        ast.Cast: _cast,
        ast.InList: _in_list,
        ast.InSubquery: _in_subquery,
        ast.Between: _between,
        ast.Like: _like,
        ast.IsNull: _is_null,
        ast.Exists: _exists,
        ast.ScalarSubquery: _scalar_subquery,
    }


def _like_match(value, pattern):
    regex = "".join(
        ".*" if char == "%" else "." if char == "_" else re.escape(char)
        for char in pattern
    )
    return re.fullmatch(regex, value, flags=re.IGNORECASE) is not None


def contains_aggregate(node):
    """True when ``node`` contains an aggregate call outside any window."""
    if isinstance(node, ast.WindowFunction):
        # Aggregates inside the OVER() arguments are window-level, but the
        # partition/order expressions may still reference group aggregates.
        return any(
            contains_aggregate(child) for child in node.window.children()
        ) or any(contains_aggregate(arg) for arg in node.function.args)
    if isinstance(node, ast.FunctionCall) and is_aggregate_function(node.name):
        return True
    if isinstance(node, (ast.ScalarSubquery, ast.InSubquery, ast.Exists)):
        return False  # subqueries have their own aggregate scope
    return any(contains_aggregate(child) for child in node.children())


def find_window_functions(node):
    """Collect every WindowFunction node (without descending into subqueries)."""
    found = []
    if isinstance(node, ast.WindowFunction):
        found.append(node)
        return found
    if isinstance(node, (ast.ScalarSubquery, ast.InSubquery, ast.Exists)):
        return found
    for child in node.children():
        found.extend(find_window_functions(child))
    return found


# ---------------------------------------------------------------------------
# Vectorized evaluation
# ---------------------------------------------------------------------------
#
# The columnar executor compiles an expression once per (schema, expression)
# into a closure ``fn(ctx, sel) -> values`` that evaluates the expression for
# every row index in ``sel`` against a ColumnarRelation, instead of walking
# the AST per row through an Environment chain.
#
# Correctness contract: for any selection the closure performs exactly the
# same set of per-row sub-computations the row evaluator would (AND/OR/CASE/
# IN narrow their active rows the way short-circuiting does), so it produces
# the same values and raises on exactly the same inputs — possibly with a
# different message/first-row, which the executor papers over by re-running
# the row path whenever the vector path raises. Anything whose semantics
# cannot be batched (window functions, subqueries, ambiguous or unresolvable
# columns, aggregates outside a bound group context) raises
# :class:`VectorFallback` at compile time.


class VectorFallback(Exception):
    """Raised at compile time when an expression cannot be vectorized."""


class VectorContext:
    """Runtime inputs to a compiled closure.

    ``relation`` supplies column arrays; ``outer_env`` resolves correlated
    references (fixed for the whole batch); ``bound`` maps an aggregate
    node's id to its precomputed per-row array in grouped pipelines.
    """

    __slots__ = ("relation", "outer_env", "bound")

    def __init__(self, relation, outer_env=None, bound=None):
        self.relation = relation
        self.outer_env = outer_env
        self.bound = bound


def _vector_negate(value):
    if value is None:
        return None
    if isinstance(value, bool):
        value = int(value)
    if not isinstance(value, (int, float)):
        raise TypeMismatchError(f"Cannot negate {value!r}")
    return -value


class _VectorCompiler:
    """Compiles expression ASTs into batched closures over a fixed schema."""

    def __init__(self, schema, has_outer, bound_ids=frozenset()):
        self.bindings = [
            (binding, frozenset(column.upper() for column in columns))
            for binding, columns in schema
        ]
        self.has_outer = has_outer
        self.bound_ids = bound_ids
        self.cacheable = True

    def compile(self, node):
        method = self._DISPATCH.get(type(node))
        if method is None:
            raise VectorFallback(type(node).__name__)
        return method(self, node)

    # -- leaves --------------------------------------------------------------

    def _literal(self, node):
        value = node.value
        return lambda ctx, sel: [value] * len(sel)

    def _column(self, node):
        name = node.name.upper()
        if node.table is not None:
            table = node.table.upper()
            for binding, columns in self.bindings:
                if binding == table:
                    if name in columns:
                        return self._gather(binding, name)
                    # Legacy raises UnknownColumnError per row.
                    raise VectorFallback(node.qualified())
            return self._outer(node.table, node.name)
        matches = [
            binding for binding, columns in self.bindings if name in columns
        ]
        if len(matches) == 1:
            return self._gather(matches[0], name)
        if len(matches) > 1:
            raise VectorFallback(node.name)  # ambiguous — row path raises
        return self._outer(None, node.name)

    def _gather(self, binding, name):
        def run(ctx, sel):
            array = ctx.relation.array(binding, name)
            return [array[index] for index in sel]
        return run

    def _outer(self, table, name):
        """A reference resolved outside the relation: constant per batch."""
        if not self.has_outer:
            raise VectorFallback(name)  # unknown column — row path raises

        def run(ctx, sel):
            if not sel:
                return []
            value = ctx.outer_env.lookup(table, name)
            return [value] * len(sel)
        return run

    # -- operators -----------------------------------------------------------

    def _unary(self, node):
        operand = self.compile(node.operand)
        if node.op == "NOT":
            return lambda ctx, sel: [
                logical_not(value) for value in operand(ctx, sel)
            ]
        if node.op == "-":
            return lambda ctx, sel: [
                _vector_negate(value) for value in operand(ctx, sel)
            ]
        # Unary plus: NULL-checking identity, exactly like the row path.
        return operand

    def _binary(self, node):
        left = self.compile(node.left)
        right = self.compile(node.right)
        if node.op == "AND":
            def run_and(ctx, sel):
                left_values = left(ctx, sel)
                active = [
                    position for position, value in enumerate(left_values)
                    if value is not False
                ]
                output = [False] * len(sel)
                if active:
                    narrowed = [sel[position] for position in active]
                    right_values = right(ctx, narrowed)
                    for position, value in zip(active, right_values):
                        output[position] = logical_and(
                            left_values[position], value
                        )
                return output
            return run_and
        if node.op == "OR":
            def run_or(ctx, sel):
                left_values = left(ctx, sel)
                active = [
                    position for position, value in enumerate(left_values)
                    if value is not True
                ]
                output = [True] * len(sel)
                if active:
                    narrowed = [sel[position] for position in active]
                    right_values = right(ctx, narrowed)
                    for position, value in zip(active, right_values):
                        output[position] = logical_or(
                            left_values[position], value
                        )
                return output
            return run_or
        check = Evaluator._COMPARISONS.get(node.op)
        if check is not None:
            def run_compare(ctx, sel):
                output = []
                for left_value, right_value in zip(
                    left(ctx, sel), right(ctx, sel)
                ):
                    # Same-class pairs (the overwhelmingly common case)
                    # order exactly as compare()'s aligned comparison does;
                    # everything else — NULLs, bools, cross-type coercions —
                    # takes the general path. type() is an exact check, so
                    # bools never slip into the int fast path.
                    left_type = type(left_value)
                    right_type = type(right_value)
                    if (
                        (left_type is int or left_type is float)
                        and (right_type is int or right_type is float)
                    ) or (
                        left_type is right_type
                        and (left_type is str or left_type is datetime.date)
                    ):
                        if left_value < right_value:
                            ordering = -1
                        elif left_value > right_value:
                            ordering = 1
                        else:
                            ordering = 0
                        output.append(check(ordering))
                        continue
                    ordering = compare(left_value, right_value)
                    output.append(
                        None if ordering is None else check(ordering)
                    )
                return output
            return run_compare
        op = node.op

        def run_arith(ctx, sel):
            return [
                arithmetic(op, left_value, right_value)
                for left_value, right_value in zip(
                    left(ctx, sel), right(ctx, sel)
                )
            ]
        return run_arith

    # -- functions -----------------------------------------------------------

    def _call(self, node):
        if id(node) in self.bound_ids:
            self.cacheable = False
            node_id = id(node)

            def run_bound(ctx, sel):
                array = ctx.bound[node_id]
                return [array[index] for index in sel]
            return run_bound
        name = node.name.upper()
        if is_aggregate_function(name):
            raise VectorFallback(name)  # aggregate outside a bound group
        if not is_scalar_function(name):
            raise VectorFallback(name)  # unknown — row path raises
        arg_closures = [self.compile(arg) for arg in node.args]

        def run_call(ctx, sel):
            arg_values = [closure(ctx, sel) for closure in arg_closures]
            if not arg_closures:
                return [call_scalar(name, []) for _position in range(len(sel))]
            # Registered scalars are pure, and column values repeat heavily
            # (dates through TO_CHAR, codes through UPPER), so memoize per
            # batch on the argument tuple; unhashable arguments call through.
            memo = {}
            output = []
            for row_args in zip(*arg_values):
                try:
                    value = memo[row_args]
                except TypeError:
                    value = call_scalar(name, list(row_args))
                except KeyError:
                    value = call_scalar(name, list(row_args))
                    memo[row_args] = value
                output.append(value)
            return output
        return run_call

    # -- compound expressions --------------------------------------------------

    def _case(self, node):
        operand = (
            self.compile(node.operand) if node.operand is not None else None
        )
        whens = [
            (self.compile(condition), self.compile(result))
            for condition, result in node.whens
        ]
        default = (
            self.compile(node.default) if node.default is not None else None
        )

        def run(ctx, sel):
            output = [None] * len(sel)
            operand_values = operand(ctx, sel) if operand is not None else None
            undecided = list(range(len(sel)))
            for condition, result in whens:
                if not undecided:
                    break
                narrowed = [sel[position] for position in undecided]
                condition_values = condition(ctx, narrowed)
                taken = []
                remaining = []
                for position, value in zip(undecided, condition_values):
                    if operand_values is not None:
                        verdict = is_true(
                            equals(operand_values[position], value)
                        )
                    else:
                        verdict = is_true(value)
                    (taken if verdict else remaining).append(position)
                if taken:
                    result_values = result(
                        ctx, [sel[position] for position in taken]
                    )
                    for position, value in zip(taken, result_values):
                        output[position] = value
                undecided = remaining
            if default is not None and undecided:
                default_values = default(
                    ctx, [sel[position] for position in undecided]
                )
                for position, value in zip(undecided, default_values):
                    output[position] = value
            return output
        return run

    def _cast(self, node):
        expr = self.compile(node.expr)
        target = node.target_type
        return lambda ctx, sel: [
            cast_value(value, target) for value in expr(ctx, sel)
        ]

    def _in_list(self, node):
        expr = self.compile(node.expr)
        items = [self.compile(item) for item in node.items]
        negated = node.negated

        def run(ctx, sel):
            needles = expr(ctx, sel)
            output = [None] * len(sel)
            saw_null = [False] * len(sel)
            undecided = [
                position for position, needle in enumerate(needles)
                if needle is not None
            ]
            for item in items:
                if not undecided:
                    break
                narrowed = [sel[position] for position in undecided]
                item_values = item(ctx, narrowed)
                remaining = []
                for position, value in zip(undecided, item_values):
                    verdict = equals(needles[position], value)
                    if verdict is True:
                        output[position] = not negated if negated else True
                    else:
                        if verdict is None:
                            saw_null[position] = True
                        remaining.append(position)
                undecided = remaining
            for position in undecided:
                if negated:
                    output[position] = None if saw_null[position] else True
                else:
                    output[position] = None if saw_null[position] else False
            return output
        return run

    def _between(self, node):
        expr = self.compile(node.expr)
        low = self.compile(node.low)
        high = self.compile(node.high)
        negated = node.negated

        def run(ctx, sel):
            output = []
            for value, low_value, high_value in zip(
                expr(ctx, sel), low(ctx, sel), high(ctx, sel)
            ):
                lower_check = compare(value, low_value)
                upper_check = compare(value, high_value)
                if lower_check is None or upper_check is None:
                    output.append(None)
                    continue
                inside = lower_check >= 0 and upper_check <= 0
                output.append(not inside if negated else inside)
            return output
        return run

    def _like(self, node):
        expr = self.compile(node.expr)
        pattern = self.compile(node.pattern)
        negated = node.negated

        def run(ctx, sel):
            output = []
            for value, pattern_value in zip(
                expr(ctx, sel), pattern(ctx, sel)
            ):
                if value is None or pattern_value is None:
                    output.append(None)
                    continue
                if not isinstance(value, str) or not isinstance(
                    pattern_value, str
                ):
                    raise TypeMismatchError("LIKE expects text operands")
                matched = _like_match(value, pattern_value)
                output.append(not matched if negated else matched)
            return output
        return run

    def _is_null(self, node):
        expr = self.compile(node.expr)
        negated = node.negated
        return lambda ctx, sel: [
            (value is not None) if negated else (value is None)
            for value in expr(ctx, sel)
        ]

    _DISPATCH = {
        ast.Literal: _literal,
        ast.ColumnRef: _column,
        ast.UnaryOp: _unary,
        ast.BinaryOp: _binary,
        ast.FunctionCall: _call,
        ast.CaseExpression: _case,
        ast.Cast: _cast,
        ast.InList: _in_list,
        ast.Between: _between,
        ast.Like: _like,
        ast.IsNull: _is_null,
    }


def compile_vector(node, schema, has_outer, bound_ids=frozenset()):
    """Compile ``node`` for batched evaluation over ``schema``.

    Returns ``(closure, cacheable)``; raises :class:`VectorFallback` when
    the expression needs the row path. ``closure(ctx, sel)`` returns values
    aligned with the row indices in ``sel``.
    """
    compiler = _VectorCompiler(schema, has_outer, bound_ids)
    closure = compiler.compile(node)
    return closure, compiler.cacheable


# -- compiled-expression cache ----------------------------------------------
#
# GenEdit's loop executes the same (or near-identical) candidate SQL against
# the same database over and over — generation, self-correction, the final
# check, and the EX metric each pay an execution. Compiled closures are pure
# with respect to everything except the schema they were resolved against
# (table data is read when a closure runs, not when it compiles), so they
# are cached per (FROM-schema signature, outer-scope flag, expression
# digest) and shared across executor instances and databases.
#
# The serving layer executes on a thread pool, so cache lookups, the
# cap-triggered clear, and reset_engine_stats() can all race. _CACHE_LOCK
# serialises every touch of _COMPILED_CACHE (hits, misses and fallbacks
# are engine.predicate_cache.* registry counters); the compile itself runs
# outside the lock, so at worst two threads compile the same key once
# each and the second insert wins — identical closures either way.

_CACHE_LOCK = threading.Lock()
_COMPILED_CACHE = {}
_COMPILED_CACHE_CAP = 4096
_FALLBACK_SENTINEL = object()


def _expr_digest(node):
    digest = getattr(node, "_vector_digest", None)
    if digest is None:
        from ..sql.printer import to_sql

        digest = to_sql(node)
        try:
            node._vector_digest = digest
        except AttributeError:  # pragma: no cover - nodes are plain objects
            pass
    return digest


def _schema_signature(schema):
    return tuple(
        (binding, tuple(column.upper() for column in columns))
        for binding, columns in schema
    )


def compiled_expression(node, schema, has_outer, bound_ids=frozenset()):
    """Cached vector closure for ``node`` against ``schema``.

    Closures that gather bound aggregate arrays are keyed by node identity
    and therefore never cached. Fallback verdicts are cached too, so an
    unvectorizable WHERE clause pays the compile attempt only once per
    schema.
    """
    if bound_ids:
        closure, _cacheable = compile_vector(
            node, schema, has_outer, bound_ids
        )
        return closure
    key = (_schema_signature(schema), has_outer, _expr_digest(node))
    with _CACHE_LOCK:
        cached = _COMPILED_CACHE.get(key)
        if cached is None and len(_COMPILED_CACHE) >= _COMPILED_CACHE_CAP:
            _COMPILED_CACHE.clear()
    if cached is not None:
        METRICS.inc("engine.predicate_cache.hits")
        if cached is _FALLBACK_SENTINEL:
            raise VectorFallback(key[-1])
        return cached
    METRICS.inc("engine.predicate_cache.misses")
    started = perf_counter()
    try:
        closure, cacheable = compile_vector(node, schema, has_outer)
    except VectorFallback:
        METRICS.inc("engine.predicate_cache.fallbacks")
        with _CACHE_LOCK:
            _COMPILED_CACHE[key] = _FALLBACK_SENTINEL
        raise
    finally:
        METRICS.inc("engine.compile_s", perf_counter() - started)
    if cacheable:
        with _CACHE_LOCK:
            _COMPILED_CACHE[key] = closure
    return closure


def compiled_cache_size():
    """Number of entries in the compiled-expression cache."""
    return len(_COMPILED_CACHE)


def reset_vector_cache():
    """Clear the compiled cache (tests, benchmarks; see
    :func:`~repro.engine.stats.reset_engine_stats`)."""
    with _CACHE_LOCK:
        _COMPILED_CACHE.clear()
