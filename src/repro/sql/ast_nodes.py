"""AST node definitions for the SQL dialect.

Every node is a frozen-ish dataclass (mutable for rewriting convenience) with
a uniform ``children()`` iterator so traversals — the analyzer, the CTE
rewriter, and the example decomposer — can walk any tree without per-node
logic. ``walk()`` yields nodes in pre-order.

The node set covers the dialect exercised by the GenEdit reproduction:
SELECT blocks with joins/grouping/windows, CTEs, set operations, scalar and
relational subqueries, CASE, CAST, and function calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


#: Field names per node class, resolved once — dataclasses.fields() builds
#: a fresh tuple on every call, and traversals visit thousands of nodes.
_FIELD_NAMES = {}


def _field_names(cls):
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = tuple(item.name for item in fields(cls))
        _FIELD_NAMES[cls] = names
    return names


class Node:
    """Base class providing generic child iteration and traversal."""

    #: Source location (:class:`~repro.sql.tokens.Span`) attached by the
    #: parser. A plain class attribute rather than a dataclass field, so
    #: node equality, hashing, and repr ignore it — rewrites and tests
    #: compare trees structurally regardless of where they were parsed.
    span = None

    def children(self):
        """Yield every child :class:`Node` in field order."""
        for name in _field_names(type(self)):
            value = getattr(self, name)
            if isinstance(value, Node):
                yield value
            elif isinstance(value, (list, tuple)):
                for element in value:
                    if isinstance(element, Node):
                        yield element
                    elif isinstance(element, tuple):
                        for part in element:
                            if isinstance(part, Node):
                                yield part

    def walk(self):
        """Yield this node then every descendant, pre-order.

        Iterative: a reversed-children stack produces exactly the recursive
        pre-order sequence without a generator frame per tree level. The
        child scan is inlined (same field order as :meth:`children`) so the
        hot traversal never allocates a generator per node.
        """
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            children = []
            append = children.append
            for name in _field_names(type(node)):
                value = getattr(node, name)
                if isinstance(value, Node):
                    append(value)
                elif isinstance(value, (list, tuple)):
                    for element in value:
                        if isinstance(element, Node):
                            append(element)
                        elif isinstance(element, tuple):
                            for part in element:
                                if isinstance(part, Node):
                                    append(part)
            children.reverse()
            stack.extend(children)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Literal(Node):
    """A constant: number, string, boolean, or NULL (value is None)."""

    value: object


@dataclass
class ColumnRef(Node):
    """A (possibly table-qualified) column reference."""

    name: str
    table: str | None = None

    def qualified(self):
        """Render as ``table.column`` or bare ``column``."""
        if self.table:
            return f"{self.table}.{self.name}"
        return self.name


@dataclass
class Star(Node):
    """``*`` or ``table.*`` in a select list or COUNT(*)."""

    table: str | None = None


@dataclass
class UnaryOp(Node):
    """Unary operator application: ``-x``, ``+x``, ``NOT x``."""

    op: str
    operand: Node


@dataclass
class BinaryOp(Node):
    """Binary operator application, including AND/OR and ``||``."""

    op: str
    left: Node
    right: Node


@dataclass
class FunctionCall(Node):
    """A scalar or aggregate function call.

    ``COUNT(*)`` is represented with ``args=[Star()]``. ``distinct`` marks
    ``fn(DISTINCT expr)``.
    """

    name: str
    args: list = field(default_factory=list)
    distinct: bool = False


@dataclass
class WindowSpec(Node):
    """``OVER (PARTITION BY ... ORDER BY ...)`` specification."""

    partition_by: list = field(default_factory=list)
    order_by: list = field(default_factory=list)  # of OrderItem


@dataclass
class WindowFunction(Node):
    """A function call evaluated over a window."""

    function: FunctionCall
    window: WindowSpec


@dataclass
class CaseExpression(Node):
    """``CASE [operand] WHEN ... THEN ... [ELSE ...] END``."""

    operand: Node | None
    whens: list = field(default_factory=list)  # list of (condition, result)
    default: Node | None = None

    def children(self):
        if self.operand is not None:
            yield self.operand
        for condition, result in self.whens:
            yield condition
            yield result
        if self.default is not None:
            yield self.default


@dataclass
class Cast(Node):
    """``CAST(expr AS type)`` — ``target_type`` is an upper-case type name."""

    expr: Node
    target_type: str


@dataclass
class InList(Node):
    """``expr [NOT] IN (item, ...)``."""

    expr: Node
    items: list = field(default_factory=list)
    negated: bool = False


@dataclass
class InSubquery(Node):
    """``expr [NOT] IN (SELECT ...)``."""

    expr: Node
    query: "Query" = None
    negated: bool = False


@dataclass
class Between(Node):
    """``expr [NOT] BETWEEN low AND high``."""

    expr: Node
    low: Node = None
    high: Node = None
    negated: bool = False


@dataclass
class Like(Node):
    """``expr [NOT] LIKE pattern``."""

    expr: Node
    pattern: Node = None
    negated: bool = False


@dataclass
class IsNull(Node):
    """``expr IS [NOT] NULL``."""

    expr: Node
    negated: bool = False


@dataclass
class Exists(Node):
    """``[NOT] EXISTS (SELECT ...)``."""

    query: "Query" = None
    negated: bool = False


@dataclass
class ScalarSubquery(Node):
    """A parenthesised SELECT used as a scalar expression."""

    query: "Query" = None


# ---------------------------------------------------------------------------
# Relational structure
# ---------------------------------------------------------------------------


@dataclass
class SelectItem(Node):
    """One element of the select list: an expression with optional alias."""

    expr: Node
    alias: str | None = None


@dataclass
class OrderItem(Node):
    """One ORDER BY element."""

    expr: Node
    ascending: bool = True
    nulls_first: bool | None = None


@dataclass
class TableRef(Node):
    """A base table (or CTE) reference with optional alias."""

    name: str
    alias: str | None = None

    @property
    def binding_name(self):
        """The name this relation is visible as in the enclosing scope."""
        return self.alias or self.name


@dataclass
class SubqueryRef(Node):
    """A derived table: ``(SELECT ...) alias``."""

    query: "Query" = None
    alias: str | None = None

    @property
    def binding_name(self):
        return self.alias


@dataclass
class Join(Node):
    """A join between two from-items. ``kind`` is INNER/LEFT/RIGHT/FULL/CROSS."""

    left: Node
    right: Node
    kind: str = "INNER"
    condition: Node | None = None


@dataclass
class Select(Node):
    """A single SELECT block."""

    items: list = field(default_factory=list)  # of SelectItem
    from_clause: Node | None = None
    where: Node | None = None
    group_by: list = field(default_factory=list)
    having: Node | None = None
    order_by: list = field(default_factory=list)  # of OrderItem
    limit: int | None = None
    offset: int | None = None
    distinct: bool = False


@dataclass
class SetOperation(Node):
    """UNION / INTERSECT / EXCEPT between two query bodies."""

    op: str
    left: Node
    right: Node
    all: bool = False
    order_by: list = field(default_factory=list)
    limit: int | None = None


@dataclass
class CommonTableExpression(Node):
    """One CTE in a WITH clause."""

    name: str
    query: "Query" = None
    columns: list = field(default_factory=list)  # optional column aliases


@dataclass
class Query(Node):
    """A full query: optional WITH clause plus a body.

    The body is a :class:`Select` or :class:`SetOperation`. Nested queries
    (CTE bodies, subqueries) are themselves :class:`Query` instances so the
    rewriter can hoist subqueries into CTEs uniformly.
    """

    body: Node = None
    ctes: list = field(default_factory=list)  # of CommonTableExpression


#: Expression node classes, used by the decomposer to distinguish expression
#: granularity from relational granularity.
EXPRESSION_NODES = (
    Literal, ColumnRef, Star, UnaryOp, BinaryOp, FunctionCall,
    WindowFunction, CaseExpression, Cast, InList, InSubquery, Between,
    Like, IsNull, Exists, ScalarSubquery,
)


def _clone_value(value):
    if isinstance(value, Node):
        return clone_tree(value)
    if isinstance(value, list):
        return [_clone_value(element) for element in value]
    if isinstance(value, tuple):
        return tuple(_clone_value(element) for element in value)
    return value


def clone_tree(node):
    """A structurally fresh copy of an AST (much faster than deepcopy).

    Rebuilds every node from its dataclass fields: child nodes and their
    containers are copied, leaf values (strings, numbers, spans) are
    shared — they are treated as immutable everywhere. Non-field annotations
    (memoized digests, cached plans) deliberately do not survive the copy.
    """
    cls = type(node)
    copied = cls(**{
        name: _clone_value(getattr(node, name))
        for name in _field_names(cls)
    })
    span = node.span
    if span is not None:
        copied.span = span
    return copied
