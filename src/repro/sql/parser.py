"""Recursive-descent parser producing :mod:`repro.sql.ast_nodes` trees.

The entry point is :func:`parse`, which accepts SQL text and returns a
:class:`~repro.sql.ast_nodes.Query`. Parse failures raise
:class:`~repro.sql.errors.SqlSyntaxError` with location information — the
self-correction operator relies on these messages. Key nodes (relations,
select blocks, column references, operators, literals) carry a
:class:`~repro.sql.tokens.Span` on ``node.span`` so the diagnostics engine
can report the offending source location.

Grammar (informal)::

    query      := [WITH cte ("," cte)*] set_expr
    set_expr   := select ((UNION [ALL] | INTERSECT | EXCEPT) select)*
                  [ORDER BY order_items] [LIMIT n [OFFSET m]]
    select     := SELECT [DISTINCT] select_items
                  [FROM from_expr] [WHERE expr]
                  [GROUP BY exprs] [HAVING expr]
    from_expr  := from_item (join_clause | "," from_item)*
    from_item  := name [[AS] alias] | "(" query ")" [AS] alias
    expr       := standard precedence-climbing expression grammar with
                  OR < AND < NOT < predicates < comparison < additive <
                  multiplicative < unary < primary
"""

from __future__ import annotations

import functools

from . import ast_nodes as ast
from .errors import SqlError, SqlSyntaxError
from .tokens import Span, Token, TokenType, tokenize

_COMPARISON_OPERATORS = frozenset({"=", "<>", "<", ">", "<=", ">="})
_JOIN_KEYWORDS = ("INNER", "LEFT", "RIGHT", "FULL", "CROSS", "JOIN")
_SET_OPERATORS = ("UNION", "INTERSECT", "EXCEPT")
_TYPE_NAMES = frozenset(
    {
        "INT", "INTEGER", "BIGINT", "SMALLINT", "FLOAT", "REAL", "DOUBLE",
        "DECIMAL", "NUMERIC", "TEXT", "VARCHAR", "CHAR", "STRING", "DATE",
        "BOOLEAN", "BOOL", "TIMESTAMP",
    }
)


def parse(sql):
    """Parse SQL text into a :class:`Query` AST."""
    parser = _Parser(tokenize(sql))
    query = parser.parse_query()
    parser.expect_end()
    return query


#: Default size of the :func:`parse_cached` LRU. Large enough to hold every
#: distinct statement of a full harness run (gold + predicted + decomposed
#: fragments) without ever churning in practice.
PARSE_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse_cached(sql):
    """Parse ``sql``, memoizing the AST across calls (LRU, keyed on text).

    The same statement is parsed repeatedly on the evaluation fast path —
    self-correction executes it, the final check executes it again, and the
    EX metric executes it once more — so the AST is cached and **shared**
    between callers. Treat the returned tree as immutable: every in-repo
    rewrite (:func:`repro.sql.rewriter.to_cte_form`, and the decomposer
    through it) deep-copies before mutating. Callers that need a private,
    mutable tree should use :func:`parse`.

    Parse failures are not cached; failing text re-raises on every call.
    """
    return parse(sql)


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def parses(sql):
    """Whether ``sql`` parses, memoised on the text (failures included).

    The lint checks try the same wrapped fragment text over and over, and
    most of it does not parse, which :func:`parse_cached` never caches. Only
    :class:`~repro.sql.errors.SqlError` counts as "does not parse"; any
    other exception propagates and is not cached.
    """
    try:
        parse(sql)
    except SqlError:
        return False
    return True


def parse_cache_info():
    """Hit/miss stats of the shared AST cache (``lru_cache.cache_info()``).

    The metrics registry snapshots these as gauges (see
    :func:`repro.obs.metrics.global_snapshot`) rather than counting per
    call — the LRU already keeps exact numbers without extra locking.
    """
    return parse_cached.cache_info()


def parse_expression(sql):
    """Parse a standalone expression (used by tests and the decomposer)."""
    parser = _Parser(tokenize(sql))
    expr = parser.parse_expr()
    parser.expect_end()
    return expr


class _Parser:
    def __init__(self, tokens):
        self._tokens = tokens
        self._index = 0

    # -- token plumbing -----------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._index]

    def _peek(self, offset=0) -> Token:
        index = min(self._index + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._current
        if token.type is not TokenType.EOF:
            self._index += 1
        return token

    def _error(self, message):
        token = self._current
        shown = token.value or "<end of input>"
        raise SqlSyntaxError(
            f"{message}, found {shown!r}",
            position=token.position, line=token.line, column=token.column,
        )

    def _spanned(self, node, token):
        """Attach ``token``'s location to ``node`` (diagnostics point here)."""
        node.span = Span.from_token(token)
        return node

    def _accept_keyword(self, *names):
        if self._current.is_keyword(*names):
            return self._advance()
        return None

    def _expect_keyword(self, name):
        token = self._accept_keyword(name)
        if token is None:
            self._error(f"Expected {name}")
        return token

    def _accept_punct(self, value):
        if self._current.matches(TokenType.PUNCTUATION, value):
            return self._advance()
        return None

    def _expect_punct(self, value):
        token = self._accept_punct(value)
        if token is None:
            self._error(f"Expected {value!r}")
        return token

    def _accept_operator(self, *values):
        if self._current.type is TokenType.OPERATOR and (
            self._current.value in values
        ):
            return self._advance()
        return None

    def expect_end(self):
        self._accept_punct(";")
        if self._current.type is not TokenType.EOF:
            self._error("Expected end of input")

    def _expect_identifier(self, what="identifier"):
        if self._current.type is TokenType.IDENTIFIER:
            return self._advance().value
        # Non-reserved words used as identifiers are uncommon in our dialect;
        # allow type names (e.g. a column named DATE) to double as names.
        if self._current.type is TokenType.KEYWORD and (
            self._current.value in _TYPE_NAMES
        ):
            return self._advance().value
        self._error(f"Expected {what}")

    # -- query structure ----------------------------------------------------

    def parse_query(self):
        ctes = []
        if self._accept_keyword("WITH"):
            ctes.append(self._parse_cte())
            while self._accept_punct(","):
                ctes.append(self._parse_cte())
        body = self._parse_set_expr()
        return ast.Query(body=body, ctes=ctes)

    def _parse_cte(self):
        start = self._current
        name = self._expect_identifier("CTE name")
        columns = []
        if self._accept_punct("("):
            columns.append(self._expect_identifier("column name"))
            while self._accept_punct(","):
                columns.append(self._expect_identifier("column name"))
            self._expect_punct(")")
        self._expect_keyword("AS")
        self._expect_punct("(")
        query = self.parse_query()
        self._expect_punct(")")
        return self._spanned(
            ast.CommonTableExpression(name=name, query=query, columns=columns),
            start,
        )

    def _parse_set_expr(self):
        node = self._parse_select()
        saw_set_operation = False
        while self._current.is_keyword(*_SET_OPERATORS):
            op_token = self._advance()
            use_all = bool(self._accept_keyword("ALL"))
            right = self._parse_select()
            node = self._spanned(
                ast.SetOperation(
                    op=op_token.value, left=node, right=right, all=use_all
                ),
                op_token,
            )
            saw_set_operation = True
        order_by = self._parse_order_by()
        limit, offset = self._parse_limit()
        if saw_set_operation:
            node.order_by = order_by
            node.limit = limit
        else:
            if order_by:
                node.order_by = order_by
            if limit is not None:
                node.limit = limit
            if offset is not None:
                node.offset = offset
        return node

    def _parse_select(self):
        if self._accept_punct("("):
            # Parenthesised query body inside a set expression.
            query = self.parse_query()
            self._expect_punct(")")
            if query.ctes:
                self._error("WITH not allowed in parenthesised set operand")
            return query.body
        select_token = self._current
        self._expect_keyword("SELECT")
        distinct = bool(self._accept_keyword("DISTINCT"))
        self._accept_keyword("ALL")
        items = [self._parse_select_item()]
        while self._accept_punct(","):
            items.append(self._parse_select_item())
        from_clause = None
        if self._accept_keyword("FROM"):
            from_clause = self._parse_from()
        where = None
        if self._accept_keyword("WHERE"):
            where = self.parse_expr()
        group_by = []
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self.parse_expr())
            while self._accept_punct(","):
                group_by.append(self.parse_expr())
        having = None
        if self._accept_keyword("HAVING"):
            having = self.parse_expr()
        return self._spanned(
            ast.Select(
                items=items,
                from_clause=from_clause,
                where=where,
                group_by=group_by,
                having=having,
                distinct=distinct,
            ),
            select_token,
        )

    def _parse_select_item(self):
        if self._current.matches(TokenType.OPERATOR, "*"):
            star_token = self._advance()
            return ast.SelectItem(expr=self._spanned(ast.Star(), star_token))
        expr = self.parse_expr()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_identifier("alias")
        elif self._current.type is TokenType.IDENTIFIER:
            alias = self._advance().value
        return ast.SelectItem(expr=expr, alias=alias)

    def _parse_order_by(self):
        if not self._accept_keyword("ORDER"):
            return []
        self._expect_keyword("BY")
        items = [self._parse_order_item()]
        while self._accept_punct(","):
            items.append(self._parse_order_item())
        return items

    def _parse_order_item(self):
        expr = self.parse_expr()
        ascending = True
        if self._accept_keyword("DESC"):
            ascending = False
        else:
            self._accept_keyword("ASC")
        nulls_first = None
        if self._accept_keyword("NULLS"):
            if self._accept_keyword("FIRST"):
                nulls_first = True
            else:
                self._expect_keyword("LAST")
                nulls_first = False
        return ast.OrderItem(expr=expr, ascending=ascending, nulls_first=nulls_first)

    def _parse_limit(self):
        limit = None
        offset = None
        if self._accept_keyword("LIMIT"):
            limit = self._parse_integer("LIMIT count")
            if self._accept_keyword("OFFSET"):
                offset = self._parse_integer("OFFSET count")
        return limit, offset

    def _parse_integer(self, what):
        if self._current.type is not TokenType.NUMBER:
            self._error(f"Expected integer for {what}")
        text = self._advance().value
        try:
            return int(text)
        except ValueError:
            self._error(f"Expected integer for {what}")

    # -- FROM clause ---------------------------------------------------------

    def _parse_from(self):
        node = self._parse_from_item()
        while True:
            comma = self._accept_punct(",")
            if comma is not None:
                right = self._parse_from_item()
                node = self._spanned(
                    ast.Join(left=node, right=right, kind="CROSS"), comma
                )
                continue
            if not self._current.is_keyword(*_JOIN_KEYWORDS):
                break
            node = self._parse_join(node)
        return node

    def _parse_join(self, left):
        start = self._current
        kind = "INNER"
        if self._accept_keyword("INNER"):
            kind = "INNER"
        elif self._accept_keyword("LEFT"):
            self._accept_keyword("OUTER")
            kind = "LEFT"
        elif self._accept_keyword("RIGHT"):
            self._accept_keyword("OUTER")
            kind = "RIGHT"
        elif self._accept_keyword("FULL"):
            self._accept_keyword("OUTER")
            kind = "FULL"
        elif self._accept_keyword("CROSS"):
            kind = "CROSS"
        self._expect_keyword("JOIN")
        right = self._parse_from_item()
        condition = None
        if kind != "CROSS":
            self._expect_keyword("ON")
            condition = self.parse_expr()
        return self._spanned(
            ast.Join(left=left, right=right, kind=kind, condition=condition),
            start,
        )

    def _parse_from_item(self):
        start = self._current
        if self._accept_punct("("):
            query = self.parse_query()
            self._expect_punct(")")
            self._accept_keyword("AS")
            alias = self._expect_identifier("derived table alias")
            return self._spanned(
                ast.SubqueryRef(query=query, alias=alias), start
            )
        name = self._expect_identifier("table name")
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_identifier("alias")
        elif self._current.type is TokenType.IDENTIFIER:
            alias = self._advance().value
        return self._spanned(ast.TableRef(name=name, alias=alias), start)

    # -- expressions ----------------------------------------------------------

    def parse_expr(self):
        return self._parse_or()

    def _parse_or(self):
        node = self._parse_and()
        while self._accept_keyword("OR"):
            node = ast.BinaryOp(op="OR", left=node, right=self._parse_and())
        return node

    def _parse_and(self):
        node = self._parse_not()
        while self._accept_keyword("AND"):
            node = ast.BinaryOp(op="AND", left=node, right=self._parse_not())
        return node

    def _parse_not(self):
        if self._accept_keyword("NOT"):
            return ast.UnaryOp(op="NOT", operand=self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self):
        node = self._parse_comparison()
        while True:
            negated = False
            if self._current.is_keyword("NOT") and self._peek(1).is_keyword(
                "IN", "LIKE", "BETWEEN"
            ):
                self._advance()
                negated = True
            if self._accept_keyword("IS"):
                is_negated = bool(self._accept_keyword("NOT"))
                self._expect_keyword("NULL")
                node = ast.IsNull(expr=node, negated=is_negated)
                continue
            if self._accept_keyword("IN"):
                node = self._parse_in(node, negated)
                continue
            if self._accept_keyword("LIKE"):
                pattern = self._parse_comparison()
                node = ast.Like(expr=node, pattern=pattern, negated=negated)
                continue
            if self._accept_keyword("BETWEEN"):
                low = self._parse_comparison()
                self._expect_keyword("AND")
                high = self._parse_comparison()
                node = ast.Between(expr=node, low=low, high=high, negated=negated)
                continue
            if negated:
                self._error("Expected IN, LIKE or BETWEEN after NOT")
            return node

    def _parse_in(self, expr, negated):
        self._expect_punct("(")
        if self._current.is_keyword("SELECT", "WITH"):
            query = self.parse_query()
            self._expect_punct(")")
            return ast.InSubquery(expr=expr, query=query, negated=negated)
        items = [self.parse_expr()]
        while self._accept_punct(","):
            items.append(self.parse_expr())
        self._expect_punct(")")
        return ast.InList(expr=expr, items=items, negated=negated)

    def _parse_comparison(self):
        node = self._parse_additive()
        operator = self._accept_operator(*_COMPARISON_OPERATORS)
        if operator is not None:
            node = self._spanned(
                ast.BinaryOp(
                    op=operator.value, left=node, right=self._parse_additive()
                ),
                operator,
            )
        return node

    def _parse_additive(self):
        node = self._parse_multiplicative()
        while True:
            operator = self._accept_operator("+", "-", "||")
            if operator is None:
                return node
            node = self._spanned(
                ast.BinaryOp(
                    op=operator.value, left=node,
                    right=self._parse_multiplicative(),
                ),
                operator,
            )

    def _parse_multiplicative(self):
        node = self._parse_unary()
        while True:
            operator = self._accept_operator("*", "/", "%")
            if operator is None:
                return node
            node = self._spanned(
                ast.BinaryOp(
                    op=operator.value, left=node, right=self._parse_unary()
                ),
                operator,
            )

    def _parse_unary(self):
        operator = self._accept_operator("-", "+")
        if operator is not None:
            return ast.UnaryOp(op=operator.value, operand=self._parse_unary())
        return self._parse_primary()

    # -- primaries -----------------------------------------------------------

    def _parse_primary(self):
        token = self._current
        if token.type is TokenType.NUMBER:
            self._advance()
            return self._spanned(
                ast.Literal(value=_number_value(token.value)), token
            )
        if token.type is TokenType.STRING:
            self._advance()
            return self._spanned(ast.Literal(value=token.value), token)
        if token.is_keyword("NULL"):
            self._advance()
            return self._spanned(ast.Literal(value=None), token)
        if token.is_keyword("TRUE"):
            self._advance()
            return self._spanned(ast.Literal(value=True), token)
        if token.is_keyword("FALSE"):
            self._advance()
            return self._spanned(ast.Literal(value=False), token)
        if token.is_keyword("CAST"):
            return self._parse_cast()
        if token.is_keyword("CASE"):
            return self._parse_case()
        if token.is_keyword("EXISTS"):
            self._advance()
            self._expect_punct("(")
            query = self.parse_query()
            self._expect_punct(")")
            return ast.Exists(query=query)
        if token.is_keyword("NOT") :
            # NOT EXISTS reaches here via _parse_not; nothing else expected.
            self._error("Unexpected NOT")
        if self._accept_punct("("):
            if self._current.is_keyword("SELECT", "WITH"):
                query = self.parse_query()
                self._expect_punct(")")
                return ast.ScalarSubquery(query=query)
            expr = self.parse_expr()
            self._expect_punct(")")
            return expr
        if token.type is TokenType.IDENTIFIER or (
            token.type is TokenType.KEYWORD and token.value in _TYPE_NAMES
        ):
            return self._parse_name_or_call()
        self._error("Expected expression")

    def _parse_cast(self):
        self._expect_keyword("CAST")
        self._expect_punct("(")
        expr = self.parse_expr()
        self._expect_keyword("AS")
        type_name = self._parse_type_name()
        self._expect_punct(")")
        return ast.Cast(expr=expr, target_type=type_name)

    def _parse_type_name(self):
        token = self._current
        name = None
        if token.type is TokenType.KEYWORD and token.value in _TYPE_NAMES:
            name = self._advance().value
        elif token.type is TokenType.IDENTIFIER and (
            token.value.upper() in _TYPE_NAMES
        ):
            name = self._advance().value.upper()
        else:
            self._error("Expected type name")
        # Optional precision/scale, e.g. DECIMAL(10, 2): parsed and ignored.
        if self._accept_punct("("):
            self._parse_integer("type precision")
            if self._accept_punct(","):
                self._parse_integer("type scale")
            self._expect_punct(")")
        return name

    def _parse_case(self):
        self._expect_keyword("CASE")
        operand = None
        if not self._current.is_keyword("WHEN"):
            operand = self.parse_expr()
        whens = []
        while self._accept_keyword("WHEN"):
            condition = self.parse_expr()
            self._expect_keyword("THEN")
            result = self.parse_expr()
            whens.append((condition, result))
        if not whens:
            self._error("CASE requires at least one WHEN")
        default = None
        if self._accept_keyword("ELSE"):
            default = self.parse_expr()
        self._expect_keyword("END")
        return ast.CaseExpression(operand=operand, whens=whens, default=default)

    def _parse_name_or_call(self):
        start = self._current
        name = self._advance().value
        if self._accept_punct("("):
            return self._parse_call_tail(name, start)
        if self._accept_punct("."):
            if self._current.matches(TokenType.OPERATOR, "*"):
                self._advance()
                return self._spanned(ast.Star(table=name), start)
            column = self._expect_identifier("column name")
            return self._spanned(
                ast.ColumnRef(name=column, table=name), start
            )
        return self._spanned(ast.ColumnRef(name=name), start)

    def _parse_call_tail(self, name, start):
        distinct = bool(self._accept_keyword("DISTINCT"))
        args = []
        if not self._accept_punct(")"):
            args.append(self._parse_call_argument())
            while self._accept_punct(","):
                args.append(self._parse_call_argument())
            self._expect_punct(")")
        call = self._spanned(
            ast.FunctionCall(name=name.upper(), args=args, distinct=distinct),
            start,
        )
        if self._accept_keyword("OVER"):
            return self._spanned(
                ast.WindowFunction(function=call, window=self._parse_window()),
                start,
            )
        return call

    def _parse_call_argument(self):
        if self._current.matches(TokenType.OPERATOR, "*"):
            star_token = self._advance()
            return self._spanned(ast.Star(), star_token)
        return self.parse_expr()

    def _parse_window(self):
        self._expect_punct("(")
        partition_by = []
        order_by = []
        if self._accept_keyword("PARTITION"):
            self._expect_keyword("BY")
            partition_by.append(self.parse_expr())
            while self._accept_punct(","):
                partition_by.append(self.parse_expr())
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by.append(self._parse_order_item())
            while self._accept_punct(","):
                order_by.append(self._parse_order_item())
        self._expect_punct(")")
        return ast.WindowSpec(partition_by=partition_by, order_by=order_by)


def _number_value(text):
    if any(marker in text for marker in (".", "e", "E")):
        return float(text)
    return int(text)
