"""Grounded query specification.

A :class:`QuerySpec` is the structured meaning of a question: base table,
joins, metrics, filters, grouping, ordering, and — for complex enterprise
shapes — the parameters of a multi-CTE idiom (quarter-pivot ratio deltas,
top-k-both-ends rankings, share-of-total).

The spec plays two roles:

* the benchmark workload *generates* specs, renders them to natural
  language, and renders the gold SQL from them (``builders.build_sql``);
* the pipeline's planner *recovers* a spec from the question using the
  retrieved knowledge, and the generator renders SQL from the recovered
  spec with the same builders.

Execution accuracy therefore measures exactly how much of the meaning the
pipeline recovered — the same thing BIRD's EX measures for a real LLM.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class JoinSpec:
    """INNER JOIN ``table`` ON ``base.left_column = table.right_column``."""

    table: str
    left_column: str
    right_column: str


@dataclass(frozen=True)
class MetricSpec:
    """One metric: an aggregate over a column, or a raw SQL expression.

    ``agg`` is one of SUM/AVG/MIN/MAX/COUNT/COUNT_DISTINCT, or EXPR when
    ``expression`` holds a ready SQL expression (term definitions splice in
    this way).
    """

    agg: str
    column: str = ""
    alias: str = "METRIC_VALUE"
    expression: str = ""

    def render(self):
        if self.agg == "EXPR":
            return self.expression
        if self.agg == "COUNT" and not self.column:
            return "COUNT(*)"
        if self.agg == "COUNT_DISTINCT":
            return f"COUNT(DISTINCT {self.column})"
        return f"{self.agg}({self.column})"


@dataclass(frozen=True)
class FilterSpec:
    """One WHERE predicate: ``column op value``, or a raw condition."""

    column: str = ""
    op: str = "="
    value: object = None
    raw: str = ""

    def render(self):
        if self.raw:
            return self.raw
        return f"{self.column} {self.op} {_sql_literal(self.value)}"


@dataclass(frozen=True)
class QuarterFilter:
    """Restrict ``date_column`` to a year (quarter None) or one quarter."""

    date_column: str
    year: int
    quarter: int | None = None

    def render(self):
        if self.quarter is None:
            return f"TO_CHAR({self.date_column}, 'YYYY') = '{self.year}'"
        return (
            f"TO_CHAR({self.date_column}, 'YYYY\"Q\"Q') = "
            f"'{self.year}Q{self.quarter}'"
        )

    @property
    def label(self):
        if self.quarter is None:
            return str(self.year)
        return f"{self.year}Q{self.quarter}"


@dataclass(frozen=True)
class HavingSpec:
    """HAVING over metric ``metric_index``: ``metric op value``."""

    metric_index: int
    op: str
    value: object


@dataclass(frozen=True)
class OrderSpec:
    """Ordering/top-k: order by a metric (index) or column, with limit."""

    metric_index: int | None = None
    column: str = ""
    descending: bool = True
    limit: int | None = None
    both_ends: bool = False


@dataclass(frozen=True)
class RatioDeltaSpec:
    """Parameters of the QoQFP-style quarter-over-quarter ratio delta.

    The metric is ``numerator/denominator`` per entity per quarter (or the
    plain numerator when ``denominator_*`` is empty); the output ranks
    entities by the change from the previous quarter, optionally negated
    (the paper's "-1 multiplier" business rule) and keeping both the best
    and worst ``k``.
    """

    entity_column: str
    numerator_table: str
    numerator_date_column: str
    numerator_value_column: str
    year: int
    quarter: int
    denominator_table: str = ""
    denominator_date_column: str = ""
    denominator_value_column: str = ""
    negate: bool = False
    k: int = 5
    both_ends: bool = True
    numerator_filters: tuple = ()
    denominator_filters: tuple = ()

    @property
    def current_label(self):
        return f"{self.year}Q{self.quarter}"

    @property
    def previous_label(self):
        if self.quarter == 1:
            return f"{self.year - 1}Q4"
        return f"{self.year}Q{self.quarter - 1}"


#: Query shapes, each with a dedicated builder.
SHAPE_STANDARD = "standard"
SHAPE_TOPK_BOTH_ENDS = "topk_both_ends"
SHAPE_RATIO_DELTA_RANK = "ratio_delta_rank"
SHAPE_SHARE_OF_TOTAL = "share_of_total"

SHAPES = (
    SHAPE_STANDARD,
    SHAPE_TOPK_BOTH_ENDS,
    SHAPE_RATIO_DELTA_RANK,
    SHAPE_SHARE_OF_TOTAL,
)


@dataclass(frozen=True)
class QuerySpec:
    """The full grounded meaning of one question."""

    database: str
    base_table: str
    shape: str = SHAPE_STANDARD
    joins: tuple = ()
    projection: tuple = ()
    metrics: tuple = ()
    filters: tuple = ()
    quarter_filters: tuple = ()
    group_by: tuple = ()
    having: tuple = ()
    order: OrderSpec | None = None
    distinct: bool = False
    ratio_delta: RatioDeltaSpec | None = None

    @property
    def tables(self):
        names = [self.base_table]
        names.extend(join.table for join in self.joins)
        if self.ratio_delta is not None:
            for table in (
                self.ratio_delta.numerator_table,
                self.ratio_delta.denominator_table,
            ):
                if table and table not in names:
                    names.append(table)
        return tuple(names)


def _sql_literal(value):
    """Render a Python value as a SQL literal."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return str(value)


sql_literal = _sql_literal
