"""Build decomposed knowledge-set examples from logged queries (§3.2.1).

The pre-processing phase takes (natural-language question, SQL) pairs from
query logs, rewrites each SQL into CTE form, decomposes it into
sub-statements, and stores every fragment as a
:class:`~repro.knowledge.models.DecomposedExample` with a generated
natural-language description and a *pattern tag* identifying the reusable
idiom it demonstrates (quarter pivots, top-k-both-ends rankings, ...). The
CoT planner later matches plan steps against those patterns, which is the
paper's "many sub-statements end up repeated across the space of expected
SQL queries" observation at work.
"""

from __future__ import annotations

from ..sql import ast_nodes as ast
from ..sql.decompose import (
    KIND_CASE,
    KIND_FROM,
    KIND_GROUP_BY,
    KIND_HAVING,
    KIND_ORDER_BY,
    KIND_PROJECTION,
    KIND_QUERY,
    KIND_SELECT_ITEM,
    KIND_WHERE,
    KIND_WINDOW,
    decompose,
)
from ..sql.parser import parse_cached
from .models import DecomposedExample, Provenance, next_component_id

# -- pattern detection ----------------------------------------------------------

PATTERN_QUARTER_PIVOT = "quarter_pivot"
PATTERN_TOPK = "topk"
PATTERN_TOPK_BOTH_ENDS = "topk_both_ends"
PATTERN_PERIOD_DELTA = "period_over_period"
PATTERN_SHARE_OF_TOTAL = "share_of_total"
PATTERN_SAFE_RATIO = "safe_ratio"
PATTERN_CONDITIONAL_AGG = "conditional_aggregation"


def detect_pattern(sql_fragment):
    """Best-effort idiom tag for a SQL fragment ('' when none applies)."""
    upper = sql_fragment.upper()
    if "ROW_NUMBER" in upper or "RANK(" in upper:
        if upper.count("ROW_NUMBER") + upper.count("RANK(") >= 2 or (
            " ASC" in upper and " DESC" in upper
        ):
            return PATTERN_TOPK_BOTH_ENDS
        return PATTERN_TOPK
    if "CASE WHEN" in upper and (
        "SUM(CASE" in upper or "COUNT(CASE" in upper or "AVG(CASE" in upper
    ):
        if "'Q'" in upper or '"Q"' in upper or "QUARTER" in upper:
            return PATTERN_QUARTER_PIVOT
        return PATTERN_CONDITIONAL_AGG
    if "OVER" in upper and "SUM(" in upper and "/" in upper:
        return PATTERN_SHARE_OF_TOTAL
    if "NULLIF" in upper and "/" in upper:
        return PATTERN_SAFE_RATIO
    if "LIMIT" in upper and "ORDER BY" in upper:
        return PATTERN_TOPK
    return ""


# -- fragment description ----------------------------------------------------------

_KIND_TEMPLATES = {
    KIND_PROJECTION: "Select the columns {columns}",
    KIND_FROM: "Read data from {tables}",
    KIND_WHERE: "Filter rows where {detail}",
    KIND_GROUP_BY: "Group the results by {columns}",
    KIND_HAVING: "Keep only groups where {detail}",
    KIND_ORDER_BY: "Order the results by {detail}",
    KIND_SELECT_ITEM: "Compute {detail}",
    KIND_CASE: "Conditionally compute {detail}",
    KIND_WINDOW: "Rank or aggregate rows with a window: {detail}",
}


def describe_unit(unit):
    """Deterministic natural-language description of a decomposed unit."""
    template = _KIND_TEMPLATES.get(unit.kind)
    columns = ", ".join(
        column.replace("_", " ").lower() for column in unit.columns[:6]
    )
    tables = ", ".join(
        table.replace("_", " ").lower() for table in unit.tables[:4]
    )
    detail = _fragment_gist(unit.sql)
    if template is None:
        return detail
    return template.format(columns=columns or detail, tables=tables or detail,
                           detail=detail)


def _fragment_gist(sql):
    """A compressed, lower-cased gist of a fragment for retrieval text."""
    words = sql.replace("(", " ").replace(")", " ").replace(",", " ").split()
    kept = [word.lower().replace("_", " ") for word in words[:18]]
    return " ".join(kept)


# -- example building ----------------------------------------------------------

def build_examples(sql, intent_ids=(), source_query_id="", timestamp=0):
    """Decompose one logged query into knowledge examples.

    Returns a list of :class:`DecomposedExample`. The full-query unit is
    skipped: GenEdit's representation is sub-statements, not full pairs
    (the ``w/o Decomposition`` ablation stores
    :func:`build_full_query_example` instead).
    """
    query = parse_cached(sql)
    provenance = Provenance(
        source_kind="query_log",
        source_ref=source_query_id,
        timestamp=timestamp,
    )
    examples = []
    for unit in decompose(query):
        if unit.kind == KIND_QUERY:
            continue
        examples.append(
            DecomposedExample(
                example_id=next_component_id("ex"),
                description=describe_unit(unit),
                sql=unit.sql,
                kind=unit.kind,
                pattern=detect_pattern(unit.sql),
                intent_ids=tuple(intent_ids),
                tables=tuple(unit.tables),
                columns=tuple(unit.columns),
                source_query_id=source_query_id,
                provenance=provenance,
            )
        )
    return examples


def build_full_query_example(question, sql, intent_ids=(),
                             source_query_id="", timestamp=0):
    """Traditional full-query example (used by baselines and the
    w/o-decomposition ablation)."""
    return DecomposedExample(
        example_id=next_component_id("ex"),
        description=question,
        sql=sql,
        kind=KIND_QUERY,
        pattern=detect_pattern(sql),
        intent_ids=tuple(intent_ids),
        tables=_tables_of(sql),
        columns=(),
        source_query_id=source_query_id,
        provenance=Provenance(
            source_kind="query_log",
            source_ref=source_query_id,
            timestamp=timestamp,
        ),
    )


def _tables_of(sql):
    query = parse_cached(sql)
    names = []
    cte_names = {cte.name.upper() for cte in query.ctes}
    for node in query.walk():
        if isinstance(node, ast.TableRef) and node.name.upper() not in cte_names:
            if node.name.upper() not in names:
                names.append(node.name.upper())
    return tuple(names)
