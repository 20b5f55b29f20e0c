"""Static analysis of a knowledge set against a live database.

:func:`lint_knowledge` runs every ``GK0xx`` rule over a
:class:`~repro.knowledge.store.KnowledgeSet` and returns an ordered list
of :class:`~repro.knowledge.lint.core.KnowledgeFinding`. The checks are
deliberately schema-aware and engine-backed: stale references are judged
against the *current* catalog, full-query examples are linted with the
``GE0xx`` engine and executed on the current executor, and near-duplicate
detection scores the example index's own TF-IDF vectors — the same
machinery the runtime pipeline trusts.

Calibration notes (mined sets must lint clean of errors):

* Fragment examples legitimately name CTEs of their source query
  (``DELTA``, ``RANKED``, ...) in ``tables`` — table/column staleness is
  only enforced for components whose tables all resolve in the catalog.
* Fragment ``columns`` include computed aliases (``METRIC_VALUE``, ...);
  a column is only stale when it is neither a live column of the
  example's tables nor defined inline via ``AS <name>`` in the fragment.
* Mined sets contain many *identical* fragments across source queries by
  construction, so near-duplicate detection only examines examples added
  by the improvement loop (``feedback``/``manual`` provenance).

Linting is memoised in the database's ``database.memo("knowledge_lint")``,
scoped to ``database.version``, on two levels (DESIGN.md §6f):

* The whole findings tuple, keyed on ``("set", value_k,
  knowledge.revision)``. The revision names the set's contents and their
  order, the memo's version names the data and catalog, so a set linted
  once is not linted again until one of them changes: the live set of a
  submit is linted once per revision.
* The two checks that read the database — examples (parse, ``GE0xx``,
  execution) and schema elements (a ``top_values`` scan) — per
  component, keyed on ``(value_k, id(component))``. The entry holds the
  component and a hit requires the very same object, so the id cannot
  be reused while the entry lives. Components are frozen, so one object
  always has the same fields. A staged clone shares its parent's
  components, so linting it right after its parent only checks the
  components the edits added or replaced.

Near-duplicate detection reads the vectors the example index has already
fit (:meth:`~repro.knowledge.store.KnowledgeSet.example_vectors`) rather
than fitting them again, and the fragment-parse check
(:func:`~repro.sql.decompose.fragment_parses`, shared with the plan
linter) goes through the memoised :func:`~repro.sql.parser.parses`. Code
that mutates ``table.rows`` without going through ``Table.insert`` must
call ``database.clear_memos()``, or the memo serves stale findings — the
contract every database memo has.
"""

from __future__ import annotations

import re

from ...engine.executor import execution_outcome
from ...obs.metrics import get_metrics
from ...obs.tracing import current_span
from ...sql.decompose import KIND_QUERY, fragment_parses
from ...sql.diagnostics import DiagnosticsEngine
from ...sql.diagnostics.core import error_codes, error_count
from ...sql.errors import SqlError
from ...sql.parser import parse
from ...text.similarity import cosine_with_norms
from ..models import INSTRUCTION_TERM
from .core import (
    GK001, GK002, GK003, GK004, GK005, GK006, GK007, GK008, GK009,
    GK010, GK011, GK012, GK013,
)

#: Provenance kinds the history module stamps on loop-originated edits.
EDITED_PROVENANCE = frozenset({"feedback", "manual"})

#: Known provenance source kinds (anything else counts as missing).
KNOWN_PROVENANCE = frozenset({"query_log", "document", "feedback", "manual"})

#: Cosine similarity at which two examples count as near-duplicates.
NEAR_DUPLICATE_THRESHOLD = 0.9

_INLINE_ALIAS = re.compile(r"\bAS\s+([A-Za-z_][A-Za-z0-9_]*)", re.IGNORECASE)


def lint_knowledge(knowledge, database, value_k=5):
    """Run all ``GK0xx`` rules; returns findings in deterministic order.

    The whole findings tuple is memoised per ``knowledge.revision`` (see the
    module docstring); each call returns a fresh list.
    """
    memo = database.memo("knowledge_lint")
    key = ("set", value_k, knowledge.revision)
    findings = memo.get(key)
    hits = misses = set_hits = 0
    if findings is None:
        checks = _DatabaseChecks(database, value_k, memo)
        findings = memo.store(key, tuple(_lint(knowledge, checks)))
        hits, misses = checks.hits, checks.misses
    else:
        set_hits = 1
    metrics = get_metrics()
    metrics.inc("knowledge_lint.runs")
    span = current_span()
    for name, count in (("knowledge_lint.memo_hits", hits),
                        ("knowledge_lint.memo_misses", misses),
                        ("knowledge_lint.set_hits", set_hits)):
        metrics.inc(name, count)
        if span is not None:
            span.inc_attr(name, count)
    if findings:
        metrics.inc("knowledge_lint.findings", len(findings))
        errors = error_count(findings)
        if errors:
            metrics.inc("knowledge_lint.errors", errors)
    return list(findings)


def _lint(knowledge, checks):
    intent_ids = {intent.intent_id for intent in knowledge.intents()}
    findings = []
    for intent in knowledge.intents():
        _check_tables(intent, intent.tables, checks.catalog, findings)
        _check_provenance(intent, findings)
    for element in knowledge.schema_elements():
        findings.extend(checks.run(_check_schema_element, element))
        _check_intent_refs(element, intent_ids, findings)
        _check_provenance(element, findings)
    for instruction in knowledge.instructions():
        _check_tables(instruction, instruction.tables, checks.catalog,
                      findings)
        _check_intent_refs(instruction, intent_ids, findings)
        _check_provenance(instruction, findings)
    _check_contradictions(knowledge.instructions(), findings)
    examples = knowledge.examples()
    for example in examples:
        findings.extend(checks.run(_check_example, example))
        _check_intent_refs(example, intent_ids, findings)
        _check_provenance(example, findings)
    _check_near_duplicates(examples, knowledge, findings)
    _check_coverage(knowledge, checks.catalog, findings)
    return findings


def finding_keys(findings):
    """Stable identity keys for gating: which components violate what."""
    return {
        (f.code, f.component_kind, f.component_id)
        for f in findings if f.is_error
    }


# -- per-component checks ----------------------------------------------------


class _DatabaseChecks:
    """One lint's view of the database, with the memo of its checks.

    :meth:`run` returns a check's findings for one component from the
    memo, or runs the check on a miss. The diagnostics engine is built on
    the first miss that needs it; an example's execution goes through the
    database's execution memo.
    """

    def __init__(self, database, value_k, memo):
        self.database = database
        self.value_k = value_k
        self.catalog = {
            table.name.upper(): table for table in database.tables
        }
        self.hits = 0
        self.misses = 0
        self._engine = None
        self._memo = memo

    @property
    def engine(self):
        if self._engine is None:
            self._engine = DiagnosticsEngine(self.database)
        return self._engine

    def run(self, check, component):
        key = (self.value_k, id(component))
        entry = self._memo.get(key)
        if entry is not None and entry[0] is component:
            self.hits += 1
            return entry[1]
        self.misses += 1
        found = []
        check(component, self, found)
        return self._memo.store(key, (component, tuple(found)))[1]



def _check_tables(component, tables, catalog, findings):
    for table in tables:
        if table.upper() not in catalog:
            findings.append(GK001.at(
                f"references table {table!r} which is not in the catalog",
                component,
            ))


def _check_intent_refs(component, intent_ids, findings):
    for intent_id in getattr(component, "intent_ids", ()):
        if intent_id not in intent_ids:
            findings.append(GK009.at(
                f"references unknown intent {intent_id!r}", component,
            ))


def _check_provenance(component, findings):
    provenance = getattr(component, "provenance", None)
    source_kind = getattr(provenance, "source_kind", "")
    if source_kind not in KNOWN_PROVENANCE:
        findings.append(GK008.at(
            f"provenance source kind {source_kind!r} is not one of "
            f"{sorted(KNOWN_PROVENANCE)}",
            component,
        ))


def _check_schema_element(element, checks, findings):
    table = checks.catalog.get(element.table.upper())
    if table is None:
        findings.append(GK001.at(
            f"describes table {element.table!r} which is not in the catalog",
            element,
        ))
        return
    if not element.column:
        return
    if not table.has_column(element.column):
        findings.append(GK002.at(
            f"describes column {element.qualified_name} which table "
            f"{table.name} does not have",
            element,
        ))
        return
    live_type = _column_type(table, element.column)
    if element.data_type and live_type and (
        element.data_type.upper() != live_type.upper()
    ):
        findings.append(GK010.at(
            f"records type {element.data_type!r} for "
            f"{element.qualified_name} but the catalog says {live_type!r}",
            element,
            suggestion=live_type,
        ))
    if element.top_values:
        current = set(table.top_values(
            element.column, max(checks.value_k, len(element.top_values))
        ))
        for value in element.top_values:
            if value not in current:
                findings.append(GK013.at(
                    f"recorded top value {value!r} of "
                    f"{element.qualified_name} is no longer a top value",
                    element,
                ))


def _column_type(table, column_name):
    for column in table.columns:
        if column.name.upper() == column_name.upper():
            return column.type
    return ""


# -- instructions ------------------------------------------------------------


def _check_contradictions(instructions, findings):
    by_term = {}
    for instruction in instructions:
        if instruction.kind == INSTRUCTION_TERM and instruction.term:
            by_term.setdefault(instruction.term.lower(), []).append(
                instruction
            )
    for term in sorted(by_term):
        group = by_term[term]
        for index, later in enumerate(group[1:], start=1):
            for earlier in group[:index]:
                if _materially_different(earlier, later):
                    findings.append(GK007.at(
                        f"defines term {later.term!r} differently from "
                        f"instruction {earlier.instruction_id}",
                        later,
                    ))
                    break


def _materially_different(left, right):
    left_pattern = _normalize_sql(left.sql_pattern)
    right_pattern = _normalize_sql(right.sql_pattern)
    if left_pattern and right_pattern:
        return left_pattern != right_pattern
    return _normalize_text(left.text) != _normalize_text(right.text)


def _normalize_sql(sql):
    return " ".join(sql.upper().split())


def _normalize_text(text):
    return " ".join(text.lower().split())


# -- examples ----------------------------------------------------------------


def _check_example(example, checks, findings):
    if example.kind == KIND_QUERY:
        _check_full_query_example(example, checks, findings)
        return
    if not fragment_parses(example.sql, example.kind):
        findings.append(GK003.at(
            f"{example.kind} fragment does not parse: {example.sql!r}",
            example,
        ))
        return
    tables = [checks.catalog.get(name.upper()) for name in example.tables]
    if not tables or any(table is None for table in tables):
        # Fragments may reference source-query CTEs the linter cannot
        # resolve; only judge columns when every table is live.
        return
    live_columns = {
        column.name.upper() for table in tables for column in table.columns
    }
    aliases = {
        match.upper() for match in _INLINE_ALIAS.findall(example.sql)
    }
    for column in example.columns:
        upper = column.upper()
        if upper not in live_columns and upper not in aliases:
            findings.append(GK002.at(
                f"references column {column!r} which none of "
                f"{', '.join(sorted(t.name for t in tables))} has",
                example,
            ))


def _check_full_query_example(example, checks, findings):
    _check_tables(example, example.tables, checks.catalog, findings)
    try:
        parse(example.sql)
    except SqlError as error:
        # run_sql would fold this into a GE000 diagnostic; parse failure
        # is its own rule so the gate can tell rot from lint debt.
        findings.append(GK003.at(
            f"query example does not parse: {error}", example,
        ))
        return
    diagnostics = checks.engine.run_sql(example.sql)
    codes = error_codes(diagnostics)
    if codes:
        findings.append(GK004.at(
            f"query example has error diagnostics: {', '.join(codes)}",
            example,
        ))
        return
    ran, error = execution_outcome(checks.database, example.sql)
    if not ran:
        findings.append(GK005.at(
            f"query example fails execution: {error}", example,
        ))


def _check_near_duplicates(examples, knowledge, findings):
    edited = [
        example for example in examples
        if getattr(example.provenance, "source_kind", "")
        in EDITED_PROVENANCE
    ]
    if not edited:
        return
    # The example index has fit exactly these retrieval texts.
    vectors = knowledge.example_vectors()
    for example in edited:
        vector, norm = vectors[example.example_id]
        for other in examples:
            if other.example_id == example.example_id:
                continue
            if other.kind != example.kind:
                continue
            other_vector, other_norm = vectors[other.example_id]
            similarity = cosine_with_norms(
                vector, other_vector, norm, other_norm
            )
            if similarity >= NEAR_DUPLICATE_THRESHOLD:
                findings.append(GK006.at(
                    f"near-duplicates example {other.example_id} "
                    f"(cosine {similarity:.2f})",
                    example,
                ))
                break


# -- coverage ----------------------------------------------------------------


def _check_coverage(knowledge, catalog, findings):
    covered = set()
    for example in knowledge.examples():
        covered.update(table.upper() for table in example.tables)
    described = set()
    for element in knowledge.schema_elements():
        if element.is_table and element.description.strip():
            described.add(element.table.upper())
    for name in sorted(catalog):
        table = catalog[name]
        if name not in covered:
            findings.append(GK011.at(
                f"table {table.name} has no example referencing it",
                kind="table",
            ))
        if name not in described:
            findings.append(GK012.at(
                f"table {table.name} has no described schema element",
                kind="table",
            ))
