"""Pre-processing miners: intents, schema elements, and document glossaries.

Inputs mirror the paper's pre-processing phase (§2.1): (i) SQL queries from
logs of prior executions, and (ii) documents containing domain-specific
terminology and practices. Outputs populate a
:class:`~repro.knowledge.store.KnowledgeSet`:

* intents are mined by grouping logged queries on their base-table
  footprint (SMEs would verify/rename them; the miner generates stable
  names deterministically);
* each domain-document glossary entry becomes a term-definition
  instruction;
* the database catalog (plus value profiling) becomes schema elements
  augmented with the top-5 most frequent values per attribute.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..engine.database import Database
from .decomposition import build_examples
from .models import (
    INSTRUCTION_GUIDELINE,
    INSTRUCTION_TERM,
    Instruction,
    Intent,
    Provenance,
    SchemaElement,
    next_component_id,
)
from .store import KnowledgeSet


@dataclass
class LoggedQuery:
    """One historical query-log entry: question, SQL, and intent hint."""

    query_id: str
    question: str
    sql: str
    intent_name: str = ""


@dataclass
class GlossaryEntry:
    """One domain-term definition extracted from documents."""

    term: str
    definition: str
    sql_pattern: str = ""
    tables: tuple = ()
    intent_name: str = ""


@dataclass
class GuidelineEntry:
    """One practice/guideline sentence extracted from documents."""

    text: str
    sql_pattern: str = ""
    tables: tuple = ()
    intent_name: str = ""


@dataclass
class DomainDocument:
    """A domain document: glossary entries plus free-form guidelines."""

    doc_id: str
    title: str = ""
    glossary: list = field(default_factory=list)
    guidelines: list = field(default_factory=list)


def mine_knowledge_set(database: Database, query_log, documents=(),
                       name=None, value_k=5, decompose_examples=True):
    """Build a complete knowledge set from logs + documents + catalog.

    ``query_log`` is an iterable of :class:`LoggedQuery`; ``documents`` of
    :class:`DomainDocument`. Set ``decompose_examples=False`` to store
    traditional full-query examples instead (the w/o-decomposition
    ablation).
    """
    knowledge = KnowledgeSet(name or f"{database.name}-knowledge")
    intents = _mine_intents(query_log, documents, knowledge)
    _mine_schema(database, intents, knowledge, value_k)
    _mine_examples(query_log, intents, knowledge, decompose_examples)
    _mine_documents(documents, intents, knowledge)
    return knowledge


# -- intents ----------------------------------------------------------


def _mine_intents(query_log, documents, knowledge):
    """Group queries by intent hint (or table footprint) into intents."""
    from .decomposition import _tables_of

    groups = {}
    for entry in query_log:
        name = entry.intent_name or " ".join(
            table.lower().replace("_", " ") for table in _tables_of(entry.sql)
        ) or "general"
        groups.setdefault(name, []).append(entry)
    for document in documents:
        for item in list(document.glossary) + list(document.guidelines):
            if item.intent_name and item.intent_name not in groups:
                groups[item.intent_name] = []
    intents = {}
    for name in sorted(groups):
        entries = groups[name]
        tables = []
        for entry in entries:
            for table in _tables_of(entry.sql):
                if table not in tables:
                    tables.append(table)
        intent = Intent(
            intent_id=next_component_id("intent"),
            name=name,
            description=(
                f"Questions about {name} "
                f"({len(entries)} logged queries)"
            ),
            tables=tuple(tables),
            provenance=Provenance("query_log", note="mined"),
        )
        knowledge.add_intent(intent)
        intents[name] = intent
    return intents


# -- schema ----------------------------------------------------------


def _mine_schema(database, intents, knowledge, value_k):
    table_to_intents = {}
    for intent in intents.values():
        for table in intent.tables:
            table_to_intents.setdefault(table.upper(), []).append(
                intent.intent_id
            )
    for table in database.tables:
        intent_ids = tuple(table_to_intents.get(table.name.upper(), ()))
        knowledge.add_schema_element(
            SchemaElement(
                element_id=next_component_id("schema"),
                table=table.name,
                description=table.description,
                intent_ids=intent_ids,
            )
        )
        for column in table.columns:
            knowledge.add_schema_element(
                SchemaElement(
                    element_id=next_component_id("schema"),
                    table=table.name,
                    column=column.name,
                    data_type=column.type,
                    description=column.description,
                    top_values=tuple(table.top_values(column.name, value_k)),
                    intent_ids=intent_ids,
                )
            )


# -- examples ----------------------------------------------------------


def _mine_examples(query_log, intents, knowledge, decompose_examples):
    from .decomposition import _tables_of, build_full_query_example

    for entry in query_log:
        name = entry.intent_name or " ".join(
            table.lower().replace("_", " ") for table in _tables_of(entry.sql)
        ) or "general"
        intent = intents.get(name)
        intent_ids = (intent.intent_id,) if intent else ()
        if decompose_examples:
            for example in build_examples(
                entry.sql,
                intent_ids=intent_ids,
                source_query_id=entry.query_id,
            ):
                knowledge.add_example(example)
        else:
            knowledge.add_example(
                build_full_query_example(
                    entry.question,
                    entry.sql,
                    intent_ids=intent_ids,
                    source_query_id=entry.query_id,
                )
            )


# -- documents ----------------------------------------------------------


def _mine_documents(documents, intents, knowledge):
    for document in documents:
        provenance = Provenance("document", source_ref=document.doc_id)
        for entry in document.glossary:
            intent = intents.get(entry.intent_name)
            knowledge.add_instruction(
                Instruction(
                    instruction_id=next_component_id("ins"),
                    text=f"{entry.term} means {entry.definition}",
                    kind=INSTRUCTION_TERM,
                    term=entry.term,
                    sql_pattern=entry.sql_pattern,
                    intent_ids=(intent.intent_id,) if intent else (),
                    tables=tuple(entry.tables),
                    provenance=provenance,
                )
            )
        for entry in document.guidelines:
            intent = intents.get(entry.intent_name)
            knowledge.add_instruction(
                Instruction(
                    instruction_id=next_component_id("ins"),
                    text=entry.text,
                    kind=INSTRUCTION_GUIDELINE,
                    sql_pattern=entry.sql_pattern,
                    intent_ids=(intent.intent_id,) if intent else (),
                    tables=tuple(entry.tables),
                    provenance=provenance,
                )
            )
