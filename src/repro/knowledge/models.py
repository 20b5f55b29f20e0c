"""Knowledge-set data model (paper §2.1, §3.2).

The knowledge set is a materialised view over query logs and domain
documents. It holds four component kinds, all grouped by *user intents*:

* :class:`Intent` — an SME-verified description of a user need
  (e.g. "financial performance", "TV viewership numbers");
* :class:`DecomposedExample` — a SQL *sub-statement* with an equivalent
  natural-language description (the paper's novel example representation);
* :class:`Instruction` — a natural-language generation guideline, optionally
  defining a domain term and carrying an expected SQL sub-expression;
* :class:`SchemaElement` — a table or column with catalog description and
  the top-5 most frequent values.

Every component records :class:`Provenance` so the Knowledge Set Library can
show where an entry came from and support audit/reversion (§4.2.2).

All four component kinds are frozen values: an edit builds a new component
(``dataclasses.replace``) and hands it to the knowledge set's mutators, so
knowledge sets and their staging clones can share component objects.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

_id_counter = itertools.count(1)


def next_component_id(prefix):
    """Process-unique component id with a readable prefix."""
    return f"{prefix}-{next(_id_counter):05d}"


def component_ref(component):
    """``(kind, id)`` for any knowledge component; ``("component", "")``
    for an object that has none of the four id attributes."""
    for kind, attribute in (
        ("intent", "intent_id"),
        ("example", "example_id"),
        ("instruction", "instruction_id"),
        ("schema", "element_id"),
    ):
        identifier = getattr(component, attribute, None)
        if identifier is not None:
            return kind, identifier
    return "component", ""


@dataclass(frozen=True)
class Provenance:
    """Where a knowledge component came from.

    ``source_kind`` is one of ``query_log``, ``document``, ``feedback``, or
    ``manual``; ``source_ref`` points at the originating artifact (query id,
    document id, feedback id, or user name); ``timestamp`` is a logical
    clock maintained by the history module.
    """

    source_kind: str
    source_ref: str = ""
    timestamp: int = 0
    note: str = ""


@dataclass(frozen=True)
class Intent:
    """A mined and SME-verified user intent."""

    intent_id: str
    name: str
    description: str = ""
    tables: tuple = ()
    provenance: Provenance = field(
        default_factory=lambda: Provenance("manual")
    )


@dataclass(frozen=True)
class DecomposedExample:
    """A decomposed example: SQL sub-statement plus NL description.

    ``kind`` is the decomposition granularity (projection / where /
    window_function / ...), matching
    :mod:`repro.sql.decompose` unit kinds. ``pattern`` optionally tags the
    reusable idiom the fragment demonstrates (e.g. ``topk_both_ends``,
    ``quarter_pivot``) — the planner matches plan steps against patterns.
    """

    example_id: str
    description: str
    sql: str
    kind: str = "select_item"
    pattern: str = ""
    intent_ids: tuple = ()
    tables: tuple = ()
    columns: tuple = ()
    source_query_id: str = ""
    provenance: Provenance = field(
        default_factory=lambda: Provenance("query_log")
    )

    @property
    def pseudo_sql(self):
        return f"... {self.sql} ..."

    @property
    def retrieval_text(self):
        """Text used for indexing/re-ranking this example."""
        return f"{self.description}\n{self.sql}"


#: Instruction kinds.
INSTRUCTION_GUIDELINE = "guideline"
INSTRUCTION_TERM = "term_definition"
INSTRUCTION_RETRIEVAL_HINT = "retrieval_hint"


@dataclass(frozen=True)
class Instruction:
    """A natural-language generation guideline (paper §3.2.2).

    ``term`` is set for term definitions ("QoQFP means ..."); ``sql_pattern``
    holds the expected SQL sub-expression when relevant. ``kind`` may also be
    ``retrieval_hint`` — instructions addressed to the retrieval/re-ranking
    operators rather than the generator (§4.1 edit type iii).
    """

    instruction_id: str
    text: str
    kind: str = INSTRUCTION_GUIDELINE
    term: str = ""
    sql_pattern: str = ""
    intent_ids: tuple = ()
    tables: tuple = ()
    provenance: Provenance = field(
        default_factory=lambda: Provenance("document")
    )

    @property
    def retrieval_text(self):
        parts = [self.text]
        if self.term:
            parts.insert(0, self.term)
        if self.sql_pattern:
            parts.append(self.sql_pattern)
        return "\n".join(parts)


@dataclass(frozen=True)
class SchemaElement:
    """A table or column entry of the knowledge set's schema component."""

    element_id: str
    table: str
    column: str = ""
    data_type: str = ""
    description: str = ""
    top_values: tuple = ()
    intent_ids: tuple = ()
    provenance: Provenance = field(
        default_factory=lambda: Provenance("document", "catalog")
    )

    @property
    def is_table(self):
        return not self.column

    @property
    def qualified_name(self):
        if self.column:
            return f"{self.table}.{self.column}"
        return self.table

    @property
    def retrieval_text(self):
        parts = [self.table.replace("_", " ")]
        if self.column:
            parts.append(self.column.replace("_", " "))
        if self.description:
            parts.append(self.description)
        if self.top_values:
            parts.append(" ".join(str(value) for value in self.top_values))
        return "\n".join(parts)
