"""Schema lexicon: grounding surface phrases against schema elements.

A :class:`SchemaLexicon` is built from the *schema elements present in the
generation context* — after intent filtering, linking, re-ranking, and any
context-budget truncation. Grounding quality therefore depends directly on
what the pipeline retrieved, which is the mechanism behind the
schema-linking ablation: an un-linked lexicon contains every column of every
table in catalog order, so ambiguous surfaces resolve by catalog order
instead of by relevance, and budget-truncated elements are simply invisible.

Descriptions follow the catalog conventions of ``repro.bench.schemas``:
``Also called: a, b.`` lists synonyms, ``Foreign key to T.C.`` declares a
join edge, and a table description starting ``Each row is a <entity>.``
names the entity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..text.normalize import normalize
from .spec import JoinSpec

_ALSO_CALLED = re.compile(r"Also called: ([^.]*)\.")
_FOREIGN_KEY = re.compile(r"Foreign key to (\w+)\.(\w+)")
_EACH_ROW = re.compile(r"Each row is (?:a|an) ([^.]*)")


@dataclass(frozen=True)
class ColumnEntry:
    table: str
    column: str
    data_type: str
    surfaces: tuple
    tokens: tuple        # stemmed token tuples, one per surface
    top_values: tuple
    rank: int            # position in the provided element ordering


@dataclass(frozen=True)
class ColumnMatch:
    table: str
    column: str
    data_type: str
    score: float


class SchemaLexicon:
    """Phrase -> schema grounding over an ordered element list."""

    def __init__(self, schema_elements):
        self._columns = []
        self._tables = {}
        self._entity_surfaces = {}
        self._fk_edges = []
        self._date_columns = {}
        self._label_columns = {}
        for rank, element in enumerate(schema_elements):
            if element.is_table:
                self._add_table(element, rank)
            else:
                self._add_column(element, rank)
        self._finalise()

    # -- construction ----------------------------------------------------------

    def _add_table(self, element, rank):
        table = element.table.upper()
        self._tables.setdefault(table, rank)
        surfaces = {table.lower().replace("_", " ")}
        match = _EACH_ROW.search(element.description or "")
        if match:
            surfaces.add(match.group(1).strip().lower())
        self._entity_surfaces.setdefault(table, set()).update(surfaces)

    def _add_column(self, element, rank):
        table = element.table.upper()
        column = element.column.upper()
        self._tables.setdefault(table, rank)
        description = element.description or ""
        surfaces = [column.lower().replace("_", " ")]
        also = _ALSO_CALLED.search(description)
        if also:
            surfaces.extend(
                surface.strip().lower()
                for surface in also.group(1).split(",")
                if surface.strip()
            )
        fk = _FOREIGN_KEY.search(description)
        if fk:
            self._fk_edges.append(
                (table, column, fk.group(1).upper(), fk.group(2).upper())
            )
        if element.data_type == "DATE":
            self._date_columns.setdefault(table, column)
        if "NAME" in column and element.data_type == "TEXT":
            self._label_columns.setdefault(table, column)
        entry = ColumnEntry(
            table=table,
            column=column,
            data_type=element.data_type,
            surfaces=tuple(surfaces),
            tokens=tuple(tuple(normalize(surface)) for surface in surfaces),
            top_values=tuple(element.top_values),
            rank=rank,
        )
        self._columns.append(entry)

    def _finalise(self):
        self._total = max(len(self._columns), 1)
        for table in self._tables:
            if table not in self._label_columns:
                text_columns = [
                    entry.column for entry in self._columns
                    if entry.table == table and entry.data_type == "TEXT"
                ]
                if text_columns:
                    self._label_columns[table] = text_columns[0]

    # -- inspection ----------------------------------------------------------

    def tables(self):
        return sorted(self._tables, key=lambda name: self._tables[name])

    def has_table(self, table):
        return table.upper() in self._tables

    def columns_of(self, table):
        upper = table.upper()
        return [entry for entry in self._columns if entry.table == upper]

    def has_column(self, table, column):
        upper_t, upper_c = table.upper(), column.upper()
        return any(
            entry.table == upper_t and entry.column == upper_c
            for entry in self._columns
        )

    def date_column(self, table):
        return self._date_columns.get(table.upper())

    def label_column(self, table):
        return self._label_columns.get(table.upper())

    # -- matching ----------------------------------------------------------

    def match_column(self, phrase, preferred_tables=(), boosted_columns=()):
        """Ranked column candidates for a surface phrase.

        ``preferred_tables`` adds a locality bonus (elements of tables
        already chosen for the query); ``boosted_columns`` adds a small
        bonus for columns referenced by retrieved examples — the direct
        (non-pseudo-SQL) contribution of examples to generation.
        """
        phrase_tokens = tuple(normalize(phrase))
        if not phrase_tokens:
            return []
        preferred = {table.upper() for table in preferred_tables}
        boosted = {
            (table.upper(), column.upper())
            for table, column in boosted_columns
        }
        matches = []
        for entry in self._columns:
            score = self._surface_score(phrase_tokens, entry)
            if score <= 0:
                continue
            if entry.table in preferred:
                score += 0.8
            if (entry.table, entry.column) in boosted:
                score += 0.3
            # Earlier elements (higher linking rank) win ties.
            score += 0.2 * (1.0 - entry.rank / self._total)
            matches.append(
                ColumnMatch(entry.table, entry.column, entry.data_type, score)
            )
        matches.sort(key=lambda match: (-match.score, match.table, match.column))
        return matches

    def _surface_score(self, phrase_tokens, entry):
        best = 0.0
        phrase_set = set(phrase_tokens)
        for tokens in entry.tokens:
            if not tokens:
                continue
            if tokens == phrase_tokens:
                best = max(best, 3.0)
                continue
            token_set = set(tokens)
            if phrase_set == token_set:
                best = max(best, 2.6)
            elif phrase_set <= token_set:
                best = max(best, 2.0)
            elif token_set <= phrase_set:
                best = max(best, 1.6)
            else:
                overlap = len(phrase_set & token_set)
                if overlap:
                    best = max(
                        best, overlap / len(phrase_set | token_set)
                    )
        return best

    def match_entity(self, phrase):
        """Ranked table candidates for an entity phrase."""
        phrase_tokens = set(normalize(phrase))
        if not phrase_tokens:
            return []
        scored = []
        for table, surfaces in self._entity_surfaces.items():
            best = 0.0
            for surface in surfaces:
                tokens = set(normalize(surface))
                if not tokens:
                    continue
                if tokens == phrase_tokens:
                    best = max(best, 3.0)
                elif phrase_tokens <= tokens:
                    best = max(best, 2.0)
                elif tokens <= phrase_tokens:
                    best = max(best, 1.8)
                else:
                    overlap = len(tokens & phrase_tokens)
                    if overlap:
                        best = max(best, overlap / len(tokens | phrase_tokens))
            if best > 0:
                rank_bonus = 0.1 * (
                    1.0 - self._tables[table] / max(len(self._tables), 1)
                )
                scored.append((table, best + rank_bonus))
        scored.sort(key=lambda item: (-item[1], item[0]))
        return scored

    def match_value(self, value):
        """Columns whose top-value profile contains ``value``.

        Returns [(table, column, canonical_value)] — canonical being the
        exact stored form (grounding 'canada' to the stored 'Canada').
        """
        lowered = str(value).strip().lower()
        hits = []
        for entry in self._columns:
            for top in entry.top_values:
                if str(top).strip().lower() == lowered:
                    hits.append((entry.table, entry.column, top))
                    break
        return hits

    def guess_value_column(self, table):
        """Fallback grounding for a value not found in any top-value list.

        Mimics an LLM's guess: prefer geographic-sounding text columns of
        the table in a fixed plausibility order, then the table's label
        column. Often wrong for rare values — deliberately so.
        """
        preferences = ("COUNTRY", "CITY")
        columns = {entry.column for entry in self.columns_of(table)}
        for name in preferences:
            if name in columns:
                return name
        return self.label_column(table)

    # -- joins ----------------------------------------------------------

    def join_between(self, base_table, other_table):
        """A JoinSpec connecting two tables via a declared FK, if any."""
        base, other = base_table.upper(), other_table.upper()
        for table, column, ref_table, ref_column in self._fk_edges:
            if table == base and ref_table == other:
                return JoinSpec(
                    table=other, left_column=column, right_column=ref_column
                )
            if table == other and ref_table == base:
                return JoinSpec(
                    table=other, left_column=ref_column, right_column=column
                )
        return None
