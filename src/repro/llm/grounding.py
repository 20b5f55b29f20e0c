"""Grounding: turn a parsed question into a :class:`QuerySpec`.

This module is the semantic heart of the simulated LLM. It receives the
question's surface parse and a :class:`GroundingInput` holding exactly what
the pipeline retrieved — schema elements (ordered by linking relevance, or
catalog order when linking is off), instructions, and the idiom patterns
evidenced by retrieved example fragments — and produces candidate query
specs.

The design rule that makes ablations meaningful: the grounder may only use
what the input carries. Domain terms resolve solely through instruction
entries; complex SQL idioms (quarter pivots, both-end rankings, shares)
are *gated* on pattern evidence from examples; column and value resolution
see only the provided schema elements, in the provided order. Whatever is
missing degrades the spec in a realistic way (naive fallbacks, wrong-column
guesses, dropped filters) instead of failing loudly — exactly the error
classes §4.1 of the paper attributes to knowledge-set gaps.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..knowledge.decomposition import (
    PATTERN_QUARTER_PIVOT,
    PATTERN_SHARE_OF_TOTAL,
    PATTERN_TOPK_BOTH_ENDS,
)
from ..pipeline import nlparse
from ..pipeline.lexicon import SchemaLexicon
from ..pipeline.spec import (
    FilterSpec,
    HavingSpec,
    MetricSpec,
    OrderSpec,
    QuarterFilter,
    QuerySpec,
    RatioDeltaSpec,
    SHAPE_RATIO_DELTA_RANK,
    SHAPE_SHARE_OF_TOTAL,
    SHAPE_STANDARD,
    SHAPE_TOPK_BOTH_ENDS,
)


@dataclass
class GroundingInput:
    """What the pipeline retrieved for this question."""

    database_name: str
    schema_elements: list = field(default_factory=list)
    instructions: list = field(default_factory=list)
    patterns: set = field(default_factory=set)
    example_columns: list = field(default_factory=list)  # (table, column)


@dataclass
class GroundingCandidate:
    """One candidate spec plus the issues hit while building it."""

    spec: QuerySpec
    issues: list = field(default_factory=list)
    notes: list = field(default_factory=list)


_RATIO_DSL = re.compile(
    r"RATIO_DELTA numerator=(\w+)\.(\w+)\.(\w+) "
    r"(?:denominator=(\w+)\.(\w+)\.(\w+) )?"
    r"entity=(\w+)(?: negate=(true|false))?"
)


class Grounder:
    """Grounds parsed questions against retrieved knowledge."""

    def ground(self, parsed, grounding_input):
        """Return candidate specs, best first (never empty)."""
        session = _Session(parsed, grounding_input)
        primary = session.build()
        candidates = [primary]
        for alternate in session.alternates():
            candidates.append(alternate)
        return candidates


class _Session:
    """One grounding attempt; tracks choices so alternates can swap them."""

    def __init__(self, parsed, grounding_input):
        self.parsed = parsed
        self.input = grounding_input
        self.lexicon = SchemaLexicon(grounding_input.schema_elements)
        self.issues = []
        self.notes = []
        self._choice_points = []  # (description, alternate builder)
        self._terms = {}
        for instruction in grounding_input.instructions:
            if instruction.term:
                self._terms[instruction.term.lower()] = instruction

    # -- public ----------------------------------------------------------

    def build(self):
        parsed = self.parsed
        if parsed.kind == nlparse.KIND_DELTA:
            spec = self._build_delta()
        elif parsed.kind == nlparse.KIND_BOTH_ENDS:
            spec = self._build_both_ends()
        elif parsed.kind == nlparse.KIND_SHARE:
            spec = self._build_share()
        elif parsed.kind == nlparse.KIND_TOPK:
            spec = self._build_topk()
        elif parsed.kind == nlparse.KIND_LISTING:
            spec = self._build_listing()
        else:
            spec = self._build_aggregate()
        return GroundingCandidate(
            spec=spec, issues=list(self.issues), notes=list(self.notes)
        )

    def alternates(self, limit=3):
        """Alternate candidates from recorded near-tie choice points."""
        results = []
        for _description, builder in self._choice_points[:limit]:
            try:
                fresh = _Session(self.parsed, self.input)
                alternate = builder(fresh)
            except Exception:  # alternates must never break generation
                continue
            if alternate is not None:
                results.append(alternate)
        return results

    # -- term resolution ----------------------------------------------------------

    def _find_term(self, phrase):
        """The instruction defining the longest term inside ``phrase``."""
        lowered = phrase.lower().replace("-", " ")
        best = None
        for term, instruction in self._terms.items():
            if term.replace("-", " ") in lowered:
                if best is None or len(term) > len(best[0]):
                    best = (term, instruction)
        return best[1] if best else None

    def _adjective_filters(self, base_table):
        """Guideline adjectives ('our', 'online', ...) -> raw predicates."""
        filters = []
        for adjective in self.parsed.adjectives:
            instruction = self._find_adjective_instruction(adjective)
            if instruction is None:
                self.issues.append(f"unresolved-adjective:{adjective}")
                continue
            pattern = instruction.sql_pattern
            column = pattern.split(" ")[0].split("=")[0].strip()
            if base_table and column and not self.lexicon.has_column(
                base_table, column
            ):
                # The predicate's column is not on this table; look for a
                # joined table carrying it before giving up.
                self.issues.append(f"misplaced-adjective:{adjective}")
                continue
            filters.append(FilterSpec(raw=pattern))
        return filters

    def _alias_column(self, phrase):
        """Resolve a phrase via a ``COLUMN TABLE.COL`` alias instruction.

        These instructions are typically born from SME feedback ("'outlay'
        refers to the EXPENSES column") — §4.1's first error class.
        """
        from ..pipeline.lexicon import ColumnMatch

        lowered = phrase.lower()
        for instruction in self.input.instructions:
            if not instruction.sql_pattern.startswith("COLUMN "):
                continue
            if not instruction.term or instruction.term.lower() not in lowered:
                continue
            reference = instruction.sql_pattern.split(" ", 1)[1].strip()
            if "." not in reference:
                continue
            table, column = reference.split(".", 1)
            if self.lexicon.has_column(table, column):
                entry = next(
                    (
                        candidate
                        for candidate in self.lexicon.columns_of(table)
                        if candidate.column == column.upper()
                    ),
                    None,
                )
                data_type = entry.data_type if entry else ""
                return ColumnMatch(table.upper(), column.upper(), data_type, 3.0)
        return None

    def _value_hint(self, base_table, value):
        """Resolve a literal via a ``VALUE TABLE.COL`` hint instruction."""
        lowered = str(value).lower()
        for instruction in self.input.instructions:
            if not instruction.sql_pattern.startswith("VALUE "):
                continue
            if not instruction.term or instruction.term.lower() != lowered:
                continue
            reference = instruction.sql_pattern.split(" ", 1)[1].strip()
            if "." not in reference:
                continue
            table, column = reference.split(".", 1)
            if self.lexicon.has_column(table, column):
                self._maybe_join(base_table, table.upper())
                return FilterSpec(column.upper(), "=", value)
        return None

    def _find_adjective_instruction(self, adjective):
        marker = f"'{adjective}'"
        for instruction in self.input.instructions:
            if instruction.sql_pattern and marker in instruction.text.lower():
                return instruction
        return None

    # -- shared resolution ----------------------------------------------------------

    def _resolve_base_table(self, metric_matches=()):
        """Choose the base table from term/entity/metric evidence."""
        parsed = self.parsed
        term = self._find_term(parsed.metric_phrase or "")
        if term is not None and term.tables:
            candidate = term.tables[0].upper()
            if self.lexicon.has_table(candidate):
                return candidate
        if parsed.entity_phrase:
            entities = self.lexicon.match_entity(parsed.entity_phrase)
            if entities:
                if len(entities) > 1 and (
                    entities[0][1] - entities[1][1] < 0.3
                ):
                    runner_up = entities[1][0]
                    self._record_choice(
                        f"entity->{runner_up}",
                        lambda session, table=runner_up: (
                            session._rebuild_with_base(table)
                        ),
                    )
                return entities[0][0]
            self.issues.append(
                f"unresolved-entity:{parsed.entity_phrase}"
            )
        if metric_matches:
            return metric_matches[0].table
        tables = self.lexicon.tables()
        if tables:
            return tables[0]
        self.issues.append("no-schema-context")
        return ""

    def _rebuild_with_base(self, table):
        self._forced_base = table
        original = self.lexicon.match_entity
        self.lexicon.match_entity = lambda phrase: [(table, 9.0)]
        try:
            return self.build()
        finally:
            self.lexicon.match_entity = original

    def _record_choice(self, description, builder):
        self._choice_points.append((description, builder))

    def _column(self, phrase, preferred_tables, what):
        matches = self.lexicon.match_column(
            phrase,
            preferred_tables=preferred_tables,
            boosted_columns=self.input.example_columns,
        )
        if not matches:
            aliased = self._alias_column(phrase)
            if aliased is not None:
                return aliased
            self.issues.append(f"unresolved-{what}:{phrase}")
            return None
        if len(matches) > 1 and matches[0].score - matches[1].score < 0.35:
            runner_up = matches[1]
            self.notes.append(
                f"ambiguous-{what}:{phrase}->"
                f"{matches[0].table}.{matches[0].column}"
            )
        return matches[0]

    def _metric(self, base_table):
        """Resolve the metric phrase into a MetricSpec (plus base fixup)."""
        parsed = self.parsed
        if parsed.metric_agg == "COUNT" and not parsed.metric_phrase:
            return MetricSpec("COUNT"), base_table
        if parsed.metric_agg == "TERM":
            instruction = self._find_term(parsed.metric_phrase)
            if instruction is not None and not instruction.sql_pattern.startswith(
                "RATIO_DELTA"
            ):
                table = base_table
                if instruction.tables:
                    declared = instruction.tables[0].upper()
                    if self.lexicon.has_table(declared):
                        table = declared
                return (
                    MetricSpec("EXPR", expression=instruction.sql_pattern),
                    table,
                )
            self.issues.append(
                f"unresolved-term:{parsed.metric_phrase}"
            )
            match = self._column(
                parsed.metric_phrase, [base_table], "metric"
            )
            if match is None:
                fallback = self._first_numeric(base_table)
                if fallback is None:
                    return MetricSpec("COUNT"), base_table
                return MetricSpec("SUM", column=fallback), base_table
            return MetricSpec("SUM", column=match.column), match.table
        match = self._column(parsed.metric_phrase, [base_table], "metric")
        if match is None:
            fallback = self._first_numeric(base_table)
            if fallback is None:
                return MetricSpec("COUNT"), base_table
            return MetricSpec(parsed.metric_agg, column=fallback), base_table
        table = base_table or match.table
        if match.table != table and base_table:
            join = self.lexicon.join_between(base_table, match.table)
            if join is None:
                # Cannot connect — trust the column and move the base.
                table = match.table
            else:
                self._pending_joins.append(join)
                table = base_table
        else:
            table = match.table if not base_table else base_table
        return MetricSpec(parsed.metric_agg, column=match.column), table

    def _first_numeric(self, table):
        for entry in self.lexicon.columns_of(table):
            if entry.data_type in ("INTEGER", "FLOAT") and not (
                entry.column.endswith("_ID") or entry.column.endswith("YEAR")
            ):
                return entry.column
        return None

    def _filters(self, base_table):
        filters = list(self._adjective_filters(base_table))
        preferred = [base_table] + [join.table for join in self._pending_joins]
        for column_phrase, value in self.parsed.eq_filters:
            match = self._column(column_phrase, preferred, "filter-column")
            if match is None:
                continue
            typed_value = _coerce_filter_value(value, match.data_type)
            filters.append(FilterSpec(match.column, "=", typed_value))
            self._maybe_join(base_table, match.table)
        for value in self.parsed.value_filters:
            filters.append(self._value_filter(base_table, preferred, value))
        for column_phrase, op, number in self.parsed.cmp_filters:
            if column_phrase == "__year__":
                date_column = self.lexicon.date_column(base_table)
                if date_column:
                    filters.append(
                        FilterSpec(
                            raw=(
                                f"TO_CHAR({date_column}, 'YYYY') >= "
                                f"'{number}'"
                            )
                        )
                    )
                else:
                    self.issues.append("unresolved-year-filter")
                continue
            match = self._column(column_phrase, preferred, "filter-column")
            if match is None:
                continue
            filters.append(FilterSpec(match.column, op, number))
            self._maybe_join(base_table, match.table)
        return [flt for flt in filters if flt is not None]

    def _value_filter(self, base_table, preferred, value):
        hits = self.lexicon.match_value(value)
        if hits:
            local = [hit for hit in hits if hit[0] in preferred]
            chosen = local[0] if local else hits[0]
            if not local:
                self._maybe_join(base_table, chosen[0])
            return FilterSpec(chosen[1], "=", chosen[2])
        hinted = self._value_hint(base_table, value)
        if hinted is not None:
            return hinted
        # Value unseen in any top-value profile: guess, LLM-style.
        self.issues.append(f"unseen-value:{value}")
        guess = self.lexicon.guess_value_column(base_table)
        if guess is None:
            return None
        return FilterSpec(guess, "=", value)

    def _maybe_join(self, base_table, other_table):
        if not base_table or other_table == base_table:
            return
        if any(join.table == other_table for join in self._pending_joins):
            return
        join = self.lexicon.join_between(base_table, other_table)
        if join is not None:
            self._pending_joins.append(join)
        else:
            self.issues.append(f"no-join-path:{base_table}->{other_table}")

    def _quarter_filters(self, base_table, extra_tables=()):
        parsed = self.parsed
        filters = []
        date_column = self.lexicon.date_column(base_table)
        if date_column is None:
            for table in extra_tables:
                date_column = self.lexicon.date_column(table)
                if date_column:
                    break
        if parsed.quarter:
            if date_column is None:
                self.issues.append("no-date-column-for-quarter")
            else:
                year, quarter = parsed.quarter
                filters.append(QuarterFilter(date_column, year, quarter))
        elif parsed.year is not None:
            if date_column is None:
                self.issues.append("no-date-column-for-year")
            else:
                filters.append(QuarterFilter(date_column, parsed.year))
        return filters

    def _group_column(self, base_table):
        match = self._column(
            self.parsed.group_phrase,
            [base_table] + [join.table for join in self._pending_joins],
            "group-column",
        )
        if match is None:
            return None
        self._maybe_join(base_table, match.table)
        return match.column

    def _having(self):
        if not self.parsed.having:
            return ()
        _agg, _phrase, op, number = self.parsed.having[0]
        return (HavingSpec(0, op, number),)

    # -- kind builders ----------------------------------------------------------

    def _build_aggregate(self):
        self._pending_joins = []
        metric, base = self._metric_and_base()
        filters = self._filters(base)
        quarter_filters = self._quarter_filters(base)
        group_by = ()
        projection = ()
        if self.parsed.kind == nlparse.KIND_GROUP_AGG and (
            self.parsed.group_phrase
        ):
            group = self._group_column(base)
            if group is not None:
                group_by = (group,)
                projection = (group,)
        return QuerySpec(
            database=self.input.database_name,
            base_table=base,
            shape=SHAPE_STANDARD,
            joins=tuple(self._pending_joins),
            projection=projection,
            metrics=(metric,),
            filters=tuple(filters),
            quarter_filters=tuple(quarter_filters),
            group_by=group_by,
            having=self._having() if group_by else (),
        )

    def _metric_and_base(self):
        self._pending_joins = getattr(self, "_pending_joins", [])
        base = getattr(self, "_forced_base", None)
        if base is None:
            base = self._choose_base_table()
        metric, base = self._metric(base)
        return metric, base

    def _choose_base_table(self):
        """Pick the base table: term tables, then a strong metric-column
        match (entity table as tiebreaker bonus), then the entity table."""
        parsed = self.parsed
        entity_table = None
        if parsed.entity_phrase:
            entities = self.lexicon.match_entity(parsed.entity_phrase)
            if entities:
                entity_table = entities[0][0]
                if len(entities) > 1 and (
                    entities[0][1] - entities[1][1] < 0.3
                ):
                    runner_up = entities[1][0]
                    self._record_choice(
                        f"entity->{runner_up}",
                        lambda session, table=runner_up: (
                            session._rebuild_with_base(table)
                        ),
                    )
            else:
                self.issues.append(
                    f"unresolved-entity:{parsed.entity_phrase}"
                )
        term = self._find_term(parsed.metric_phrase or "")
        if term is not None and term.tables:
            declared = term.tables[0].upper()
            if self.lexicon.has_table(declared):
                return declared
        if parsed.metric_phrase and parsed.metric_agg not in ("COUNT", "TERM"):
            preferred = [entity_table] if entity_table else []
            matches = self.lexicon.match_column(
                parsed.metric_phrase,
                preferred_tables=preferred,
                boosted_columns=self.input.example_columns,
            )
            if matches and matches[0].score >= 2.0:
                return matches[0].table
        if entity_table is not None:
            return entity_table
        return self._resolve_base_table()

    def _build_topk(self):
        self._pending_joins = []
        metric, base = self._metric_and_base()
        group = self._group_column(base) if self.parsed.group_phrase else None
        filters = self._filters(base)
        quarter_filters = self._quarter_filters(base)
        if group is None:
            self.issues.append("topk-without-group")
            group_by = ()
            projection = ()
        else:
            group_by = (group,)
            projection = (group,)
        order = OrderSpec(
            metric_index=0,
            descending=self.parsed.descending,
            limit=self.parsed.k or 5,
        )
        return QuerySpec(
            database=self.input.database_name,
            base_table=base,
            shape=SHAPE_STANDARD,
            joins=tuple(self._pending_joins),
            projection=projection,
            metrics=(metric,),
            filters=tuple(filters),
            quarter_filters=tuple(quarter_filters),
            group_by=group_by,
            having=self._having() if group_by else (),
            order=order,
        )

    def _build_both_ends(self):
        self._pending_joins = []
        term = self._find_term(self.parsed.metric_phrase or "")
        if term is not None and term.sql_pattern.startswith("RATIO_DELTA"):
            return self._build_ratio_delta_from_term(term)
        metric, base = self._metric_and_base()
        entity = self._entity_label(base)
        filters = self._filters(base)
        quarter_filters = self._quarter_filters(base)
        k = self.parsed.k or 5
        if PATTERN_TOPK_BOTH_ENDS not in self.input.patterns:
            self.issues.append("missing-pattern:topk_both_ends")
            return QuerySpec(
                database=self.input.database_name,
                base_table=base,
                shape=SHAPE_STANDARD,
                joins=tuple(self._pending_joins),
                projection=(entity,) if entity else (),
                metrics=(metric,),
                filters=tuple(filters),
                quarter_filters=tuple(quarter_filters),
                group_by=(entity,) if entity else (),
                order=OrderSpec(metric_index=0, descending=True, limit=k),
            )
        return QuerySpec(
            database=self.input.database_name,
            base_table=base,
            shape=SHAPE_TOPK_BOTH_ENDS,
            joins=tuple(self._pending_joins),
            metrics=(metric,),
            filters=tuple(filters),
            quarter_filters=tuple(quarter_filters),
            group_by=(entity,) if entity else (),
            order=OrderSpec(metric_index=0, limit=k, both_ends=True),
        )

    def _entity_label(self, base_table):
        label = self.lexicon.label_column(base_table)
        if label is None:
            self.issues.append(f"no-label-column:{base_table}")
        return label

    def _build_share(self):
        self._pending_joins = []
        metric, base = self._metric_and_base()
        group = self._group_column(base) if self.parsed.group_phrase else None
        filters = self._filters(base)
        quarter_filters = self._quarter_filters(base)
        if group is None:
            self.issues.append("share-without-group")
            group_by = ()
        else:
            group_by = (group,)
        if PATTERN_SHARE_OF_TOTAL not in self.input.patterns:
            self.issues.append("missing-pattern:share_of_total")
            return QuerySpec(
                database=self.input.database_name,
                base_table=base,
                shape=SHAPE_STANDARD,
                joins=tuple(self._pending_joins),
                projection=group_by,
                metrics=(metric,),
                filters=tuple(filters),
                quarter_filters=tuple(quarter_filters),
                group_by=group_by,
            )
        return QuerySpec(
            database=self.input.database_name,
            base_table=base,
            shape=SHAPE_SHARE_OF_TOTAL,
            joins=tuple(self._pending_joins),
            metrics=(metric,),
            filters=tuple(filters),
            quarter_filters=tuple(quarter_filters),
            group_by=group_by,
        )

    def _build_delta(self):
        self._pending_joins = []
        metric, base = self._metric_and_base()
        group = self._group_column(base) if self.parsed.group_phrase else None
        date_column = self.lexicon.date_column(base)
        parsed = self.parsed
        year, quarter = parsed.quarter if parsed.quarter else (None, None)
        can_pivot = (
            PATTERN_QUARTER_PIVOT in self.input.patterns
            and date_column is not None
            and group is not None
            and metric.agg in ("SUM", "COUNT")
            and metric.column
            and year is not None
        )
        if not can_pivot:
            if PATTERN_QUARTER_PIVOT not in self.input.patterns:
                self.issues.append("missing-pattern:quarter_pivot")
            filters = self._filters(base)
            quarter_filters = self._quarter_filters(base)
            return QuerySpec(
                database=self.input.database_name,
                base_table=base,
                shape=SHAPE_STANDARD,
                joins=tuple(self._pending_joins),
                projection=(group,) if group else (),
                metrics=(metric,),
                filters=tuple(filters),
                quarter_filters=tuple(quarter_filters),
                group_by=(group,) if group else (),
                order=OrderSpec(
                    metric_index=0, descending=True, limit=parsed.k or 5
                ),
            )
        extra_filters = tuple(
            flt for flt in self._filters(base) if flt is not None
        )
        ratio = RatioDeltaSpec(
            entity_column=group,
            numerator_table=base,
            numerator_date_column=date_column,
            numerator_value_column=metric.column,
            year=year,
            quarter=quarter,
            negate=parsed.delta_direction == "drop",
            k=parsed.k or 5,
            both_ends=False,
            numerator_filters=extra_filters,
        )
        return QuerySpec(
            database=self.input.database_name,
            base_table=base,
            shape=SHAPE_RATIO_DELTA_RANK,
            ratio_delta=ratio,
        )

    def _build_ratio_delta_from_term(self, instruction):
        parsed = self.parsed
        match = _RATIO_DSL.match(instruction.sql_pattern)
        if match is None:
            self.issues.append("bad-term-pattern")
            return self._build_aggregate()
        (num_table, num_date, num_value, den_table, den_date, den_value,
         entity, negate) = match.groups()
        num_table = num_table.upper()
        missing = not self.lexicon.has_table(num_table)
        if den_table:
            den_table = den_table.upper()
            missing = missing or not self.lexicon.has_table(den_table)
        if PATTERN_QUARTER_PIVOT not in self.input.patterns or missing:
            if missing:
                self.issues.append("term-tables-missing-from-context")
            else:
                self.issues.append("missing-pattern:quarter_pivot")
            return self._naive_ratio_fallback(num_table, entity)
        year, quarter = parsed.quarter if parsed.quarter else (2023, 2)
        if not parsed.quarter:
            self.issues.append("missing-quarter-defaulted")
        numerator_filters = self._ratio_side_filters(num_table)
        denominator_filters = (
            self._ratio_side_filters(den_table) if den_table else ()
        )
        ratio = RatioDeltaSpec(
            entity_column=entity.upper(),
            numerator_table=num_table,
            numerator_date_column=num_date.upper(),
            numerator_value_column=num_value.upper(),
            year=year,
            quarter=quarter,
            denominator_table=den_table or "",
            denominator_date_column=(den_date or "").upper(),
            denominator_value_column=(den_value or "").upper(),
            negate=negate == "true",
            k=parsed.k or 5,
            both_ends=parsed.both_ends,
            numerator_filters=tuple(numerator_filters),
            denominator_filters=tuple(denominator_filters),
        )
        return QuerySpec(
            database=self.input.database_name,
            base_table=num_table,
            shape=SHAPE_RATIO_DELTA_RANK,
            ratio_delta=ratio,
        )

    def _ratio_side_filters(self, table):
        """Ground value/adjective filters onto one pivot table.

        A filter applies to a pivot CTE iff its column exists on that
        table — the same distribution rule the workload's gold SQL uses.
        """
        side_filters = []
        for value in self.parsed.value_filters:
            hits = [
                hit for hit in self.lexicon.match_value(value)
                if hit[0] == table
            ]
            if hits:
                side_filters.append(FilterSpec(hits[0][1], "=", hits[0][2]))
        for adjective in self.parsed.adjectives:
            instruction = self._find_adjective_instruction(adjective)
            if instruction is None:
                if f"unresolved-adjective:{adjective}" not in self.issues:
                    self.issues.append(f"unresolved-adjective:{adjective}")
                continue
            column = instruction.sql_pattern.split(" ")[0].strip()
            if self.lexicon.has_column(table, column):
                side_filters.append(FilterSpec(raw=instruction.sql_pattern))
        return side_filters

    def _naive_ratio_fallback(self, num_table, entity):
        """Without pivot evidence: current-quarter ratio only, ranked DESC."""
        parsed = self.parsed
        base = num_table if self.lexicon.has_table(num_table) else (
            self.lexicon.tables()[0] if self.lexicon.tables() else ""
        )
        self._pending_joins = []
        filters = self._filters(base)
        quarter_filters = self._quarter_filters(base)
        metric_column = self._first_numeric(base)
        metric = (
            MetricSpec("SUM", column=metric_column)
            if metric_column else MetricSpec("COUNT")
        )
        group = entity.upper() if entity else self._entity_label(base)
        if group and not self.lexicon.has_column(base, group):
            group = self._entity_label(base)
        return QuerySpec(
            database=self.input.database_name,
            base_table=base,
            shape=SHAPE_STANDARD,
            projection=(group,) if group else (),
            metrics=(metric,),
            filters=tuple(filters),
            quarter_filters=tuple(quarter_filters),
            group_by=(group,) if group else (),
            order=OrderSpec(
                metric_index=0, descending=True, limit=parsed.k or 5
            ),
        )

    def _build_listing(self):
        self._pending_joins = []
        base = self._resolve_base_table()
        projection = []
        for phrase in self.parsed.projection_phrases:
            match = self._column(phrase, [base], "projection")
            if match is not None:
                projection.append(match.column)
                self._maybe_join(base, match.table)
        filters = self._filters(base)
        quarter_filters = self._quarter_filters(base)
        order = None
        if self.parsed.order_phrase:
            match = self._column(self.parsed.order_phrase, [base], "order")
            if match is not None:
                order = OrderSpec(
                    column=match.column,
                    descending=self.parsed.descending,
                    limit=self.parsed.k,
                )
        elif self.parsed.k:
            label = self._entity_label(base)
            order = OrderSpec(
                column=label or (projection[0] if projection else ""),
                descending=False,
                limit=self.parsed.k,
            )
        return QuerySpec(
            database=self.input.database_name,
            base_table=base,
            shape=SHAPE_STANDARD,
            joins=tuple(self._pending_joins),
            projection=tuple(projection),
            filters=tuple(filters),
            quarter_filters=tuple(quarter_filters),
            order=order,
        )


def _coerce_filter_value(text, data_type):
    text = text.strip()
    if data_type in ("INTEGER", "FLOAT"):
        try:
            number = float(text)
            if data_type == "INTEGER" and number.is_integer():
                return int(number)
            return number
        except ValueError:
            return text
    return text
