"""Benchmark workloads: training logs, the BIRD-like dev sample, and the
enterprise workload.

Questions are generated from :class:`~repro.pipeline.spec.QuerySpec`
instances: the gold SQL is rendered by the shared builders and the natural
language by the templates below (the closed grammar
:mod:`repro.pipeline.nlparse` understands). Difficulty buckets match the
paper's 10% BIRD-dev sample — 93 simple / 28 moderate / 11 challenging —
so the reported percentages sit on the same grid as Tables 1 and 2.

Questions optionally embed *traps* that model BIRD's imprecision:

* ``trap:vague`` — the metric is referenced by a surface absent from the
  catalog (no schema element carries it);
* ``trap:rare-value`` — a filter value outside every top-5 value profile;
* ``trap:ambiguous`` — a surface matching columns in several tables with
  no disambiguating entity.

Knowledge coverage is deliberately uneven across databases (see
``_PATTERN_COVERAGE``): training logs only evidence certain idioms per
domain, so some challenging questions fail even with the full pipeline —
the paper's GenEdit scores 36% on challenging, not 100%.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

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
    SHAPE_TOPK_BOTH_ENDS,
)

SIMPLE = "simple"
MODERATE = "moderate"
CHALLENGING = "challenging"

#: Bucket sizes of the paper's 10% BIRD-dev sample.
BUCKET_SIZES = {SIMPLE: 93, MODERATE: 28, CHALLENGING: 11}

#: A TEXT column with 2..MAX_CATEGORIES distinct values is categorical.
MAX_CATEGORIES = 12


@dataclass(frozen=True)
class BenchmarkQuestion:
    """One benchmark question with its gold SQL and generation metadata."""

    question_id: str
    database: str
    difficulty: str
    question: str
    gold_sql: str
    spec: QuerySpec
    features: tuple = ()
    intent_name: str = ""


@dataclass
class Workload:
    """A set of benchmark questions plus the per-database training data."""

    questions: list = field(default_factory=list)
    training_logs: dict = field(default_factory=dict)   # db -> [LoggedQuery]
    documents: dict = field(default_factory=dict)       # db -> [DomainDocument]

    def by_difficulty(self, difficulty):
        return [
            question for question in self.questions
            if question.difficulty == difficulty
        ]

    def for_database(self, database):
        return [
            question for question in self.questions
            if question.database == database
        ]


# ---------------------------------------------------------------------------
# schema introspection helpers
# ---------------------------------------------------------------------------


class SchemaInfo:
    """Workload-facing view of one database profile."""

    def __init__(self, profile):
        self.profile = profile
        self.database = profile.database
        self.name = profile.name

    def entity_surface(self, table):
        description = self.database.table(table).description
        marker = "Each row is a "
        if marker in description:
            rest = description.split(marker, 1)[1]
            for article in ("a ", "an "):
                if rest.startswith(article):
                    rest = rest[len(article):]
            return rest.split(".")[0].strip()
        return table.lower().replace("_", " ")

    def metric_columns(self, table):
        """Numeric measure columns with their primary surface."""
        entries = []
        for column in self.database.table(table).columns:
            if column.type not in ("INTEGER", "FLOAT"):
                continue
            if column.name.endswith("_ID") or column.name.endswith("YEAR"):
                continue
            entries.append((column.name, _surface_of(column)))
        return entries

    def categorical_columns(self, table):
        table_obj = self.database.table(table)
        entries = []
        for column in table_obj.columns:
            if column.type != "TEXT":
                continue
            if column.name == self.label_column(table):
                continue
            position = table_obj.column_position(column.name)
            distinct = {
                row[position] for row in table_obj.rows
                if row[position] is not None
            }
            if 2 <= len(distinct) <= MAX_CATEGORIES:
                entries.append(
                    (column.name, _surface_of(column), sorted(distinct))
                )
        return entries

    def top_values(self, table, column, k=5):
        return self.database.table(table).top_values(column, k)

    def rare_values(self, table, column, k=5):
        """Values present in the data but outside the top-k profile."""
        top = set(self.top_values(table, column, k))
        table_obj = self.database.table(table)
        position = table_obj.column_position(column)
        rare = sorted(
            {
                row[position] for row in table_obj.rows
                if row[position] is not None and row[position] not in top
            },
            key=str,
        )
        return rare

    def label_column(self, table):
        return self.profile.label_columns.get(table)

    def date_column(self, table):
        return self.profile.date_columns.get(table)

    def intent_name(self, table):
        return self.profile.intent_names.get(table, "general")


def _surface_of(column):
    import re

    also = re.search(r"Also called: ([^.]*)\.", column.description or "")
    if also:
        first = also.group(1).split(",")[0].strip()
        if first:
            return first
    return column.name.lower().replace("_", " ")


def pluralize(surface):
    words = surface.split()
    last = words[-1]
    if last.endswith("y") and not last.endswith(("ay", "ey", "oy")):
        last = last[:-1] + "ies"
    elif not last.endswith("s"):
        last = last + "s"
    words[-1] = last
    return " ".join(words)


# ---------------------------------------------------------------------------
# natural-language rendering
# ---------------------------------------------------------------------------

_AGG_SURFACE = {"SUM": "total", "AVG": "average", "MAX": "highest",
                "MIN": "lowest"}

_OP_SURFACE = {">": "above", "<": "below", ">=": "at least", "<=": "at most"}


def _filter_phrases(eq_with_column=(), bare_values=(), comparisons=(),
                    quarter=None, year=None):
    phrases = []
    for column_surface, value in eq_with_column:
        phrases.append(f"where the {column_surface} is {value}")
    for value in bare_values:
        phrases.append(f"in {value}")
    for column_surface, op, number in comparisons:
        phrases.append(f"with {column_surface} {_OP_SURFACE[op]} {number}")
    if year is not None:
        phrases.append(f"in {year}")
    if quarter is not None:
        phrases.append(f"for Q{quarter[1]} {quarter[0]}")
    return (" " + " ".join(phrases)) if phrases else ""


def _opening(rng, count=False):
    if count:
        return "How many"
    return rng.choice(["What is", "Show me", "Give me"])


# ---------------------------------------------------------------------------
# question factories
# ---------------------------------------------------------------------------


class _Factory:
    """Shared context for building one database's questions."""

    def __init__(self, info: SchemaInfo, rng: random.Random):
        self.info = info
        self.rng = rng

    # -- simple ----------------------------------------------------------

    def count_question(self, table, use_filter=True, rare_value=False):
        info, rng = self.info, self.rng
        entity = pluralize(info.entity_surface(table))
        filters = []
        features = ["kind:count"]
        bare_values = []
        eq_filters = []
        if use_filter:
            choices = info.categorical_columns(table)
            if choices:
                column, surface, _values = rng.choice(choices)
                if rare_value:
                    pool = info.rare_values(table, column)
                    features.append("trap:rare-value")
                else:
                    pool = info.top_values(table, column)
                if pool:
                    value = rng.choice(pool)
                    filters.append(FilterSpec(column, "=", value))
                    if str(value)[:1].isupper():
                        bare_values.append(value)
                    else:
                        eq_filters.append((surface, value))
        spec = QuerySpec(
            database=info.name,
            base_table=table,
            metrics=(MetricSpec("COUNT"),),
            filters=tuple(filters),
        )
        question = (
            f"How many {entity} are there"
            + _filter_phrases(eq_filters, bare_values)
            + "?"
        )
        question = question.replace("are there where", "are there where")
        if bare_values and not eq_filters:
            question = (
                f"How many {entity} are"
                + _filter_phrases((), bare_values) + "?"
            )
        return spec, question, features, info.intent_name(table)

    def agg_question(self, table, vague=False, year_filter=False,
                     quarter_filter=False, value_filter=False):
        info, rng = self.info, self.rng
        metrics = info.metric_columns(table)
        if not metrics:
            return None
        if vague:
            mapped = [
                (column, surface) for column, surface in metrics
                if (info.name, column) in _VAGUE_SURFACES
            ]
            if not mapped:
                return None
            metrics = mapped
        column, surface = rng.choice(metrics)
        agg = rng.choice(["SUM", "AVG", "MAX", "MIN"])
        features = [f"kind:agg:{agg}"]
        if vague:
            surface = _VAGUE_SURFACES[(info.name, column)]
            features.append("trap:vague")
        filters = []
        bare_values = []
        quarter = None
        year = None
        quarter_filters = ()
        if value_filter:
            choices = [
                entry for entry in info.categorical_columns(table)
                if any(str(v)[:1].isupper() for v in entry[2])
            ]
            if choices:
                fcolumn, _fsurface, _values = rng.choice(choices)
                pool = [
                    value for value in info.top_values(table, fcolumn)
                    if str(value)[:1].isupper()
                ]
                if pool:
                    value = rng.choice(pool)
                    filters.append(FilterSpec(fcolumn, "=", value))
                    bare_values.append(value)
        date_column = info.date_column(table)
        if quarter_filter and date_column:
            year_value = rng.choice([2022, 2023])
            quarter_value = rng.randint(1, 4)
            quarter = (year_value, quarter_value)
            quarter_filters = (
                QuarterFilter(date_column, year_value, quarter_value),
            )
            features.append("quarter")
        elif year_filter and date_column:
            year = rng.choice([2022, 2023])
            quarter_filters = (QuarterFilter(date_column, year),)
            features.append("year")
        spec = QuerySpec(
            database=info.name,
            base_table=table,
            metrics=(MetricSpec(agg, column=column),),
            filters=tuple(filters),
            quarter_filters=quarter_filters,
        )
        question = (
            f"{_opening(rng)} the {_AGG_SURFACE[agg]} {surface}"
            + _filter_phrases((), bare_values, quarter=quarter, year=year)
            + "?"
        )
        return spec, question, features, info.intent_name(table)

    def listing_question(self, table, rare_value=False):
        info, rng = self.info, self.rng
        label = info.label_column(table)
        metrics = info.metric_columns(table)
        if label is None or not metrics:
            return None
        column, surface = rng.choice(metrics)
        label_surface = label.lower().replace("_", " ")
        entity = pluralize(info.entity_surface(table))
        filters = []
        bare_values = []
        features = ["kind:listing"]
        choices = [
            entry for entry in info.categorical_columns(table)
            if any(str(v)[:1].isupper() for v in entry[2])
        ]
        if choices:
            fcolumn, _fsurface, _values = rng.choice(choices)
            if rare_value:
                pool = [
                    value for value in info.rare_values(table, fcolumn)
                    if str(value)[:1].isupper()
                ]
                features.append("trap:rare-value")
            else:
                pool = [
                    value for value in info.top_values(table, fcolumn)
                    if str(value)[:1].isupper()
                ]
            if pool:
                value = rng.choice(pool)
                filters.append(FilterSpec(fcolumn, "=", value))
                bare_values.append(value)
        spec = QuerySpec(
            database=info.name,
            base_table=table,
            projection=(label, column),
            filters=tuple(filters),
            order=OrderSpec(column=column, descending=True),
        )
        question = (
            f"Show me the {label_surface} and {surface} of the {entity}"
            + _filter_phrases((), bare_values)
            + f", ordered by {surface} from highest to lowest"
        )
        return spec, question, features, info.intent_name(table)

    def guideline_question(self, table):
        """Count with a guideline adjective ('our', 'online', ...)."""
        info, rng = self.info, self.rng
        usable = [
            entry for entry in info.profile.guidelines
            if table in entry.tables and "'" in entry.text
        ]
        if not usable:
            return None
        guideline = rng.choice(usable)
        adjective = guideline.text.split("'")[1]
        entity = pluralize(info.entity_surface(table))
        spec = QuerySpec(
            database=info.name,
            base_table=table,
            metrics=(MetricSpec("COUNT"),),
            filters=(FilterSpec(raw=guideline.sql_pattern),),
        )
        question = f"How many {adjective} {entity} are there?"
        return (
            spec, question,
            ["kind:count", f"needs:guideline:{adjective}"],
            info.intent_name(table),
        )

    def ambiguous_question(self, database_pair):
        """Aggregate over a surface shared by two tables, no entity hint."""
        info, rng = self.info, self.rng
        (table_a, column_a), (table_b, _column_b), surface, intended = (
            database_pair
        )
        intended_table, intended_column = intended
        agg = rng.choice(["SUM", "AVG"])
        spec = QuerySpec(
            database=info.name,
            base_table=intended_table,
            metrics=(MetricSpec(agg, column=intended_column),),
        )
        question = f"{_opening(rng)} the {_AGG_SURFACE[agg]} {surface}?"
        return (
            spec, question,
            [f"kind:agg:{agg}", "trap:ambiguous"],
            info.intent_name(intended_table),
        )

    def unknown_adjective_question(self, variant=0):
        """Adjective with a precise meaning no guideline documents."""
        info = self.info
        entries = _UNKNOWN_ADJECTIVES.get(info.name, ())
        if variant >= len(entries):
            return None
        adjective, table, predicate = entries[variant]
        entity = pluralize(info.entity_surface(table))
        spec = QuerySpec(
            database=info.name,
            base_table=table,
            metrics=(MetricSpec("COUNT"),),
            filters=(FilterSpec(raw=predicate),),
        )
        question = f"How many {adjective} {entity} are there?"
        return (
            spec, question,
            ["kind:count", "trap:unknown-adjective"],
            info.intent_name(table),
        )

    def rare_value_question(self):
        """Count filtered by a location value outside every top-5 profile."""
        info, rng = self.info, self.rng
        entry = _RARE_VALUE_COLUMNS.get(info.name)
        if entry is None:
            return None
        table, column = entry
        rare = [
            value for value in info.rare_values(table, column)
            if str(value)[:1].isupper()
        ]
        if not rare:
            return None
        value = rng.choice(rare)
        entity = pluralize(info.entity_surface(table))
        spec = QuerySpec(
            database=info.name,
            base_table=table,
            metrics=(MetricSpec("COUNT"),),
            filters=(FilterSpec(column, "=", value),),
        )
        question = f"How many {entity} are in {value}?"
        return (
            spec, question,
            ["kind:count", "trap:rare-value"],
            info.intent_name(table),
        )

    # -- moderate ----------------------------------------------------------

    def group_question(self, table, having=False, vague_group=False):
        info, rng = self.info, self.rng
        metrics = info.metric_columns(table)
        categories = info.categorical_columns(table)
        if not metrics or not categories:
            return None
        column, surface = rng.choice(metrics)
        group_column, group_surface, _values = rng.choice(categories)
        features_extra = []
        if vague_group:
            for (db_name, vague_column), vague in _VAGUE_GROUP_SURFACES.items():
                if db_name == info.name and any(
                    vague_column == entry[0] for entry in categories
                ):
                    group_column = vague_column
                    group_surface = vague
                    features_extra.append("trap:vague-group")
                    break
            else:
                return None
        agg = rng.choice(["SUM", "AVG"])
        having_specs = ()
        having_phrase = ""
        features = ["kind:group"] + features_extra
        if having:
            threshold = rng.choice([10, 100, 1000])
            having_specs = (HavingSpec(0, ">", threshold),)
            having_phrase = (
                f", only groups with {_AGG_SURFACE[agg]} {surface} "
                f"above {threshold}"
            )
            features.append("having")
        spec = QuerySpec(
            database=info.name,
            base_table=table,
            projection=(group_column,),
            metrics=(MetricSpec(agg, column=column),),
            group_by=(group_column,),
            having=having_specs,
        )
        question = (
            f"Show me the {_AGG_SURFACE[agg]} {surface} per "
            f"{group_surface}{having_phrase}"
        )
        return spec, question, features, info.intent_name(table)

    def topk_question(self, table, quarter_filter=False, vague=False):
        info, rng = self.info, self.rng
        metrics = info.metric_columns(table)
        categories = info.categorical_columns(table)
        if not metrics or not categories:
            return None
        if vague:
            metrics = [
                (column, surface) for column, surface in metrics
                if (info.name, column) in _VAGUE_SURFACES
            ]
            if not metrics:
                return None
        column, surface = rng.choice(metrics)
        if vague:
            surface = _VAGUE_SURFACES[(info.name, column)]
        group_column, group_surface, _values = rng.choice(categories)
        k = rng.choice([3, 5])
        quarter = None
        quarter_filters = ()
        features = ["kind:topk"] + (["trap:vague"] if vague else [])
        date_column = info.date_column(table)
        if quarter_filter and date_column:
            year_value = rng.choice([2022, 2023])
            quarter_value = rng.randint(1, 4)
            quarter = (year_value, quarter_value)
            quarter_filters = (
                QuarterFilter(date_column, year_value, quarter_value),
            )
            features.append("quarter")
        spec = QuerySpec(
            database=info.name,
            base_table=table,
            projection=(group_column,),
            metrics=(MetricSpec("SUM", column=column),),
            quarter_filters=quarter_filters,
            group_by=(group_column,),
            order=OrderSpec(metric_index=0, descending=True, limit=k),
        )
        question = (
            f"Show me the top {k} {pluralize(group_surface)} by total "
            f"{surface}"
            + _filter_phrases(quarter=quarter)
        )
        return spec, question, features, info.intent_name(table)

    def term_question(self, table, quarter_filter=False, value_filter=False,
                      synonym=False):
        info, rng = self.info, self.rng
        usable = [
            entry for entry in info.profile.glossary
            if table in entry.tables
            and not entry.sql_pattern.startswith("RATIO_DELTA")
        ]
        if not usable:
            return None
        term = rng.choice(usable)
        term_surface = term.term
        if synonym:
            replacement = _TERM_SYNONYMS.get((info.name, term.term))
            if replacement is None:
                matching = [
                    entry for entry in usable
                    if (info.name, entry.term) in _TERM_SYNONYMS
                ]
                if not matching:
                    return None
                term = matching[0]
                replacement = _TERM_SYNONYMS[(info.name, term.term)]
            term_surface = replacement
        filters = []
        bare_values = []
        quarter = None
        quarter_filters = ()
        features = [f"needs:term:{term.term}"]
        if synonym:
            features.append("trap:term-synonym")
        if value_filter:
            choices = [
                entry for entry in info.categorical_columns(table)
                if any(str(v)[:1].isupper() for v in entry[2])
            ]
            if choices:
                fcolumn, _fsurface, _values = rng.choice(choices)
                pool = [
                    value for value in info.top_values(table, fcolumn)
                    if str(value)[:1].isupper()
                ]
                if pool:
                    value = rng.choice(pool)
                    filters.append(FilterSpec(fcolumn, "=", value))
                    bare_values.append(value)
        date_column = info.date_column(table)
        if quarter_filter and date_column:
            year_value = rng.choice([2022, 2023])
            quarter_value = rng.randint(1, 4)
            quarter = (year_value, quarter_value)
            quarter_filters = (
                QuarterFilter(date_column, year_value, quarter_value),
            )
        spec = QuerySpec(
            database=info.name,
            base_table=table,
            metrics=(MetricSpec("EXPR", expression=term.sql_pattern),),
            filters=tuple(filters),
            quarter_filters=quarter_filters,
        )
        question = (
            f"{_opening(rng)} the {term_surface}"
            + _filter_phrases((), bare_values, quarter=quarter)
            + "?"
        )
        return spec, question, features, info.intent_name(table)

    def join_question(self, base_table, join, group_column, group_surface,
                      vague=False):
        """Metric on ``base_table`` grouped by a joined table's category."""
        info, rng = self.info, self.rng
        metrics = info.metric_columns(base_table)
        if vague:
            metrics = [
                (column, surface) for column, surface in metrics
                if (info.name, column) in _VAGUE_SURFACES
            ]
        if not metrics:
            return None
        column, surface = rng.choice(metrics)
        if vague:
            surface = _VAGUE_SURFACES[(info.name, column)]
        agg = rng.choice(["SUM", "AVG"])
        spec = QuerySpec(
            database=info.name,
            base_table=base_table,
            joins=(join,),
            projection=(group_column,),
            metrics=(MetricSpec(agg, column=column),),
            group_by=(group_column,),
        )
        question = (
            f"Show me the {_AGG_SURFACE[agg]} {surface} per {group_surface}"
        )
        return (
            spec, question,
            ["kind:join-group", "cross-intent"]
            + (["trap:vague"] if vague else []),
            info.intent_name(base_table),
        )

    # -- challenging ----------------------------------------------------------

    def both_ends_question(self, table, quarter_filter=False, vague=False):
        info, rng = self.info, self.rng
        label = info.label_column(table)
        metrics = info.metric_columns(table)
        if label is None or not metrics:
            return None
        extra_features = []
        if vague:
            metrics = [
                (column, surface) for column, surface in metrics
                if (info.name, column) in _VAGUE_SURFACES
            ]
            if not metrics:
                return None
            extra_features.append("trap:vague")
        column, surface = rng.choice(metrics)
        if vague:
            surface = _VAGUE_SURFACES[(info.name, column)]
        k = rng.choice([3, 5])
        quarter = None
        quarter_filters = ()
        date_column = info.date_column(table)
        if quarter_filter and date_column:
            year_value = rng.choice([2022, 2023])
            quarter_value = rng.randint(1, 4)
            quarter = (year_value, quarter_value)
            quarter_filters = (
                QuarterFilter(date_column, year_value, quarter_value),
            )
        entity = pluralize(info.entity_surface(table))
        spec = QuerySpec(
            database=info.name,
            base_table=table,
            shape=SHAPE_TOPK_BOTH_ENDS,
            metrics=(MetricSpec("SUM", column=column),),
            quarter_filters=quarter_filters,
            group_by=(label,),
            order=OrderSpec(metric_index=0, limit=k, both_ends=True),
        )
        question = (
            f"Show me the {k} {entity} with the best and worst total "
            f"{surface}"
            + _filter_phrases(quarter=quarter)
        )
        return (
            spec, question,
            ["kind:both-ends", "needs:pattern:topk_both_ends"]
            + extra_features,
            info.intent_name(table),
        )

    def share_question(self, table):
        info, rng = self.info, self.rng
        metrics = info.metric_columns(table)
        categories = info.categorical_columns(table)
        if not metrics or not categories:
            return None
        column, surface = rng.choice(metrics)
        group_column, group_surface, _values = rng.choice(categories)
        spec = QuerySpec(
            database=info.name,
            base_table=table,
            shape=SHAPE_SHARE_OF_TOTAL,
            metrics=(MetricSpec("SUM", column=column),),
            group_by=(group_column,),
        )
        question = (
            f"Show me the share of total {surface} per {group_surface}"
        )
        return (
            spec, question,
            ["kind:share", "needs:pattern:share_of_total"],
            info.intent_name(table),
        )

    def delta_question(self, table, direction="increase"):
        info, rng = self.info, self.rng
        metrics = info.metric_columns(table)
        categories = info.categorical_columns(table)
        date_column = info.date_column(table)
        label = info.label_column(table)
        if not metrics or date_column is None:
            return None
        column, surface = rng.choice(metrics)
        if categories:
            group_column, group_surface, _values = rng.choice(categories)
        elif label:
            group_column = label
            group_surface = label.lower().replace("_", " ")
        else:
            return None
        k = rng.choice([3, 5])
        year_value = 2023
        quarter_value = rng.choice([2, 3])
        ratio = RatioDeltaSpec(
            entity_column=group_column,
            numerator_table=table,
            numerator_date_column=date_column,
            numerator_value_column=column,
            year=year_value,
            quarter=quarter_value,
            negate=direction == "drop",
            k=k,
            both_ends=False,
        )
        spec = QuerySpec(
            database=info.name,
            base_table=table,
            shape=SHAPE_RATIO_DELTA_RANK,
            ratio_delta=ratio,
        )
        question = (
            f"Show me the {k} {pluralize(group_surface)} with the largest "
            f"{direction} in total {surface} versus the previous quarter "
            f"for Q{quarter_value} {year_value}"
        )
        return (
            spec, question,
            ["kind:delta", "needs:pattern:quarter_pivot"],
            info.intent_name(table),
        )

    def ratio_term_question(self, bare_value=None, use_our=True):
        """The paper's flagship Q_fin-perf shape (sports holdings only)."""
        info, rng = self.info, self.rng
        entry = next(
            (
                item for item in info.profile.glossary
                if item.sql_pattern.startswith("RATIO_DELTA")
            ),
            None,
        )
        if entry is None:
            return None
        import re as _re

        match = _re.match(
            r"RATIO_DELTA numerator=(\w+)\.(\w+)\.(\w+) "
            r"(?:denominator=(\w+)\.(\w+)\.(\w+) )?entity=(\w+)"
            r"(?: negate=(true|false))?",
            entry.sql_pattern,
        )
        (num_table, num_date, num_value, den_table, den_date, den_value,
         entity_column, negate) = match.groups()
        k = rng.choice([3, 5])
        year_value = 2023
        quarter_value = rng.choice([2, 3])
        numerator_filters = []
        denominator_filters = []
        bare_values = []
        if bare_value:
            bare_values.append(bare_value)
            for table, bucket in (
                (num_table, numerator_filters),
                (den_table, denominator_filters),
            ):
                if table and info.database.table(table).has_column("COUNTRY"):
                    bucket.append(FilterSpec("COUNTRY", "=", bare_value))
        adjective = ""
        if use_our:
            guideline = next(
                (
                    item for item in info.profile.guidelines
                    if "'our'" in item.text
                ),
                None,
            )
            if guideline is not None:
                adjective = "our "
                for table, bucket in (
                    (num_table, numerator_filters),
                    (den_table, denominator_filters),
                ):
                    column = guideline.sql_pattern.split(" ")[0]
                    if table and info.database.table(table).has_column(column):
                        bucket.append(FilterSpec(raw=guideline.sql_pattern))
        ratio = RatioDeltaSpec(
            entity_column=entity_column,
            numerator_table=num_table,
            numerator_date_column=num_date,
            numerator_value_column=num_value,
            year=year_value,
            quarter=quarter_value,
            denominator_table=den_table or "",
            denominator_date_column=den_date or "",
            denominator_value_column=den_value or "",
            negate=negate == "true",
            k=k,
            both_ends=True,
            numerator_filters=tuple(numerator_filters),
            denominator_filters=tuple(denominator_filters),
        )
        spec = QuerySpec(
            database=info.name,
            base_table=num_table,
            shape=SHAPE_RATIO_DELTA_RANK,
            ratio_delta=ratio,
        )
        entity_plural = pluralize(info.entity_surface("SPORTS_ORGS"))
        question = (
            f"Identify {adjective}{k} {entity_plural} with the best and "
            f"worst {entry.term}"
            + _filter_phrases(
                (), bare_values,
                quarter=(year_value, quarter_value),
            )
        )
        return (
            spec, question,
            [f"needs:term:{entry.term}", "needs:pattern:quarter_pivot",
             "kind:ratio-delta"],
            "financial performance",
        )


#: Vague metric surfaces used by ``trap:vague`` questions — none of these
#: appear in any catalog synonym list.
_VAGUE_SURFACES = {
    # Mapped columns are never the table's first numeric column, so the
    # grounder's naive fallback cannot accidentally land on the right one,
    # and no vague surface shares a token with its column's catalog entry.
    ("sports_holdings", "EXPENSES"): "outlay",
    ("sports_holdings", "VIEWS"): "crowd pull",
    ("retail_chain", "DISCOUNT"): "markdowns",
    ("healthcare_network", "DURATION_MINUTES"): "bedside time",
    ("global_logistics", "FREIGHT_COST"): "haulage bill",
    ("global_logistics", "CUSTOMS_DELAY_DAYS"): "border wait",
    ("energy_grid", "MAINTENANCE_COST"): "upkeep",
    ("energy_grid", "EMISSIONS_TONS"): "smokestack footprint",
}

#: Vague group surfaces for ``trap:vague-group`` questions.
_VAGUE_GROUP_SURFACES = {
    ("retail_chain", "CHANNEL"): "sales avenue",
    ("sports_holdings", "COUNTRY"): "territory",
    ("global_logistics", "PRIORITY"): "urgency tier",
    ("healthcare_network", "DEPARTMENT"): "ward",
}

#: Colloquial synonyms of glossary terms that no instruction defines —
#: the question means the term, the knowledge set cannot say so.
_TERM_SYNONYMS = {
    ("retail_chain", "AOV"): "typical basket size",
    ("sports_holdings", "operating margin"): "profitability",
    ("energy_grid", "emission intensity"): "carbon intensity",
    ("university", "pass rate"): "success ratio",
}

#: Adjectives with a precise company meaning that no guideline documents:
#: (adjective, the gold predicate). Grounding must drop them.
_UNKNOWN_ADJECTIVES = {
    "sports_holdings": (
        ("flagship", "SPORTS_ORGS", "ARENA_CAPACITY > 40000"),
        ("storied", "SPORTS_ORGS", "FOUNDED_YEAR < 1970"),
    ),
    "retail_chain": (
        ("premium", "ORDERS", "AMOUNT > 800"),
        ("discounted", "ORDERS", "DISCOUNT > 50"),
    ),
    "healthcare_network": (
        ("senior", "PATIENTS", "BIRTH_YEAR < 1958"),
        ("uninsured", "PATIENTS", "INSURANCE = 'None'"),
    ),
    "university": (
        ("veteran", "STUDENTS", "ENROLL_YEAR <= 2019"),
        ("advanced", "COURSES", "LEVEL >= 300"),
    ),
    "global_logistics": (
        ("overnight", "SHIPMENTS", "DISTANCE_KM < 800"),
        ("heavy", "SHIPMENTS", "WEIGHT_KG > 10000"),
    ),
    "energy_grid": (
        ("legacy", "PLANTS", "COMMISSION_YEAR < 1990"),
        ("compact", "PLANTS", "LAND_HECTARES < 30"),
    ),
}

#: High-cardinality location columns for rare-value traps.
_RARE_VALUE_COLUMNS = {
    "sports_holdings": ("SPORTS_ORGS", "CITY"),
    "retail_chain": ("STORES", "CITY"),
    "healthcare_network": ("PATIENTS", "CITY"),
    "university": ("STUDENTS", "HOME_STATE"),
    "global_logistics": ("HUBS", "COUNTRY"),
    "energy_grid": ("PLANTS", "REGION"),
}
