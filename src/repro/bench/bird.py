"""The BIRD-dev substitute: 132 questions in the paper's difficulty buckets.

``build_workload`` produces the dev sample (93 simple / 28 moderate /
11 challenging), the per-database training logs that pre-processing mines
into knowledge sets, and the domain documents. ``build_knowledge_sets``
runs the actual GenEdit pre-processing over those inputs.

Knowledge coverage is deliberately uneven (``PATTERN_COVERAGE``): each
database's training log only demonstrates certain SQL idioms, so a
challenging question on a domain whose log never used the idiom fails even
for the full pipeline — matching the paper's far-from-perfect challenging
bucket.
"""

from __future__ import annotations

import random

from ..knowledge.mining import DomainDocument, LoggedQuery, mine_knowledge_set
from ..pipeline.builders import build_sql
from .schemas import DEFAULT_SEED, build_all
from .workloads import (
    BenchmarkQuestion,
    CHALLENGING,
    MODERATE,
    SIMPLE,
    SchemaInfo,
    Workload,
    _Factory,
)

#: Which idiom-bearing queries each database's training log contains.
PATTERN_COVERAGE = {
    "sports_holdings": ("ratio", "both_ends", "topk"),
    "retail_chain": ("share", "topk"),
    "energy_grid": ("delta", "topk"),
    "global_logistics": ("topk",),
    "university": ("topk",),
    "healthcare_network": ("topk",),
}

#: Tables used as the "primary" fact table per database.
PRIMARY_TABLES = {
    "sports_holdings": "SPORTS_FINANCIALS",
    "retail_chain": "ORDERS",
    "healthcare_network": "VISITS",
    "university": "ENROLLMENTS",
    "global_logistics": "SHIPMENTS",
    "energy_grid": "READINGS",
}

#: Entity tables (for counting/listing questions).
ENTITY_TABLES = {
    "sports_holdings": ("SPORTS_ORGS", "SPONSORSHIPS"),
    "retail_chain": ("STORES", "PRODUCTS", "ORDERS"),
    "healthcare_network": ("PATIENTS", "VISITS"),
    "university": ("STUDENTS", "COURSES"),
    "global_logistics": ("CARRIERS", "HUBS", "SHIPMENTS"),
    "energy_grid": ("PLANTS",),
}

#: One genuinely ambiguous surface per database that has one: intended
#: target second in catalog order, so order-based grounding gets it wrong.
AMBIGUOUS_PAIRS = {
    "retail_chain": (
        ("ORDER_ITEMS", "UNIT_PRICE"),
        ("PRODUCTS", "UNIT_PRICE"),
        "unit price",
        ("PRODUCTS", "UNIT_PRICE"),
    ),
}

#: Cross-intent join questions: (database, base, join-table via FK,
#: group column on the joined table, its surface).
JOIN_MENU = {
    "retail_chain": [("ORDERS", "STORES", "REGION", "region")],
    "global_logistics": [
        ("SHIPMENTS", "CARRIERS", "CARRIER_NAME", "carrier"),
    ],
    "energy_grid": [
        ("READINGS", "PLANTS", "FUEL_TYPE", "fuel type"),
        ("READINGS", "PLANTS", "REGION", "region"),
    ],
    "healthcare_network": [
        ("VISITS", "PATIENTS", "INSURANCE", "insurance"),
    ],
    "university": [
        ("ENROLLMENTS", "STUDENTS", "MAJOR", "major"),
        ("ENROLLMENTS", "COURSES", "DEPARTMENT", "department"),
    ],
    "sports_holdings": [
        ("SPORTS_FINANCIALS", "SPORTS_ORGS", "LEAGUE", "league"),
    ],
}


def build_workload(seed=DEFAULT_SEED):
    """Build the full dev workload + training inputs."""
    profiles = build_all(seed)
    rng = random.Random(seed * 977 + 5)
    workload = Workload()
    for name, profile in profiles.items():
        workload.documents[name] = [
            DomainDocument(
                doc_id=f"{name}-handbook",
                title=f"{name} domain handbook",
                glossary=list(profile.glossary),
                guidelines=list(profile.guidelines),
            )
        ]
        workload.training_logs[name] = _training_log(
            profile, random.Random(seed * 31 + _stable_hash(name))
        )
    _add_simple_questions(workload, profiles, rng)
    _add_moderate_questions(workload, profiles, rng)
    _add_challenging_questions(workload, profiles, rng)
    return workload


def _stable_hash(text):
    """Process-independent small hash (str.__hash__ is randomised)."""
    value = 0
    for char in text:
        value = (value * 31 + ord(char)) % 100_003
    return value


def build_knowledge_sets(workload, seed=DEFAULT_SEED, decompose=True):
    """Run pre-processing: mine one knowledge set per database."""
    profiles = build_all(seed)
    knowledge_sets = {}
    for name, profile in profiles.items():
        knowledge_sets[name] = mine_knowledge_set(
            profile.database,
            workload.training_logs[name],
            workload.documents[name],
            decompose_examples=decompose,
        )
    return knowledge_sets


# ---------------------------------------------------------------------------
# training logs
# ---------------------------------------------------------------------------


def _training_log(profile, rng):
    """~20 logged queries per database, honouring the coverage map."""
    info = SchemaInfo(profile)
    factory = _Factory(info, rng)
    coverage = PATTERN_COVERAGE.get(profile.name, ())
    primary = PRIMARY_TABLES[profile.name]
    entries = []

    def log(result):
        if result is None:
            return
        spec, question, _features, intent = result
        entries.append(
            LoggedQuery(
                query_id=f"{profile.name}-log-{len(entries) + 1:03d}",
                question=question,
                sql=build_sql(spec),
                intent_name=intent,
            )
        )

    for table in ENTITY_TABLES[profile.name]:
        log(factory.count_question(table, use_filter=True))
        log(factory.agg_question(table))
    log(factory.agg_question(primary, year_filter=True))
    log(factory.agg_question(primary, value_filter=True))
    log(factory.agg_question(primary, quarter_filter=True))
    log(factory.group_question(primary))
    log(factory.group_question(primary, having=True))
    for table in ENTITY_TABLES[profile.name][:2]:
        log(factory.listing_question(table))
    for entry in profile.glossary:
        if not entry.sql_pattern.startswith("RATIO_DELTA"):
            table = entry.tables[0] if entry.tables else primary
            log(factory.term_question(table))
    if "topk" in coverage:
        log(factory.topk_question(primary))
        log(factory.topk_question(primary, quarter_filter=True))
    if "both_ends" in coverage:
        entity_table = ENTITY_TABLES[profile.name][0]
        log(factory.both_ends_question(primary))
    if "share" in coverage:
        log(factory.share_question(primary))
    if "delta" in coverage:
        log(factory.delta_question(primary))
    if "ratio" in coverage:
        log(factory.ratio_term_question(bare_value="Canada"))
    return entries


# ---------------------------------------------------------------------------
# dev questions
# ---------------------------------------------------------------------------


def _add(workload, difficulty, database, result, counter):
    if result is None:
        return False
    spec, question, features, intent = result
    question_id = f"{database}-{difficulty}-{counter:03d}"
    workload.questions.append(
        BenchmarkQuestion(
            question_id=question_id,
            database=database,
            difficulty=difficulty,
            question=question,
            gold_sql=build_sql(spec),
            spec=spec,
            features=tuple(features),
            intent_name=intent,
        )
    )
    return True


def _add_simple_questions(workload, profiles, rng):
    """93 simple questions: single-table with a controlled trap mix.

    Per database: plain counts and aggregates, year/value/quarter filters,
    listings, one guideline-adjective question, two vague-surface traps,
    one undocumented-adjective trap, and one rare-value trap. Retail adds
    the ambiguous ``unit price`` question. The trap mix is what keeps the
    simple bucket away from 100% for every system, BIRD-style.
    """
    names = sorted(profiles)
    menus = []
    for name in names:
        info = SchemaInfo(profiles[name])
        factory = _Factory(info, rng)
        tables = ENTITY_TABLES[name]
        primary = PRIMARY_TABLES[name]
        menu = [
            lambda f=factory, t=tables[0]: f.count_question(t, use_filter=False),
            lambda f=factory, t=tables[0]: f.count_question(t),
            lambda f=factory, t=tables[-1]: f.count_question(t),
            lambda f=factory, t=primary: f.agg_question(t),
            lambda f=factory, t=primary: f.agg_question(t, year_filter=True),
            lambda f=factory, t=primary: f.agg_question(t, value_filter=True),
            lambda f=factory, t=tables[0]: f.agg_question(t),
            lambda f=factory, t=tables[0]: f.listing_question(t),
            lambda f=factory, t=tables[0]: f.guideline_question(t),
            lambda f=factory, t=primary: f.agg_question(t, quarter_filter=True),
            lambda f=factory, t=primary: f.agg_question(t, vague=True),
            lambda f=factory, t=primary: f.agg_question(t, vague=True),
            lambda f=factory, t=primary: f.agg_question(t, vague=True),
            lambda f=factory: f.unknown_adjective_question(),
            lambda f=factory: f.unknown_adjective_question(variant=1),
            lambda f=factory: f.rare_value_question(),
            lambda f=factory, t=primary: f.count_question(t),
        ]
        pair = AMBIGUOUS_PAIRS.get(name)
        if pair:
            menu.append(lambda f=factory, p=pair: f.ambiguous_question(p))
        menus.append((name, menu))
    counter = {name: 0 for name in names}
    added = 0
    position = 0
    while added < 93:
        name, menu = menus[position % len(menus)]
        maker = menu[(position // len(menus)) % len(menu)]
        counter[name] += 1
        if _add(workload, SIMPLE, name, maker(), counter[name]):
            added += 1
        position += 1


def _add_moderate_questions(workload, profiles, rng):
    """28 moderate questions: groups, top-k, terms, cross-intent joins.

    Roughly half carry imprecision traps (vague groups/metrics,
    undocumented term synonyms) — the moderate bucket is where the paper's
    numbers drop sharply for every system.
    """
    factories = {
        name: _Factory(SchemaInfo(profiles[name]), rng)
        for name in sorted(profiles)
    }

    def join_maker(name, position=0, vague=False):
        menu = JOIN_MENU.get(name, [])
        if position >= len(menu):
            return lambda: None
        base, join_table, group_column, group_surface = menu[position]
        join = _fk_join(profiles[name], base, join_table)
        if join is None:
            return lambda: None
        factory = factories[name]
        return lambda: factory.join_question(
            base, join, group_column, group_surface, vague=vague
        )

    plan = []
    vague_join_databases = {"sports_holdings", "retail_chain"}
    for name in sorted(profiles):
        factory = factories[name]
        primary = PRIMARY_TABLES[name]
        plan.extend(
            [
                (name, lambda f=factory, t=primary: f.group_question(t)),
                (name, join_maker(name, vague=name in vague_join_databases)),
                (name, lambda f=factory, t=primary: f.term_question(
                    t, value_filter=True)),
                (name, lambda f=factory, t=primary: f.term_question(
                    t, synonym=True)),
            ]
        )
    # Trap extras chosen per domain to fill the bucket to 28.
    plan.extend(
        [
            ("retail_chain", lambda: factories["retail_chain"].group_question(
                "ORDERS", vague_group=True)),
            ("sports_holdings",
             lambda: factories["sports_holdings"].group_question(
                 "SPORTS_FINANCIALS", vague_group=True)),
            ("healthcare_network",
             lambda: factories["healthcare_network"].topk_question(
                 "VISITS", vague=True)),
            ("university", lambda: factories["university"].topk_question(
                "ENROLLMENTS", vague=True)),
            ("global_logistics", join_maker("global_logistics", vague=True)),
            ("energy_grid", lambda: factories["energy_grid"].topk_question(
                "READINGS", vague=True)),
            ("global_logistics",
             lambda: factories["global_logistics"].group_question(
                 "SHIPMENTS", vague_group=True)),
            ("healthcare_network",
             lambda: factories["healthcare_network"].group_question(
                 "VISITS", vague_group=True)),
            ("sports_holdings",
             lambda: factories["sports_holdings"].term_question(
                 "SPORTS_FINANCIALS", quarter_filter=True)),
            ("retail_chain", lambda: factories["retail_chain"].topk_question(
                "ORDERS", quarter_filter=True)),
            ("university", lambda: factories["university"].group_question(
                "ENROLLMENTS", having=True)),
            ("energy_grid", lambda: factories["energy_grid"].term_question(
                "READINGS", quarter_filter=True)),
        ]
    )
    counter = {name: 100 for name in sorted(profiles)}
    added = 0
    for name, maker in plan:
        if added >= 28:
            break
        counter[name] += 1
        if _add(workload, MODERATE, name, maker(), counter[name]):
            added += 1


def _add_challenging_questions(workload, profiles, rng):
    """11 challenging questions: multi-CTE idioms, uneven coverage."""
    plan = [
        ("sports_holdings", lambda f: f.ratio_term_question(
            bare_value="Canada")),
        ("sports_holdings", lambda f: f.ratio_term_question(use_our=True)),
        ("sports_holdings", lambda f: f.both_ends_question(
            "SPORTS_FINANCIALS", quarter_filter=True, vague=True)),
        ("retail_chain", lambda f: f.share_question("ORDERS")),
        ("retail_chain", lambda f: f.both_ends_question("PRODUCTS")),
        ("energy_grid", lambda f: f.delta_question("READINGS")),
        ("energy_grid", lambda f: f.share_question("READINGS")),
        ("global_logistics", lambda f: f.both_ends_question("CARRIERS")),
        ("healthcare_network", lambda f: f.share_question("VISITS")),
        ("university", lambda f: f.both_ends_question("STUDENTS")),
        ("university", lambda f: f.delta_question("ENROLLMENTS")),
    ]
    counter = 200
    for name, maker in plan:
        factory = _Factory(SchemaInfo(profiles[name]), rng)
        counter += 1
        _add(workload, CHALLENGING, name, maker(factory), counter)


def _fk_join(profile, base, join_table):
    """Find the FK JoinSpec between two tables from catalog descriptions."""
    import re

    from ..pipeline.spec import JoinSpec

    for column in profile.database.table(base).columns:
        match = re.search(r"Foreign key to (\w+)\.(\w+)", column.description)
        if match and match.group(1).upper() == join_table.upper():
            return JoinSpec(
                table=join_table.upper(),
                left_column=column.name,
                right_column=match.group(2).upper(),
            )
    return None
