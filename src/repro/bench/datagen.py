"""Seeded synthetic data helpers for the benchmark databases.

Everything is driven by an explicit ``random.Random`` so the whole benchmark
is reproducible from a single seed. Value pools are sized so that top-5
value profiling is meaningful (some values frequent, some rare) — the
schema-augmentation behaviour the paper describes depends on that skew.
"""

from __future__ import annotations

import datetime
import random

FIRST_NAMES = [
    "Alex", "Bianca", "Carlos", "Dana", "Elif", "Farid", "Grace", "Hiro",
    "Ingrid", "Jamal", "Kira", "Liam", "Mona", "Nadia", "Omar", "Priya",
    "Quinn", "Rosa", "Sami", "Tara", "Umar", "Vera", "Wei", "Yara", "Zoe",
]

LAST_NAMES = [
    "Anders", "Brown", "Chen", "Diaz", "Eriksen", "Fontaine", "Garcia",
    "Haddad", "Ivanov", "Jensen", "Kim", "Lopez", "Meyer", "Novak",
    "Okafor", "Park", "Quint", "Rossi", "Silva", "Tanaka", "Ueda",
    "Vargas", "Weber", "Xu", "Young", "Zhang",
]

CITIES = [
    "Toronto", "Vancouver", "Montreal", "Calgary", "Ottawa", "Boston",
    "Chicago", "Denver", "Seattle", "Austin", "Lisbon", "Porto", "Leeds",
    "Manchester", "Lyon", "Munich", "Osaka", "Quebec City", "Halifax",
]

COUNTRIES_SKEWED = (
    ["Canada"] * 5 + ["USA"] * 4 + ["UK"] * 2 + ["Germany", "France", "Japan"]
)

ANIMALS = [
    "Hawks", "Bears", "Lions", "Wolves", "Eagles", "Sharks", "Tigers",
    "Falcons", "Bisons", "Orcas", "Cougars", "Ravens", "Moose", "Lynx",
    "Herons", "Otters", "Badgers", "Condors", "Vipers", "Stallions",
]

SPORT_CITY_PREFIXES = [
    "Toronto", "Vancouver", "Montreal", "Calgary", "Ottawa", "Winnipeg",
    "Edmonton", "Halifax", "Boston", "Chicago", "Denver", "Seattle",
    "Austin", "Portland", "Phoenix", "Dallas",
]


def person_name(rng: random.Random):
    return f"{rng.choice(FIRST_NAMES)} {rng.choice(LAST_NAMES)}"


def month_date(year, month, day=15):
    """A mid-month date — keeps quarter boundaries unambiguous."""
    return datetime.date(year, month, day)


def random_date_in(rng, start_year, end_year):
    year = rng.randint(start_year, end_year)
    month = rng.randint(1, 12)
    day = rng.randint(1, 28)
    return datetime.date(year, month, day)


def skewed_amount(rng, low, high):
    """A right-skewed amount in [low, high] — realistic money values."""
    base = rng.random() ** 2.0
    return round(low + base * (high - low), 2)


def pick_weighted(rng, options):
    """Pick from [(value, weight), ...]."""
    total = sum(weight for _value, weight in options)
    point = rng.random() * total
    accumulated = 0.0
    for value, weight in options:
        accumulated += weight
        if point <= accumulated:
            return value
    return options[-1][0]
