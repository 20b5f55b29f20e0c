"""Aggregate function implementations.

Aggregates receive the list of evaluated argument values for every row in
the group (NULLs included — each aggregate applies SQL's skip-NULL rule
itself, since COUNT(*) and COUNT(expr) differ exactly there).
"""

from __future__ import annotations

from .errors import TypeMismatchError, UnknownFunctionError
from .values import compare

AGGREGATE_NAMES = frozenset(
    {"COUNT", "SUM", "AVG", "MIN", "MAX", "TOTAL", "GROUP_CONCAT"}
)


def is_aggregate_function(name):
    return name.upper() in AGGREGATE_NAMES


def compute_aggregate(name, values, distinct=False, count_star=False):
    """Compute aggregate ``name`` over ``values`` (one entry per row).

    ``count_star`` marks ``COUNT(*)``, which counts rows rather than
    non-NULL values. ``distinct`` deduplicates non-NULL values first.
    """
    upper = name.upper()
    if upper not in AGGREGATE_NAMES:
        raise UnknownFunctionError(f"Unknown aggregate {name!r}")
    if upper == "COUNT" and count_star:
        return len(values)
    present = [value for value in values if value is not None]
    if distinct:
        present = _distinct(present)
    if upper == "COUNT":
        return len(present)
    if upper == "SUM":
        return _sum(present)
    if upper == "TOTAL":
        total = _sum(present)
        return float(total) if total is not None else 0.0
    if upper == "AVG":
        total = _sum(present)
        if total is None:
            return None
        return total / len(present)
    if upper == "MIN":
        return _extreme(present, want_smaller=True)
    if upper == "MAX":
        return _extreme(present, want_smaller=False)
    if upper == "GROUP_CONCAT":
        return ",".join(str(value) for value in present) if present else None
    raise UnknownFunctionError(f"Unknown aggregate {name!r}")


def _distinct(values):
    """First occurrence of each value, in order; ``is`` or ``==`` decides,
    as ``in`` on a list does, but in one hash pass."""
    return list(dict.fromkeys(values))


def _sum(values):
    if not values:
        return None
    total = 0
    for value in values:
        if isinstance(value, bool):
            value = int(value)
        if not isinstance(value, (int, float)):
            raise TypeMismatchError(f"SUM/AVG over non-numeric {value!r}")
        total += value
    return total


def _extreme(values, want_smaller):
    if not values:
        return None
    best = values[0]
    for value in values[1:]:
        ordering = compare(value, best)
        if ordering is None:
            continue
        if (ordering < 0) == want_smaller and ordering != 0:
            best = value
    return best
