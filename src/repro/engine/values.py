"""SQL value semantics: types, NULL handling, coercion, and ordering.

Python values stand in for SQL values: ``int``/``float`` for numerics,
``str`` for text, ``bool`` for booleans, :class:`datetime.date` for dates,
and ``None`` for SQL NULL. This module centralises the SQL-specific rules —
three-valued logic, NULL-propagating arithmetic, cross-type comparison, CAST
— so the evaluator and the aggregate implementations stay thin. It also
owns :class:`Result`, whose :meth:`~Result.comparable` form (built on
:func:`comparable_cell`) is what Execution Accuracy compares.
"""

from __future__ import annotations

import datetime
from operator import itemgetter

from .errors import TypeMismatchError

#: Canonical type names used by schema definitions and CAST.
TYPE_INTEGER = "INTEGER"
TYPE_FLOAT = "FLOAT"
TYPE_TEXT = "TEXT"
TYPE_BOOLEAN = "BOOLEAN"
TYPE_DATE = "DATE"

_NUMERIC_TYPES = (int, float)

#: Aliases accepted in CAST and schema declarations.
TYPE_ALIASES = {
    "INT": TYPE_INTEGER, "INTEGER": TYPE_INTEGER, "BIGINT": TYPE_INTEGER,
    "SMALLINT": TYPE_INTEGER,
    "FLOAT": TYPE_FLOAT, "REAL": TYPE_FLOAT, "DOUBLE": TYPE_FLOAT,
    "DECIMAL": TYPE_FLOAT, "NUMERIC": TYPE_FLOAT,
    "TEXT": TYPE_TEXT, "VARCHAR": TYPE_TEXT, "CHAR": TYPE_TEXT,
    "STRING": TYPE_TEXT,
    "BOOLEAN": TYPE_BOOLEAN, "BOOL": TYPE_BOOLEAN,
    "DATE": TYPE_DATE, "TIMESTAMP": TYPE_DATE,
}


def canonical_type(name):
    """Map a declared/CAST type name to its canonical form."""
    canonical = TYPE_ALIASES.get(name.upper())
    if canonical is None:
        raise TypeMismatchError(f"Unknown type name {name!r}")
    return canonical


def type_of(value):
    """Return the canonical SQL type of a Python value, or None for NULL."""
    if value is None:
        return None
    if isinstance(value, bool):
        return TYPE_BOOLEAN
    if isinstance(value, int):
        return TYPE_INTEGER
    if isinstance(value, float):
        return TYPE_FLOAT
    if isinstance(value, datetime.date):
        return TYPE_DATE
    if isinstance(value, str):
        return TYPE_TEXT
    raise TypeMismatchError(f"Unsupported value {value!r}")


def is_null(value):
    return value is None


# ---------------------------------------------------------------------------
# Three-valued logic
# ---------------------------------------------------------------------------


def logical_and(left, right):
    """SQL AND with NULL as 'unknown'."""
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def logical_or(left, right):
    """SQL OR with NULL as 'unknown'."""
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def logical_not(value):
    if value is None:
        return None
    return not value


def is_true(value):
    """WHERE-clause truthiness: NULL and FALSE both reject the row."""
    return value is True


# ---------------------------------------------------------------------------
# Comparison and arithmetic
# ---------------------------------------------------------------------------


def compare(left, right):
    """Return -1/0/+1, or None when either side is NULL.

    Numeric values compare numerically across int/float; text compares
    lexicographically; dates chronologically. Comparing a number with text
    attempts a numeric interpretation of the text first (warehouse-style
    leniency, needed for schema data that stores numeric codes as text).
    """
    if left is None or right is None:
        return None
    left, right = _align(left, right)
    if left < right:
        return -1
    if left > right:
        return 1
    return 0


def _align(left, right):
    if isinstance(left, bool) or isinstance(right, bool):
        if isinstance(left, bool) and isinstance(right, bool):
            return int(left), int(right)
        left = int(left) if isinstance(left, bool) else left
        right = int(right) if isinstance(right, bool) else right
    if isinstance(left, _NUMERIC_TYPES) and isinstance(right, _NUMERIC_TYPES):
        return left, right
    if isinstance(left, datetime.date) and isinstance(right, datetime.date):
        return left, right
    if isinstance(left, str) and isinstance(right, str):
        return left, right
    if isinstance(left, _NUMERIC_TYPES) and isinstance(right, str):
        converted = _try_number(right)
        if converted is not None:
            return left, converted
        return str(left), right
    if isinstance(left, str) and isinstance(right, _NUMERIC_TYPES):
        converted = _try_number(left)
        if converted is not None:
            return converted, right
        return left, str(right)
    if isinstance(left, datetime.date) and isinstance(right, str):
        converted = _try_date(right)
        if converted is not None:
            return left, converted
    if isinstance(left, str) and isinstance(right, datetime.date):
        converted = _try_date(left)
        if converted is not None:
            return converted, right
    raise TypeMismatchError(
        f"Cannot compare {type_of(left)} with {type_of(right)}"
    )


def _try_number(text):
    try:
        if "." in text or "e" in text or "E" in text:
            return float(text)
        return int(text)
    except ValueError:
        return None


def _try_date(text):
    try:
        return datetime.date.fromisoformat(text[:10])
    except ValueError:
        return None


def equals(left, right):
    result = compare(left, right)
    if result is None:
        return None
    return result == 0


def arithmetic(op, left, right):
    """NULL-propagating arithmetic; division yields float, /0 yields NULL.

    Returning NULL on division by zero matches warehouse behaviour closely
    enough for the benchmark (gold queries guard with NULLIF anyway).
    """
    if left is None or right is None:
        return None
    if op == "||":
        return render_text(left) + render_text(right)
    if not isinstance(left, _NUMERIC_TYPES) or isinstance(left, bool):
        left = _coerce_numeric(left)
    if not isinstance(right, _NUMERIC_TYPES) or isinstance(right, bool):
        right = _coerce_numeric(right)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            return None
        result = left / right
        return result
    if op == "%":
        if right == 0:
            return None
        return left % right
    raise TypeMismatchError(f"Unknown arithmetic operator {op!r}")


def _coerce_numeric(value):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, _NUMERIC_TYPES):
        return value
    if isinstance(value, str):
        converted = _try_number(value)
        if converted is not None:
            return converted
    raise TypeMismatchError(f"Expected a number, got {value!r}")


# ---------------------------------------------------------------------------
# CAST
# ---------------------------------------------------------------------------


def cast_value(value, type_name):
    """SQL CAST. NULL casts to NULL; failures raise TypeMismatchError."""
    if value is None:
        return None
    target = canonical_type(type_name)
    if target == TYPE_INTEGER:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, _NUMERIC_TYPES):
            return int(value)
        if isinstance(value, str):
            number = _try_number(value.strip())
            if number is not None:
                return int(number)
        raise TypeMismatchError(f"Cannot cast {value!r} to INTEGER")
    if target == TYPE_FLOAT:
        if isinstance(value, bool):
            return float(value)
        if isinstance(value, _NUMERIC_TYPES):
            return float(value)
        if isinstance(value, str):
            number = _try_number(value.strip())
            if number is not None:
                return float(number)
        raise TypeMismatchError(f"Cannot cast {value!r} to FLOAT")
    if target == TYPE_TEXT:
        return render_text(value)
    if target == TYPE_BOOLEAN:
        if isinstance(value, bool):
            return value
        if isinstance(value, _NUMERIC_TYPES):
            return value != 0
        if isinstance(value, str):
            lowered = value.strip().lower()
            if lowered in ("true", "t", "1", "yes"):
                return True
            if lowered in ("false", "f", "0", "no"):
                return False
        raise TypeMismatchError(f"Cannot cast {value!r} to BOOLEAN")
    if target == TYPE_DATE:
        if isinstance(value, datetime.date):
            return value
        if isinstance(value, str):
            date = _try_date(value.strip())
            if date is not None:
                return date
        raise TypeMismatchError(f"Cannot cast {value!r} to DATE")
    raise TypeMismatchError(f"Unknown cast target {type_name!r}")


def render_text(value):
    """Text rendering used by ``||``, CAST to TEXT, and result comparison."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, float) and value.is_integer():
        return f"{value:.1f}"
    if isinstance(value, datetime.date):
        return value.isoformat()
    return str(value)


# ---------------------------------------------------------------------------
# Ordering keys
# ---------------------------------------------------------------------------

_TYPE_RANK = {
    TYPE_BOOLEAN: 0, TYPE_INTEGER: 0, TYPE_FLOAT: 0,
    TYPE_DATE: 1, TYPE_TEXT: 2,
}


def sort_key(value, ascending=True, nulls_first=None):
    """Build a totally-ordered sort key for heterogeneous result columns.

    NULL placement defaults to the common warehouse behaviour: NULLs last in
    ascending order, first in descending order, overridable via
    ``nulls_first``.
    """
    if nulls_first is None:
        nulls_first = not ascending
    if value is None:
        return (0 if nulls_first else 1, 0, 0)
    null_rank = 1 if nulls_first else 0
    if isinstance(value, bool):
        comparable = int(value)
    elif isinstance(value, datetime.date):
        comparable = value.toordinal()
    else:
        comparable = value
    rank = _TYPE_RANK[type_of(value)]
    if isinstance(comparable, str):
        key = comparable if ascending else _ReverseStr(comparable)
    else:
        key = comparable if ascending else -comparable
    return (null_rank, rank, key)


class _ReverseStr:
    """Inverts string comparison so mixed-direction sorts can share one key."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other):
        return self.value > other.value

    def __eq__(self, other):
        return self.value == other.value


def comparable_cell(value):
    """Normalise a cell for result-set comparison (Execution Accuracy).

    Floats are rounded to 6 places so that mathematically equivalent
    computations with different association orders still compare equal;
    ints and equal-valued floats unify (5 == 5.0, as BIRD's EX comparison
    does).
    """
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        if value.is_integer():
            return int(value)
        return round(value, 6)
    if isinstance(value, datetime.date):
        return value.isoformat()
    return value


def group_key(value):
    """Hash key under which GROUP BY, DISTINCT, set operations and window
    partitions put equal values together.

    It unifies what :func:`comparable_cell` unifies — bool, int and
    integral float (Python's ``==`` and ``hash`` already agree on those),
    and a date with its ISO text — but does not round: ``0.1234561`` and
    ``0.1234564`` are two groups, as in SQLite. A NaN is a group of its own.
    """
    if isinstance(value, float):
        return value if value == value else float("nan")
    if isinstance(value, datetime.date):
        return value.isoformat()
    return value


# ---------------------------------------------------------------------------
# Query results
# ---------------------------------------------------------------------------


class Result:
    """A query result: ordered column names and tuple rows."""

    __slots__ = ("columns", "rows")

    def __init__(self, columns, rows):
        self.columns = list(columns)
        self.rows = [tuple(row) for row in rows]

    def comparable(self):
        """Multiset of normalised rows, for Execution Accuracy comparison.

        Sort keys are precomputed once per row (decorate–sort–undecorate);
        the sort itself only ever compares key tuples.
        """
        normalised = [
            tuple(comparable_cell(value) for value in row)
            for row in self.rows
        ]
        decorated = [
            (tuple(map(_stable_key, row)), row) for row in normalised
        ]
        decorated.sort(key=itemgetter(0))
        return [row for _keys, row in decorated]

    def __repr__(self):
        return f"Result({self.columns!r}, {len(self.rows)} rows)"


def _stable_key(value):
    if value is None:
        return (0, "")
    if isinstance(value, (int, float)):
        return (1, float(value))
    return (2, str(value))
