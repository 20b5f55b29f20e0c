"""Scalar function registry.

The set covers what the reproduction's workloads (and the paper's Appendix A
query) need: warehouse date formatting (``TO_CHAR`` with Oracle/Snowflake
style masks, including the ``YYYY"Q"Q`` quarter mask), NULL handling
(``NULLIF``, ``COALESCE``, ``IFNULL``), string manipulation, rounding, and
date part extraction. New functions register with :func:`scalar_function`.
"""

from __future__ import annotations

import datetime
import functools
import math

from .errors import TypeMismatchError, UnknownFunctionError
from .values import cast_value, render_text

_REGISTRY = {}


def scalar_function(name, min_args, max_args=None):
    """Decorator registering a scalar function implementation.

    Implementations receive already-evaluated argument values. By SQL
    convention a NULL argument yields NULL unless the function opts into
    NULL handling (``coalesce``-family functions register with
    ``_NULL_AWARE``).
    """

    def register(func):
        _REGISTRY[name.upper()] = (func, min_args, max_args or min_args)
        return func

    return register


#: Functions that receive NULL arguments instead of short-circuiting.
_NULL_AWARE = {"COALESCE", "IFNULL", "NULLIF", "CONCAT", "IIF"}


def is_scalar_function(name):
    return name.upper() in _REGISTRY


def call_scalar(name, args):
    """Invoke scalar function ``name`` on evaluated ``args``."""
    upper = name.upper()
    entry = _REGISTRY.get(upper)
    if entry is None:
        raise UnknownFunctionError(f"Unknown function {name!r}")
    func, min_args, max_args = entry
    if not (min_args <= len(args) <= max_args):
        expected = (
            str(min_args) if min_args == max_args
            else f"{min_args}..{max_args}"
        )
        raise TypeMismatchError(
            f"{upper} expects {expected} arguments, got {len(args)}"
        )
    if upper not in _NULL_AWARE and any(arg is None for arg in args):
        return None
    return func(*args)


# ---------------------------------------------------------------------------
# NULL handling
# ---------------------------------------------------------------------------


@scalar_function("NULLIF", 2)
def _nullif(left, right):
    if left is None:
        return None
    if right is not None and left == right:
        return None
    return left


@scalar_function("COALESCE", 1, 8)
def _coalesce(*args):
    for arg in args:
        if arg is not None:
            return arg
    return None


@scalar_function("IFNULL", 2)
def _ifnull(value, default):
    return value if value is not None else default


@scalar_function("IIF", 3)
def _iif(condition, when_true, when_false):
    return when_true if condition is True else when_false


# ---------------------------------------------------------------------------
# Numeric
# ---------------------------------------------------------------------------


@scalar_function("ABS", 1)
def _abs(value):
    return abs(_require_number(value, "ABS"))


@scalar_function("ROUND", 1, 2)
def _round(value, places=0):
    number = _require_number(value, "ROUND")
    places = int(_require_number(places, "ROUND"))
    result = round(number + 0.0, places)
    return result if places > 0 else int(result) if float(result).is_integer() else result


@scalar_function("FLOOR", 1)
def _floor(value):
    return int(math.floor(_require_number(value, "FLOOR")))


@scalar_function("CEIL", 1)
@scalar_function("CEILING", 1)
def _ceil(value):
    return int(math.ceil(_require_number(value, "CEIL")))


@scalar_function("SQRT", 1)
def _sqrt(value):
    number = _require_number(value, "SQRT")
    if number < 0:
        return None
    return math.sqrt(number)


@scalar_function("POWER", 2)
def _power(base, exponent):
    return math.pow(
        _require_number(base, "POWER"), _require_number(exponent, "POWER")
    )


def _require_number(value, func_name):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return value
    raise TypeMismatchError(f"{func_name} expects a number, got {value!r}")


# ---------------------------------------------------------------------------
# Strings
# ---------------------------------------------------------------------------


@scalar_function("UPPER", 1)
def _upper(value):
    return _require_text(value, "UPPER").upper()


@scalar_function("LOWER", 1)
def _lower(value):
    return _require_text(value, "LOWER").lower()


@scalar_function("LENGTH", 1)
def _length(value):
    return len(_require_text(value, "LENGTH"))


@scalar_function("TRIM", 1)
def _trim(value):
    return _require_text(value, "TRIM").strip()


@scalar_function("SUBSTR", 2, 3)
@scalar_function("SUBSTRING", 2, 3)
def _substr(value, start, length=None):
    text = _require_text(value, "SUBSTR")
    start = int(_require_number(start, "SUBSTR"))
    begin = start - 1 if start > 0 else max(len(text) + start, 0)
    if length is None:
        return text[begin:]
    return text[begin:begin + int(_require_number(length, "SUBSTR"))]


@scalar_function("REPLACE", 3)
def _replace(value, old, new):
    return _require_text(value, "REPLACE").replace(
        _require_text(old, "REPLACE"), _require_text(new, "REPLACE")
    )


@scalar_function("CONCAT", 2, 8)
def _concat(*args):
    return "".join(render_text(arg) for arg in args if arg is not None)


@scalar_function("INSTR", 2)
def _instr(haystack, needle):
    return _require_text(haystack, "INSTR").find(
        _require_text(needle, "INSTR")
    ) + 1


def _require_text(value, func_name):
    if isinstance(value, str):
        return value
    raise TypeMismatchError(f"{func_name} expects text, got {value!r}")


# ---------------------------------------------------------------------------
# Dates
# ---------------------------------------------------------------------------


def _require_date(value, func_name):
    if isinstance(value, datetime.date):
        return value
    if isinstance(value, str):
        date = cast_value(value, "DATE")
        return date
    raise TypeMismatchError(f"{func_name} expects a date, got {value!r}")


@scalar_function("YEAR", 1)
def _year(value):
    return _require_date(value, "YEAR").year


@scalar_function("MONTH", 1)
def _month(value):
    return _require_date(value, "MONTH").month


@scalar_function("DAY", 1)
def _day(value):
    return _require_date(value, "DAY").day


@scalar_function("QUARTER", 1)
def _quarter(value):
    return (_require_date(value, "QUARTER").month - 1) // 3 + 1


@scalar_function("DATE", 1)
def _date(value):
    return _require_date(value, "DATE")


#: TO_CHAR renders the same (date, mask) pair for every row of a period
#: grouping — the formatting loop is pure, so memoize it.
@scalar_function("TO_CHAR", 2)
@functools.lru_cache(maxsize=8192)
def _to_char(value, mask):
    """Oracle/Snowflake-style date formatting.

    Supports the masks the workloads use: ``YYYY``, ``MM``, ``DD``, ``Q``,
    ``MON``, and double-quoted literal sections (so ``YYYY"Q"Q`` renders
    ``2023Q2`` — the idiom in the paper's Appendix A query).
    """
    date = _require_date(value, "TO_CHAR")
    mask = _require_text(mask, "TO_CHAR")
    output = []
    index = 0
    while index < len(mask):
        char = mask[index]
        if char == '"':  # quoted literal section
            end = mask.find('"', index + 1)
            if end == -1:
                raise TypeMismatchError("Unterminated quote in TO_CHAR mask")
            output.append(mask[index + 1:end])
            index = end + 1
            continue
        if mask.startswith("YYYY", index):
            output.append(f"{date.year:04d}")
            index += 4
        elif mask.startswith("MON", index):
            output.append(date.strftime("%b").upper())
            index += 3
        elif mask.startswith("MM", index):
            output.append(f"{date.month:02d}")
            index += 2
        elif mask.startswith("DD", index):
            output.append(f"{date.day:02d}")
            index += 2
        elif char == "Q":
            output.append(str((date.month - 1) // 3 + 1))
            index += 1
        else:
            output.append(char)
            index += 1
    return "".join(output)


@scalar_function("STRFTIME", 2)
def _strftime(mask, value):
    """SQLite-style strftime — argument order (mask, date)."""
    date = _require_date(value, "STRFTIME")
    return date.strftime(_require_text(mask, "STRFTIME"))


@scalar_function("DATE_TRUNC", 2)
def _date_trunc(part, value):
    part = _require_text(part, "DATE_TRUNC").lower()
    date = _require_date(value, "DATE_TRUNC")
    if part == "year":
        return datetime.date(date.year, 1, 1)
    if part == "quarter":
        month = ((date.month - 1) // 3) * 3 + 1
        return datetime.date(date.year, month, 1)
    if part == "month":
        return datetime.date(date.year, date.month, 1)
    raise TypeMismatchError(f"DATE_TRUNC: unsupported part {part!r}")
