"""Table load micro-benchmark: column-wise check against the per-row loader.

The primary fact table of each database of seeds 7–9 is scaled x32 the way
the ``sql_scaled`` workload scales it (replicas get fresh ids), and every
scaled table is built twice from the same row lists: "before" through a
frozen copy of the per-row loader (one ``insert`` per row, one
``_check_value`` per value), "after" through :class:`Table`, whose
constructor checks the rows column by column and takes exact ones whole.
Every cell (value and type) and every version must be identical, and the
constructor must be at least ``LOAD_GATE`` times faster, best of five.
Part of ``make perf-smoke``.
"""

from __future__ import annotations

from repro.bench.bird import PRIMARY_TABLES
from repro.bench.harness import format_table
from repro.bench.schemas import build_all
from repro.engine.errors import TypeMismatchError
from repro.engine.table import _EXACT_TYPE, Table
from repro.engine.values import type_of
from timing import best_of_interleaved

#: Minimum before/after speed-up of the column-wise load.
LOAD_GATE = 2.0

SEEDS = (7, 8, 9)
SCALE = 32


class _PerRowTable(Table):
    """A table loaded by the per-row loader the column-wise check sits in
    front of, frozen: one ``_insert`` call per row, one ``_check`` call per
    value."""

    def __init__(self, name, columns, rows, description=""):
        super().__init__(name, columns, description=description)
        for row in rows:
            self._insert(row)

    def _insert(self, row):
        if isinstance(row, dict):
            row = tuple(row.get(column.name) for column in self.columns)
        else:
            row = tuple(row)
        if len(row) != len(self.columns):
            raise TypeMismatchError(
                f"Row arity {len(row)} does not match table "
                f"{self.name!r} with {len(self.columns)} columns"
            )
        converted = []
        for value, column in zip(row, self.columns):
            converted.append(self._check(value, column))
        self.rows.append(tuple(converted))
        self.version += 1

    def _check(self, value, column):
        if value is None:
            return None
        if type(value) is _EXACT_TYPE.get(column.type):
            return value
        actual = type_of(value)
        if actual == column.type:
            return value
        if column.type == "FLOAT" and actual == "INTEGER":
            return float(value)
        if column.type == "TEXT":
            return str(value)
        raise TypeMismatchError(
            f"Column {self.name}.{column.name} is {column.type}, "
            f"got {actual} value {value!r}"
        )


def _scaled_inputs():
    """``(label, table, rows)`` per primary fact table of ``SEEDS``, with
    the rows of its x``SCALE`` copy built the way ``sql_scaled`` builds
    them."""
    inputs = []
    for seed in SEEDS:
        for name, profile in sorted(build_all(seed).items()):
            table = profile.database.table(PRIMARY_TABLES[name])
            top = max(row[0] for row in table.rows)
            rows = [
                (row[0] + copy * top,) + row[1:]
                for copy in range(SCALE) for row in table.rows
            ]
            inputs.append((f"{seed}/{name}", table, rows))
    return inputs


def _cells(table):
    return [[(value, type(value)) for value in row] for row in table.rows]


def test_column_wise_load_beats_per_row_load():
    inputs = _scaled_inputs()
    for label, table, rows in inputs:
        loaded = Table(table.name, table.columns, rows, table.description)
        reference = _PerRowTable(table.name, table.columns, rows,
                                 table.description)
        assert _cells(loaded) == _cells(reference), label
        assert loaded.version == reference.version == len(rows), label

    def before():
        for _label, table, rows in inputs:
            _PerRowTable(table.name, table.columns, rows, table.description)

    def after():
        for _label, table, rows in inputs:
            Table(table.name, table.columns, rows, table.description)

    before_s, after_s = best_of_interleaved(before, after)
    ratio = before_s / after_s
    rows = sum(len(rows) for _label, _table, rows in inputs)
    print()
    print(format_table(
        f"x{SCALE} fact-table load, {len(inputs)} tables, {rows} rows "
        "(best-of-5, ms per pass)",
        ["load", "before_ms", "after_ms", "ratio"],
        [("column-wise", before_s * 1e3, after_s * 1e3, ratio)],
    ))
    assert ratio >= LOAD_GATE, (
        f"column-wise load only {ratio:.2f}x over the per-row load "
        f"(gate {LOAD_GATE}x)"
    )
