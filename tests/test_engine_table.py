"""Table storage, catalog, and value-profiling tests."""

import datetime

import pytest

from repro.engine import Column, Database, Table, profile_table
from repro.engine.errors import (
    TypeMismatchError,
    UnknownColumnError,
    UnknownTableError,
)


class TestColumn:
    def test_type_canonicalised(self):
        assert Column("X", "varchar").type == "TEXT"

    def test_bad_type_raises(self):
        with pytest.raises(TypeMismatchError):
            Column("X", "BLOB")


class TestTable:
    def test_insert_and_len(self):
        table = Table("T", [Column("A", "INTEGER")], rows=[(1,), (2,)])
        assert len(table) == 2

    def test_insert_dict_row(self):
        table = Table("T", [Column("A", "INTEGER"), Column("B", "TEXT")])
        table.insert({"B": "x", "A": 1})
        assert table.rows == [(1, "x")]

    def test_arity_checked(self):
        table = Table("T", [Column("A", "INTEGER")])
        with pytest.raises(TypeMismatchError):
            table.insert((1, 2))

    def test_type_checked(self):
        table = Table("T", [Column("A", "INTEGER")])
        with pytest.raises(TypeMismatchError):
            table.insert(("nope",))

    def test_int_widens_into_float(self):
        table = Table("T", [Column("A", "FLOAT")], rows=[(3,)])
        assert table.rows[0][0] == 3.0

    def test_null_always_allowed(self):
        table = Table("T", [Column("A", "INTEGER")], rows=[(None,)])
        assert table.rows[0][0] is None

    def test_duplicate_columns_rejected(self):
        with pytest.raises(TypeMismatchError):
            Table("T", [Column("A", "INTEGER"), Column("a", "TEXT")])

    def test_column_lookup(self):
        table = Table("T", [Column("A", "INTEGER")])
        assert table.column_position("a") == 0
        assert table.has_column("A")
        with pytest.raises(UnknownColumnError):
            table.column_position("B")

    def test_top_values_by_frequency_then_text(self):
        table = Table(
            "T", [Column("C", "TEXT")],
            rows=[("b",), ("a",), ("a",), ("c",), ("b",), ("a",), (None,)],
        )
        assert table.top_values("C", 2) == ["a", "b"]

    def test_top_values_ignores_nulls(self):
        table = Table("T", [Column("C", "TEXT")], rows=[(None,), ("x",)])
        assert table.top_values("C") == ["x"]

    def test_profile(self):
        table = Table(
            "T", [Column("A", "INTEGER"), Column("B", "TEXT")],
            rows=[(1, "x"), (2, "x")],
        )
        profile = profile_table(table)
        assert profile.row_count == 2
        assert profile.column_types == {"A": "INTEGER", "B": "TEXT"}
        assert profile.top_values["B"] == ["x"]



#: One column of every canonical type, for the loader parity cases.
LOAD_COLUMNS = [
    Column("I", "INTEGER"),
    Column("F", "FLOAT"),
    Column("S", "TEXT"),
    Column("B", "BOOLEAN"),
    Column("D", "DATE"),
]
DAY = datetime.date(2024, 3, 1)


class _Int(int):
    pass


def _exact_rows():
    return [(1, 1.5, "a", True, DAY), (2, 2.5, "b", False, DAY)]


#: ``name -> factory of the rows``; a factory, so each side of a parity
#: check gets its own rows (a generator is used up by one load).
LOAD_CASES = {
    "exact": _exact_rows,
    "exact_with_nulls": lambda: [
        (None, 1.5, None, True, None),
        (2, None, "b", None, DAY),
        (None, None, None, None, None),
    ],
    "int_in_float": lambda: [
        (1, 1.5, "a", True, DAY), (2, 3, "b", False, DAY),
    ],
    "number_in_text": lambda: [
        (1, 1.5, 42, True, DAY), (2, 2.5, 4.5, False, DAY),
    ],
    "bool_in_integer": lambda: [
        (1, 1.5, "a", True, DAY), (True, 2.5, "b", False, DAY),
    ],
    "text_in_integer": lambda: [("1", 1.5, "a", True, DAY)],
    "datetime_in_date": lambda: [
        (1, 1.5, "a", True, datetime.datetime(2024, 3, 1, 12, 30)),
    ],
    "int_subclass": lambda: [(_Int(7), 1.5, "a", True, DAY)],
    "dict_rows": lambda: [
        {"I": 1, "F": 1.5, "S": "a", "B": True, "D": DAY},
        {"S": "b", "I": 2},
    ],
    "list_rows": lambda: [list(row) for row in _exact_rows()],
    "generator": lambda: (row for row in _exact_rows()),
    "wrong_width_in_middle": lambda: [
        _exact_rows()[0], (3, 3.5), _exact_rows()[1],
    ],
    "no_rows": lambda: [],
}


def _loaded(build):
    """``(rows with the type of each cell, version)`` or the exception
    ``(type, message)`` of one way of building a table."""
    try:
        table = build()
    except Exception as error:  # compared, not swallowed
        return ("raised", type(error), str(error))
    return (
        [[(value, type(value)) for value in row] for row in table.rows],
        [type(row) for row in table.rows],
        table.version,
    )


class TestLoaderParity:
    """Constructing a table equals an empty table plus one ``insert`` per
    row: the same cells of the same types, the same version, the same
    exception with the same message."""

    @pytest.mark.parametrize("case", sorted(LOAD_CASES))
    def test_constructor_equals_insert_loop(self, case):
        rows = LOAD_CASES[case]

        def construct():
            return Table("T", LOAD_COLUMNS, rows())

        def insert_each():
            table = Table("T", LOAD_COLUMNS)
            for row in rows():
                table.insert(row)
            return table

        assert _loaded(construct) == _loaded(insert_each)

    def test_exact_rows_are_taken_whole(self):
        rows = _exact_rows()
        table = Table("T", LOAD_COLUMNS, rows)
        assert all(kept is given for kept, given in zip(table.rows, rows))
        assert table.version == len(rows)

    def test_caller_list_is_not_aliased(self):
        for case in ("exact", "int_in_float"):
            rows = LOAD_CASES[case]()
            table = Table("T", LOAD_COLUMNS, rows)
            before = list(table.rows)
            rows.append((9, 9.5, "z", False, DAY))
            rows[0] = (8, 8.5, "y", True, DAY)
            assert table.rows == before
            assert table.rows is not rows

class TestDatabase:
    def test_create_and_lookup(self):
        db = Database("d")
        db.create_table("T", [Column("A", "INTEGER")])
        assert db.has_table("t")
        assert db.table("T").name == "T"

    def test_unknown_table_error_lists_known(self):
        db = Database("d")
        db.create_table("KNOWN", [Column("A", "INTEGER")])
        with pytest.raises(UnknownTableError, match="KNOWN"):
            db.table("nope")

    def test_tables_in_creation_order(self):
        db = Database("d")
        db.create_table("ZEBRA", [Column("A", "INTEGER")])
        db.create_table("APPLE", [Column("A", "INTEGER")])
        assert [t.name for t in db.tables] == ["ZEBRA", "APPLE"]

    def test_schema_text_includes_values(self):
        db = Database("d")
        db.create_table(
            "T", [Column("C", "TEXT", "A column.")], rows=[("v",)]
        )
        text = db.schema_text(include_values=True)
        assert "TABLE T" in text and "'v'" in text and "A column." in text

    def test_profiles(self):
        db = Database("d")
        db.create_table("T", [Column("A", "INTEGER")], rows=[(1,)])
        assert db.profiles()["T"].row_count == 1
