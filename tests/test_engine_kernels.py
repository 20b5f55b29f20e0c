"""Column kernels: each agrees with the generic columnar code it replaces.

The executor and the vector compiler pick a C-builtin kernel when a batch's
exact set of types (``value_kinds``) is plain, and the generic code
otherwise. Each property test runs one kernel twice over the same drawn
batches: as dispatched, and with ``value_kinds`` patched to report a kind
no kernel accepts, which forces the generic code. Outputs must agree by
(type, ``repr``) per value and exceptions by type and message. The
differential test holds the whole executor to the row engine by
(type, ``repr``) per cell, in row order, over the ``sql_scaled`` statements.
"""

from __future__ import annotations

import datetime
import math
from contextlib import contextmanager
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench.bird import PRIMARY_TABLES, build_workload
from repro.bench.schemas import build_all
from repro.engine import (
    Column,
    Database,
    Executor,
    engine_snapshot,
    evaluator,
    executor,
)
from repro.engine.columnar import ColumnarRelation
from repro.engine.evaluator import VectorContext, compile_vector
from repro.engine.reference import ReferenceExecutor
from repro.engine.table import Table
from repro.sql import ast_nodes as ast

# -- drawing batches -------------------------------------------------------------

_NAN = float("nan")

_KINDS = {
    "int": st.integers(-3, 3) | st.integers(),
    "float": st.sampled_from([_NAN, 0.0, -0.0, 1.0, 2.5, math.inf, -math.inf])
    | st.floats(),
    "str": st.sampled_from(["", "a", "b", "2", "2020-01-02"]),
    "date": st.dates(
        datetime.date(2020, 1, 1), datetime.date(2020, 1, 3)
    ),
    "datetime": st.datetimes(
        datetime.datetime(2020, 1, 1), datetime.datetime(2020, 1, 3)
    ),
    "bool": st.booleans(),
    "null": st.none(),
}


def _values(kinds):
    return st.one_of([_KINDS[kind] for kind in kinds])


#: Kind sets at or next to a kernel's edge, drawn two times in three: one kind,
#: one kind with NULLs, and the mixes a kernel must refuse or accept.
_EDGE_KIND_SETS = (
    [(kind,) for kind in _KINDS]
    + [(kind, "null") for kind in _KINDS if kind != "null"]
    + [
        ("int", "float"), ("int", "float", "null"), ("int", "str"),
        ("date", "str"), ("date", "datetime"), ("bool", "int"),
        ("bool", "float"),
    ]
)
_KIND_SETS = st.one_of(
    st.sampled_from(_EDGE_KIND_SETS),
    st.sampled_from(_EDGE_KIND_SETS),
    st.lists(
        st.sampled_from(sorted(_KINDS)), min_size=1, max_size=3, unique=True
    ),
)


@st.composite
def batches(draw, count=2, max_size=10):
    """``count`` equal-length arrays. Each takes the kind set shared by the
    batch or, one time in four, draws its own, so plain pairs come up
    often."""
    size = draw(st.integers(0, max_size))
    shared = draw(_KIND_SETS)
    arrays = []
    for _ in range(count):
        kinds = shared if draw(st.integers(0, 3)) else draw(_KIND_SETS)
        arrays.append(draw(st.lists(
            _values(kinds), min_size=size, max_size=size
        )))
    return arrays


# -- running a kernel both ways ------------------------------------------------------

_NO_KERNEL = frozenset({object})


@contextmanager
def generic_only():
    """Every batch reports a kind no kernel accepts."""
    with mock.patch.object(evaluator, "value_kinds",
                           lambda array: _NO_KERNEL), \
            mock.patch.object(executor, "value_kinds",
                              lambda array: _NO_KERNEL):
        yield


def _typed(value):
    if isinstance(value, (list, tuple)):
        return [_typed(item) for item in value]
    return (type(value), repr(value))


def _outcome(run):
    try:
        return ("ok", _typed(run()))
    except Exception as error:  # the kernel must raise what generic raises
        return ("raise", type(error), str(error))


def assert_kernel_matches_generic(run):
    kernel = _outcome(run)
    with generic_only():
        generic = _outcome(run)
    assert kernel == generic


def _closure_over(node, arrays):
    """Run ``node`` compiled over columns ``C0``, ``C1``, ... of one binding."""
    names = [f"C{position}" for position in range(len(arrays))]
    relation = ColumnarRelation(
        [("T", names)], len(arrays[0]),
        arrays={("T", name): array for name, array in zip(names, arrays)},
    )
    closure, _cacheable = compile_vector(node, relation.schema, False)
    return lambda: closure(
        VectorContext(relation), list(range(relation.count))
    )


def _column(position):
    return ast.ColumnRef(f"C{position}")


# -- the kernels -----------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(batches(count=1, max_size=12), st.data())
def test_aggregate_kernel_matches_generic(arrays, data):
    values = arrays[0]
    group_ids = data.draw(st.lists(
        st.integers(0, 3), min_size=len(values), max_size=len(values)
    ))
    groups = {}
    for index, group in enumerate(group_ids):
        groups.setdefault(group, []).append(index)
    member_lists = list(groups.values()) or [[]]
    for name in ("SUM", "AVG", "TOTAL", "MIN", "MAX", "COUNT"):
        for distinct in (False, True):
            node = ast.FunctionCall(name, [_column(0)], distinct)
            assert_kernel_matches_generic(
                lambda node=node: executor._aggregate_groups(
                    node, values, member_lists
                )
            )


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2).flatmap(lambda count: batches(count=count)))
def test_group_key_kernel_matches_generic(key_arrays):
    assert_kernel_matches_generic(
        lambda: executor._group_members(key_arrays)
    )


@settings(max_examples=200, deadline=None)
@given(batches(count=2))
@example([[_NAN, 1.0, 2], [1.0, _NAN, 2.0]])
@example([["2", 1], [1, "2"]])
def test_compare_kernel_matches_generic(arrays):
    for op in ("=", "<>", "<", ">", "<=", ">="):
        node = ast.BinaryOp(op, _column(0), _column(1))
        assert_kernel_matches_generic(_closure_over(node, arrays))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 4).flatmap(lambda count: batches(count=count)),
       st.booleans())
@example([[_NAN, 1.5, 2], [_NAN, 1.5, 2.0]], False)
def test_in_list_kernel_matches_generic(arrays, negated):
    node = ast.InList(
        _column(0), [_column(position) for position in range(1, len(arrays))],
        negated,
    )
    assert_kernel_matches_generic(_closure_over(node, arrays))


def _hash_matches_per_row(left_arrays, right_arrays):
    """The per-row build and probe ``_hash_matches`` replaced."""
    index = {}
    for right_index in range(len(right_arrays[0])):
        key = tuple(array[right_index] for array in right_arrays)
        if any(value is None for value in key):
            continue
        index.setdefault(key, []).append(right_index)
    matches = []
    for left_index in range(len(left_arrays[0])):
        key = tuple(array[left_index] for array in left_arrays)
        if any(value is None for value in key):
            matches.append(())
        else:
            matches.append(index.get(key, ()))
    return matches


#: Join keys collide often: few values, NULLs, and 1 = 1.0 = TRUE.
_JOIN_KEYS = st.sampled_from([None, 0, 1, 1.0, True, "1", "a"])


@st.composite
def join_sides(draw):
    count = draw(st.integers(1, 2))
    return tuple(
        [
            draw(st.lists(_JOIN_KEYS, min_size=size, max_size=size))
            for _ in range(count)
        ]
        for size in (draw(st.integers(0, 6)), draw(st.integers(0, 6)))
    )


@settings(max_examples=200, deadline=None)
@given(join_sides())
@example(([[1, 2], [None, 3]], [[1, 2], [None, 3]]))
def test_hash_join_kernel_matches_per_row_probe(sides):
    left_arrays, right_arrays = sides
    kernel = executor._hash_matches(left_arrays, right_arrays)
    per_row = _hash_matches_per_row(left_arrays, right_arrays)
    assert [list(matches) for matches in kernel] == [
        list(matches) for matches in per_row
    ]


def _scan_key_class_per_value(array, classes):
    """The per-value scan ``_scan_key_class`` replaced."""
    for value in array:
        if value is None:
            continue
        if isinstance(value, bool) or isinstance(value, int):
            classes.add("n")
        elif isinstance(value, float):
            if value != value:
                return False
            classes.add("n")
        elif isinstance(value, str):
            classes.add("s")
        elif isinstance(value, datetime.date):
            classes.add("d")
        else:
            return False
    return True


@settings(max_examples=200, deadline=None)
@given(batches(count=1, max_size=8))
@example([[1, 2.5, None, _NAN]])
@example([[b"bytes"]])
def test_join_key_class_matches_per_value_scan(arrays):
    kernel_classes, per_value_classes = set(), set()
    kernel = executor._scan_key_class(arrays[0], kernel_classes)
    per_value = _scan_key_class_per_value(arrays[0], per_value_classes)
    assert kernel == per_value
    if kernel:
        assert kernel_classes == per_value_classes


# -- which path a grouped aggregate takes ----------------------------------------


def _fact_db():
    db = Database("kernel_dispatch")
    db.create_table(
        "FACT",
        [
            Column("FACT_ID", "INTEGER", "Key."),
            Column("DIM_ID", "INTEGER", "Group."),
            Column("AMOUNT", "FLOAT", "Measure."),
        ],
        rows=[
            (n, n % 48, float((n * 37) % 1000) / 10.0) for n in range(2400)
        ],
        description="Fact table.",
    )
    return db


def _aggregate_calls(measure):
    """Names ``compute_aggregate`` is called with while the executor runs
    SUM/MIN/MAX of ``measure`` grouped over 2400 rows."""
    sql = (
        f"SELECT DIM_ID, SUM({measure}), MIN({measure}), MAX({measure})"
        " FROM FACT GROUP BY DIM_ID"
    )
    db = _fact_db()
    real = executor.compute_aggregate
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    before = engine_snapshot()
    with mock.patch.object(executor, "compute_aggregate", spy):
        result = Executor(db).execute(sql)
    after = engine_snapshot()
    # The grouping ran columnar, with no row fallback.
    assert after["columnar_selects"] == before["columnar_selects"] + 1
    assert _typed(result.rows) == _typed(
        ReferenceExecutor(db).execute(sql).rows
    )
    return calls


def test_plain_float_group_by_never_enters_compute_aggregate():
    assert _aggregate_calls("AMOUNT") == []


def test_a_bool_in_the_column_takes_the_generic_path():
    calls = _aggregate_calls(
        "CASE WHEN FACT_ID = 5 THEN TRUE ELSE AMOUNT END"
    )
    assert sorted(set(calls)) == ["MAX", "MIN", "SUM"]
    assert len(calls) == 3 * 48


# -- the executor against the row engine, cell by cell --------------------------


def scaled_statements(seed, scale):
    """Every dev gold and training-log statement of ``seed``, with each
    database's primary fact table ``scale`` times larger (replicas get
    fresh ids, so joins to it stay one-to-one)."""
    databases = {}
    for name, profile in build_all(seed).items():
        tables = []
        for table in profile.database.tables:
            if table.name.upper() == PRIMARY_TABLES[name]:
                top = max(row[0] for row in table.rows)
                table = Table(
                    table.name, table.columns,
                    [
                        (row[0] + copy * top,) + row[1:]
                        for copy in range(scale) for row in table.rows
                    ],
                    table.description,
                )
            tables.append(table)
        databases[name] = Database(
            profile.database.name, tables, profile.database.description
        )
    workload = build_workload(seed)
    statements = [
        (question.database, question.gold_sql)
        for question in workload.questions
    ] + [
        (name, entry.sql)
        for name, log in sorted(workload.training_logs.items())
        for entry in log
    ]
    return databases, statements


def _exact(engine, sql):
    try:
        result = engine.execute(sql)
    except Exception as error:
        return ("raise", type(error), str(error))
    return ("ok", result.columns, [_typed(row) for row in result.rows])


def exact_mismatches(seed, scale):
    """Statements whose executor result differs from the row engine's by
    (type, ``repr``) of any cell, row order included; and how many ran."""
    databases, statements = scaled_statements(seed, scale)
    executors = {name: Executor(db) for name, db in databases.items()}
    references = {
        name: ReferenceExecutor(db) for name, db in databases.items()
    }
    mismatches = [
        f"{name}: {sql}" for name, sql in statements
        if _exact(executors[name], sql) != _exact(references[name], sql)
    ]
    return mismatches, len(statements)


def test_executor_matches_row_engine_cell_for_cell():
    mismatches, compared = exact_mismatches(seed=7, scale=4)
    assert compared > 200
    assert mismatches == []


# -- the per-batch scalar memo ---------------------------------------------------


def _scalar_db():
    db = Database("scalar_memo")
    db.create_table(
        "T",
        [Column("I", "INTEGER", "Key."), Column("D", "DATE", "Day.")],
        rows=[
            (n, datetime.date(2020, 1, 1 + n % 2)) for n in range(8)
        ],
        description="Scalar memo table.",
    )
    return db


def test_scalar_memo_keeps_equal_values_of_other_types_apart():
    # 1 == 1.0 == True: a memo keyed on the argument tuple would give the
    # float (or bool) rows the first row's result.
    db = _scalar_db()
    for sql in (
        "SELECT CAST(ABS(CASE WHEN I = 1 THEN 1 ELSE 1.0 END) AS TEXT)"
        " FROM T",
        "SELECT CAST(COALESCE(CASE WHEN I = 1 THEN TRUE ELSE 1 END, 0)"
        " AS TEXT) FROM T",
    ):
        assert _exact(Executor(db), sql) == _exact(ReferenceExecutor(db), sql)


def test_to_char_over_dates_stays_memoised():
    sql = "SELECT TO_CHAR(D, 'YYYY-MM-DD') FROM T"
    db = _scalar_db()
    real = evaluator.call_scalar
    calls = []

    def spy(name, args):
        calls.append(name)
        return real(name, args)

    with mock.patch.object(evaluator, "call_scalar", spy):
        result = Executor(db).execute(sql)
    assert calls == ["TO_CHAR", "TO_CHAR"]  # two distinct dates, eight rows
    assert _typed(result.rows) == _typed(
        ReferenceExecutor(db).execute(sql).rows
    )
