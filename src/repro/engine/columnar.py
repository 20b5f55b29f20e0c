"""Columnar relation representation for batched query execution.

A :class:`ColumnarRelation` holds the same logical rows the executor's
row-environment path works over, but stored as per-column arrays keyed by
``(binding, column)``. The columnar pipeline filters, joins, groups and
projects whole arrays at a time; only when a clause needs semantics the
vector compiler cannot express (window functions, correlated subqueries,
ambiguous resolution) does the relation materialise back into per-row
binding dicts / :class:`~repro.engine.evaluator.Environment` chains.

Columns are lazy: a relation derived by ``take`` (filter/sort gather) or by
a join only builds the arrays an expression actually touches. Arrays for
base tables come from :meth:`repro.engine.table.Table.column_arrays`, which
is cached per table version, so repeated executions of candidate SQL —
GenEdit's compounding-operator loop re-executes constantly — skip the
row→column transpose entirely.
"""

from __future__ import annotations


class ColumnarRelation:
    """An ordered bag of rows stored column-wise.

    ``schema`` mirrors the executor's: an ordered list of
    ``(binding_upper, [original column names])``. ``count`` is the number of
    rows. Column arrays are built on first access and memoized.
    """

    __slots__ = ("schema", "count", "_arrays", "_thunks")

    def __init__(self, schema, count, arrays=None, thunks=None):
        self.schema = schema
        self.count = count
        self._arrays = arrays if arrays is not None else {}
        self._thunks = thunks if thunks is not None else {}

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_table(cls, binding_name, table):
        """Wrap a base table; arrays are the table's version-cached columns."""
        binding = binding_name.upper()
        schema = [(binding, [column.name for column in table.columns])]
        source = table.column_arrays()
        arrays = {
            (binding, name): array for name, array in source.items()
        }
        return cls(schema, len(table.rows), arrays=arrays)

    @classmethod
    def from_result(cls, binding_name, result):
        """Wrap a materialised Result (CTE or derived table)."""
        binding = binding_name.upper()
        schema = [(binding, list(result.columns))]
        count = len(result.rows)
        columns = [[] for _ in result.columns]
        for row in result.rows:
            for position, value in enumerate(row):
                columns[position].append(value)
        arrays = {}
        for position, name in enumerate(result.columns):
            arrays[(binding, name.upper())] = columns[position]
        return cls(schema, count, arrays=arrays)

    # -- column access -------------------------------------------------------

    def array(self, binding, column):
        """The full value array for ``(binding, column)`` (both upper-case)."""
        key = (binding, column)
        array = self._arrays.get(key)
        if array is None:
            thunk = self._thunks.get(key)
            if thunk is None:
                raise KeyError(key)
            array = thunk()
            self._arrays[key] = array
        return array

    def has(self, binding, column):
        key = (binding, column)
        return key in self._arrays or key in self._thunks

    def column_keys(self):
        for binding, columns in self.schema:
            for column in columns:
                yield binding, column.upper()

    # -- derivations ---------------------------------------------------------

    def take(self, indices):
        """A relation of the rows at ``indices``, in that order (lazily)."""
        thunks = {}
        for key in self.column_keys():
            def gather(key=key):
                source = self.array(*key)
                return [source[index] for index in indices]
            thunks[key] = gather
        return ColumnarRelation(self.schema, len(indices), thunks=thunks)

    @classmethod
    def join(cls, left, right, pairs):
        """Combine two relations along aligned index ``pairs``.

        ``pairs`` is a list of ``(left_index, right_index)`` where either
        side may be None (the null-extended side of an outer join).
        """
        schema = left.schema + right.schema
        thunks = {}
        for source, side in ((left, 0), (right, 1)):
            for key in source.column_keys():
                def gather(key=key, source=source, side=side):
                    array = source.array(*key)
                    return [
                        array[pair[side]] if pair[side] is not None else None
                        for pair in pairs
                    ]
                thunks[key] = gather
        return cls(schema, len(pairs), thunks=thunks)

    # -- materialisation -----------------------------------------------------

    def binding_rows(self):
        """Per-row ``{binding: {column: value}}`` dicts (the legacy shape)."""
        per_binding = []
        for binding, columns in self.schema:
            uppers = [column.upper() for column in columns]
            arrays = [self.array(binding, upper) for upper in uppers]
            per_binding.append((binding, uppers, arrays))
        rows = []
        for index in range(self.count):
            rows.append({
                binding: {
                    upper: array[index]
                    for upper, array in zip(uppers, arrays)
                }
                for binding, uppers, arrays in per_binding
            })
        return rows

    def __repr__(self):
        bindings = ", ".join(binding for binding, _cols in self.schema)
        return f"ColumnarRelation([{bindings}], {self.count} rows)"
