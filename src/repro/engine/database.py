"""Database catalog: a named collection of tables plus schema export.

The catalog is the boundary between the engine and the rest of the system:
the executor resolves table names here, and GenEdit's pre-processing reads
:meth:`Database.schema_text` / :meth:`Database.profiles` to build schema
elements (augmented with top-5 frequent values per attribute, §2.1).

It is also where results that hold for one database at one version are
memoised: :meth:`Database.memo` returns a named dict (``execution``
outcomes of statements, ``knowledge_lint`` findings, ``generation``
pipeline outcomes) scoped to the current :attr:`Database.version`.
A version bump drops every named memo at once, and the memos are freed
with the database, so no module-level table keyed by database identity or
name is needed. Reads are plain ``dict.get`` calls: entries never mutate
after :meth:`Memo.store`, which takes one module lock and clears a memo
that has reached :data:`_MEMO_CAP` entries.
"""

from __future__ import annotations

import threading

from .errors import UnknownTableError
from .table import Table, profile_table

#: Entries one named memo holds before a store clears it.
_MEMO_CAP = 8192
_MEMO_LOCK = threading.Lock()


class Memo(dict):
    """One named memo of a :class:`Database` (see :meth:`Database.memo`)."""

    __slots__ = ()

    def store(self, key, value):
        """Store ``value`` under ``key`` and return it; clears at the cap."""
        with _MEMO_LOCK:
            if len(self) >= _MEMO_CAP:
                self.clear()
            self[key] = value
        return value


class Database:
    """A named, case-insensitive catalog of :class:`Table` objects."""

    def __init__(self, name, tables=None, description=""):
        self.name = name
        self.description = description
        self._tables = {}
        self._catalog_version = 0
        self._catalog_key = (None, ())
        self._memos = (None, {})
        for table in tables or []:
            self.add_table(table)

    def add_table(self, table):
        # Replacing a table drops its rows' versions from the sum; carry
        # them into the catalog counter so ``version`` never goes back.
        replaced = self._tables.get(table.name.upper())
        self._tables[table.name.upper()] = table
        self._catalog_version += 1 + (replaced.version if replaced else 0)
        return table

    def create_table(self, name, columns, rows=None, description=""):
        """Create, register, and return a new table."""
        return self.add_table(Table(name, columns, rows, description))

    def table(self, name):
        table = self._tables.get(name.upper())
        if table is None:
            known = ", ".join(sorted(self._tables)) or "<empty catalog>"
            raise UnknownTableError(
                f"Unknown table {name!r} in database {self.name!r} "
                f"(known: {known})"
            )
        return table

    def has_table(self, name):
        return name.upper() in self._tables

    @property
    def version(self):
        """Monotonic mutation counter over the catalog and its rows.

        Any sanctioned mutation — adding a table or inserting a row — bumps
        it, which is what scopes every :meth:`memo` to the data it was
        computed on. Code that mutates ``table.rows`` directly bypasses the
        counter and must call :meth:`clear_memos` itself.
        """
        return self._catalog_version + sum(
            table.version for table in self._tables.values()
        )

    @property
    def catalog_key(self):
        """Hashable ``((TABLE, ((COLUMN, type), ...)), ...)`` of the catalog.

        It changes only when a table is added or replaced, and two
        databases with the same tables and columns have equal keys, so a
        plan that reads only the schema can be shared between them.
        """
        version, key = self._catalog_key
        if version != self._catalog_version:
            key = tuple(
                (name, tuple(
                    (column.name.upper(), column.type)
                    for column in table.columns
                ))
                for name, table in self._tables.items()
            )
            self._catalog_key = (self._catalog_version, key)
        return key

    def memo(self, name):
        """The :class:`Memo` called ``name`` for the current ``version``.

        The first call after a version bump replaces every named memo at
        once, so an entry never outlives the data it was computed on. Two
        threads racing here can at worst each start a memo, and one of
        them loses its entries: a recomputation, never a stale read.
        """
        version = self.version
        held, memos = self._memos
        if held != version:
            memos = {}
            self._memos = (version, memos)
        memo = memos.get(name)
        if memo is None:
            memo = memos.setdefault(name, Memo())
        return memo

    def clear_memos(self):
        """Drop every named memo: after editing ``table.rows`` in place,
        which the version cannot see, or before a cold timing."""
        self._memos = (None, {})

    @property
    def tables(self):
        """Tables in catalog (creation) order.

        Creation order matters: it is the order schema elements enter the
        knowledge set and hence the order an *un-linked* generation prompt
        lists them in — context truncation drops the catalog's tail.
        """
        return list(self._tables.values())

    def profiles(self, k=5):
        """Profile every table (row counts, types, top-k values)."""
        return {table.name: profile_table(table, k) for table in self.tables}

    def schema_text(self, include_values=False, value_k=5):
        """Render the schema as DDL-ish text for prompts and documentation."""
        lines = []
        for table in self.tables:
            lines.append(f"TABLE {table.name}")
            if table.description:
                lines.append(f"  -- {table.description}")
            for column in table.columns:
                entry = f"  {column.name} {column.type}"
                if column.description:
                    entry += f"  -- {column.description}"
                if include_values:
                    top = table.top_values(column.name, value_k)
                    if top:
                        rendered = ", ".join(repr(value) for value in top)
                        entry += f"  [top: {rendered}]"
                lines.append(entry)
        return "\n".join(lines)

    def __repr__(self):
        return f"Database({self.name!r}, {len(self._tables)} tables)"
