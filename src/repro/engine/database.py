"""Database catalog: a named collection of tables plus schema export.

The catalog is the boundary between the engine and the rest of the system:
the executor resolves table names here, and GenEdit's pre-processing reads
:meth:`Database.schema_text` / :meth:`Database.profiles` to build schema
elements (augmented with top-5 frequent values per attribute, §2.1).
"""

from __future__ import annotations

from .errors import UnknownTableError
from .table import Table, profile_table


class Database:
    """A named, case-insensitive catalog of :class:`Table` objects."""

    def __init__(self, name, tables=None, description=""):
        self.name = name
        self.description = description
        self._tables = {}
        self._catalog_version = 0
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
        it, which is what lets the evaluation result cache key gold result
        sets on ``(database, version, sql)`` and drop them the moment data
        changes. Code that mutates ``table.rows`` directly bypasses the
        counter and must invalidate caches itself.
        """
        return self._catalog_version + sum(
            table.version for table in self._tables.values()
        )

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
