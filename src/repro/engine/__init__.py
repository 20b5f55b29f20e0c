"""In-memory SQL execution engine: catalog, typed values, and executor."""

from .database import Database
from .errors import (
    AmbiguousColumnError,
    ExecutionError,
    TypeMismatchError,
    UnknownColumnError,
    UnknownFunctionError,
    UnknownTableError,
)
from .executor import Executor, Result, execute_sql
from .explain import explain
from .stats import engine_snapshot, reset_engine_stats
from .table import Column, Table, TableProfile, profile_table

__all__ = [
    "AmbiguousColumnError",
    "Column",
    "Database",
    "ExecutionError",
    "Executor",
    "Result",
    "Table",
    "TableProfile",
    "TypeMismatchError",
    "UnknownColumnError",
    "UnknownFunctionError",
    "UnknownTableError",
    "engine_snapshot",
    "execute_sql",
    "explain",
    "profile_table",
    "reset_engine_stats",
]
