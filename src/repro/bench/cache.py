"""Shared evaluation caches: the harness fast path.

Every experiment in the harness re-executes the *same* gold SQL once per
system under test (Table 1 alone runs ~7 systems over one workload), and
constructs a fresh :class:`~repro.engine.executor.Executor` per EX check.
:class:`EvaluationCache` removes both costs:

* one executor per database, reused for every statement against it;
* the *comparable* result multiset of each ``(database, sql)`` pair is
  memoized in a per-database table tagged with the database's mutation
  :attr:`version <repro.engine.database.Database.version>`: inserting a
  row or adding a table makes the next lookup swap in a fresh table, which
  drops every stale entry at once.

Execution failures are memoized too (as the error text), so a predicted
statement that fails once does not re-parse and re-fail on every retry.

The harness's per-database worker threads share one cache. Each writes
only its own database's table and nothing iterates a table, so concurrent
misses at worst compute the same entry twice (the ``hits``/``misses``
tallies are unlocked and may undercount under contention).
"""

from __future__ import annotations

from collections import namedtuple

from ..engine.errors import ExecutionError
from ..engine.executor import Executor
from ..obs.metrics import get_metrics
from ..sql.errors import SqlError

_OK = "ok"
_ERR = "err"

#: ``functools.lru_cache``-shaped stats, so cache consumers can treat
#: :meth:`EvaluationCache.cache_info` and ``parse_cached.cache_info()``
#: uniformly (``maxsize`` is None: this cache is version-evicted, not
#: size-bounded).
CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])


class CachedExecutionError(Exception):
    """Replayed failure of a statement whose first execution failed."""


class EvaluationCache:
    """Memoizes executors and comparable result sets per database."""

    def __init__(self):
        # id(database) -> (database, executor); the strong reference keeps
        # the id stable for the cache's lifetime.
        self._executors = {}
        # id(database) -> (version, {sql: entry})
        self._results = {}
        self.hits = 0
        self.misses = 0

    # -- executors -------------------------------------------------------

    def executor(self, database):
        """The shared executor for ``database`` (created on first use)."""
        entry = self._executors.get(id(database))
        if entry is None:
            entry = (database, Executor(database))
            self._executors[id(database)] = entry
        return entry[1]

    # -- comparable result sets ------------------------------------------

    def comparable(self, database, sql):
        """The comparable multiset of ``sql`` on ``database``, memoized.

        Raises :class:`CachedExecutionError` when the statement fails (and
        remembers the failure). Entries are tagged with
        ``database.version``, so any sanctioned mutation replaces the
        database's whole table rather than serving stale results.
        """
        version, results = self._results.get(id(database), (None, None))
        if version != database.version:
            results = {}
            self._results[id(database)] = (database.version, results)
        entry = results.get(sql)
        if entry is None:
            self.misses += 1
            get_metrics().inc("eval_cache.misses")
            executor = self.executor(database)
            try:
                entry = (_OK, executor.execute(sql).comparable())
            except (SqlError, ExecutionError) as error:
                entry = (_ERR, str(error))
            results[sql] = entry
        else:
            self.hits += 1
            get_metrics().inc("eval_cache.hits")
        if entry[0] == _ERR:
            raise CachedExecutionError(entry[1])
        return entry[1]

    # -- maintenance -----------------------------------------------------

    def invalidate(self, database=None):
        """Drop memoized results (for ``database``, or everything).

        Needed only after out-of-band mutation (e.g. editing ``table.rows``
        in place), which the version counter cannot see.
        """
        if database is None:
            self._results.clear()
            self._executors.clear()
            return
        self._executors.pop(id(database), None)
        self._results.pop(id(database), None)

    def _entries(self):
        """Number of memoized results across all databases."""
        return sum(
            len(results) for _version, results in list(self._results.values())
        )

    def stats(self):
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": self._entries(),
            "executors": len(self._executors),
        }

    def cache_info(self):
        """``lru_cache``-style stats (see :data:`CacheInfo`)."""
        return CacheInfo(
            hits=self.hits,
            misses=self.misses,
            maxsize=None,
            currsize=self._entries(),
        )

    def __repr__(self):
        return (
            f"EvaluationCache({self._entries()} entries, "
            f"{self.hits} hits, {self.misses} misses)"
        )
