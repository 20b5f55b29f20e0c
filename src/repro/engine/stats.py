"""Engine counters, read back from the metrics registry.

The executor, the logical rewriter and the compiled-predicate cache count
straight into :data:`repro.obs.metrics.METRICS` under the ``engine.``
prefix (``engine.columnar_selects``, ``engine.rewrite_s``,
``engine.predicate_cache.hits`` …), so a live server's ``/metrics`` shows
them and the registry's lock keeps them exact under the serving layer's
worker pool. :func:`engine_snapshot` is the bench profile's (schema v4)
view of them; :func:`reset_engine_stats` zeroes them at profile
boundaries (they are process-global because compiled closures and
rewritten plans are shared across executor instances).
"""

from __future__ import annotations

from ..obs.metrics import METRICS

_COUNTERS = ("rewrite_s", "compile_s", "columnar_selects",
             "row_fallback_selects", "hash_joins", "loop_joins")


def engine_snapshot():
    """Current engine counters plus compiled-expression cache statistics."""
    from .evaluator import compiled_cache_size

    snapshot = {
        key: METRICS.counter_value(f"engine.{key}") for key in _COUNTERS
    }
    for key in ("rewrite_s", "compile_s"):
        snapshot[key] = round(float(snapshot[key]), 6)
    cache = {
        key: METRICS.counter_value(f"engine.predicate_cache.{key}")
        for key in ("hits", "misses", "fallbacks")
    }
    cache["entries"] = compiled_cache_size()
    snapshot["predicate_cache"] = cache
    return snapshot


def reset_engine_stats():
    """Zero every ``engine.`` metric and clear the compiled-expression
    cache. Safe while other threads execute: a racing query can at worst
    count or cache once *after* the reset."""
    from .evaluator import reset_vector_cache

    METRICS.reset(prefix="engine.")
    reset_vector_cache()
