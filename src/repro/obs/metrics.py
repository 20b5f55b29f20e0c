"""Process-wide metrics: counters, gauges, and bounded-memory histograms.

The registry is the aggregation side of :mod:`repro.obs`: spans answer
"what happened in *this* run", the registry answers "what has this process
done so far" — operator latencies, LLM tokens/cost per operator, cache
hit rates, engine path counters, diagnostics rule fires, harness
throughput. Everything is guarded by one lock, so the parallel
per-database harness path aggregates correctly.

Histograms use fixed bucket boundaries (memory is O(#buckets) no matter
how many observations arrive); quantiles report the upper bound of the
bucket containing the target rank, with the true observed maximum for the
overflow bucket. An observation exactly equal to a boundary lands in that
boundary's bucket (``value <= bound`` semantics).

Use :data:`METRICS` (via :func:`get_metrics`) for the process-wide
registry; instantiate :class:`MetricsRegistry` directly in tests that need
isolation.
"""

from __future__ import annotations

import bisect
import math
import threading

#: Version of the metrics-snapshot schema (see DESIGN.md §6g). v2 added
#: the cumulative ``buckets`` list (with the ``+Inf`` bucket) to histogram
#: snapshots so Prometheus export is well-formed.
METRICS_SCHEMA_VERSION = 2

#: Default latency buckets, in milliseconds.
DEFAULT_BUCKETS_MS = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
    250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)


class Histogram:
    """Fixed-bucket histogram: O(#buckets) memory, cheap quantiles."""

    __slots__ = ("bounds", "counts", "overflow", "count", "total",
                 "min", "max")

    def __init__(self, bounds=DEFAULT_BUCKETS_MS):
        self.bounds = tuple(float(bound) for bound in bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("histogram bounds must be strictly increasing")
        self.counts = [0] * len(self.bounds)
        self.overflow = 0
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None

    def observe(self, value):
        value = float(value)
        index = bisect.bisect_left(self.bounds, value)
        if index < len(self.bounds):
            self.counts[index] += 1
        else:
            self.overflow += 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def quantile(self, q):
        """The bucket upper bound covering rank ``ceil(q * count)``.

        Returns the observed maximum for the overflow bucket and 0.0 when
        empty.
        """
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        cumulative = 0
        for bound, bucket_count in zip(self.bounds, self.counts):
            cumulative += bucket_count
            if cumulative >= rank:
                return bound
        return self.max

    def cumulative_buckets(self):
        """``[(upper bound, cumulative count), ...]`` ending with ``+Inf``.

        The Prometheus histogram contract: counts are cumulative and the
        final ``+Inf`` bucket equals the total observation count, so the
        overflow bucket (values above the top bound) is never lost in
        export. Bounds are rendered with ``%g`` (``"0.1"``, ``"10000"``)
        to keep the snapshot JSON-friendly.
        """
        buckets = []
        cumulative = 0
        for bound, bucket_count in zip(self.bounds, self.counts):
            cumulative += bucket_count
            buckets.append((f"{bound:g}", cumulative))
        buckets.append(("+Inf", self.count))
        return buckets

    def snapshot(self):
        return {
            "count": self.count,
            "sum": round(self.total, 4),
            "min": round(self.min, 4) if self.min is not None else None,
            "max": round(self.max, 4) if self.max is not None else None,
            "p50": round(self.quantile(0.50), 4),
            "p90": round(self.quantile(0.90), 4),
            "p99": round(self.quantile(0.99), 4),
            "buckets": [
                [le, cumulative]
                for le, cumulative in self.cumulative_buckets()
            ],
        }


def _metric_key(name, labels):
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Thread-safe named counters, gauges, and histograms.

    Labels are folded into the metric key in sorted order —
    ``inc("llm.calls", operator="plan")`` shows up in the snapshot as
    ``llm.calls{operator=plan}`` — so the snapshot stays a flat,
    JSON-friendly mapping.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters = {}
        self._gauges = {}
        self._histograms = {}

    def inc(self, name, value=1, **labels):
        key = _metric_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def set_gauge(self, name, value, **labels):
        key = _metric_key(name, labels)
        with self._lock:
            self._gauges[key] = value

    def observe(self, name, value, buckets=None, **labels):
        """Record ``value`` into the histogram named by ``name`` + labels.

        ``buckets`` only takes effect on the observation that *creates*
        the histogram; passing different bounds for an existing key is a
        programming error (the recorded distribution would silently keep
        the first bounds) and raises ``ValueError``. Re-passing the same
        bounds is fine — call sites may all carry their bucket spec.
        """
        key = _metric_key(name, labels)
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = Histogram(
                    buckets or DEFAULT_BUCKETS_MS
                )
            elif buckets is not None:
                bounds = tuple(float(bound) for bound in buckets)
                if bounds != histogram.bounds:
                    raise ValueError(
                        f"histogram {key!r} already exists with bounds "
                        f"{histogram.bounds}; cannot re-bucket to {bounds}"
                    )
            histogram.observe(value)

    def counter_value(self, name, **labels):
        with self._lock:
            return self._counters.get(_metric_key(name, labels), 0)

    def histogram(self, name, **labels):
        with self._lock:
            return self._histograms.get(_metric_key(name, labels))

    def snapshot(self):
        """A JSON-ready, versioned view of every metric (sorted keys)."""
        with self._lock:
            counters = {
                key: round(value, 6) if isinstance(value, float) else value
                for key, value in sorted(self._counters.items())
            }
            gauges = {
                key: round(value, 6) if isinstance(value, float) else value
                for key, value in sorted(self._gauges.items())
            }
            histograms = {
                key: histogram.snapshot()
                for key, histogram in sorted(self._histograms.items())
            }
        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def reset(self, prefix=""):
        """Drop every metric whose key starts with ``prefix`` (all of
        them by default)."""
        with self._lock:
            for metrics in (self._counters, self._gauges, self._histograms):
                for key in [key for key in metrics if key.startswith(prefix)]:
                    del metrics[key]


#: The process-wide registry every instrumented module records into.
METRICS = MetricsRegistry()


def get_metrics():
    """The process-wide :class:`MetricsRegistry`."""
    return METRICS


def global_snapshot():
    """Snapshot :data:`METRICS` with shared-cache stats folded in as gauges.

    The LRUs of ``parse_cached``, of the vectorizer's term expansion, of
    ``normalize`` and of the simulated LLM's token sets keep their own
    ``cache_info()`` (no per-call hook is worth the contention), so their
    numbers are synced here at snapshot time, as is the live size of the
    engine's compiled-predicate cache.
    """
    # Lazy imports: obs stays standalone.
    from ..engine.evaluator import compiled_cache_size
    from ..llm.simulated import _token_set
    from ..sql.parser import parse_cache_info
    from ..text.normalize import _normalized
    from ..text.vectorize import _terms

    metrics = get_metrics()
    for prefix, info in (
        ("parse_cache", parse_cache_info()),
        ("text.terms_cache", _terms.cache_info()),
        ("text.normalized_cache", _normalized.cache_info()),
        ("llm.token_set_cache", _token_set.cache_info()),
    ):
        metrics.set_gauge(f"{prefix}.hits", info.hits)
        metrics.set_gauge(f"{prefix}.misses", info.misses)
        metrics.set_gauge(f"{prefix}.currsize", info.currsize)
    metrics.set_gauge("engine.predicate_cache.entries", compiled_cache_size())
    return metrics.snapshot()
