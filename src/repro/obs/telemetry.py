"""Streaming metric export: Prometheus text and a push sink.

PR 3 gave the process a :class:`~repro.obs.metrics.MetricsRegistry`, but
its snapshots only ever left the process as an end-of-run dump. This
module is the *streaming* side (DESIGN.md §6g). :func:`render_promtext`
renders a registry snapshot in the Prometheus text exposition format
v0.0.4 (``# TYPE`` comments, ``_total`` counters, ``_bucket``/``_sum``/
``_count`` histogram families with a ``+Inf`` bucket); the output
round-trips through ``scripts/check_promtext.py`` in CI, and ``/metrics``
serves the same text.

:class:`TelemetrySink` is the push half: a bounded-queue background
thread that writes the newest snapshot to a file atomically (tmp +
``os.replace``) so a scraper — or ``repro watch`` — never reads a torn
file. The harness publishes one snapshot per question-group, which turns
a long bench run into a live metric stream instead of a single
end-of-run dump. Publishing never blocks: when the queue is full the
snapshot is dropped and counted (``telemetry.dropped`` in the registry
plus :meth:`TelemetrySink.stats`), because losing one intermediate
snapshot of a monotonically-growing registry is harmless while stalling
the harness is not.

Like the rest of :mod:`repro.obs`, nothing here imports the wider repo.
"""

from __future__ import annotations

import os
import queue
import threading

from .metrics import get_metrics

_CLOSE = object()


# -- key handling ------------------------------------------------------------


def split_metric_key(key):
    """``"name{k=v,k2=v2}"`` -> ``(name, {"k": "v", "k2": "v2"})``.

    Inverse of the registry's label folding (``_metric_key``): label
    values produced there never contain ``,`` or ``}`` (operator names,
    database names, model names), so a split parse is exact.
    """
    name, brace, inner = key.partition("{")
    if not brace:
        return key, {}
    labels = {}
    for part in inner.rstrip("}").split(","):
        label, _, value = part.partition("=")
        labels[label] = value
    return name, labels


def sanitize_metric_name(name):
    """A valid Prometheus metric name: ``[a-zA-Z_:][a-zA-Z0-9_:]*``."""
    cleaned = "".join(
        char if char.isalnum() or char in "_:" else "_" for char in name
    )
    if not cleaned or not (cleaned[0].isalpha() or cleaned[0] in "_:"):
        cleaned = "_" + cleaned
    return cleaned


def _sanitize_label_name(name):
    cleaned = "".join(
        char if char.isalnum() or char == "_" else "_" for char in name
    )
    if not cleaned or not (cleaned[0].isalpha() or cleaned[0] == "_"):
        cleaned = "_" + cleaned
    return cleaned


def _escape_label_value(value):
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _format_labels(labels, extra=None):
    pairs = dict(labels)
    if extra:
        pairs.update(extra)
    if not pairs:
        return ""
    inner = ",".join(
        f'{_sanitize_label_name(label)}="{_escape_label_value(value)}"'
        for label, value in sorted(pairs.items())
    )
    return "{" + inner + "}"


def _format_value(value):
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


# -- Prometheus text format --------------------------------------------------


def render_promtext(snapshot):
    """Prometheus text exposition format v0.0.4 for a registry snapshot.

    Counters are exported under ``<name>_total`` (the Prometheus naming
    convention, which also keeps counter/gauge families from colliding),
    gauges as-is, histograms as ``_bucket``/``_sum``/``_count`` families
    with cumulative ``le`` buckets ending at ``+Inf`` (requires the
    schema-v2 snapshot ``buckets`` field). Families sharing a base name
    across label sets get one ``# TYPE`` line each.
    """
    lines = []
    typed = set()

    def emit_type(name, kind):
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for key, value in (snapshot.get("counters") or {}).items():
        raw_name, labels = split_metric_key(key)
        name = sanitize_metric_name(raw_name) + "_total"
        emit_type(name, "counter")
        lines.append(f"{name}{_format_labels(labels)} {_format_value(value)}")
    for key, value in (snapshot.get("gauges") or {}).items():
        raw_name, labels = split_metric_key(key)
        name = sanitize_metric_name(raw_name)
        emit_type(name, "gauge")
        lines.append(f"{name}{_format_labels(labels)} {_format_value(value)}")
    for key, entry in (snapshot.get("histograms") or {}).items():
        raw_name, labels = split_metric_key(key)
        name = sanitize_metric_name(raw_name)
        emit_type(name, "histogram")
        buckets = entry.get("buckets") or [["+Inf", entry.get("count", 0)]]
        for le, cumulative in buckets:
            lines.append(
                f"{name}_bucket{_format_labels(labels, {'le': le})} "
                f"{_format_value(cumulative)}"
            )
        lines.append(
            f"{name}_sum{_format_labels(labels)} "
            f"{_format_value(entry.get('sum', 0.0))}"
        )
        lines.append(
            f"{name}_count{_format_labels(labels)} "
            f"{_format_value(entry.get('count', 0))}"
        )
    return "\n".join(lines) + "\n"


# -- the push sink -----------------------------------------------------------


def atomic_write_text(path, text):
    """Write ``text`` to ``path`` atomically (tmp file + ``os.replace``)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp_path = os.path.join(
        directory, f".{os.path.basename(path)}.{os.getpid()}.tmp"
    )
    with open(tmp_path, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp_path, path)


class TelemetrySink:
    """Bounded-queue push exporter: newest snapshot wins, writes atomic.

    ``publish()`` enqueues a snapshot (or calls ``snapshot_fn`` to take
    one) and returns immediately; the worker thread drains the queue and
    rewrites ``path``. A full queue drops the publish and counts it —
    the next successful publish carries strictly more information, so a
    drop never loses a counter increment, only an intermediate view.
    ``close()`` drains outstanding snapshots, writes one final snapshot
    (so the file always reflects end-of-run state), and joins the worker.
    """

    def __init__(self, path, snapshot_fn=None, maxsize=8, registry=None):
        self.path = str(path)
        self._snapshot_fn = snapshot_fn
        self._registry = registry or get_metrics()
        self._queue = queue.Queue(maxsize=maxsize)
        self._lock = threading.Lock()
        self._published = 0
        self._dropped = 0
        self._writes = 0
        self._write_errors = 0
        self._closed = False
        self._worker = threading.Thread(
            target=self._run, name="telemetry-sink", daemon=True
        )
        self._worker.start()

    def _take_snapshot(self):
        if self._snapshot_fn is not None:
            return self._snapshot_fn()
        return self._registry.snapshot()

    def publish(self, snapshot=None):
        """Enqueue a snapshot for export; never blocks. True if queued."""
        with self._lock:
            if self._closed:
                return False
        if snapshot is None:
            snapshot = self._take_snapshot()
        try:
            self._queue.put_nowait(snapshot)
        except queue.Full:
            with self._lock:
                self._dropped += 1
            self._registry.inc("telemetry.dropped")
            return False
        with self._lock:
            self._published += 1
        return True

    def _run(self):
        while True:
            item = self._queue.get()
            if item is _CLOSE:
                return
            # Coalesce: if more snapshots are already queued, the newest
            # supersedes this one — skip straight to it.
            while True:
                try:
                    newer = self._queue.get_nowait()
                except queue.Empty:
                    break
                if newer is _CLOSE:
                    self._write(item)
                    return
                item = newer
            self._write(item)

    def _write(self, snapshot):
        try:
            atomic_write_text(self.path, render_promtext(snapshot))
        except OSError:
            with self._lock:
                self._write_errors += 1
            self._registry.inc("telemetry.write_errors")
        else:
            with self._lock:
                self._writes += 1

    def close(self, timeout=10.0):
        """Flush a final snapshot, stop the worker, join it."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        final = self._take_snapshot()
        self._queue.put(final)      # blocking put: the final state must land
        self._queue.put(_CLOSE)
        self._worker.join(timeout=timeout)

    def stats(self):
        with self._lock:
            return {
                "published": self._published,
                "dropped": self._dropped,
                "writes": self._writes,
                "write_errors": self._write_errors,
            }

    def __enter__(self):
        return self

    def __exit__(self, *_exc_info):
        self.close()
