"""Trace JSONL export/import and the span-tree renderer.

One trace file is a sequence of JSON records, one per line:

* a ``{"type": "meta", ...}`` header (schema version, generator);
* one ``{"type": "span", ...}`` record per finished span
  (:meth:`repro.obs.tracing.Span.to_record`);
* optionally a final ``{"type": "metrics", "snapshot": {...}}`` record —
  the process-wide registry at export time.

:func:`render_trace_payload` is the engine behind ``python -m repro
trace``: it reassembles the span forest from ``parent_id`` links (spans
whose parent is not in the file — e.g. a cross-tracer parent — render as
roots), draws an indented tree with durations and compacted attributes,
then prints per-operator rollups (count, wall time, LLM tokens/cost) and
the metrics snapshot. :func:`rollup_spans` is the one span fold; the
ledger's ``timing.json`` and the harness profile use it too.
"""

from __future__ import annotations

import json
import math
import threading

from .tracing import TRACE_SCHEMA_VERSION

#: Attributes too long to inline in the tree are truncated to this length.
_ATTR_VALUE_LIMIT = 60

#: Serializes whole-file trace exports. Concurrent exporters (two threads
#: writing the same path) each write their complete record sequence
#: instead of interleaving half-written JSONL lines into the same path.
_EXPORT_LOCK = threading.Lock()


def write_trace(path, records, metrics=None, meta=None):
    """Write span ``records`` (+ optional metrics snapshot) as JSONL.

    The export runs under a process-wide lock so records are flushed as
    one atomic sequence — two exporters racing on one path can never
    produce torn or interleaved lines.
    """
    header = {
        "type": "meta",
        "schema_version": TRACE_SCHEMA_VERSION,
        "generator": "repro.obs",
    }
    header.update(meta or {})
    with _EXPORT_LOCK, open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header, sort_keys=True, default=str) + "\n")
        for record in records:
            handle.write(json.dumps(record, sort_keys=True, default=str))
            handle.write("\n")
        if metrics is not None:
            handle.write(json.dumps(
                {"type": "metrics", "snapshot": metrics},
                sort_keys=True, default=str,
            ) + "\n")
    return len(records)


def load_trace(path):
    """Parse a trace file into ``{"meta", "spans", "metrics"}``.

    Unknown record types are ignored (forward compatibility); malformed
    lines raise ``ValueError`` with the offending line number.
    """
    meta = {}
    spans = []
    metrics = None
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{line_number}: not valid JSON ({error})"
                ) from None
            kind = record.get("type")
            if kind == "meta":
                meta = record
            elif kind == "span":
                spans.append(record)
            elif kind == "metrics":
                metrics = record.get("snapshot")
    return {"meta": meta, "spans": spans, "metrics": metrics}


# -- tree assembly ------------------------------------------------------


def build_forest(spans):
    """Group span records into (roots, children-by-id), start-ordered."""
    by_id = {span["span_id"]: span for span in spans}
    children = {}
    roots = []
    ordered = sorted(
        spans, key=lambda span: (span.get("start_ms", 0.0), span["span_id"])
    )
    for span in ordered:
        parent_id = span.get("parent_id")
        if parent_id and parent_id in by_id:
            children.setdefault(parent_id, []).append(span)
        else:
            roots.append(span)
    return roots, children


def _format_attr(key, value):
    text = str(value)
    if len(text) > _ATTR_VALUE_LIMIT:
        text = text[: _ATTR_VALUE_LIMIT - 1] + "…"
    if isinstance(value, float):
        text = f"{value:.4g}"
    return f"{key}={text!r}" if isinstance(value, str) else f"{key}={text}"


def _span_line(span, depth):
    indent = "  " * depth
    duration = span.get("duration_ms", 0.0)
    parts = [f"{indent}{span['name']}", f"{duration:.2f}ms"]
    if span.get("status", "ok") != "ok":
        parts.append(f"!{span['status']}")
    attributes = span.get("attributes") or {}
    parts.extend(
        _format_attr(key, value) for key, value in sorted(attributes.items())
    )
    if span.get("error"):
        parts.append(f"error={span['error']!r}")
    return "  ".join(parts)


def _keep_set(spans, children, slow_ms):
    """Spans at/over the ``--slow`` threshold, plus all their ancestors."""
    parents = {
        child["span_id"]: parent_id
        for parent_id, kids in children.items() for child in kids
    }
    by_id = {span["span_id"]: span for span in spans}
    keep = set()
    for span in spans:
        if span.get("duration_ms", 0.0) >= slow_ms:
            span_id = span["span_id"]
            while span_id and span_id not in keep:
                keep.add(span_id)
                span_id = parents.get(span_id)
    return keep, by_id


def render_span_tree(spans, slow_ms=None):
    """The indented span tree as a string (empty string for no spans)."""
    if not spans:
        return ""
    roots, children = build_forest(spans)
    keep = None
    if slow_ms is not None:
        keep, _by_id = _keep_set(spans, children, slow_ms)
    lines = []

    def walk(span, depth):
        if keep is not None and span["span_id"] not in keep:
            return
        lines.append(_span_line(span, depth))
        for child in children.get(span["span_id"], ()):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines)


# -- rollups ------------------------------------------------------------


def _exact_quantile(sorted_values, q):
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def rollup_spans(records):
    """Fold span records by name: the one rollup behind ``repro trace``,
    the ledger's ``timing.json`` and the harness profile.

    Per name: count, ``total_ms``, ``self_ms`` (duration minus the direct
    children's), exact p50/p90/p99/max, errors, and LLM calls/tokens/cost.
    Non-span records are skipped. Records need no ``span_id``/``parent_id``;
    a span whose parent is not among ``records`` counts as a root, so the
    self times of one run's spans sum to its roots' duration.
    """
    spans = [
        record for record in records or ()
        if record.get("type", "span") == "span"
    ]
    child_ms = {}
    for span in spans:
        parent_id = span.get("parent_id")
        if parent_id:
            child_ms[parent_id] = (
                child_ms.get(parent_id, 0.0) + span.get("duration_ms", 0.0)
            )
    rollup = {}
    durations = {}
    for span in spans:
        duration = span.get("duration_ms", 0.0)
        entry = rollup.setdefault(span["name"], {
            "count": 0, "total_ms": 0.0, "self_ms": 0.0, "errors": 0,
            "llm_calls": 0, "input_tokens": 0, "output_tokens": 0,
            "cost_usd": 0.0,
        })
        entry["count"] += 1
        entry["total_ms"] += duration
        entry["self_ms"] += duration - child_ms.get(span.get("span_id"), 0.0)
        if span.get("status", "ok") != "ok":
            entry["errors"] += 1
        attributes = span.get("attributes") or {}
        entry["llm_calls"] += attributes.get("llm.calls", 0)
        entry["input_tokens"] += attributes.get("llm.input_tokens", 0)
        entry["output_tokens"] += attributes.get("llm.output_tokens", 0)
        entry["cost_usd"] += attributes.get("llm.cost_usd", 0.0)
        durations.setdefault(span["name"], []).append(duration)
    for name, values in durations.items():
        values.sort()
        rollup[name].update(
            p50_ms=_exact_quantile(values, 0.50),
            p90_ms=_exact_quantile(values, 0.90),
            p99_ms=_exact_quantile(values, 0.99),
            max_ms=values[-1],
        )
    return rollup


def _simple_table(title, headers, rows):
    widths = [len(header) for header in headers]
    rendered = []
    for row in rows:
        cells = [str(cell) for cell in row]
        rendered.append(cells)
        widths = [max(width, len(cell)) for width, cell in zip(widths, cells)]
    lines = [title]
    lines.append("  ".join(
        header.ljust(width) for header, width in zip(headers, widths)
    ))
    for cells in rendered:
        lines.append("  ".join(
            cell.ljust(width) for cell, width in zip(cells, widths)
        ))
    return "\n".join(lines)


def render_rollups(spans):
    rollup = rollup_spans(spans)
    if not rollup:
        return ""
    rows = []
    for name in sorted(rollup, key=lambda key: -rollup[key]["total_ms"]):
        entry = rollup[name]
        rows.append((
            name,
            entry["count"],
            f"{entry['total_ms']:.2f}",
            entry["llm_calls"],
            entry["input_tokens"],
            entry["output_tokens"],
            f"{entry['cost_usd']:.5f}",
            entry["errors"],
        ))
    return _simple_table(
        "-- per-operator rollup --",
        ["span", "count", "total_ms", "llm_calls", "in_tok", "out_tok",
         "cost_usd", "errors"],
        rows,
    )


def render_metrics_snapshot(snapshot):
    """Human-readable rendering of a registry snapshot."""
    lines = [
        f"-- metrics snapshot (schema v{snapshot.get('schema_version')}) --"
    ]
    for kind in ("counters", "gauges"):
        for key, value in (snapshot.get(kind) or {}).items():
            lines.append(f"{kind[:-1]}  {key} = {value}")
    for key, entry in (snapshot.get("histograms") or {}).items():
        lines.append(
            f"histogram  {key}: count={entry['count']} sum={entry['sum']} "
            f"p50={entry['p50']} p90={entry['p90']} p99={entry['p99']}"
        )
    return "\n".join(lines)


def render_trace_payload(payload, slow_ms=None, show_metrics=True):
    """Full ``repro trace`` output for a loaded trace payload."""
    spans = payload["spans"]
    meta = payload.get("meta") or {}
    roots = len(build_forest(spans)[0])
    sections = [
        f"trace: {len(spans)} span(s), {roots} run(s), "
        f"schema v{meta.get('schema_version', '?')}"
        + (f", slow>={slow_ms:g}ms" if slow_ms is not None else "")
    ]
    tree = render_span_tree(spans, slow_ms=slow_ms)
    if tree:
        sections.append(tree)
    rollup = render_rollups(spans)
    if rollup:
        sections.append(rollup)
    if show_metrics and payload.get("metrics"):
        sections.append(render_metrics_snapshot(payload["metrics"]))
    return "\n\n".join(sections)
