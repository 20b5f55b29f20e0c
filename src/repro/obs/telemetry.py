"""Metric export in the Prometheus text format.

:func:`render_promtext` renders a registry snapshot in the Prometheus
text exposition format v0.0.4 (``# TYPE`` comments, ``_total``
counters, ``_bucket``/``_sum``/``_count`` histogram families with a
``+Inf`` bucket); the output round-trips through
``scripts/check_promtext.py`` in CI (DESIGN.md §6g). ``/metrics`` serves
the same text live, and ``--telemetry-out PATH`` writes it once, at the
end of a run, through :func:`atomic_write_text` (tmp file +
``os.replace``), so a reader never sees a torn file.

Like the rest of :mod:`repro.obs`, nothing here imports the wider repo.
"""

from __future__ import annotations

import os


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


# -- the file


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
