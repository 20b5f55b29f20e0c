"""Ledger time-series: per-metric run history, level shifts, dashboard.

The run ledger (§6d) makes every harness invocation durable; this module
makes the *sequence* of runs legible. :func:`ledger_series` folds the
``record.json`` files under ``.repro/runs/`` into one series per health
metric — EX, cost/question, token volumes, simulated latency p50/p99,
degradation and error counts, and lint-code counts per rule family
(``GE``/``GK``/``GP``) — keyed by run id, oldest first. Everything is
extracted from the *deterministic* record (never ``timing.json``), so
identical-seed runs produce identical points and the watchdog stays
silent on noise-free history by construction.

:func:`detect_shifts` is the watchdog: for each series the trailing
window (excluding the newest point) forms a robust baseline — median and
MAD — and the newest point's robust z-score ``0.6745·(x − median)/MAD``
is compared against a threshold (3.5 by default, the standard
modified-z-score cut). A zero MAD (constant baseline, the common case
for deterministic runs) falls back to an absolute tolerance: any real
departure from the constant is a shift. This catches level shifts after
a single bad run — the acceptance case is a perturbed-knowledge run
dropping EX — without alerting on reordered-but-identical history.

``python -m repro watch`` prints/JSONs the alerts and exits 1 on breach;
``python -m repro dash`` renders :func:`render_dashboard` — a static,
self-contained HTML page with inline SVG sparklines, no external assets.
See DESIGN.md §6g.
"""

from __future__ import annotations

import html
import json

from .ledger import _exact_quantile

#: Version of the watch/series JSON payload.
TIMESERIES_SCHEMA_VERSION = 1

#: Modified z-score threshold (Iglewicz & Hoaglin's recommended 3.5).
DEFAULT_Z_THRESHOLD = 3.5

#: Absolute departure tolerated when the baseline MAD is zero. Deliberately
#: tiny: ledger series are deterministic, so any real change is a shift.
DEFAULT_MIN_DELTA = 1e-9

#: Metrics where *up* is good (a drop is the alarming direction).
_HIGHER_IS_BETTER = {"ex"}

#: Lint-code families folded into per-family series.
_LINT_FAMILIES = ("GE", "GK", "GP")


# -- series extraction -------------------------------------------------------


def _family(code):
    for family in _LINT_FAMILIES:
        if code.startswith(family):
            return family
    return None


def pick_system(record, system=None):
    """The system entry a record is tracked by (GenEdit when present)."""
    systems = record.get("systems") or {}
    if not systems:
        return None, None
    if system is None:
        system = "GenEdit" if "GenEdit" in systems else next(iter(systems))
    return system, systems.get(system)


def record_metrics(record, system=None):
    """``{metric: value}`` for one run record (the per-run data point).

    Returns ``None`` when the record has no outcomes for ``system`` —
    e.g. an ``ask`` record while watching ``GenEdit`` — so mixed-kind
    ledgers don't produce phantom zero points.
    """
    _name, entry = pick_system(record, system)
    if entry is None or not entry.get("outcomes"):
        return None
    outcomes = entry["outcomes"]
    questions = len(outcomes)
    latencies = sorted(outcome["latency_ms"] for outcome in outcomes)
    input_tokens = 0
    output_tokens = 0
    families = {family: 0 for family in _LINT_FAMILIES}
    for outcome in outcomes:
        for call in outcome.get("llm_calls") or ():
            input_tokens += call[2]
            output_tokens += call[3]
        for code in list(outcome.get("lint_codes") or ()) + list(
            outcome.get("plan_codes") or ()
        ):
            family = _family(code)
            if family:
                families[family] += 1
    for knowledge_entry in (record.get("knowledge") or {}).values():
        for code, count in (knowledge_entry.get("lint_codes") or {}).items():
            family = _family(code)
            if family:
                families[family] += count
    metrics = {
        "ex": (entry.get("ex") or {}).get("all", 0.0),
        "cost_usd_per_question": round(
            entry.get("cost_usd", 0.0) / questions, 10
        ),
        "input_tokens": input_tokens,
        "output_tokens": output_tokens,
        "latency_p50_ms": round(_exact_quantile(latencies, 0.50), 4),
        "latency_p99_ms": round(_exact_quantile(latencies, 0.99), 4),
        "degraded": entry.get("degraded", 0),
        "errors": entry.get("errors", 0),
    }
    for family, count in families.items():
        metrics[f"lint_{family}"] = count
    return metrics


def ledger_series(ledger, system=None, kind=None, limit=None):
    """Fold ledger records into ``{metric: [(run_id, value), ...]}``.

    Oldest first (ledger order). ``kind`` filters records (``"bench"``
    keeps watchdog series clean of one-off ``ask`` records); ``limit``
    keeps only the newest N matching runs.
    """
    series = {}
    run_ids = []
    for run_id in ledger.run_ids():
        record = ledger.read_record(run_id)
        if kind is not None and record.get("kind") != kind:
            continue
        metrics = record_metrics(record, system)
        if metrics is None:
            continue
        run_ids.append(run_id)
        for metric, value in metrics.items():
            series.setdefault(metric, []).append((run_id, value))
    if limit is not None and limit > 0:
        series = {
            metric: points[-limit:] for metric, points in series.items()
        }
    return series


# -- level-shift detection ---------------------------------------------------


def _median(values):
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[middle])
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def robust_zscore(value, baseline):
    """(modified z, median, MAD) of ``value`` against ``baseline`` values.

    ``z = 0.6745 * (value - median) / MAD``; with MAD 0 the z-score is
    ``0.0`` for an exact match and ``±inf`` for any departure beyond
    :data:`DEFAULT_MIN_DELTA` (the caller applies its own threshold).
    """
    median = _median(baseline)
    mad = _median([abs(point - median) for point in baseline])
    delta = value - median
    if mad > 0:
        return 0.6745 * delta / mad, median, mad
    if abs(delta) <= DEFAULT_MIN_DELTA:
        return 0.0, median, mad
    return float("inf") if delta > 0 else float("-inf"), median, mad


def detect_shifts(series, window=20, z_threshold=DEFAULT_Z_THRESHOLD):
    """Level-shift alerts for the *newest* point of each series.

    Each series needs at least two points (one baseline + the probe);
    the baseline is the trailing ``window`` points before the newest.
    Returns alert dicts sorted worst-|z| first; ``direction`` is
    ``"drop"``/``"rise"`` and ``severity`` marks whether that direction
    is the bad one for the metric (EX dropping vs cost rising).
    """
    alerts = []
    for metric, points in sorted(series.items()):
        if len(points) < 2:
            continue
        run_id, value = points[-1]
        baseline = [point for _run, point in points[-(window + 1):-1]]
        z, median, mad = robust_zscore(value, baseline)
        if abs(z) <= z_threshold:
            continue
        direction = "rise" if value > median else "drop"
        if metric in _HIGHER_IS_BETTER:
            severity = "regression" if direction == "drop" else "improvement"
        else:
            severity = "regression" if direction == "rise" else "improvement"
        alerts.append({
            "metric": metric,
            "run_id": run_id,
            "value": value,
            "baseline_median": round(median, 6),
            "baseline_mad": round(mad, 6),
            "baseline_runs": len(baseline),
            "z": z if z in (float("inf"), float("-inf")) else round(z, 2),
            "direction": direction,
            "severity": severity,
        })
    alerts.sort(key=lambda alert: (-abs(alert["z"]), alert["metric"]))
    return alerts


def watch_payload(ledger, system=None, kind="bench", window=20,
                  z_threshold=DEFAULT_Z_THRESHOLD, limit=None):
    """The full ``repro watch`` result: series summary + alerts."""
    series = ledger_series(ledger, system=system, kind=kind, limit=limit)
    alerts = detect_shifts(series, window=window, z_threshold=z_threshold)
    runs = max((len(points) for points in series.values()), default=0)
    return {
        "schema_version": TIMESERIES_SCHEMA_VERSION,
        "ledger_root": ledger.root,
        "system": system or "GenEdit",
        "kind": kind,
        "runs": runs,
        "window": window,
        "z_threshold": z_threshold,
        "latest_run": (
            next(iter(series.values()))[-1][0] if series else None
        ),
        "metrics": {
            metric: {
                "latest": points[-1][1],
                "points": len(points),
            }
            for metric, points in sorted(series.items())
        },
        "alerts": alerts,
    }


def render_watch(payload):
    """Human-readable rendering of a :func:`watch_payload` result."""
    lines = [
        f"watch: {payload['runs']} run(s) under {payload['ledger_root']} "
        f"(system {payload['system']}, kind {payload['kind']}, "
        f"window {payload['window']}, z>{payload['z_threshold']:g})"
    ]
    if not payload["runs"]:
        lines.append("no matching runs — nothing to watch")
        return "\n".join(lines)
    for metric, entry in payload["metrics"].items():
        lines.append(
            f"  {metric}: latest {entry['latest']:g} "
            f"({entry['points']} point(s))"
        )
    if not payload["alerts"]:
        lines.append("no level shifts detected")
        return "\n".join(lines)
    lines.append("")
    for alert in payload["alerts"]:
        z = alert["z"]
        z_text = f"{z:.2f}" if z not in (float("inf"), float("-inf")) \
            else ("inf" if z > 0 else "-inf")
        lines.append(
            f"ALERT [{alert['severity']}] {alert['metric']} "
            f"{alert['direction']} to {alert['value']:g} "
            f"(baseline median {alert['baseline_median']:g} over "
            f"{alert['baseline_runs']} run(s), |z|={z_text}) "
            f"at run {alert['run_id']}"
        )
    return "\n".join(lines)


# -- dashboard ---------------------------------------------------------------


_DASH_STYLE = """
body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 2rem;
       background: #fafafa; color: #1a1a1a; }
h1 { font-size: 1.3rem; } .sub { color: #666; font-size: 0.85rem; }
.grid { display: flex; flex-wrap: wrap; gap: 1rem; margin-top: 1rem; }
.card { background: #fff; border: 1px solid #ddd; border-radius: 6px;
        padding: 0.8rem 1rem; width: 260px; }
.card h2 { font-size: 0.9rem; margin: 0 0 0.3rem; font-weight: 600; }
.value { font-size: 1.4rem; font-variant-numeric: tabular-nums; }
.alert { border-color: #c0392b; background: #fdf3f2; }
.badge { display: inline-block; font-size: 0.7rem; padding: 0.1rem 0.4rem;
         border-radius: 4px; background: #c0392b; color: #fff; }
.badge.ok { background: #27ae60; }
svg { display: block; margin-top: 0.4rem; }
.spark { stroke: #2c6fbb; stroke-width: 1.5; fill: none; }
.spark-fill { fill: #2c6fbb22; stroke: none; }
.latest-dot { fill: #c0392b; }
"""


def _sparkline(values, width=228, height=40, pad=3):
    """Inline SVG sparkline for a value series (polyline + latest dot)."""
    if not values:
        return "<svg width='228' height='40'></svg>"
    low, high = min(values), max(values)
    span = (high - low) or 1.0
    inner_w = width - 2 * pad
    inner_h = height - 2 * pad
    step = inner_w / max(1, len(values) - 1)
    points = []
    for index, value in enumerate(values):
        x = pad + (index * step if len(values) > 1 else inner_w / 2)
        y = pad + inner_h * (1.0 - (value - low) / span)
        points.append((round(x, 1), round(y, 1)))
    path = " ".join(f"{x},{y}" for x, y in points)
    fill = (
        f"{pad},{height - pad} {path} "
        f"{points[-1][0]},{height - pad}"
    )
    last_x, last_y = points[-1]
    return (
        f"<svg width='{width}' height='{height}' "
        f"viewBox='0 0 {width} {height}'>"
        f"<polygon class='spark-fill' points='{fill}'/>"
        f"<polyline class='spark' points='{path}'/>"
        f"<circle class='latest-dot' cx='{last_x}' cy='{last_y}' r='2.5'/>"
        f"</svg>"
    )


def render_dashboard(series, alerts=(), title="repro telemetry"):
    """A static, self-contained HTML dashboard (no external assets).

    One card per metric: latest value, run count, an inline SVG
    sparkline, and a red badge when the watchdog flagged that metric.
    """
    alert_metrics = {alert["metric"]: alert for alert in alerts}
    cards = []
    for metric, points in sorted(series.items()):
        values = [value for _run, value in points]
        alert = alert_metrics.get(metric)
        badge = (
            f"<span class='badge'>{html.escape(alert['severity'])}</span>"
            if alert else "<span class='badge ok'>ok</span>"
        )
        latest = values[-1] if values else 0.0
        cards.append(
            f"<div class='card{' alert' if alert else ''}'>"
            f"<h2>{html.escape(metric)} {badge}</h2>"
            f"<div class='value'>{latest:g}</div>"
            f"<div class='sub'>{len(values)} run(s), "
            f"min {min(values):g}, max {max(values):g}</div>"
            f"{_sparkline(values)}"
            f"</div>"
        )
    runs = max((len(points) for points in series.values()), default=0)
    return (
        "<!DOCTYPE html>\n<html><head><meta charset='utf-8'>"
        f"<title>{html.escape(title)}</title>"
        f"<style>{_DASH_STYLE}</style></head><body>"
        f"<h1>{html.escape(title)}</h1>"
        f"<div class='sub'>{runs} run(s), {len(series)} metric(s), "
        f"{len(alert_metrics)} alert(s)</div>"
        f"<div class='grid'>{''.join(cards)}</div>"
        "</body></html>\n"
    )


def dashboard_from_ledger(ledger, system=None, kind="bench", window=20,
                          z_threshold=DEFAULT_Z_THRESHOLD, limit=None):
    """Series + alerts + rendered HTML for ``python -m repro dash``."""
    series = ledger_series(ledger, system=system, kind=kind, limit=limit)
    alerts = detect_shifts(series, window=window, z_threshold=z_threshold)
    title = f"repro telemetry — {ledger.root}"
    return series, alerts, render_dashboard(series, alerts, title=title)


def to_json(payload):
    """JSON text for watch payloads (inf-safe: ±inf become strings)."""
    def default(value):
        return str(value)

    def clean(node):
        if isinstance(node, dict):
            return {key: clean(value) for key, value in node.items()}
        if isinstance(node, list):
            return [clean(value) for value in node]
        if isinstance(node, float):
            if node != node:
                return "nan"
            if node in (float("inf"), float("-inf")):
                return "inf" if node > 0 else "-inf"
        return node

    return json.dumps(clean(payload), indent=2, sort_keys=True,
                      default=default)
