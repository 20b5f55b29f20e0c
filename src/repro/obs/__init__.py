"""``repro.obs``: dependency-free tracing and metrics.

The observability layer the ROADMAP's production north-star needs before
any further performance work can be trusted:

* :mod:`repro.obs.tracing` — hierarchical timed spans with thread-local
  nesting, span events (the pipeline's per-operator trace),
  and a stable JSONL record schema;
* :mod:`repro.obs.metrics` — a process-wide, thread-safe registry of
  counters, gauges, and bounded-memory histograms (p50/p90/p99 over fixed
  buckets);
* :mod:`repro.obs.render` — JSONL trace export/import, the span-tree
  renderer behind ``python -m repro trace``, and ``rollup_spans``, the
  one per-name span fold (count, total/self time, exact quantiles, LLM
  cost) behind the trace rollup, ``timing.json`` and the harness profile;
* :mod:`repro.obs.ledger` — the persistent run ledger (versioned run
  records under ``.repro/runs/``), run-to-run diffing with
  first-divergence attribution, cost/token accounting, and failure
  triage, behind ``python -m repro runs|diff|triage``;
* :mod:`repro.obs.telemetry` — Prometheus text format snapshots of the
  metrics registry, served live by ``/metrics`` and written once at the
  end of a run by ``--telemetry-out``;
* :mod:`repro.obs.timeseries` — the ledger watchdog behind ``python -m
  repro watch``: folds recorded runs into per-metric time series and
  flags level shifts with robust z-scores;
* :mod:`repro.obs.slo` — declarative JSON SLO specs, error budgets and
  multi-window burn rates evaluated against the ledger or a live
  registry snapshot, with CI exit-code semantics (``python -m repro
  slo``).

Nothing in this package imports the rest of the repo (one lazily-imported
cache accessor aside), so any module — parser, engine, pipeline, harness —
can instrument itself without import cycles.
"""

from .ledger import (
    LEDGER_SCHEMA_VERSION,
    RunLedger,
    build_run_record,
    build_timing,
    config_fingerprint,
    diff_records,
    first_divergence,
    golden_queries_from_record,
    knowledge_fingerprint,
    outcomes_by_question,
    render_diff,
    render_triage,
    triage_record,
)
from .metrics import (
    DEFAULT_BUCKETS_MS,
    METRICS,
    METRICS_SCHEMA_VERSION,
    Histogram,
    MetricsRegistry,
    get_metrics,
    global_snapshot,
)
from .render import (
    build_forest,
    load_trace,
    render_metrics_snapshot,
    render_span_tree,
    render_trace_payload,
    write_trace,
)
from .slo import (
    SloSpec,
    SloSpecError,
    any_breach,
    evaluate_ledger,
    evaluate_registry,
    evaluate_slo,
    load_slo_specs,
    parse_slo_text,
    render_slo_results,
)
from .telemetry import (
    render_promtext,
    split_metric_key,
)
from .timeseries import (
    TIMESERIES_SCHEMA_VERSION,
    detect_shifts,
    ledger_series,
    record_metrics,
    render_watch,
    robust_zscore,
    watch_payload,
)
from .tracing import (
    TRACE_SCHEMA_VERSION,
    Span,
    SpanEvent,
    Tracer,
    current_span,
    current_trace_id,
    format_traceparent,
    mint_trace_id,
    parse_traceparent,
    use_trace_context,
    w3c_span_id,
)

__all__ = [
    "DEFAULT_BUCKETS_MS",
    "LEDGER_SCHEMA_VERSION",
    "METRICS",
    "METRICS_SCHEMA_VERSION",
    "TIMESERIES_SCHEMA_VERSION",
    "TRACE_SCHEMA_VERSION",
    "Histogram",
    "MetricsRegistry",
    "RunLedger",
    "SloSpec",
    "SloSpecError",
    "Span",
    "SpanEvent",
    "Tracer",
    "any_breach",
    "build_forest",
    "build_run_record",
    "build_timing",
    "config_fingerprint",
    "current_span",
    "current_trace_id",
    "detect_shifts",
    "diff_records",
    "evaluate_ledger",
    "evaluate_registry",
    "evaluate_slo",
    "first_divergence",
    "format_traceparent",
    "get_metrics",
    "global_snapshot",
    "golden_queries_from_record",
    "knowledge_fingerprint",
    "ledger_series",
    "load_slo_specs",
    "load_trace",
    "mint_trace_id",
    "outcomes_by_question",
    "parse_slo_text",
    "parse_traceparent",
    "record_metrics",
    "render_diff",
    "render_metrics_snapshot",
    "render_promtext",
    "render_slo_results",
    "render_span_tree",
    "render_trace_payload",
    "render_triage",
    "render_watch",
    "robust_zscore",
    "split_metric_key",
    "triage_record",
    "use_trace_context",
    "w3c_span_id",
    "watch_payload",
    "write_trace",
]
