"""Streaming exporter tests: promtext and the push sink.

Covers DESIGN.md §6g's exporter half — Prometheus text that round-trips
through ``scripts/check_promtext.py``, and the :class:`TelemetrySink`
lifecycle (atomic writes, coalescing, drop accounting, final-snapshot
flush).
"""

from __future__ import annotations

import importlib.util
import os
import threading

from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import (
    TelemetrySink,
    render_promtext,
    sanitize_metric_name,
    split_metric_key,
)

_CHECKER_PATH = os.path.join(
    os.path.dirname(__file__), "..", "scripts", "check_promtext.py"
)


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_promtext", _CHECKER_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_registry():
    registry = MetricsRegistry()
    registry.inc("pipeline.runs", 3)
    registry.inc("llm.calls", 2, operator="plan", model="gpt-4o")
    registry.inc("llm.calls", 1, operator="generate_sql", model="gpt-4o")
    registry.set_gauge("cache.size", 17)
    registry.observe("pipeline.generate_ms", 5.0, buckets=(10.0, 50.0))
    registry.observe("pipeline.generate_ms", 70.0, buckets=(10.0, 50.0))
    return registry


class TestKeyHandling:
    def test_split_metric_key_inverts_label_folding(self):
        assert split_metric_key("llm.calls{model=gpt-4o,operator=plan}") \
            == ("llm.calls", {"model": "gpt-4o", "operator": "plan"})
        assert split_metric_key("pipeline.runs") == ("pipeline.runs", {})

    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("pipeline.generate_ms") \
            == "pipeline_generate_ms"
        assert sanitize_metric_name("9lives") == "_9lives"


class TestPromtext:
    def test_counters_get_total_suffix_and_labels(self):
        text = render_promtext(make_registry().snapshot())
        assert "# TYPE pipeline_runs_total counter" in text
        assert "pipeline_runs_total 3" in text
        assert (
            'llm_calls_total{model="gpt-4o",operator="plan"} 2' in text
        )

    def test_histogram_family_is_cumulative_and_ends_at_inf(self):
        text = render_promtext(make_registry().snapshot())
        lines = [
            line for line in text.splitlines()
            if line.startswith("pipeline_generate_ms")
        ]
        assert 'pipeline_generate_ms_bucket{le="10"} 1' in lines
        assert 'pipeline_generate_ms_bucket{le="50"} 1' in lines
        assert 'pipeline_generate_ms_bucket{le="+Inf"} 2' in lines
        assert "pipeline_generate_ms_count 2" in lines
        assert any(
            line.startswith("pipeline_generate_ms_sum ") for line in lines
        )

    def test_one_type_line_per_family(self):
        text = render_promtext(make_registry().snapshot())
        type_lines = [
            line for line in text.splitlines()
            if line.startswith("# TYPE llm_calls_total")
        ]
        assert len(type_lines) == 1

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.inc("odd", db='we"ird')
        text = render_promtext(registry.snapshot())
        assert 'odd_total{db="we\\"ird"} 1' in text

    def test_round_trips_through_the_linter(self):
        checker = _load_checker()
        text = render_promtext(make_registry().snapshot())
        assert checker.lint_promtext(text, "test.prom") == []

    def test_empty_snapshot_renders_and_lints(self):
        checker = _load_checker()
        text = render_promtext(MetricsRegistry().snapshot())
        assert checker.lint_promtext(text, "empty.prom") == []

    def test_linter_flags_non_cumulative_buckets(self):
        checker = _load_checker()
        bad = (
            "# TYPE h histogram\n"
            'h_bucket{le="10"} 5\n'
            'h_bucket{le="+Inf"} 3\n'
            "h_sum 1\n"
            "h_count 3\n"
        )
        problems = checker.lint_promtext(bad, "bad.prom")
        assert problems


class TestTelemetrySink:
    def test_publish_and_close_write_final_state(self, tmp_path):
        registry = make_registry()
        path = tmp_path / "metrics.prom"
        sink = TelemetrySink(path, registry=registry)
        assert sink.publish()
        registry.inc("pipeline.runs")  # after the first publish
        sink.close()
        text = path.read_text()
        # close() flushes a *final* snapshot: the late increment lands.
        assert "pipeline_runs_total 4" in text
        assert sink.stats()["writes"] >= 1
        assert sink.stats()["write_errors"] == 0

    def test_full_queue_drops_and_counts(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("x")
        sink = TelemetrySink(
            tmp_path / "m.prom", registry=registry, maxsize=1
        )
        # Flood faster than the worker can drain; some must drop.
        results = [sink.publish() for _ in range(200)]
        sink.close()
        stats = sink.stats()
        assert stats["published"] + stats["dropped"] == 200
        assert results.count(False) == stats["dropped"]
        # Dropping is recorded in the registry too.
        if stats["dropped"]:
            assert registry.snapshot()["counters"]["telemetry.dropped"] \
                == stats["dropped"]

    def test_publish_after_close_is_refused(self, tmp_path):
        sink = TelemetrySink(
            tmp_path / "m.prom", registry=MetricsRegistry()
        )
        sink.close()
        assert sink.publish() is False
        sink.close()  # idempotent

    def test_concurrent_publishers_leave_a_parseable_file(self, tmp_path):
        checker = _load_checker()
        registry = make_registry()
        path = tmp_path / "m.prom"
        sink = TelemetrySink(path, registry=registry)

        def hammer():
            for _ in range(50):
                registry.inc("pipeline.runs")
                sink.publish()

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        sink.close()
        # Atomic replace-writes: the file is always one whole snapshot.
        assert checker.lint_promtext(path.read_text(), "m.prom") == []
