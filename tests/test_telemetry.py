"""Exporter tests: promtext and the end-of-run telemetry file.

Covers DESIGN.md §6g's exporter half — Prometheus text that round-trips
through ``scripts/check_promtext.py``, and the ``--telemetry-out`` file
written once when a run ends.
"""

from __future__ import annotations

import importlib.util
import os

from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import (
    atomic_write_text,
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


class TestTelemetryFile:
    def test_end_of_run_file_lints_and_holds_final_state(
        self, tmp_path, monkeypatch
    ):
        from argparse import Namespace

        from repro.bench.harness import ExperimentContext, _finish
        from repro.obs import metrics

        # A registry of the test's own stands in for the process-wide one.
        monkeypatch.setattr(metrics, "METRICS", MetricsRegistry())
        metrics.get_metrics().inc("telemetry_probe.runs", 3)
        path = tmp_path / "metrics.prom"
        args = Namespace(experiment="table1", trace_out=None,
                         metrics=False, telemetry_out=str(path))
        _finish(ExperimentContext(), args, out=None)
        text = path.read_text()
        assert _load_checker().lint_promtext(text, "metrics.prom") == []
        # The file is the registry at the end of the run.
        assert "telemetry_probe_runs_total 3" in text
        # A second write replaces the file whole.
        atomic_write_text(path, render_promtext(make_registry().snapshot()))
        assert "telemetry_probe" not in path.read_text()
        assert os.listdir(tmp_path) == ["metrics.prom"]
