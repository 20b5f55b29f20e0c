"""Unit tests for the observability layer (`repro.obs`)."""

import threading

import pytest

from repro.llm.interface import (
    CallMeter,
    GPT_4O,
    GPT_4O_MINI,
    normalize_model_name,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS_MS,
    Histogram,
    MetricsRegistry,
    get_metrics,
)
from repro.obs.render import (
    build_forest,
    render_span_tree,
    rollup_spans,
)
from repro.obs.tracing import Tracer, current_span


class TestTracer:
    def test_span_nesting_parent_ids(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                with tracer.span("grandchild") as grandchild:
                    pass
        assert root.parent_id is None
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id

    def test_finished_spans_start_ordered(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        # 'b' finishes first, but start order puts 'a' first.
        names = [span.name for span in tracer.finished_spans()]
        assert names == ["a", "b"]

    def test_durations_and_timing_fields(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.duration_ms >= inner.duration_ms >= 0.0
        assert inner.start_ms >= outer.start_ms

    def test_exception_marks_status_and_reraises(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom") as span:
                raise ValueError("nope")
        assert span.status == "error"
        assert span.error == "ValueError: nope"
        # The stack is popped even on error.
        assert current_span() is None

    def test_current_span_tracks_stack(self):
        tracer = Tracer()
        assert current_span() is None
        with tracer.span("s") as span:
            assert current_span() is span
        assert current_span() is None

    def test_events_attach_to_current_span(self):
        tracer = Tracer()
        with tracer.span("op") as span:
            event = tracer.add_event("op", "did a thing", {"k": 1})
        assert span.events == [event]
        assert str(event) == "[op] did a thing"

    def test_orphan_events_kept(self):
        tracer = Tracer()
        event = tracer.add_event("op", "standalone")
        assert tracer.orphan_events == [event]
        assert tracer.iter_events() == [event]

    def test_iter_events_in_recording_order(self):
        tracer = Tracer()
        tracer.add_event("pre", "first")
        with tracer.span("op"):
            tracer.add_event("op", "second")
        tracer.add_event("post", "third")
        assert [e.summary for e in tracer.iter_events()] == [
            "first", "second", "third"
        ]

    def test_span_ids_unique_across_tracers(self):
        spans = []
        for _ in range(2):
            tracer = Tracer()
            with tracer.span("x") as span:
                spans.append(span)
        assert spans[0].span_id != spans[1].span_id

    def test_thread_local_stacks_are_independent(self):
        """Two threads nest independently — the parallel harness invariant."""
        tracer = Tracer()
        barrier = threading.Barrier(2)
        roots = {}

        def work(label):
            with tracer.span(f"root-{label}") as root:
                barrier.wait()  # both roots open simultaneously
                with tracer.span(f"child-{label}") as child:
                    pass
                roots[label] = (root, child)

        threads = [
            threading.Thread(target=work, args=(label,)) for label in "ab"
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for label in "ab":
            root, child = roots[label]
            assert root.parent_id is None
            assert child.parent_id == root.span_id

    def test_to_records_schema(self):
        tracer = Tracer()
        with tracer.span("root", question="q") as root:
            root.inc_attr("llm.calls", 1)
            tracer.add_event("root", "hello")
        (record,) = tracer.to_records()
        assert record["type"] == "span"
        assert record["v"] == 1
        assert record["name"] == "root"
        assert record["parent_id"] is None
        assert record["status"] == "ok"
        assert record["attributes"] == {"question": "q", "llm.calls": 1}
        assert record["events"] == [{"operator": "root", "summary": "hello"}]


class TestHistogram:
    def test_exact_bucket_edge_lands_in_bucket(self):
        histogram = Histogram(bounds=(10.0, 20.0, 30.0))
        histogram.observe(10.0)   # exactly on the first boundary
        assert histogram.counts == [1, 0, 0]
        histogram.observe(10.0001)
        assert histogram.counts == [1, 1, 0]

    def test_quantiles_at_bucket_edges(self):
        histogram = Histogram(bounds=(10.0, 20.0, 30.0))
        for value in (5.0, 15.0, 25.0, 25.0):
            histogram.observe(value)
        # ranks: p50 -> rank 2 (bucket <=20), p99 -> rank 4 (bucket <=30)
        assert histogram.quantile(0.50) == 20.0
        assert histogram.quantile(0.25) == 10.0
        assert histogram.quantile(0.99) == 30.0

    def test_overflow_reports_observed_max(self):
        histogram = Histogram(bounds=(1.0,))
        histogram.observe(0.5)
        histogram.observe(42.0)
        assert histogram.overflow == 1
        assert histogram.quantile(0.99) == 42.0

    def test_empty_quantile_is_zero(self):
        assert Histogram().quantile(0.5) == 0.0

    def test_snapshot_fields(self):
        histogram = Histogram(bounds=(10.0,))
        histogram.observe(4.0)
        snapshot = histogram.snapshot()
        assert snapshot == {
            "count": 1, "sum": 4.0, "min": 4.0, "max": 4.0,
            "p50": 10.0, "p90": 10.0, "p99": 10.0,
            "buckets": [["10", 1], ["+Inf", 1]],
        }

    def test_snapshot_buckets_are_cumulative_with_inf(self):
        """The +Inf bucket equals the total count (Prometheus contract)."""
        histogram = Histogram(bounds=(1.0, 2.0))
        for value in (0.5, 1.5, 99.0, 100.0):
            histogram.observe(value)
        assert histogram.snapshot()["buckets"] == [
            ["1", 1], ["2", 2], ["+Inf", 4]
        ]

    def test_empty_snapshot_has_well_formed_buckets(self):
        """Empty histograms export zero buckets, never NaN or errors."""
        snapshot = Histogram(bounds=(1.0,)).snapshot()
        assert snapshot["count"] == 0
        assert snapshot["p99"] == 0.0
        assert snapshot["buckets"] == [["1", 0], ["+Inf", 0]]

    def test_quantile_above_top_bucket_is_observed_max(self):
        """Values beyond the top bound report the true max, not +Inf."""
        histogram = Histogram(bounds=(1.0,))
        for value in (50.0, 60.0, 70.0):
            histogram.observe(value)
        assert histogram.quantile(0.5) == 70.0
        assert histogram.quantile(0.99) == 70.0

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(10.0, 10.0))

    def test_memory_is_bounded(self):
        histogram = Histogram()
        for value in range(10_000):
            histogram.observe(float(value))
        assert len(histogram.counts) == len(DEFAULT_BUCKETS_MS)
        assert histogram.count == 10_000


class TestMetricsRegistry:
    def test_counters_with_labels(self):
        registry = MetricsRegistry()
        registry.inc("calls", operator="plan")
        registry.inc("calls", 2, operator="plan")
        registry.inc("calls", operator="generate")
        snapshot = registry.snapshot()
        assert snapshot["counters"]["calls{operator=plan}"] == 3
        assert snapshot["counters"]["calls{operator=generate}"] == 1

    def test_gauges_and_histograms(self):
        registry = MetricsRegistry()
        registry.set_gauge("rate", 12.5)
        registry.observe("latency", 3.0, buckets=(5.0, 10.0))
        snapshot = registry.snapshot()
        assert snapshot["gauges"]["rate"] == 12.5
        assert snapshot["histograms"]["latency"]["count"] == 1
        assert snapshot["schema_version"] == 2

    def test_rebucketing_an_existing_histogram_raises(self):
        """Conflicting custom buckets are an error, never silently ignored."""
        registry = MetricsRegistry()
        registry.observe("latency", 3.0, buckets=(5.0, 10.0))
        with pytest.raises(ValueError, match="latency"):
            registry.observe("latency", 4.0, buckets=(1.0, 2.0))
        # Same bounds re-passed is fine (call sites carry their spec)...
        registry.observe("latency", 4.0, buckets=(5.0, 10.0))
        # ...as is omitting the bounds once the histogram exists.
        registry.observe("latency", 5.0)
        assert registry.histogram("latency").count == 3

    def test_rebucketing_conflict_is_scoped_by_labels(self):
        registry = MetricsRegistry()
        registry.observe("latency", 3.0, buckets=(5.0,), op="a")
        # A different label set is a different histogram: no conflict.
        registry.observe("latency", 3.0, buckets=(7.0,), op="b")
        with pytest.raises(ValueError):
            registry.observe("latency", 3.0, buckets=(9.0,), op="a")

    def test_reset(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.observe("b", 1.0)
        registry.reset()
        snapshot = registry.snapshot()
        assert not snapshot["counters"]
        assert not snapshot["histograms"]

    def test_reset_by_prefix_keeps_other_metrics(self):
        registry = MetricsRegistry()
        registry.inc("engine.hash_joins")
        registry.set_gauge("engine.predicate_cache.entries", 3)
        registry.observe("engine.ms", 1.0)
        registry.inc("pipeline.runs")
        registry.inc("engines", op="x")
        registry.reset(prefix="engine.")
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"engines{op=x}": 1, "pipeline.runs": 1}
        assert not snapshot["gauges"]
        assert not snapshot["histograms"]

    def test_thread_safe_increments(self):
        registry = MetricsRegistry()

        def work():
            for _ in range(1000):
                registry.inc("n")
                registry.observe("h", 1.0)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter_value("n") == 4000
        assert registry.histogram("h").count == 4000

    def test_global_registry_is_shared(self):
        assert get_metrics() is get_metrics()


class TestModelNaming:
    def test_normalize_model_name(self):
        class DuckSpec:
            name = "duck-1"

        assert normalize_model_name(GPT_4O) == "gpt-4o"
        assert normalize_model_name("gpt-4o-mini") == "gpt-4o-mini"
        assert normalize_model_name(DuckSpec()) == "duck-1"

    def test_meter_records_one_canonical_name(self):
        meter = CallMeter()
        meter.record("op", GPT_4O_MINI, "prompt", "out")
        meter.record("op", "gpt-4o-mini", "prompt", "out")
        assert {call.model for call in meter.calls} == {"gpt-4o-mini"}

    def test_meter_attaches_tokens_to_enclosing_span(self):
        tracer = Tracer()
        meter = CallMeter()
        with tracer.span("op") as span:
            call = meter.record("op", GPT_4O, "x" * 40, "y" * 8)
        assert span.attributes["llm.calls"] == 1
        assert span.attributes["llm.input_tokens"] == call.input_tokens
        assert span.attributes["llm.output_tokens"] == call.output_tokens
        assert span.attributes["llm.cost_usd"] == pytest.approx(call.cost_usd)
        assert span.attributes["llm.model"] == "gpt-4o"


class TestRender:
    def _records(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            root.inc_attr("llm.input_tokens", 10)
            with tracer.span("fast"):
                pass
            with tracer.span("slow") as slow:
                pass
            slow.duration_ms = 100.0  # deterministic for the filter test
        return tracer.to_records()

    def test_forest_and_tree(self):
        records = self._records()
        roots, children = build_forest(records)
        assert [span["name"] for span in roots] == ["root"]
        kids = children[roots[0]["span_id"]]
        assert [span["name"] for span in kids] == ["fast", "slow"]
        tree = render_span_tree(records)
        lines = tree.splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  fast")
        assert lines[2].startswith("  slow")

    def test_slow_filter_keeps_ancestors(self):
        records = self._records()
        tree = render_span_tree(records, slow_ms=50.0)
        assert "slow" in tree
        assert "root" in tree      # ancestor of the slow span
        assert "fast" not in tree

    def test_orphan_parent_renders_as_root(self):
        records = self._records()[1:]  # drop the root record
        roots, _children = build_forest(records)
        assert {span["name"] for span in roots} == {"fast", "slow"}

    def test_rollup_aggregates_tokens(self):
        rollup = rollup_spans(self._records())
        assert rollup["root"]["input_tokens"] == 10
        assert rollup["fast"]["count"] == 1


class TestRollupSpans:
    def test_self_times_sum_to_the_pipeline_root(self, sports_pipeline):
        result = sports_pipeline.generate("How many teams are there?")
        records = result.trace_records()
        (root,) = [r for r in records if r["parent_id"] is None]
        rollup = rollup_spans(records)
        assert len(rollup) > 5
        assert sum(entry["self_ms"] for entry in rollup.values()) == \
            pytest.approx(root["duration_ms"], abs=0.01)
        generate = rollup["generate"]
        assert generate["self_ms"] < generate["total_ms"]
        assert rollup["select_examples"]["self_ms"] == \
            rollup["select_examples"]["total_ms"]

    def test_records_without_ids_fold(self):
        rollup = rollup_spans([
            {"type": "span", "name": "generate", "duration_ms": ms}
            for ms in (5.0, 15.0, 10.0)
        ] + [{"type": "metrics", "snapshot": {}}])
        entry = rollup["generate"]
        assert entry["count"] == 3
        assert entry["total_ms"] == entry["self_ms"] == 30.0
        assert (entry["p50_ms"], entry["p99_ms"], entry["max_ms"]) == \
            (10.0, 15.0, 15.0)

    def test_missing_parent_counts_as_root(self):
        records = [
            {"name": "child", "span_id": "s2", "parent_id": "gone",
             "duration_ms": 4.0},
            {"name": "leaf", "span_id": "s3", "parent_id": "s2",
             "duration_ms": 1.5, "status": "error"},
        ]
        rollup = rollup_spans(records)
        assert rollup["child"]["self_ms"] == 2.5
        assert rollup["leaf"]["errors"] == 1
        assert sum(entry["self_ms"] for entry in rollup.values()) == 4.0
