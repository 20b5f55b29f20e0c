"""JSONL trace export, the `repro trace` CLI, and harness integration."""

import io
import json
import threading

from repro.bench.harness import evaluate_system
from repro.cli import build_arg_parser, cmd_trace
from repro.obs import METRICS_SCHEMA_VERSION, global_snapshot, load_trace, write_trace
from repro.obs.tracing import Tracer
from repro.pipeline import GenEditPipeline


def _write_run(pipeline, path, question="How many teams are there?"):
    result = pipeline.generate(question)
    count = write_trace(
        path,
        result.trace_records(),
        metrics=global_snapshot(),
        meta={"question": question},
    )
    return result, count


class TestJsonlRoundTrip:
    def test_export_then_load(self, sports_pipeline, tmp_path):
        path = tmp_path / "run.jsonl"
        result, count = _write_run(sports_pipeline, path)
        payload = load_trace(path)
        assert payload["meta"]["schema_version"] == 1
        assert payload["meta"]["question"] == "How many teams are there?"
        assert len(payload["spans"]) == count == len(result.trace_records())
        assert payload["metrics"]["schema_version"] == METRICS_SCHEMA_VERSION

    def test_one_json_object_per_line(self, sports_pipeline, tmp_path):
        path = tmp_path / "run.jsonl"
        _write_run(sports_pipeline, path)
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["type"] == "meta"
        assert records[-1]["type"] == "metrics"
        assert all(r["type"] == "span" for r in records[1:-1])

    def test_root_span_is_generate(self, sports_pipeline, tmp_path):
        path = tmp_path / "run.jsonl"
        _write_run(sports_pipeline, path)
        spans = load_trace(path)["spans"]
        roots = [span for span in spans if span["parent_id"] is None]
        assert [span["name"] for span in roots] == ["generate"]
        children = {
            span["name"] for span in spans
            if span["parent_id"] == roots[0]["span_id"]
        }
        assert "final_check" in children
        assert "self_correct" in children

    def test_cli_renders_tree_and_rollups(self, sports_pipeline, tmp_path):
        path = tmp_path / "run.jsonl"
        _write_run(sports_pipeline, path)
        parser = build_arg_parser()
        args = parser.parse_args(["trace", str(path)])
        out = io.StringIO()
        assert cmd_trace(args, out=out) == 0
        text = out.getvalue()
        assert "generate" in text
        assert "ms" in text
        assert "-- per-operator rollup --" in text
        assert "-- metrics snapshot" in text

    def test_cli_slow_filter_and_no_metrics(self, sports_pipeline, tmp_path):
        path = tmp_path / "run.jsonl"
        _write_run(sports_pipeline, path)
        parser = build_arg_parser()
        args = parser.parse_args(
            ["trace", str(path), "--slow", "999999", "--no-metrics"]
        )
        out = io.StringIO()
        assert cmd_trace(args, out=out) == 0
        assert "-- metrics snapshot" not in out.getvalue()

    def test_cli_errors_on_garbage(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        parser = build_arg_parser()
        out = io.StringIO()
        assert cmd_trace(parser.parse_args(["trace", str(bad)]), out=out) == 2
        assert cmd_trace(
            parser.parse_args(["trace", str(tmp_path / "missing.jsonl")]),
            out=out,
        ) == 2

    def test_cli_empty_file(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        parser = build_arg_parser()
        out = io.StringIO()
        assert cmd_trace(parser.parse_args(["trace", str(empty)]), out=out) == 1


class TestHarnessTracing:
    def _run(self, context, trace_sink=None, **kwargs):
        return evaluate_system(
            lambda db, ks: GenEditPipeline(db, ks),
            context.workload,
            context.profiles,
            context.knowledge_sets,
            "traced",
            questions=context.workload.questions[:12],
            trace_sink=trace_sink,
            **kwargs,
        )

    def test_parallel_run_one_root_per_question_in_workload_order(
        self, experiment_context
    ):
        sink = []
        report = self._run(experiment_context, trace_sink=sink)
        roots = [span for span in sink if span.get("parent_id") is None]
        assert len(roots) == len(report.outcomes) == 12
        # Roots carry harness annotations and follow workload order even
        # though the harness runs the questions grouped by database.
        assert [r["attributes"]["question_id"] for r in roots] == [
            o.question_id for o in report.outcomes
        ]
        assert all(r["attributes"]["system"] == "traced" for r in roots)
        assert [r["attributes"]["correct"] for r in roots] == [
            o.correct for o in report.outcomes
        ]

    def test_spans_nest_under_their_own_root(self, experiment_context):
        sink = []
        self._run(experiment_context, trace_sink=sink)
        ids = {span["span_id"] for span in sink}
        assert len(ids) == len(sink)  # globally unique, no collisions
        by_id = {span["span_id"]: span for span in sink}
        for span in sink:
            if span.get("parent_id") is None:
                assert span["name"] == "generate"
            else:
                # Every child's parent is in the same export.
                assert span["parent_id"] in by_id

    def test_trace_export_does_not_perturb_results(self, experiment_context):
        plain = self._run(experiment_context)
        sink = []
        traced = self._run(experiment_context, trace_sink=sink)
        assert sink  # tracing actually happened
        assert plain.row() == traced.row()
        assert [o.correct for o in plain.outcomes] == [
            o.correct for o in traced.outcomes
        ]
        assert [o.predicted_sql for o in plain.outcomes] == [
            o.predicted_sql for o in traced.outcomes
        ]


class TestConcurrentExport:
    def test_concurrent_write_trace_stays_parseable(self, tmp_path):
        """The export lock keeps the JSONL whole under racing exporters.

        Two exporter threads rewrite the same trace path; each write is a
        complete record sequence, so the final parse must succeed with
        intact span records.
        """
        tracer = Tracer()
        for index in range(20):
            with tracer.span(f"op-{index}", index=index):
                pass
        records = tracer.to_records()
        path = tmp_path / "trace.jsonl"
        errors = []

        def exporter():
            try:
                for _ in range(30):
                    write_trace(path, records, metrics={"counters": {}})
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=exporter, name=f"exporter-{i}")
            for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        trace = load_trace(path)
        assert len(trace["spans"]) == 20
        assert trace["metrics"] == {"counters": {}}
        assert {span["name"] for span in trace["spans"]} \
            == {f"op-{index}" for index in range(20)}
