"""Watchdog tests: ledger series, robust z-scores, level shifts.

Covers DESIGN.md §6g's time-series half — folding ledger records into
per-metric series, median/MAD level-shift detection (silent on
identical-seed history, ±inf z on any real departure from a constant
baseline), and the ``repro watch`` payload/rendering.
"""

from __future__ import annotations

import json

from repro.bench.metrics import EvaluationReport, QuestionOutcome
from repro.obs.ledger import RunLedger, build_run_record
from repro.obs.timeseries import (
    TIMESERIES_SCHEMA_VERSION,
    detect_shifts,
    ledger_series,
    record_metrics,
    render_watch,
    robust_zscore,
    to_json,
    watch_payload,
)


def make_outcome(question_id="q-1", correct=True, error="", cost=0.01,
                 latency=50.0, lint_codes=(), degraded=()):
    return QuestionOutcome(
        question_id=question_id,
        difficulty="simple",
        database="demo",
        correct=correct,
        predicted_sql="SELECT 1",
        gold_sql="SELECT 1",
        cost_usd=cost,
        latency_ms=latency,
        error=error,
        degraded=tuple(degraded),
        question_text="How many teams?",
        lint_codes=tuple(lint_codes),
        operator_digests=(),
        llm_calls=(("generate_sql", "gpt-4o", 100, 10, cost),),
    )


def make_record(outcomes, system="GenEdit", **kwargs):
    report = EvaluationReport(system=system)
    for outcome in outcomes:
        report.add(outcome)
    kwargs.setdefault("kind", "bench")
    kwargs.setdefault("target", "test")
    kwargs.setdefault("seed", 7)
    return build_run_record([report], **kwargs)


class TestRecordMetrics:
    def test_extracts_the_health_metrics(self):
        record = make_record([
            make_outcome(lint_codes=("GE001",)),
            make_outcome(
                question_id="q-2", correct=False, error="boom",
                latency=150.0,
            ),
        ])
        metrics = record_metrics(record)
        assert metrics["ex"] == 50.0
        assert metrics["cost_usd_per_question"] == 0.01
        assert metrics["input_tokens"] == 200
        assert metrics["output_tokens"] == 20
        assert metrics["latency_p50_ms"] == 50.0
        assert metrics["latency_p99_ms"] == 150.0
        assert metrics["errors"] == 1
        assert metrics["lint_GE"] == 1
        assert metrics["lint_GK"] == 0

    def test_missing_system_yields_no_point(self):
        record = make_record([make_outcome()], system="Baseline")
        assert record_metrics(record, system="GenEdit") is None

    def test_deterministic_records_produce_identical_points(self):
        point_a = record_metrics(make_record([make_outcome()]))
        point_b = record_metrics(make_record([make_outcome()]))
        assert point_a == point_b


class TestRobustZscore:
    def test_nonzero_mad_matches_modified_z(self):
        baseline = [10.0, 12.0, 11.0, 13.0, 9.0]
        z, median, mad = robust_zscore(11.0, baseline)
        assert median == 11.0
        assert mad == 1.0
        assert z == 0.0
        z, _median, _mad = robust_zscore(15.0, baseline)
        assert round(z, 4) == round(0.6745 * 4.0, 4)

    def test_zero_mad_exact_match_is_silent(self):
        z, median, mad = robust_zscore(65.15, [65.15] * 10)
        assert (z, median, mad) == (0.0, 65.15, 0.0)

    def test_zero_mad_departure_is_infinite(self):
        z, _median, _mad = robust_zscore(60.0, [65.15] * 10)
        assert z == float("-inf")
        z, _median, _mad = robust_zscore(70.0, [65.15] * 10)
        assert z == float("inf")


class TestDetectShifts:
    def test_constant_series_never_alerts(self):
        series = {
            "ex": [(f"run-{i}", 65.15) for i in range(5)],
            "errors": [(f"run-{i}", 2) for i in range(5)],
        }
        assert detect_shifts(series) == []

    def test_ex_drop_is_a_regression(self):
        series = {"ex": [
            ("r1", 65.15), ("r2", 65.15), ("r3", 65.15), ("r4", 40.0),
        ]}
        (alert,) = detect_shifts(series)
        assert alert["metric"] == "ex"
        assert alert["run_id"] == "r4"
        assert alert["direction"] == "drop"
        assert alert["severity"] == "regression"
        assert alert["z"] == float("-inf")
        assert alert["baseline_median"] == 65.15
        assert alert["baseline_runs"] == 3

    def test_ex_rise_is_an_improvement(self):
        series = {"ex": [("r1", 60.0), ("r2", 60.0), ("r3", 70.0)]}
        (alert,) = detect_shifts(series)
        assert alert["severity"] == "improvement"
        assert alert["direction"] == "rise"

    def test_cost_rise_is_a_regression(self):
        series = {"cost_usd_per_question": [
            ("r1", 0.01), ("r2", 0.01), ("r3", 0.05),
        ]}
        (alert,) = detect_shifts(series)
        assert alert["severity"] == "regression"
        assert alert["direction"] == "rise"

    def test_single_point_series_is_skipped(self):
        assert detect_shifts({"ex": [("r1", 65.15)]}) == []

    def test_noisy_but_in_band_values_stay_quiet(self):
        series = {"latency_p99_ms": [
            ("r1", 100.0), ("r2", 104.0), ("r3", 98.0), ("r4", 102.0),
            ("r5", 101.0),
        ]}
        assert detect_shifts(series) == []

    def test_window_bounds_the_baseline(self):
        points = [(f"r{i}", 10.0) for i in range(10)] + [("new", 20.0)]
        (alert,) = detect_shifts({"m": points}, window=4)
        assert alert["baseline_runs"] == 4

    def test_worst_shift_sorts_first(self):
        series = {
            "aaa": [("r1", 10.0), ("r2", 10.0), ("r3", 10.5)],
            "ex": [("r1", 65.0), ("r2", 65.0), ("r3", 10.0)],
        }
        alerts = detect_shifts(series)
        assert [alert["metric"] for alert in alerts] == ["aaa", "ex"] or \
            [alert["metric"] for alert in alerts] == ["ex", "aaa"]
        # Both are infinite-z (MAD 0); ties sort by metric name.
        assert alerts[0]["metric"] == "aaa"


class TestLedgerSeries:
    def test_series_fold_and_kind_filter(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        ledger.record_run(make_record([make_outcome()]))
        ledger.record_run(make_record([make_outcome()], kind="ask"))
        ledger.record_run(make_record([
            make_outcome(),
            make_outcome(question_id="q-2", correct=False, error="x"),
        ]))
        series = ledger_series(ledger, kind="bench")
        assert [value for _run, value in series["ex"]] == [100.0, 50.0]
        all_series = ledger_series(ledger)
        assert len(all_series["ex"]) == 3

    def test_limit_keeps_newest_points(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        for correct in (True, True, False):
            ledger.record_run(
                make_record([make_outcome(correct=correct)])
            )
        series = ledger_series(ledger, limit=1)
        assert [value for _run, value in series["ex"]] == [0.0]


class TestWatchPayload:
    def test_identical_runs_alert_nothing(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        for _ in range(3):
            ledger.record_run(make_record([make_outcome()]))
        payload = watch_payload(ledger)
        assert payload["schema_version"] == TIMESERIES_SCHEMA_VERSION
        assert payload["runs"] == 3
        assert payload["alerts"] == []
        assert "no level shifts detected" in render_watch(payload)

    def test_ex_drop_renders_a_regression_alert(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        for _ in range(3):
            ledger.record_run(make_record([
                make_outcome(),
                make_outcome(question_id="q-2"),
            ]))
        ledger.record_run(make_record([
            make_outcome(),
            make_outcome(question_id="q-2", correct=False, error="x"),
        ]))
        payload = watch_payload(ledger)
        metrics = [alert["metric"] for alert in payload["alerts"]]
        assert "ex" in metrics
        text = render_watch(payload)
        assert "ALERT [regression] ex drop to 50" in text
        assert "|z|=-inf" in text

    def test_empty_ledger_payload(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        payload = watch_payload(ledger)
        assert payload["runs"] == 0
        assert payload["latest_run"] is None
        assert "nothing to watch" in render_watch(payload)

    def test_to_json_survives_infinite_z(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        ledger.record_run(make_record([make_outcome()]))
        ledger.record_run(make_record([
            make_outcome(correct=False, error="x"),
        ]))
        payload = watch_payload(ledger)
        parsed = json.loads(to_json(payload))
        z_values = [alert["z"] for alert in parsed["alerts"]]
        assert z_values and all(
            value in ("inf", "-inf") for value in z_values
        )

    def test_to_json_maps_nan(self):
        assert json.loads(to_json({"x": float("nan")})) == {"x": "nan"}
