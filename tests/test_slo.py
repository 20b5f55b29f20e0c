"""SLO engine tests: spec parsing, burn rates, both evaluators, the CLI.

Covers DESIGN.md §6g's error-budget half — the JSON spec loader,
:class:`SloSpec` validation, multi-window burn-rate
semantics (breach only when fast AND slow windows burn), ledger and
live-registry evaluation, and ``repro slo``/``repro watch`` exit codes.
"""

from __future__ import annotations

import io
import json
import os

import pytest

from repro.bench.metrics import EvaluationReport, QuestionOutcome
from repro.cli import build_arg_parser
from repro.obs.ledger import RunLedger, build_run_record
from repro.obs.slo import (
    SloSpec,
    SloSpecError,
    any_breach,
    burn_rate,
    evaluate_ledger,
    evaluate_registry,
    evaluate_slo,
    load_slo_specs,
    parse_slo_text,
    render_slo_results,
)

_EXAMPLE_SPEC = os.path.join(
    os.path.dirname(__file__), "..", "examples", "slo.json"
)

#: The objectives of ``examples/slo.json`` in the YAML form the loader
#: read before specs became JSON-only.
_OLD_YAML_EXAMPLE = """\
slos:
  - name: ex-rate
    metric: ex
    objective: 60.0
    bound: lower
    description: "execution accuracy stays at or above 60% EX"
    windows: [5, 20]
    max_burn_rate: 1.0
  - name: p99-latency
    metric: latency_p99_ms
    objective: 30000
    bound: upper
    description: "p99 simulated question latency under 30s"
  - name: cost-per-question
    metric: cost_usd_per_question
    objective: 0.02
    bound: upper
    description: "average spend per question under 2 cents"
  - name: error-rate
    metric: error_rate
    objective: 0.40
    bound: upper
    windows: [5, 20]
    max_burn_rate: 1.0
    description: "at most 40% of questions may fail outright"
"""


def make_outcome(question_id="q-1", correct=True, error="", cost=0.01,
                 latency=50.0):
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
        degraded=(),
        question_text="How many teams?",
        lint_codes=(),
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


def ex_points(values):
    return [(f"run-{index}", value) for index, value in enumerate(values)]


class TestSpecLoading:
    def test_parse_slo_text_accepts_json(self):
        specs = parse_slo_text(json.dumps({"slos": [
            {"name": "ex-rate", "metric": "ex", "objective": 60.0,
             "windows": [2, 4], "max_burn_rate": 1.0},
            {"name": "p99-latency", "metric": "latency_p99_ms",
             "objective": 2000, "bound": "upper"},
        ]}))
        assert [spec.name for spec in specs] == ["ex-rate", "p99-latency"]
        assert specs[0].windows == (2, 4)

    def test_unknown_keys_rejected(self):
        with pytest.raises(SloSpecError, match="unknown key"):
            parse_slo_text(json.dumps({"slos": [
                {"name": "x", "metric": "ex", "objective": 60,
                 "burn": 2},
            ]}))

    def test_missing_required_field_rejected(self):
        with pytest.raises(SloSpecError):
            parse_slo_text(json.dumps({"slos": [{"name": "x"}]}))

    def test_empty_spec_rejected(self):
        with pytest.raises(SloSpecError, match="no SLOs"):
            parse_slo_text(json.dumps({"slos": []}))
        with pytest.raises(SloSpecError, match="no top-level 'slos'"):
            parse_slo_text(json.dumps({"objectives": []}))

    def test_example_spec_loads(self):
        specs = load_slo_specs(_EXAMPLE_SPEC)
        assert [spec.name for spec in specs] == [
            "ex-rate", "p99-latency", "cost-per-question", "error-rate",
        ]
        assert specs[0].lower_bound
        assert not specs[1].lower_bound


class TestSpecValidation:
    def test_bad_bound_raises(self):
        with pytest.raises(SloSpecError, match="bound"):
            SloSpec(name="x", metric="ex", objective=60, bound="sideways")

    def test_bad_windows_raise(self):
        with pytest.raises(SloSpecError, match="windows"):
            SloSpec(name="x", metric="ex", objective=60, windows=(20, 5))
        with pytest.raises(SloSpecError, match="windows"):
            SloSpec(name="x", metric="ex", objective=60, windows=(5,))

    def test_bound_defaults_by_metric(self):
        assert SloSpec(name="x", metric="ex", objective=60).lower_bound
        assert not SloSpec(
            name="x", metric="cost_usd_per_question", objective=0.02
        ).lower_bound

    def test_budget(self):
        assert SloSpec(name="x", metric="ex", objective=60).budget == 0.4
        assert SloSpec(
            name="x", metric="error_rate", objective=0.25
        ).budget == 0.25
        assert SloSpec(
            name="x", metric="latency_p99_ms", objective=2000
        ).budget is None


class TestBurnRate:
    def test_perfect_window_burns_nothing(self):
        spec = SloSpec(name="x", metric="ex", objective=60)
        assert burn_rate(spec, [100.0, 100.0]) == 0.0

    def test_on_budget_burns_exactly_one(self):
        spec = SloSpec(name="x", metric="ex", objective=60)
        assert burn_rate(spec, [60.0, 60.0]) == pytest.approx(1.0)

    def test_zero_budget_burns_infinitely(self):
        spec = SloSpec(name="x", metric="ex", objective=100)
        assert burn_rate(spec, [100.0]) == 0.0
        assert burn_rate(spec, [99.0]) == float("inf")

    def test_non_ratio_metric_has_no_burn(self):
        spec = SloSpec(name="x", metric="latency_p99_ms", objective=2000)
        assert burn_rate(spec, [100.0]) is None


class TestEvaluateSlo:
    def test_no_points_is_no_data_and_ok(self):
        spec = SloSpec(name="x", metric="ex", objective=60)
        result = evaluate_slo(spec, [])
        assert result["status"] == "no data"
        assert result["ok"] is True

    def test_breach_needs_both_windows_burning(self):
        spec = SloSpec(name="x", metric="ex", objective=60,
                       windows=(2, 4), max_burn_rate=1.0)
        # Fast window [40, 40] burns 1.5; slow window mean burn 0.75.
        result = evaluate_slo(spec, ex_points([100, 100, 40, 40]))
        assert result["burn_fast"] == 1.5
        assert result["burn_slow"] == 0.75
        assert result["burning"] is False
        assert result["ok"] is True
        # The point-in-time threshold still records the fast-window miss.
        assert result["threshold_ok"] is False

    def test_sustained_burn_breaches(self):
        spec = SloSpec(name="x", metric="ex", objective=60,
                       windows=(2, 4), max_burn_rate=1.0)
        result = evaluate_slo(spec, ex_points([40, 40, 40, 40]))
        assert result["burning"] is True
        assert result["status"] == "breach"
        assert result["ok"] is False

    def test_non_ratio_metric_breaches_on_threshold(self):
        spec = SloSpec(name="x", metric="latency_p99_ms", objective=2000,
                       windows=(2, 4))
        ok = evaluate_slo(spec, ex_points([1000, 1500]))
        assert ok["status"] == "ok"
        breach = evaluate_slo(spec, ex_points([1000, 2500, 2500]))
        assert breach["status"] == "breach"

    def test_upper_bound_error_rate(self):
        spec = SloSpec(name="x", metric="error_rate", objective=0.40,
                       windows=(2, 4), max_burn_rate=1.0)
        result = evaluate_slo(spec, ex_points([0.5, 0.5, 0.5, 0.5]))
        assert result["status"] == "breach"


class TestEvaluateLedger:
    def _seed(self, tmp_path, fail_last=False):
        ledger = RunLedger(tmp_path / "runs")
        for index in range(3):
            fail = fail_last and index == 2
            ledger.record_run(make_record([
                make_outcome(),
                make_outcome(
                    question_id="q-2", correct=not fail,
                    error="boom" if fail else "",
                ),
            ]))
        return ledger

    def test_healthy_ledger_meets_the_example_slos(self, tmp_path):
        specs = load_slo_specs(_EXAMPLE_SPEC)
        results = evaluate_ledger(specs, self._seed(tmp_path))
        assert not any_breach(results)
        assert all(result["source"] == "ledger" for result in results)
        text = render_slo_results(results)
        assert "all 4 SLO(s) met" in text

    def test_error_rate_is_synthesized_from_ex(self, tmp_path):
        specs = parse_slo_text(json.dumps({"slos": [
            {"name": "errors", "metric": "error_rate", "objective": 0.25,
             "windows": [1, 1], "max_burn_rate": 1.0},
        ]}))
        results = evaluate_ledger(specs, self._seed(tmp_path,
                                                    fail_last=True))
        (result,) = results
        # Last run: 1 of 2 questions failed -> error_rate 0.5 > 0.25.
        assert result["latest"] == 0.5
        assert result["status"] == "breach"
        assert any_breach(results)
        assert "1 breach(es) of 1 SLO(s)" in render_slo_results(results)


class TestEvaluateRegistry:
    SNAPSHOT = {
        "counters": {
            "pipeline.runs": 10,
            "pipeline.failed_runs{category=llm_error}": 1,
            "pipeline.failed_runs{category=timeout}": 1,
        },
        "histograms": {
            "pipeline.generate_ms": {"count": 10, "sum": 900.0,
                                     "p99": 250.0},
            "pipeline.cost_usd": {"count": 10, "sum": 0.1, "p99": 0.02},
        },
    }

    def _specs(self):
        return parse_slo_text(json.dumps({"slos": [
            {"name": "ex", "metric": "ex", "objective": 60},
            {"name": "err", "metric": "error_rate", "objective": 0.40},
            {"name": "p99", "metric": "latency_p99_ms",
             "objective": 2000},
            {"name": "cost", "metric": "cost_usd_per_question",
             "objective": 0.02},
        ]}))

    def test_registry_values_and_no_data(self):
        results = evaluate_registry(self._specs(), self.SNAPSHOT)
        by_name = {result["name"]: result for result in results}
        assert by_name["ex"]["status"] == "no data"
        assert by_name["ex"]["ok"] is True
        assert by_name["err"]["value"] == 0.2
        assert by_name["err"]["status"] == "ok"
        assert by_name["p99"]["value"] == 250.0
        assert by_name["cost"]["value"] == 0.01
        assert not any_breach(results)

    def test_registry_breach(self):
        specs = parse_slo_text(json.dumps({"slos": [
            {"name": "err", "metric": "error_rate", "objective": 0.1},
        ]}))
        results = evaluate_registry(specs, self.SNAPSHOT)
        assert results[0]["status"] == "breach"
        assert any_breach(results)

    def test_empty_snapshot_is_all_no_data(self):
        results = evaluate_registry(self._specs(), {})
        assert all(result["status"] == "no data" for result in results)


def run_cli(argv):
    """Dispatch one CLI invocation, capturing its output buffer."""
    args = build_arg_parser().parse_args(argv)
    buffer = io.StringIO()
    code = args.func(args, out=buffer)
    return code, buffer.getvalue()


class TestSloCli:
    def _seed_ledger(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        for _ in range(2):
            ledger.record_run(make_record([make_outcome()]))
        return tmp_path / "runs"

    def test_met_slos_exit_zero(self, tmp_path):
        ledger_dir = self._seed_ledger(tmp_path)
        code, out = run_cli(["slo", _EXAMPLE_SPEC, "--ledger-dir",
                             str(ledger_dir)])
        assert code == 0
        assert "all 4 SLO(s) met" in out

    def test_breach_exits_one(self, tmp_path):
        ledger_dir = self._seed_ledger(tmp_path)
        spec = tmp_path / "strict.json"
        spec.write_text(json.dumps({"slos": [
            {"name": "impossible-cost", "metric": "cost_usd_per_question",
             "objective": 0.0000001, "bound": "upper"},
        ]}))
        code, out = run_cli(["slo", str(spec), "--ledger-dir",
                             str(ledger_dir)])
        assert code == 1
        assert "BREACH" in out

    def test_bad_spec_exits_two(self, tmp_path):
        ledger_dir = self._seed_ledger(tmp_path)
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"slos": []}))
        code, out = run_cli(["slo", str(spec), "--ledger-dir",
                             str(ledger_dir)])
        assert code == 2
        assert "error:" in out

    def test_json_output(self, tmp_path):
        ledger_dir = self._seed_ledger(tmp_path)
        code, out = run_cli(["slo", _EXAMPLE_SPEC, "--json",
                             "--ledger-dir", str(ledger_dir)])
        assert code == 0
        assert len(json.loads(out)) == 4

    def test_watch_exit_codes(self, tmp_path):
        ledger_dir = tmp_path / "runs"
        code, _out = run_cli(["watch", "--ledger-dir", str(ledger_dir)])
        assert code == 2
        ledger = RunLedger(ledger_dir)
        for _ in range(2):
            ledger.record_run(make_record([make_outcome()]))
        code, _out = run_cli(["watch", "--ledger-dir", str(ledger_dir)])
        assert code == 0
        ledger.record_run(make_record([
            make_outcome(correct=False, error="boom"),
        ]))
        code, out = run_cli(["watch", "--ledger-dir", str(ledger_dir)])
        assert code == 1
        assert "ALERT [regression] ex drop" in out

    @pytest.mark.parametrize("text, where", [
        ('{"slos": [\n  {"name": "x",}\n]}\n', "line 2, column 16"),
        (_OLD_YAML_EXAMPLE, "line 1, column 1"),
    ], ids=["invalid-json", "yaml"])
    def test_unparsable_spec_exits_two(self, tmp_path, text, where):
        ledger_dir = self._seed_ledger(tmp_path)
        spec = tmp_path / "slo.spec"
        spec.write_text(text)
        code, out = run_cli(["slo", str(spec), "--ledger-dir",
                             str(ledger_dir)])
        assert code == 2
        assert out.startswith("error: ")
        assert f"invalid JSON at {where}" in out
