"""Every workload, run small, reports every metric ``BENCHMARK.json`` names.

Sizes are passed to the workload functions directly: one seed, 1 s rate
steps, the fact tables scaled x2.
"""

import json
import re

import pytest
from repro.sql.parser import parse_cached

from perf import layers, workloads
from perf.metrics import E2E, GATED, GATED_WORKLOADS, WORKLOADS
from perf.run import ROOT, save_part, write_results

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TIME_UNITS = ("s", "ms")


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf")
    small = {
        "ask_cold": lambda traced: workloads.ask_cold(7, 1, traced=traced),
        "serve_zipf": lambda traced: workloads.serve_zipf(
            7, (1.0, 1.0, 1.0), warmup_s=0.5, traced=traced),
        "feedback_edit": lambda traced: workloads.feedback_edit(
            7, 1, traced=traced),
        "sql_scaled": lambda traced: workloads.sql_scaled(
            7, 1, scale=2, traced=traced),
    }
    for name in WORKLOADS:
        for traced in (False, True):
            # A real run gives each workload a fresh process; without this,
            # statements parsed by an earlier run here never reach the parser.
            parse_cached.cache_clear()
            run = small[name](traced)
            assert run.correct, (name, traced, run.checks)
            assert run.attempted > 0 and run.failed == 0, (name, traced)
            save_part(out, run)
    return out, write_results(out, 7, 0)


def test_results_hold_every_benchmark_metric(results):
    out, merged = results
    assert sorted(merged["workloads"]) == sorted(WORKLOADS)
    for name, entry in merged["workloads"].items():
        assert entry["correct"], name
        for metric in BENCHMARK["end_to_end"]:
            reading = entry["end_to_end"][metric["name"]]
            assert reading["unit"] == metric["unit"]
            assert reading["value"] > 0, (name, metric["name"])
        for metric in BENCHMARK["per_layer"]:
            reading = entry["per_layer"][metric["name"]]
            assert reading["unit"] == metric["unit"]
            if metric["unit"] in TIME_UNITS:
                assert reading["value"] > 0, (name, metric["name"])
        for metric, spec in E2E.items():
            if name in spec.workloads and metric != "p99_ms":
                assert metric in entry["end_to_end"], (name, metric)
        assert entry["details"]["traced"]["root_residual_max"] <= 0.01
    spans = (out / "spans.jsonl").read_text().splitlines()
    assert {json.loads(line)["workload"] for line in spans} == \
        set(WORKLOADS)


def test_benchmark_json_matches_the_metric_tables():
    assert [entry["name"] for entry in BENCHMARK["workloads"]] == \
        list(GATED_WORKLOADS)
    assert [
        (entry["name"], entry["unit"], entry["better"], entry["bound"])
        for entry in BENCHMARK["end_to_end"]
    ] == [
        (name, E2E[name].unit, E2E[name].better, E2E[name].bound)
        for name in GATED
    ]
    assert [
        (entry["name"], entry["unit"], entry["better"])
        for entry in BENCHMARK["per_layer"]
    ] == list(layers.GATED_LAYER_METRICS)


def test_benchmark_json_keeps_the_contract_shape():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["perf"]
    names = [entry["name"] for key in ("workloads", "end_to_end",
                                       "per_layer")
             for entry in BENCHMARK[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    bounds = {entry["name"]: entry["bound"]
              for entry in BENCHMARK["end_to_end"]}
    assert all(0 <= bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= BENCHMARK["run_seconds"] <= 60
