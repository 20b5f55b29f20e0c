"""The percentile rule, run-to-run spread and the compare verdicts."""

import pytest

from perf.compare import verdict
from perf.stats import latency_summary, spread, supported_percentile


@pytest.mark.parametrize("samples, level", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_highest_percentile_with_ten_samples_beyond(samples, level):
    assert supported_percentile(samples) == level


def test_latency_summary_reports_p99_only_when_supported():
    small = latency_summary([float(value) for value in range(999)])
    assert "p99_ms" not in small and small["tail"] == 90.0
    large = latency_summary([float(value) for value in range(1001)])
    assert large["p99_ms"] == pytest.approx(990.0)
    assert large["p50_ms"] == 500.0 and large["samples"] == 1001


def test_spread_is_quartile_distance_over_median():
    assert spread([10.0]) == 0.0
    assert spread([9.0, 10.0, 11.0, 12.0, 8.0]) == pytest.approx(0.3)


def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.0, 100.5]
    assert verdict(steady, steady, "lower", 0.1)[2] == "ok"
    slower = [value * 1.2 for value in steady]
    assert verdict(steady, slower, "lower", 0.1)[2] == "regressed"
    assert verdict(steady, slower, "higher", 0.1)[2] == "ok"
    noisy = [50.0, 150.0, 100.0, 70.0, 130.0]
    assert verdict(steady, noisy, "lower", 0.1)[2] == "unresolved"
    # Wide spread, but every candidate run beats every baseline run.
    assert verdict(noisy, [10.0, 12.0, 11.0], "lower", 0.1)[2] == "ok"
    # Bound 0: the same per-seed values in another order are no change,
    # however much the seeds differ; any worsening regresses.
    assert verdict([60.0, 70.0, 65.0], [70.0, 60.0, 65.0], "higher",
                   0.0)[2] == "ok"
    assert verdict([60.0, 70.0, 65.0], [60.0, 70.0, 64.0], "higher",
                   0.0)[2] == "regressed"
    # A zero baseline: any worsening regresses.
    assert verdict([0.0, 0.0], [1.0, 1.0], "lower", 0.0)[2] == "regressed"
    # Unsettled readings (wall-clock times): narrow spreads settle nothing
    # unless every candidate run is better.
    assert verdict(steady, slower, "lower", 0.1, settled=False)[2] == \
        "unresolved"
    assert verdict(slower, steady, "lower", 0.1, settled=False)[2] == "ok"
