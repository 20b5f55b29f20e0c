"""The end-to-end metrics: unit, direction, regression bound, workloads.

``gated`` metrics are the ones every workload reports; they are listed
in ``BENCHMARK.json`` with the same unit, direction and bound (a test
keeps the two in step). The rest are reported by the workloads they
apply to, and :mod:`perf.compare` judges them by the bound given here.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("ask_cold", "serve_zipf", "feedback_edit", "sql_scaled")

#: Workloads timed by the wall clock. ``serve_zipf``'s server computes
#: on another CPU than the load generator, so the speed gauge
#: (``perf.gauge``) cannot put its times at reference speed, and they
#: move with the host's load by more than any bound allows.
WALL_CLOCK_WORKLOADS = ("serve_zipf",)

#: The workloads ``BENCHMARK.json`` lists: those timed at reference speed.
GATED_WORKLOADS = tuple(
    name for name in WORKLOADS if name not in WALL_CLOCK_WORKLOADS
)

#: Units of times and rates.
TIMING_UNITS = ("s", "ms", "1/s")


@dataclass(frozen=True)
class EndToEnd:
    unit: str
    better: str             # "lower" or "higher"
    bound: float            # share of the baseline median it may worsen by
    workloads: tuple = WORKLOADS
    gated: bool = False


E2E = {
    "setup_s": EndToEnd("s", "lower", 0.25, gated=True),
    "ops_per_s": EndToEnd("1/s", "higher", 0.15, gated=True),
    "p50_ms": EndToEnd("ms", "lower", 0.15, gated=True),
    "p90_ms": EndToEnd("ms", "lower", 0.25),
    "p99_ms": EndToEnd("ms", "lower", 0.25,
                       ("ask_cold", "serve_zipf", "sql_scaled")),
    # One rate step either way is within the run-to-run noise here.
    "max_ok_rps": EndToEnd("1/s", "higher", 0.5, ("serve_zipf",)),
    "ex_pct": EndToEnd("%", "higher", 0.0, ("ask_cold", "serve_zipf")),
    "fixed_pct": EndToEnd("%", "higher", 0.0, ("feedback_edit",)),
    "failed_pct": EndToEnd("%", "lower", 0.0),
    "llm_calls_per_op": EndToEnd("count", "lower", 0.0,
                                 ("ask_cold", "feedback_edit")),
    "llm_tokens_per_op": EndToEnd("count", "lower", 0.0,
                                  ("ask_cold", "feedback_edit")),
    "peak_rss_mb": EndToEnd("MB", "lower", 0.10, gated=True),
}

GATED = tuple(name for name, metric in E2E.items() if metric.gated)
