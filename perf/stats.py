"""Percentiles and run-to-run spread for the benchmark's reports."""

from __future__ import annotations

import statistics

from repro.serve.loadgen import percentile

#: Percentiles a latency report may use, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)

#: A percentile is reported only when at least this many samples lie
#: beyond it; fewer and it is the largest sample under another name.
MIN_BEYOND = 10


def supported_percentile(samples, ladder=PERCENTILE_LADDER):
    """The highest percentile of ``ladder`` with ``MIN_BEYOND`` samples
    beyond it, or None when even the lowest is unsupported."""
    best = None
    for level in ladder:
        if samples * (100.0 - level) / 100.0 >= MIN_BEYOND - 1e-9:
            best = level
    return best


def latency_summary(values_ms):
    """``{p50_ms, p90_ms, p99_ms, samples, tail}`` for one set of latencies.

    p50 and p90 are always computed so every run reports them; p99 only
    when the percentile rule supports it. ``tail`` names the highest
    supported percentile.
    """
    tail = supported_percentile(len(values_ms))
    summary = {
        "samples": len(values_ms),
        "p50_ms": percentile(values_ms, 0.50),
        "p90_ms": percentile(values_ms, 0.90),
        "tail": tail,
    }
    if tail is not None and tail >= 99.0:
        summary["p99_ms"] = percentile(values_ms, 0.99)
    return summary


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median (``statistics.quantiles(values, n=4)``); 0 for fewer than two
    values or a zero median."""
    if len(values) < 2:
        return 0.0
    middle = statistics.median(values)
    if middle == 0:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return abs(third - first) / abs(middle)
