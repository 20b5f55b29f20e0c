"""Compare two sets of benchmark runs, metric by metric.

    python perf/compare.py A B

``A`` (the baseline) and ``B`` are each a ``results.json`` or a directory
holding any number of them (one per run, searched recursively). For
every (workload, end-to-end metric) pair the report gives both medians,
B's change, the metric's bound, the wider of the two run-to-run spreads
(quartile distance over median) and a verdict:

* ``regressed``: B's median is worse than A's by more than the bound;
* ``unresolved``: a spread is wider than the bound, so the medians cannot
  settle it, unless every run of B beats every run of A;
* ``ok``: otherwise.

A bound of 0 marks a metric that repeats exactly for a given seed (EX,
LLM calls): any worsening of its median regresses, and its spread, which
comes from the seeds, never makes it unresolved. A time or rate of a
workload timed by the wall clock (``serve_zipf``) is unresolved unless
every run of B beats every run of A: its median moves with the host's
load between one set of runs and the next by more than the spread
within a set shows.

Exits 1 when any pair regressed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perf.metrics import (  # noqa: E402
    E2E, TIMING_UNITS, WALL_CLOCK_WORKLOADS,
)
from perf.stats import spread  # noqa: E402


def load_runs(path):
    """``{(workload, metric): [value per run]}`` from ``path``."""
    path = Path(path)
    files = [path] if path.is_file() else sorted(path.rglob("results.json"))
    values = {}
    for file in files:
        results = json.loads(file.read_text(encoding="utf-8"))
        for workload, entry in results["workloads"].items():
            for metric, reading in entry["end_to_end"].items():
                values.setdefault((workload, metric), []).append(
                    reading["value"]
                )
    return values


def verdict(baseline, candidate, better, bound, settled=True):
    """``(worse_by, spread, verdict)`` for two lists of readings.

    ``worse_by`` is the candidate median's change as a share of the
    baseline median, positive when worse (infinite when the baseline
    median is 0 and the candidate is worse). ``settled=False`` marks
    readings whose medians cannot settle a change however narrow their
    spread.
    """
    sign = 1.0 if better == "lower" else -1.0
    base, cand = median(baseline), median(candidate)
    change = sign * (cand - base)
    if base:
        worse_by = change / abs(base)
    else:
        worse_by = float("inf") if change > 0 else 0.0
    widest = max(spread(baseline), spread(candidate))
    if bound == 0:
        return worse_by, widest, "regressed" if worse_by > 0 else "ok"
    all_better = all(
        sign * (c - b) < 0 for c in candidate for b in baseline
    )
    if (widest > bound or not settled) and not all_better:
        return worse_by, widest, "unresolved"
    if worse_by > bound:
        return worse_by, widest, "regressed"
    return worse_by, widest, "ok"


def compare(baseline, candidate):
    """One row per (workload, metric) present on both sides."""
    rows = []
    for key in sorted(set(baseline) & set(candidate)):
        workload, metric = key
        spec = E2E.get(metric)
        if spec is None:
            continue
        settled = not (workload in WALL_CLOCK_WORKLOADS
                       and spec.unit in TIMING_UNITS)
        worse_by, widest, outcome = verdict(
            baseline[key], candidate[key], spec.better, spec.bound, settled
        )
        rows.append({
            "workload": workload, "metric": metric, "unit": spec.unit,
            "baseline": median(baseline[key]), "runs_a": len(baseline[key]),
            "candidate": median(candidate[key]),
            "runs_b": len(candidate[key]),
            "worse_by": worse_by, "bound": spec.bound, "spread": widest,
            "verdict": outcome,
        })
    return rows


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(load_runs(argv[0]), load_runs(argv[1]))
    print(f"{'workload':14s} {'metric':18s} {'unit':6s} {'median A':>12s} "
          f"{'median B':>12s} {'worse by':>9s} {'bound':>6s} "
          f"{'spread':>7s}  verdict")
    for row in rows:
        print(f"{row['workload']:14s} {row['metric']:18s} {row['unit']:6s} "
              f"{row['baseline']:12.4f} {row['candidate']:12.4f} "
              f"{100 * row['worse_by']:8.2f}% {100 * row['bound']:5.1f}% "
              f"{100 * row['spread']:6.2f}%  {row['verdict']}"
              f"  (runs {row['runs_a']}/{row['runs_b']})")
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
