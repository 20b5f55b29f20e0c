"""Timing helper shared by the before/after micro-benchmarks."""

from __future__ import annotations

import gc
import time


def best_of_interleaved(before, after, repeats=5):
    """Best wall-clock of each side, the two timed in alternation.

    Alternating lets both sides meet the same slow stretches of a shared
    core; a full collection before each timing keeps the collector's
    debts of one side out of the other's.
    """
    best = {before: float("inf"), after: float("inf")}
    for _ in range(repeats):
        for fn in (before, after):
            gc.collect()
            started = time.perf_counter()
            fn()
            best[fn] = min(best[fn], time.perf_counter() - started)
    return best[before], best[after]
