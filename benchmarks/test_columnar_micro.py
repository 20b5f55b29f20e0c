"""Columnar-engine micro-ops: before/after ratios against the row oracle.

Four operator-level benchmarks — vectorized filter, hash equi-join, hash
group-by, and batched top-k retrieval — each timed twice over the same
inputs: "before" through the frozen row-at-a-time path (the
:class:`~repro.engine.reference.ReferenceExecutor` oracle, or the
per-document cosine loop for retrieval) and "after" through the columnar
executor / postings-batched index. The ratios are printed with
:func:`~repro.bench.harness.format_table` and the executor ops are gated
at >=1.5x so a regression in the columnar fast paths fails ``make
perf-smoke`` (part of ``make lint``) instead of silently eating the
speedup. Timings take the best of several repeats, so the gate tolerates
a noisy machine; the margin on a quiet one is far above 1.5x.
"""

from __future__ import annotations

import datetime
import time

from repro.bench.harness import format_table
from repro.engine import Column, Database, Executor
from repro.engine.reference import ReferenceExecutor
from repro.text.index import RetrievalIndex
from repro.text.similarity import cosine_with_norms

#: Minimum before/after speedup for the executor micro-ops.
EXECUTOR_GATE = 1.5

_ROWS = 2400
_REGIONS = ("north", "south", "east", "west")


def _micro_db():
    db = Database("micro_bench")
    db.create_table(
        "DIM",
        [
            Column("DIM_ID", "INTEGER", "Key."),
            Column("REGION", "TEXT", "Region."),
            Column("WEIGHT", "FLOAT", "Weight."),
        ],
        rows=[
            (n, _REGIONS[n % len(_REGIONS)], float(n % 7) + 0.5)
            for n in range(48)
        ],
        description="Dimension table.",
    )
    db.create_table(
        "FACT",
        [
            Column("FACT_ID", "INTEGER", "Key."),
            Column("DIM_ID", "INTEGER", "Foreign key to DIM."),
            Column("AMOUNT", "FLOAT", "Measure."),
            Column("SEEN", "DATE", "Event date."),
        ],
        rows=[
            (
                n,
                n % 48,
                float((n * 37) % 1000) / 10.0,
                datetime.date(2023, 1 + n % 12, 1 + n % 28),
            )
            for n in range(_ROWS)
        ],
        description="Fact table.",
    )
    return db


def _best_of(fn, repeats=5, rounds=3):
    """Best wall-clock of ``repeats`` batches of ``rounds`` calls."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(rounds):
            fn()
        best = min(best, time.perf_counter() - started)
    return best / rounds


def _ratio_row(name, before_fn, after_fn, check=None):
    if check is not None:
        check(before_fn(), after_fn())
    before_s = _best_of(before_fn)
    after_s = _best_of(after_fn)
    return (name, before_s * 1e3, after_s * 1e3, before_s / after_s)


def _check_results(before, after):
    assert before.comparable() == after.comparable()
    assert before.rows, "micro-op query returned no rows"


FILTER_SQL = (
    "SELECT FACT_ID, AMOUNT FROM FACT"
    " WHERE AMOUNT > 25.0 AND AMOUNT < 90.0 AND DIM_ID <> 7"
)
JOIN_SQL = (
    "SELECT F.FACT_ID, D.REGION FROM FACT F JOIN DIM D"
    " ON F.DIM_ID = D.DIM_ID WHERE D.WEIGHT > 2.0"
)
GROUP_SQL = (
    "SELECT DIM_ID, COUNT(*), SUM(AMOUNT), MAX(SEEN) FROM FACT"
    " GROUP BY DIM_ID HAVING COUNT(*) > 10"
)


def test_columnar_micro_ops_beat_row_oracle():
    db = _micro_db()
    columnar = Executor(db)
    reference = ReferenceExecutor(db)

    rows = [
        _ratio_row(
            name,
            lambda sql=sql: reference.execute(sql),
            lambda sql=sql: columnar.execute(sql),
            check=_check_results,
        )
        for name, sql in (
            ("filter", FILTER_SQL),
            ("hash join", JOIN_SQL),
            ("group-by", GROUP_SQL),
        )
    ]
    rows.append(_retrieval_row())

    print()
    print(format_table(
        "Columnar micro-ops (best-of-5, ms per op)",
        ["op", "before_ms", "after_ms", "ratio"],
        rows,
    ))

    for name, _before, _after, ratio in rows[:3]:
        assert ratio >= EXECUTOR_GATE, (
            f"{name}: columnar path only {ratio:.2f}x over the row oracle "
            f"(gate {EXECUTOR_GATE}x)"
        )


def _retrieval_row():
    """Top-k retrieval: per-document cosine loop vs batched search."""
    index = RetrievalIndex()
    for n in range(600):
        region = _REGIONS[n % len(_REGIONS)]
        index.add(
            f"doc{n}",
            f"quarterly revenue report {region} region period {n % 12} "
            f"metric {n % 37} viewership trend {'up' if n % 3 else 'down'}",
        )
    state = index._fitted()
    query = "revenue trend for the west region this quarter"
    query_vector, query_norm, _terms = state.embed(query)

    def before():
        hits = []
        for doc_id, (vector, norm) in state.vectors.items():
            score = cosine_with_norms(query_vector, vector, query_norm, norm)
            hits.append((-score, doc_id))
        hits.sort()
        return [(doc_id, -negated) for negated, doc_id in hits[:8]]

    def after():
        return [(hit.doc_id, hit.score) for hit in index.search(query, k=8)]

    assert before() == after()
    return _ratio_row("top-k retrieval", before, after)
