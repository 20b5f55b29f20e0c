"""Micro-benchmarks of the substrates (timed over many rounds).

Not a paper table — these keep the substrate performance honest: SQL
parsing, the Appendix-A-shaped query execution, knowledge retrieval, and a
full single-question pipeline pass; plus the evaluation fast path
(memoised ``execution_match``, norm-precomputed retrieval), each asserted
against an inline replica of the seed implementation.
"""

from __future__ import annotations

import math
import time

import pytest

from repro.bench.metrics import execution_match
from repro.engine import Executor
from repro.pipeline import GenEditPipeline
from repro.sql.parser import parse, parse_cached
from repro.sql.printer import to_sql
from repro.text.index import RetrievalIndex

APPENDIX_STYLE = (
    "WITH NUMER AS (SELECT ORG_NAME, "
    "SUM(CASE WHEN TO_CHAR(FIN_MONTH, 'YYYY\"Q\"Q') = '2023Q1' "
    "THEN REVENUE ELSE 0 END) AS PREV_VALUE, "
    "SUM(CASE WHEN TO_CHAR(FIN_MONTH, 'YYYY\"Q\"Q') = '2023Q2' "
    "THEN REVENUE ELSE 0 END) AS CUR_VALUE "
    "FROM SPORTS_FINANCIALS WHERE TO_CHAR(FIN_MONTH, 'YYYY\"Q\"Q') IN "
    "('2023Q1', '2023Q2') GROUP BY ORG_NAME), "
    "DENOM AS (SELECT ORG_NAME, "
    "SUM(CASE WHEN TO_CHAR(VIEW_MONTH, 'YYYY\"Q\"Q') = '2023Q1' "
    "THEN VIEWS ELSE 0 END) AS PREV_VALUE, "
    "SUM(CASE WHEN TO_CHAR(VIEW_MONTH, 'YYYY\"Q\"Q') = '2023Q2' "
    "THEN VIEWS ELSE 0 END) AS CUR_VALUE "
    "FROM SPORTS_VIEWERSHIP WHERE TO_CHAR(VIEW_MONTH, 'YYYY\"Q\"Q') IN "
    "('2023Q1', '2023Q2') GROUP BY ORG_NAME), "
    "DELTA AS (SELECT n.ORG_NAME AS ORG_NAME, "
    "CAST(n.CUR_VALUE AS FLOAT) / NULLIF(d.CUR_VALUE, 0) AS CURRENT_METRIC, "
    "CAST(n.PREV_VALUE AS FLOAT) / NULLIF(d.PREV_VALUE, 0) AS PREVIOUS_METRIC, "
    "ROW_NUMBER() OVER (ORDER BY CAST(n.CUR_VALUE AS FLOAT) / "
    "NULLIF(d.CUR_VALUE, 0) DESC) AS BEST_RANK "
    "FROM NUMER n JOIN DENOM d ON n.ORG_NAME = d.ORG_NAME) "
    "SELECT ORG_NAME, CURRENT_METRIC, BEST_RANK FROM DELTA "
    "WHERE BEST_RANK <= 5 ORDER BY BEST_RANK"
)


def test_parse_appendix_query(benchmark):
    query = benchmark(parse, APPENDIX_STYLE)
    assert len(query.ctes) == 3


def test_print_round_trip(benchmark):
    query = parse(APPENDIX_STYLE)
    rendered = benchmark(to_sql, query)
    assert "WITH NUMER AS" in rendered


def test_execute_appendix_query(benchmark, context):
    database = context.profiles["sports_holdings"].database
    executor = Executor(database)
    result = benchmark(executor.execute, APPENDIX_STYLE)
    assert len(result.rows) == 5


def test_knowledge_retrieval(benchmark, context):
    knowledge = context.knowledge_sets["sports_holdings"]
    hits = benchmark(
        knowledge.search_examples,
        "best and worst revenue per viewer in Canada", 8,
    )
    assert hits


def test_full_pipeline_single_question(benchmark, context):
    profile = context.profiles["sports_holdings"]
    knowledge = context.knowledge_sets["sports_holdings"]
    pipeline = GenEditPipeline(profile.database, knowledge)
    result = benchmark(
        pipeline.generate, "What is the total revenue in Canada for Q2 2023?"
    )
    assert result.success


# -- evaluation fast path ----------------------------------------------------

def _seed_execution_match(database, predicted_sql, gold_sql):
    """The seed implementation: fresh executor, cold parse, no memoization."""
    executor = Executor(database)
    gold = executor.execute(parse(gold_sql))
    if not predicted_sql:
        return False
    try:
        predicted = executor.execute(parse(predicted_sql))
    except Exception:
        return False
    return predicted.comparable() == gold.comparable()


def _seed_cosine(left, right):
    """The seed cosine: recomputes both norms on every candidate pair."""
    if not left or not right:
        return 0.0
    if len(right) < len(left):
        left, right = right, left
    dot = sum(value * right.get(term, 0.0) for term, value in left.items())
    left_norm = math.sqrt(sum(value * value for value in left.values()))
    right_norm = math.sqrt(sum(value * value for value in right.values()))
    if left_norm == 0 or right_norm == 0:
        return 0.0
    return dot / (left_norm * right_norm)


def _seed_index_search(index, query, k):
    """The seed RetrievalIndex.search: re-embed the query on every call and
    recompute both norms per candidate (the inverted-index pre-filter was
    already present in the seed, so it is reused here for fairness)."""
    state = index._fitted()
    query_vector = state.vectorizer.transform(query)
    hits = []
    for doc_id in index._candidate_pool(state, query, None):
        vector, _norm = state.vectors[doc_id]
        hits.append((-_seed_cosine(query_vector, vector), doc_id))
    hits.sort()
    return hits[:k]


def _timed(fn, rounds):
    started = time.perf_counter()
    for _ in range(rounds):
        fn()
    return time.perf_counter() - started


def test_execution_match_cached(benchmark, context):
    """Pretty numbers for the memoised EX check (steady-state: all hits)."""
    question = context.workload.questions[0]
    database = context.profiles[question.database].database
    execution_match(database, question.gold_sql, question.gold_sql)  # warm
    assert benchmark(
        execution_match, database, question.gold_sql, question.gold_sql,
    )


def test_execution_match_cached_vs_seed_speedup(context):
    """Repeated memoised EX checks must beat the seed path >=2x.

    This is the Table 1 access pattern: every system re-checks the same
    (gold, predicted) statements on the same database.
    """
    questions = context.workload.questions[:6]
    pairs = [
        (context.profiles[q.database].database, q.gold_sql)
        for q in questions
    ]
    rounds = 10
    seed_s = _timed(
        lambda: [_seed_execution_match(db, sql, sql) for db, sql in pairs],
        rounds,
    )
    fast_s = _timed(
        lambda: [execution_match(db, sql, sql) for db, sql in pairs],
        rounds,
    )
    assert fast_s * 2 < seed_s, (
        f"cached execution_match not >=2x faster: seed {seed_s:.4f}s "
        f"vs cached {fast_s:.4f}s"
    )


def test_retrieval_search_cached(benchmark, context):
    """Pretty numbers for norm-precomputed, query-cached index search."""
    knowledge = context.knowledge_sets["sports_holdings"]
    index = knowledge._example_index
    index.search("revenue per viewer by organisation", k=8)  # warm
    hits = benchmark(
        index.search, "revenue per viewer by organisation", 8,
    )
    assert hits


def test_vector_index_search_vs_seed_speedup(context):
    """Repeated index searches must beat the seed implementation >=1.5x.

    The harness re-ranks the same expanded query against the same
    collection once per component and per system; precomputed document
    norms and the memoized query transform carry the win.
    """
    knowledge = context.knowledge_sets["sports_holdings"]
    source = knowledge._example_index
    index = RetrievalIndex()
    for document in source.documents():
        index.add(document.doc_id, document.text, document.metadata)
    queries = [
        "best and worst revenue per viewer in Canada",
        "quarter over quarter financial performance by organisation",
        "total sponsorship value per league",
    ]
    rounds = 20
    seed_s = _timed(
        lambda: [_seed_index_search(index, query, 8) for query in queries],
        rounds,
    )
    fast_s = _timed(
        lambda: [index.search(query, k=8) for query in queries],
        rounds,
    )
    assert fast_s * 1.5 < seed_s, (
        f"index.search not >=1.5x faster: seed {seed_s:.4f}s "
        f"vs fast {fast_s:.4f}s"
    )


def test_parse_cached_appendix_query(benchmark):
    parse_cached(APPENDIX_STYLE)  # warm
    query = benchmark(parse_cached, APPENDIX_STYLE)
    assert len(query.ctes) == 3
