"""Compounding-retrieval design ablations (§3.1.1).

The paper's core retrieval insight is that the operators *compound*: intent
classification keys the candidate pools, and each component's selection
expands the query used to re-rank the next ("context expansion"). This
bench switches each design choice off independently — the extension
experiments DESIGN.md calls out beyond the paper's Table 2.
"""

from __future__ import annotations

from repro.bench.harness import format_table, retrieval_ablation


def test_retrieval_ablation(benchmark, context):
    reports = benchmark.pedantic(
        lambda: retrieval_ablation(context),
        rounds=1, iterations=1,
    )
    by_name = {report.system: report for report in reports}
    full = by_name["GenEdit (full)"]

    # Context expansion carries the moderate bucket: without it the
    # instruction re-ranking loses the example signal.
    no_expansion = by_name["w/o Context Expansion"]
    assert no_expansion.accuracy("moderate") < full.accuracy("moderate")

    # Intent classification carries the challenging bucket: without the
    # intent-keyed pools the pattern-bearing fragments are not retrieved.
    no_intent = by_name["w/o Intent Classification"]
    assert no_intent.accuracy("challenging") < full.accuracy("challenging")

    # Flat retrieval (both off) is the weakest variant overall.
    flat = by_name["flat retrieval (w/o both)"]
    assert flat.accuracy() == min(report.accuracy() for report in reports)
    assert full.accuracy() == max(report.accuracy() for report in reports)

    print()
    print(
        format_table(
            "Retrieval design ablations (reproduced)",
            ["Variant", "Simple", "Moderate", "Challenging", "All"],
            [(report.system, *report.row()) for report in reports],
        )
    )
