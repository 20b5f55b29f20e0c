"""Table 1: GenEdit vs prior systems on the BIRD-like dev sample.

Regenerates the paper's main comparison. Paper values (10% BIRD-dev):

    CHESS 64.62 | GenEdit 60.61 | MAC-SQL 59.39 | TA-SQL 56.19 |
    DAIL-SQL 54.3 | C3-SQL 50.2   (All-bucket EX)

The reproduction targets the *shape*: GenEdit and CHESS lead, the
no-knowledge prompting baselines trail, C3 is last, and GenEdit has the
best Simple bucket. The printed table is the artifact.
"""

from __future__ import annotations

from repro.bench.harness import format_table, run_genedit, table1


def test_table1_genedit_row(benchmark, context):
    """Benchmark the full GenEdit dev-sample evaluation (132 questions)."""
    report = benchmark.pedantic(
        lambda: run_genedit(context), rounds=1, iterations=1
    )
    simple, moderate, challenging, total = report.row()
    # Paper row: 69.89 / 39.29 / 36.36 / 60.61.
    assert round(simple, 2) == 69.89   # 65/93, the paper's exact value
    assert round(challenging, 2) == 36.36  # 4/11, the paper's exact value
    assert 55.0 <= total <= 70.0
    # difficulty gradient holds
    assert simple > moderate > challenging


def test_table1_full_comparison(benchmark, context):
    reports = benchmark.pedantic(
        lambda: table1(context), rounds=1, iterations=1
    )
    by_name = {report.system: report for report in reports}
    ranking = [report.system for report in reports]

    # GenEdit and CHESS are the two knowledge-retrieval systems — they lead.
    assert set(ranking[:2]) == {"GenEdit", "CHESS"}
    # C3 (zero-shot, no knowledge, no linking) is last.
    assert ranking[-1] == "C3-SQL"
    # GenEdit has the best Simple bucket (paper: 69.89, first place).
    genedit_simple = by_name["GenEdit"].accuracy("simple")
    assert all(
        genedit_simple >= report.accuracy("simple") for report in reports
    )
    # Knowledge access separates the field on term/guideline questions.
    assert by_name["GenEdit"].accuracy() - by_name["C3-SQL"].accuracy() >= 10
    # GenEdit leads every baseline on the Challenging bucket (decomposed
    # pattern evidence is what unlocks the multi-CTE idioms).
    genedit_challenging = by_name["GenEdit"].accuracy("challenging")
    assert all(
        genedit_challenging >= report.accuracy("challenging")
        for report in reports
    )
    print()
    print(
        format_table(
            "Table 1 (reproduced)",
            ["Method", "Simple", "Moderate", "Challenging", "All"],
            [(report.system, *report.row()) for report in reports],
        )
    )
