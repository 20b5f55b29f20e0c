"""Table 2: operator ablation study.

Paper deltas (All-bucket EX vs full GenEdit):

    w/o Schema Linking  -2.28   (Challenging collapses 36.36 -> 18.18)
    w/o Instructions   -10.61   (largest drop)
    w/o Examples        -1.52   (smallest drop)
    w/o Pseudo-SQL      -9.85
    w/o Decomposition   -2.28

Reproduction targets: instructions are the most valuable component,
examples the least; removing pseudo-SQL or decomposition destroys the
challenging bucket; removing schema linking hurts challenging hardest.
"""

from __future__ import annotations

from repro.bench.harness import format_table, table2


def test_table2_ablations(benchmark, context):
    reports = benchmark.pedantic(
        lambda: table2(context), rounds=1, iterations=1
    )
    by_name = {report.system: report for report in reports}
    full = by_name["GenEdit"]

    def delta(name):
        return by_name[name].accuracy() - full.accuracy()

    # Instructions give the most benefit (paper: -10.61, the largest drop).
    drops = {
        name: delta(name) for name in by_name if name != "GenEdit"
    }
    assert min(drops, key=drops.get) == "w/o Instructions"
    assert delta("w/o Instructions") <= -6.0

    # Examples give the least direct benefit (paper: -1.52).
    assert abs(delta("w/o Examples")) <= 2.0

    # Pseudo-SQL and decomposition carry the challenging bucket: without
    # either, the multi-CTE idioms are out of reach.
    assert by_name["w/o Pseudo-SQL"].accuracy("challenging") == 0.0
    assert by_name["w/o Decomposition"].accuracy("challenging") == 0.0

    # Schema linking: moderate total drop, challenging crash (paper 18.18).
    assert -6.0 <= delta("w/o Schema Linking") <= -1.0
    assert by_name["w/o Schema Linking"].accuracy("challenging") < (
        full.accuracy("challenging")
    )

    print()
    print(
        format_table(
            "Table 2 (reproduced)",
            ["Method", "Simple", "Moderate", "Challenging", "All"],
            [(report.system, *report.row()) for report in reports],
        )
    )
