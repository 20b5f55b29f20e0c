"""§3.3.3: the schema-linking model choice.

"We use GPT-4o across all operators, except for schema linking, where we
instead employ GPT-4o-mini to reduce primarily cost and then latency."

Reproduction target: swapping the linking model to the small one changes
no answers (EX identical) while cutting simulated dollar cost and
per-question latency — the deployment rationale.
"""

from __future__ import annotations

from repro.bench.harness import format_table, model_selection


def test_model_selection(benchmark, context):
    reports = benchmark.pedantic(
        lambda: model_selection(context),
        rounds=1, iterations=1,
    )
    mini = reports["gpt-4o-mini linking (deployed)"]
    big = reports["gpt-4o linking"]

    # Accuracy is unchanged: linking quality does not need the big model.
    assert mini.accuracy() == big.accuracy()
    # Cost drops by a meaningful factor; latency drops too.
    assert mini.total_cost_usd < big.total_cost_usd * 0.9
    mini_latency = sum(o.latency_ms for o in mini.outcomes)
    big_latency = sum(o.latency_ms for o in big.outcomes)
    assert mini_latency < big_latency

    print()
    print(
        format_table(
            "Model selection (reproduced, §3.3.3)",
            ["Configuration", "EX", "Cost ($)", "Latency (s total)"],
            [
                ("gpt-4o-mini linking", mini.accuracy(),
                 mini.total_cost_usd, mini_latency / 1000),
                ("gpt-4o linking", big.accuracy(),
                 big.total_cost_usd, big_latency / 1000),
            ],
        )
    )
