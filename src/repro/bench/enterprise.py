"""The enterprise workload: Q_fin-perf-style complexity (§3.3.4, §1).

Two dozen sports-holdings questions of the shape the paper's introduction
motivates — quarter-over-quarter ratio metrics with company terminology,
ownership filters, and dual-ended rankings — plus single-pivot deltas and
both-end rankings. This is the workload where GenEdit's decomposition pays
off and the schema-maximal fine-tuned comparator hits its complexity
ceiling.
"""

from __future__ import annotations

import random

from .bird import _add
from .schemas import DEFAULT_SEED, build_all
from .workloads import SchemaInfo, Workload, _Factory

ENTERPRISE_DIFFICULTY = "challenging"


def build_enterprise_workload(seed=DEFAULT_SEED):
    """24 enterprise questions on the sports-holdings database."""
    profiles = build_all(seed)
    workload = Workload()
    name = "sports_holdings"
    counter = 500
    plan = []
    for index in range(12):
        use_value = index % 3 != 2
        plan.append(
            lambda f, use_value=use_value: f.ratio_term_question(
                bare_value="Canada" if use_value else None,
                use_our=True,
            )
        )
    for index in range(6):
        plan.append(
            lambda f: f.both_ends_question(
                "SPORTS_FINANCIALS", quarter_filter=True
            )
        )
    for index in range(6):
        direction = "drop" if index % 2 else "increase"
        plan.append(
            lambda f, d=direction: f.delta_question(
                "SPORTS_FINANCIALS", direction=d
            )
        )
    for index, maker in enumerate(plan):
        factory = _Factory(
            SchemaInfo(profiles[name]), random.Random(seed * 131 + index)
        )
        counter += 1
        _add(workload, ENTERPRISE_DIFFICULTY, name, maker(factory), counter)
    return workload
