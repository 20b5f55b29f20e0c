"""CoT planning operator (§3.1.2).

Builds the generation context (prompt-fitted to the model budget), grounds
the reformulated question against it, and writes the step-by-step plan:
natural-language steps, each augmented with a ``... pseudo-SQL ...``
fragment when pseudo-SQL is enabled. The grounded spec rides on the plan —
it is the structured meaning the steps describe, and the generation
operator renders SQL from it, "minimizing the need for model reasoning".
"""

from __future__ import annotations

from ..llm.grounding import GroundingInput
from ..sql.decompose import KIND_QUERY
from .base import Operator, Plan, PlanStep
from .prompt import assemble_prompt
from .spec import (
    SHAPE_RATIO_DELTA_RANK,
    SHAPE_SHARE_OF_TOTAL,
    SHAPE_TOPK_BOTH_ENDS,
)

#: Minimum retrieval similarity for a *full-query* example to donate its
#: idiom pattern (the w/o-decomposition regime: a full example only helps
#: when the whole question is near-identical to a logged one).
FULL_QUERY_PATTERN_THRESHOLD = 0.55


class PlanningOperator(Operator):
    name = "plan"

    def __init__(self, llm):
        self._llm = llm

    def run(self, context):
        config = context.config
        prompt_examples = context.examples if config.use_examples else []
        fitted = assemble_prompt(
            context.reformulated,
            context.instructions,
            prompt_examples,
            context.schema_elements,
            budget_tokens=config.context_budget_tokens,
            task="Write a step-by-step plan for generating the SQL query.",
        )
        grounding_input = GroundingInput(
            database_name=context.database.name,
            schema_elements=fitted.schema_elements,
            instructions=fitted.instructions,
            patterns=self._available_patterns(context),
            example_columns=self._example_columns(fitted.examples, config),
        )
        _, candidates = self._llm.understand(
            context.reformulated,
            grounding_input,
            meter=context.meter,
            prompt=fitted.prompt,
        )
        primary = candidates[0]
        steps = build_plan_steps(primary.spec, use_pseudo_sql=config.use_pseudo_sql)
        context.plan = Plan(
            steps=steps, spec=primary.spec, issues=list(primary.issues)
        )
        context.grounding_candidates = candidates
        if fitted.dropped:
            context.add_trace(
                self.name,
                f"context budget truncated sections: {fitted.dropped}",
            )
        context.add_trace(
            self.name,
            f"plan with {len(steps)} steps "
            f"(shape={primary.spec.shape}, issues={primary.issues})",
        )
        return context

    def _available_patterns(self, context):
        """Idiom patterns evidenced by the retrieved examples.

        Decomposed fragments donate their pattern directly; a full-query
        example (w/o-decomposition knowledge sets) only donates when its
        retrieval similarity is high — the whole logged question must be
        close to the asked one.
        """
        if not context.config.use_pseudo_sql:
            return set()
        patterns = set()
        pool = context.example_pool or context.examples
        for example in pool:
            if not example.pattern:
                continue
            if example.kind == KIND_QUERY:
                score = context.example_scores.get(example.example_id, 0.0)
                if score < FULL_QUERY_PATTERN_THRESHOLD:
                    continue
            patterns.add(example.pattern)
        return patterns

    def _example_columns(self, examples, config):
        if not config.use_examples:
            return []
        pairs = []
        for example in examples:
            for table in example.tables:
                for column in example.columns:
                    pairs.append((table, column))
        return pairs


def build_plan_steps(spec, use_pseudo_sql=True):
    """Render a grounded spec into CoT plan steps (Fig. 2 style)."""
    steps = []

    def add(description, pseudo=""):
        steps.append(
            PlanStep(
                description=description,
                pseudo_sql=f"... {pseudo} ..." if (pseudo and use_pseudo_sql)
                else "",
            )
        )

    if spec.shape == SHAPE_RATIO_DELTA_RANK and spec.ratio_delta is not None:
        params = spec.ratio_delta
        add(
            f"Begin by looking at the data from the "
            f"{params.numerator_table} table.",
            f"FROM {params.numerator_table}",
        )
        add(
            f"Pivot {params.numerator_value_column} into previous-quarter "
            f"({params.previous_label}) and current-quarter "
            f"({params.current_label}) sums per {params.entity_column}.",
            f"SUM(CASE WHEN TO_CHAR({params.numerator_date_column}, "
            f"'YYYY\"Q\"Q') = '{params.current_label}' THEN "
            f"{params.numerator_value_column} ELSE 0 END)",
        )
        for flt in params.numerator_filters:
            add(f"Restrict the data: {flt.render()}.", flt.render())
        if params.denominator_table:
            add(
                f"Build the same pivot over "
                f"{params.denominator_value_column} from the "
                f"{params.denominator_table} table.",
                f"FROM {params.denominator_table}",
            )
            add(
                "Divide the current and previous sums, guarding against "
                "zero denominators.",
                "CAST(n.CUR_VALUE AS FLOAT) / NULLIF(d.CUR_VALUE, 0)",
            )
        add(
            "Compute the change as current minus previous"
            + (" and apply the -1 multiplier." if params.negate else "."),
            ("-1 * " if params.negate else "")
            + "(CURRENT_METRIC) - (PREVIOUS_METRIC)",
        )
        add(
            f"Rank entities by the change from both ends and keep the "
            f"best and worst {params.k}."
            if params.both_ends
            else f"Rank entities by the change and keep the top {params.k}.",
            "ROW_NUMBER() OVER (ORDER BY METRIC_CHANGE DESC)",
        )
        add(
            "Assemble the CTEs and select the entity, metrics, change, "
            "and rank.",
            f"SELECT {params.entity_column}, METRIC_CHANGE, BEST_RANK",
        )
        return steps

    add(
        f"Begin by looking at the data from the {spec.base_table} table.",
        f"FROM {spec.base_table}",
    )
    for join in spec.joins:
        add(
            f"Join {join.table} on {spec.base_table}.{join.left_column} = "
            f"{join.table}.{join.right_column}.",
            f"JOIN {join.table} ON {spec.base_table}.{join.left_column} = "
            f"{join.table}.{join.right_column}",
        )
    for flt in spec.filters:
        add(f"Filter rows where {flt.render()}.", f"WHERE {flt.render()}")
    for quarter in spec.quarter_filters:
        add(
            f"Restrict to the period {quarter.label}.",
            quarter.render(),
        )
    if spec.group_by:
        rendered = ", ".join(spec.group_by)
        add(f"Group the rows by {rendered}.", f"GROUP BY {rendered}")
    for metric in spec.metrics:
        add(
            f"Compute {metric.render()} as {metric.alias}.",
            f"{metric.render()} AS {metric.alias}",
        )
    for having in spec.having:
        metric = spec.metrics[having.metric_index]
        add(
            f"Keep only groups where {metric.alias} {having.op} "
            f"{having.value}.",
            f"HAVING {metric.render()} {having.op} {having.value}",
        )
    if spec.shape == SHAPE_TOPK_BOTH_ENDS:
        add(
            "Rank the groups from both ends with ROW_NUMBER and keep the "
            "best and worst k.",
            "ROW_NUMBER() OVER (ORDER BY METRIC_VALUE DESC)",
        )
    elif spec.shape == SHAPE_SHARE_OF_TOTAL:
        add(
            "Divide each group's metric by the grand total using a window "
            "sum.",
            "METRIC_VALUE / NULLIF(SUM(METRIC_VALUE) OVER (), 0)",
        )
    elif spec.order is not None:
        direction = "descending" if spec.order.descending else "ascending"
        key = (
            spec.metrics[spec.order.metric_index].alias
            if spec.order.metric_index is not None
            else spec.order.column
        )
        description = f"Order the results by {key} {direction}"
        if spec.order.limit is not None:
            description += f" and keep the first {spec.order.limit}"
        add(description + ".", f"ORDER BY {key}")
    add("Select the final output columns.")
    return steps
