"""Baseline Text-to-SQL systems for Table 1 and the §3.3.4 comparator.

Each baseline is a genuine architectural variant sharing the same simulated
LLM, SQL substrate, and retrieval machinery — differing exactly where the
original systems differ:

* **C3-SQL** — zero-shot with calibrated schema context: schema linking but
  no examples, no instructions, a single candidate, no retries.
* **DAIL-SQL** — few-shot with *full-query* examples selected by question
  similarity; no instructions; the full schema goes into the prompt.
* **TA-SQL** — task-alignment: schema linking plus skeleton-style
  generation, without any external knowledge store.
* **MAC-SQL** — multi-agent (selector / decomposer / refiner): schema
  linking, more candidates, and a deeper refinement loop.
* **CHESS** — strong contextual retrieval: generous schema linking with
  value profiles, similarity-retrieved instructions and examples (flat
  retrieval — no intent keying, no context expansion).
* **SchemaMaximal** — the paper's in-house comparator (§3.3.4): a
  fine-tuned model with maximal schema context. Fine-tuning on the query
  logs bakes in the common single-CTE idioms and the documented terms, but
  the approach has a *complexity ceiling*: it cannot compose the
  multi-CTE ratio shapes enterprise questions need (exactly why the paper
  deploys GenEdit despite this model's higher BIRD score).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..knowledge.decomposition import (
    PATTERN_QUARTER_PIVOT,
    PATTERN_SHARE_OF_TOTAL,
    PATTERN_TOPK_BOTH_ENDS,
)
from ..pipeline.base import Operator
from ..pipeline.config import PipelineConfig
from ..pipeline.pipeline import GenEditPipeline
from ..pipeline.planning import PlanningOperator, build_plan_steps
from ..pipeline.spec import (
    MetricSpec,
    OrderSpec,
    QuarterFilter,
    QuerySpec,
    SHAPE_RATIO_DELTA_RANK,
    SHAPE_STANDARD,
)


@dataclass(frozen=True)
class BaselineSpec:
    """A baseline's builder plus which knowledge representation it uses."""

    name: str
    config: PipelineConfig
    knowledge: str = "decomposed"  # or "full" (undecomposed examples)


C3_CONFIG = PipelineConfig(
    use_schema_linking=False,  # zero-shot: the raw schema is the prompt
    use_instructions=False,
    use_examples=False,
    use_pseudo_sql=False,
    use_intent_classification=False,
    use_context_expansion=False,
    use_value_profiles=False,
    candidate_count=1,
    max_retries=0,
    context_budget_tokens=1000,  # compact calibrated prompt
)

DAIL_CONFIG = PipelineConfig(
    use_schema_linking=False,
    use_instructions=False,
    use_intent_classification=False,
    use_context_expansion=False,
    candidate_count=1,
    max_retries=1,
    context_budget_tokens=2000,  # example-heavy prompts squeeze the schema
)

TA_CONFIG = PipelineConfig(
    use_instructions=False,
    use_examples=False,
    use_pseudo_sql=False,
    use_intent_classification=False,
    use_context_expansion=False,
    candidate_count=2,
    max_retries=1,
)

MAC_CONFIG = PipelineConfig(
    use_instructions=False,
    use_examples=True,       # the decomposer selects demonstrations
    use_pseudo_sql=True,
    use_intent_classification=False,
    use_context_expansion=False,
    example_top_k=6,
    candidate_count=3,
    max_retries=3,
)

CHESS_CONFIG = PipelineConfig(
    use_intent_classification=False,
    use_context_expansion=False,
    instruction_top_k=8,
    example_top_k=16,
    schema_top_k=32,
    candidate_count=2,
    max_retries=2,
)

BASELINES = (
    BaselineSpec("CHESS", CHESS_CONFIG),
    BaselineSpec("MAC-SQL", MAC_CONFIG),
    BaselineSpec("TA-SQL", TA_CONFIG),
    BaselineSpec("DAIL-SQL", DAIL_CONFIG, knowledge="full"),
    BaselineSpec("C3-SQL", C3_CONFIG),
)

BASELINE_BUILDERS = {
    spec.name: (lambda db, ks, cfg=spec.config: GenEditPipeline(
        db, ks, config=cfg
    ))
    for spec in BASELINES
}


# ---------------------------------------------------------------------------
# SchemaMaximal (§3.3.4)
# ---------------------------------------------------------------------------

SCHEMA_MAXIMAL_CONFIG = PipelineConfig(
    use_schema_linking=False,
    use_intent_classification=False,
    use_context_expansion=False,
    instruction_top_k=12,
    candidate_count=2,
    max_retries=2,
    context_budget_tokens=100_000,  # "maximizes the schema contextual information"
)

#: Idioms the fine-tuned model has internalised from the training logs.
INNATE_PATTERNS = frozenset(
    {PATTERN_TOPK_BOTH_ENDS, PATTERN_SHARE_OF_TOTAL, PATTERN_QUARTER_PIVOT}
)


class _FineTunedPlanningOperator(PlanningOperator):
    """Planning with the fine-tuned model's internalised idioms."""

    def _available_patterns(self, context):
        return set(INNATE_PATTERNS)


class _ComplexityCeilingOperator(Operator):
    """The fine-tuned approach's limit: no cross-CTE ratio composition.

    When the grounded spec requires joining two pivot CTEs (the QoQFP
    shape with a denominator), the model flattens it to a current-quarter
    aggregate ranking — plausible but wrong, exactly the behaviour that
    keeps this approach out of enterprise deployments (§3.3.4).
    """

    name = "complexity_ceiling"

    def run(self, context):
        plan = context.plan
        if plan is None or plan.spec is None:
            return context
        spec = plan.spec
        if spec.shape != SHAPE_RATIO_DELTA_RANK or spec.ratio_delta is None:
            return context
        params = spec.ratio_delta
        if not params.denominator_table:
            return context  # single-CTE pivots are within reach
        flattened = QuerySpec(
            database=spec.database,
            base_table=params.numerator_table,
            shape=SHAPE_STANDARD,
            projection=(params.entity_column,),
            metrics=(
                MetricSpec("SUM", column=params.numerator_value_column),
            ),
            filters=tuple(params.numerator_filters),
            quarter_filters=(
                QuarterFilter(
                    params.numerator_date_column, params.year, params.quarter
                ),
            ),
            group_by=(params.entity_column,),
            order=OrderSpec(metric_index=0, descending=True, limit=params.k),
        )
        plan.spec = flattened
        plan.steps = build_plan_steps(flattened, use_pseudo_sql=True)
        plan.issues.append("complexity-ceiling:flattened-ratio-delta")
        for candidate in context.grounding_candidates:
            candidate.spec = flattened
        context.add_trace(
            self.name,
            "multi-CTE ratio flattened to a single aggregate (model limit)",
        )
        return context


def build_schema_maximal(database, knowledge):
    """Build the §3.3.4 schema-maximal fine-tuned comparator."""
    pipeline = GenEditPipeline(
        database, knowledge, config=SCHEMA_MAXIMAL_CONFIG
    )
    rebuilt = []
    for operator in pipeline.operators:
        if isinstance(operator, PlanningOperator):
            rebuilt.append(_FineTunedPlanningOperator(pipeline.llm))
            rebuilt.append(_ComplexityCeilingOperator())
        else:
            rebuilt.append(operator)
    pipeline.operators = rebuilt
    return pipeline
