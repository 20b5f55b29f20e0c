"""GenEdit generation pipeline: compounding operators over the knowledge set."""

from .base import (
    GenerationResult,
    Operator,
    PipelineContext,
    Plan,
    PlanStep,
)
from .builders import build_sql
from .config import DEFAULT_CONFIG, PipelineConfig
from .lexicon import SchemaLexicon
from .nlparse import canonicalize, parse_question
from .pipeline import GenEditPipeline
from .planning import build_plan_steps
from .prompt import assemble_prompt
from .tuning import (
    BALANCED,
    ECONOMY,
    QUALITY,
    TIERS,
    PipelineTier,
    configure_for_budget,
    estimate_cost,
    estimate_latency,
)
from .spec import (
    FilterSpec,
    HavingSpec,
    JoinSpec,
    MetricSpec,
    OrderSpec,
    QuarterFilter,
    QuerySpec,
    RatioDeltaSpec,
    SHAPE_RATIO_DELTA_RANK,
    SHAPE_SHARE_OF_TOTAL,
    SHAPE_STANDARD,
    SHAPE_TOPK_BOTH_ENDS,
)

__all__ = [
    "BALANCED",
    "DEFAULT_CONFIG",
    "ECONOMY",
    "QUALITY",
    "TIERS",
    "PipelineTier",
    "configure_for_budget",
    "estimate_cost",
    "estimate_latency",
    "FilterSpec",
    "GenEditPipeline",
    "GenerationResult",
    "HavingSpec",
    "JoinSpec",
    "MetricSpec",
    "Operator",
    "OrderSpec",
    "PipelineConfig",
    "PipelineContext",
    "Plan",
    "PlanStep",
    "QuarterFilter",
    "QuerySpec",
    "RatioDeltaSpec",
    "SHAPE_RATIO_DELTA_RANK",
    "SHAPE_SHARE_OF_TOTAL",
    "SHAPE_STANDARD",
    "SHAPE_TOPK_BOTH_ENDS",
    "SchemaLexicon",
    "assemble_prompt",
    "build_plan_steps",
    "build_sql",
    "canonicalize",
    "parse_question",
]
