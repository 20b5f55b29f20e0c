"""Benchmark substrate: databases, workloads, baselines, harness."""

from .bird import build_knowledge_sets, build_workload
from .enterprise import build_enterprise_workload
from .harness import (
    ExperimentContext,
    crossover,
    evaluate_system,
    feedback_metrics,
    format_table,
    profile,
    run_genedit,
    table1,
    table2,
)
from .metrics import EvaluationReport, QuestionOutcome, execution_match
from .schemas import DATABASE_NAMES, DEFAULT_SEED, build_all, build_profile
from .workloads import BUCKET_SIZES, BenchmarkQuestion, SchemaInfo, Workload

__all__ = [
    "BUCKET_SIZES",
    "BenchmarkQuestion",
    "DATABASE_NAMES",
    "DEFAULT_SEED",
    "EvaluationReport",
    "ExperimentContext",
    "QuestionOutcome",
    "SchemaInfo",
    "Workload",
    "build_all",
    "build_enterprise_workload",
    "build_knowledge_sets",
    "build_profile",
    "build_workload",
    "crossover",
    "evaluate_system",
    "execution_match",
    "feedback_metrics",
    "format_table",
    "profile",
    "run_genedit",
    "table1",
    "table2",
]
