"""Pipeline configuration and ablation knobs.

The four ``use_*`` switches named in :meth:`PipelineConfig.without` are
rows of the paper's Table 2 ablation study (its fifth row, w/o
Decomposition, changes the knowledge sets, not the config); the
retrieval depths and context budget control the compounding-operator
behaviour; ``max_retries`` is the self-correction bound ``k`` from §3.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of the GenEdit generation pipeline."""

    # Ablation switches (Table 2).
    use_schema_linking: bool = True
    use_instructions: bool = True
    use_examples: bool = True
    use_pseudo_sql: bool = True

    # Whether the system can profile database content (top-value lists on
    # schema elements). CHESS-style systems read the data; pure prompting
    # baselines cannot.
    use_value_profiles: bool = True

    # Compounding-retrieval behaviour.
    use_reformulation: bool = True
    use_intent_classification: bool = True
    use_context_expansion: bool = True
    example_top_k: int = 8
    instruction_top_k: int = 4
    schema_top_k: int = 24

    # Generation behaviour.
    candidate_count: int = 2
    max_retries: int = 2
    context_budget_tokens: int = 1150

    def without(self, component):
        """Return a copy with one named ablation applied (Table 2 rows)."""
        ablations = {
            "schema_linking": {"use_schema_linking": False},
            "instructions": {"use_instructions": False},
            "examples": {"use_examples": False},
            "pseudo_sql": {"use_pseudo_sql": False},
        }
        if component not in ablations:
            raise ValueError(f"Unknown ablation {component!r}")
        return replace(self, **ablations[component])


DEFAULT_CONFIG = PipelineConfig()
