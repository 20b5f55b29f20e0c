"""Operator-level tests over a handcrafted knowledge set."""

import pytest

from repro.knowledge import (
    DecomposedExample,
    Instruction,
    Intent,
    KnowledgeSet,
    SchemaElement,
)
from repro.llm.simulated import SimulatedLLM
from repro.pipeline.base import PipelineContext
from repro.pipeline.config import DEFAULT_CONFIG, PipelineConfig
from repro.pipeline.examples import ExampleSelectionOperator
from repro.pipeline.instructions import InstructionSelectionOperator
from repro.pipeline.intents import IntentClassificationOperator
from repro.pipeline.reformulate import ReformulateOperator
from repro.pipeline.schema_linking import SchemaLinkingOperator


@pytest.fixture()
def knowledge():
    ks = KnowledgeSet("ops")
    ks.add_intent(Intent("i-fin", "finance", "money questions"))
    ks.add_intent(Intent("i-hr", "people", "headcount questions"))
    for position in range(6):
        ks.add_example(
            DecomposedExample(
                f"exf{position}",
                f"finance fragment about revenue number {position}",
                f"SUM(REVENUE_{position})",
                intent_ids=("i-fin",),
            )
        )
    ks.add_example(
        DecomposedExample(
            "exh1", "people fragment about headcount",
            "COUNT(*)", intent_ids=("i-hr",),
        )
    )
    ks.add_instruction(
        Instruction(
            "insf", "ARR means annual recurring revenue",
            kind="term_definition", term="ARR",
            sql_pattern="SUM(REVENUE)", intent_ids=("i-fin",),
            tables=("LEDGER",),
        )
    )
    ks.add_instruction(
        Instruction(
            "insh", "'active' people means STATUS = 'active'",
            sql_pattern="STATUS = 'active'", intent_ids=("i-hr",),
        )
    )
    ks.add_schema_element(
        SchemaElement("st", "LEDGER", description="Each row is a ledger entry.")
    )
    ks.add_schema_element(
        SchemaElement(
            "sc1", "LEDGER", "REVENUE", "FLOAT", "Revenue amount.",
            intent_ids=("i-fin",),
        )
    )
    ks.add_schema_element(
        SchemaElement(
            "sc2", "LEDGER", "STATUS", "TEXT", "Entry status.",
            top_values=("active", "void"), intent_ids=("i-hr",),
        )
    )
    return ks


def make_context(knowledge, question, config=None, demo_db=None):
    from repro.engine import Database

    return PipelineContext(
        question=question,
        database=demo_db or Database("ops-db"),
        knowledge=knowledge,
        config=config or DEFAULT_CONFIG,
    )


class TestReformulate:
    def test_canonicalises(self, knowledge):
        context = make_context(knowledge, "What is the ARR?")
        ReformulateOperator(SimulatedLLM()).run(context)
        assert context.reformulated == "Show me the ARR"
        assert context.tracer.iter_events()

    def test_disabled_passes_through(self, knowledge):
        config = PipelineConfig(use_reformulation=False)
        context = make_context(knowledge, "What is the ARR?", config)
        ReformulateOperator(SimulatedLLM()).run(context)
        assert context.reformulated == "What is the ARR?"


class TestIntentClassification:
    def test_classifies_by_similarity(self, knowledge):
        context = make_context(knowledge, "money questions about finance")
        context.reformulated = context.question
        IntentClassificationOperator(SimulatedLLM()).run(context)
        assert context.intent_ids[0] == "i-fin"

    def test_term_anchors_intent(self, knowledge):
        context = make_context(knowledge, "Show me the ARR")
        context.reformulated = context.question
        IntentClassificationOperator(SimulatedLLM()).run(context)
        assert context.intent_ids[0] == "i-fin"

    def test_disabled(self, knowledge):
        config = PipelineConfig(use_intent_classification=False)
        context = make_context(knowledge, "anything", config)
        context.reformulated = context.question
        IntentClassificationOperator(SimulatedLLM()).run(context)
        assert context.intent_ids == []


class TestExampleSelection:
    def test_intent_pool_preferred(self, knowledge):
        context = make_context(knowledge, "Show me the revenue fragment")
        context.reformulated = context.question
        context.intent_ids = ["i-fin"]
        ExampleSelectionOperator().run(context)
        assert context.examples
        # intent-pool examples dominate the selection (widening may add a
        # few similarity hits from other intents — that is by design)
        finance = [
            example for example in context.examples
            if "i-fin" in example.intent_ids
        ]
        assert len(finance) >= len(context.examples) - 1
        assert "i-fin" in context.examples[0].intent_ids

    def test_pool_retained_for_planning(self, knowledge):
        context = make_context(knowledge, "Show me the revenue")
        context.reformulated = context.question
        context.intent_ids = ["i-fin"]
        ExampleSelectionOperator().run(context)
        assert len(context.example_pool) >= len(context.examples)
        assert context.example_scores

    def test_widening_finds_cross_intent(self, knowledge):
        context = make_context(knowledge, "Show me the headcount of people")
        context.reformulated = context.question
        context.intent_ids = ["i-fin"]  # wrong intent on purpose
        ExampleSelectionOperator().run(context)
        ids = {example.example_id for example in context.examples}
        assert "exh1" in ids  # similarity widening rescued it


class TestInstructionSelection:
    def test_selects_relevant(self, knowledge):
        context = make_context(knowledge, "Show me the ARR")
        context.reformulated = context.question
        context.intent_ids = ["i-fin"]
        context.examples = []
        InstructionSelectionOperator().run(context)
        terms = {
            instruction.term for instruction in context.instructions
        }
        assert "ARR" in terms

    def test_term_anchor_forces_inclusion(self, knowledge):
        # Even with a tiny k and polluted expansion, the verbatim term wins.
        config = PipelineConfig(instruction_top_k=1)
        context = make_context(knowledge, "Show me the ARR of active people",
                               config)
        context.reformulated = context.question
        context.intent_ids = ["i-hr"]
        context.examples = list(knowledge.examples())[:3]
        InstructionSelectionOperator().run(context)
        terms = {
            instruction.term for instruction in context.instructions
        }
        assert "ARR" in terms

    def test_ablated_off(self, knowledge):
        config = DEFAULT_CONFIG.without("instructions")
        context = make_context(knowledge, "Show me the ARR", config)
        context.reformulated = context.question
        InstructionSelectionOperator().run(context)
        assert context.instructions == []


class TestSchemaLinking:
    def test_linked_subset_relevant_first(self, knowledge):
        context = make_context(knowledge, "Show me the total revenue")
        context.reformulated = context.question
        context.intent_ids = ["i-fin"]
        SchemaLinkingOperator(SimulatedLLM()).run(context)
        names = [
            element.qualified_name for element in context.schema_elements
        ]
        assert "LEDGER.REVENUE" in names

    def test_ablated_passes_full_catalog_in_order(self, knowledge):
        config = DEFAULT_CONFIG.without("schema_linking")
        context = make_context(knowledge, "anything", config)
        context.reformulated = context.question
        SchemaLinkingOperator(SimulatedLLM()).run(context)
        assert len(context.schema_elements) == 3

    def test_value_profiles_stripped(self, knowledge):
        config = PipelineConfig(use_value_profiles=False)
        context = make_context(knowledge, "Show me active entries", config)
        context.reformulated = context.question
        SchemaLinkingOperator(SimulatedLLM()).run(context)
        assert all(
            element.top_values == ()
            for element in context.schema_elements
        )

    def test_expansion_links_instruction_columns(self, knowledge):
        # The question never mentions 'revenue'; the ARR instruction does.
        context = make_context(knowledge, "Show me the ARR")
        context.reformulated = context.question
        context.intent_ids = ["i-fin"]
        context.instructions = [knowledge.instruction("insf")]
        SchemaLinkingOperator(SimulatedLLM()).run(context)
        names = [
            element.qualified_name for element in context.schema_elements
        ]
        assert "LEDGER.REVENUE" in names
