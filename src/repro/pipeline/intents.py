"""Operator #2: intent classification (§3.1.1).

User intents were mined in pre-processing; this operator assigns the
question to its top intents. The classified intents key the example and
instruction retrieval that follows — the first link of the compounding
chain.
"""

from __future__ import annotations

from .base import Operator


class IntentClassificationOperator(Operator):
    name = "classify_intents"

    def __init__(self, llm):
        self._llm = llm

    def run(self, context):
        if not context.config.use_intent_classification:
            context.intent_ids = []
            context.add_trace(self.name, "disabled")
            return context
        context.intent_ids = self._llm.classify_intents(
            context.reformulated,
            context.knowledge,
            meter=context.meter,
        )
        names = [
            context.knowledge.intent(intent_id).name
            for intent_id in context.intent_ids
            if context.knowledge.intent(intent_id)
        ]
        context.add_trace(self.name, f"intents: {names}")
        return context
