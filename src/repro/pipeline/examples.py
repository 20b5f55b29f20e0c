"""Operator #3: example selection (§3.1.1).

Examples associated with the classified intents are retrieved first, the
pool is widened with query-similar examples, and everything is re-ranked by
cosine similarity with the reformulated question. Each pool member is
scored once: the widening search's hits keep their scores, and a second
search scores only the intent candidates the first did not return.
Selected examples carry the idiom patterns (their decomposed fragments)
that planning later turns into pseudo-SQL, plus the columns they
reference (a small grounding boost when examples appear in the generation
prompt).
"""

from __future__ import annotations

from .base import Operator


class ExampleSelectionOperator(Operator):
    name = "select_examples"

    def run(self, context):
        knowledge = context.knowledge
        config = context.config
        intent_candidates = [
            example.example_id
            for example in knowledge.examples_for_intents(context.intent_ids)
        ]
        # Widen with query-similar examples from the whole view.
        hits = knowledge.search_examples(
            context.reformulated, k=config.example_top_k * 2
        )
        # Re-rank the pool by scoring only the intent candidates the wide
        # search did not return: its hits already carry their scores, from
        # the same index state and the same memoised query vector.
        seen = {hit.doc_id for hit in hits}
        missing = [
            doc_id for doc_id in dict.fromkeys(intent_candidates)
            if doc_id not in seen
        ]
        pool_size = len(seen) + len(missing)
        if missing:
            hits += knowledge.search_examples(
                context.reformulated, k=len(missing), candidates=missing
            )
        ranked_pool = sorted(hits, key=lambda hit: (-hit.score, hit.doc_id))
        context.examples = [
            knowledge.example(hit.doc_id)
            for hit in ranked_pool[: config.example_top_k]
            if knowledge.example(hit.doc_id) is not None
        ]
        # The whole ranked pool stays visible to planning: pattern evidence
        # comes from what was *retrieved*, not just what fit in the prompt.
        context.example_pool = [
            knowledge.example(hit.doc_id)
            for hit in ranked_pool
            if knowledge.example(hit.doc_id) is not None
        ]
        context.example_scores = {hit.doc_id: hit.score for hit in ranked_pool}
        context.add_trace(
            self.name,
            f"selected {len(context.examples)} examples "
            f"(pool {pool_size})",
            kinds=[example.kind for example in context.examples],
        )
        return context
