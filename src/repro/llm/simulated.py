"""The simulated language model.

Every LLM-backed operator in GenEdit maps onto a method here. Each method
renders an honest prompt (so token accounting and context budgets are
real), records the call on a :class:`~repro.llm.interface.CallMeter`, and
produces its output *deterministically from the prompt's contents* — the
reproduction's substitute for a remote GPT-4o (see DESIGN.md §2).

Capability contract (what the "model" can and cannot do):

* innate linguistic competence — the closed question grammar of
  :mod:`repro.pipeline.nlparse` always parses;
* schema grounding — only against schema elements present in the prompt;
* domain terms — only through instruction entries present in the prompt;
* complex SQL idioms — only when example fragments evidence the pattern
  (and pseudo-SQL is enabled to carry them into the plan).
"""

from __future__ import annotations

import functools

from ..pipeline.nlparse import canonicalize, parse_question
from ..text.normalize import normalize
from .grounding import Grounder, GroundingInput
from .interface import GPT_4O, GPT_4O_MINI, Prompt


#: Token sets for texts that recur across calls (schema-element retrieval
#: texts score against every question); values are immutable frozensets.
#: One seed's questions and schema texts need about 290 entries, so 512
#: holds one deployment (DESIGN.md §6d).
@functools.lru_cache(maxsize=512)
def _token_set(text):
    return frozenset(normalize(text))


class SimulatedLLM:
    """Deterministic stand-in for the GPT-4o calls in the paper."""

    def __init__(self, model=GPT_4O, linking_model=GPT_4O_MINI):
        self.model = model
        self.linking_model = linking_model
        self._grounder = Grounder()

    # -- operator #1: query reformulation ------------------------------------

    def reformulate(self, question, meter=None):
        prompt = Prompt(
            task="Rewrite the user question into the canonical "
                 "'Show me ...' form."
        )
        prompt.add_section("Question", [question])
        output = canonicalize(question)
        if meter is not None:
            meter.record("reformulate", self.model, prompt, output)
        return output

    # -- operator #2: intent classification ----------------------------------

    def classify_intents(self, question, knowledge, k=1, meter=None):
        prompt = Prompt(task="Classify the question into user intents.")
        prompt.add_section(
            "Known intents",
            [f"{intent.intent_id}: {intent.name}" for intent in
             knowledge.intents()],
        )
        prompt.add_section("Question", [question])
        # Domain terms anchor intents: a question using 'QoQFP' belongs to
        # the intent its defining instruction was mined under, regardless of
        # how the rest of the question is phrased.
        lowered = question.lower().replace("-", " ")
        term_intents = []
        for term, instruction in knowledge.term_definitions().items():
            if term.replace("-", " ") in lowered:
                for intent_id in instruction.intent_ids:
                    if intent_id not in term_intents:
                        term_intents.append(intent_id)
        hits = knowledge.search_intents(question, k=k)
        intent_ids = list(term_intents)
        for hit in hits:
            if hit.doc_id not in intent_ids:
                intent_ids.append(hit.doc_id)
        intent_ids = intent_ids[: max(k, len(term_intents))]
        if meter is not None:
            meter.record(
                "classify_intents", self.model, prompt, " ".join(intent_ids)
            )
        return intent_ids

    # -- operator #5: schema linking (GPT-4o-mini) ---------------------------

    def link_schema(self, question, schema_elements, k=24, meter=None):
        """Rank schema elements by relevance to the question.

        Scores combine lexical overlap between the question and an
        element's retrieval text with value-mention hits (a question naming
        'Canada' pulls in columns whose top values include it), then FK
        partners and parent tables of selected columns are pulled in so
        joins stay possible.
        """
        prompt = Prompt(
            task="Select the schema elements relevant to the question."
        )
        prompt.add_section(
            "Schema", [element.qualified_name for element in schema_elements]
        )
        prompt.add_section("Question", [question])
        question_tokens = set(normalize(question))
        question_words = {
            word.strip(".,?'").lower() for word in question.split()
        }
        scored = []
        for position, element in enumerate(schema_elements):
            # The element-side scoring inputs (retrieval-text tokens, name
            # tokens, lowered values) never change; computed once per
            # element and kept on the instance across questions, stored
            # straight into its ``__dict__`` (the ``cached_property`` idiom:
            # elements are frozen). Concurrent linkers may each compute the
            # tuple, but publication is a single store of an immutable
            # value, so every reader sees either nothing or the full
            # signature.
            cached = element.__dict__.get("_link_signature")
            if cached is None:
                cached = (
                    _token_set(element.retrieval_text),
                    _token_set(
                        (element.column or element.table).replace("_", " ")
                    ),
                    tuple(str(value).lower() for value in element.top_values),
                )
                element.__dict__["_link_signature"] = cached
            tokens, name_tokens, lowered_values = cached
            overlap = len(question_tokens & tokens)
            score = float(overlap)
            # A question word naming the column (or table) itself is a far
            # stronger signal than description overlap.
            score += 2.0 * len(question_tokens & name_tokens)
            for value in lowered_values:
                if value in question_words:
                    score += 2.0
            if element.is_table:
                score += 0.5 * overlap
            score -= position * 1e-4  # stable ordering
            scored.append((score, position, element))
        scored.sort(key=lambda item: (-item[0], item[1]))
        selected = [element for score, _pos, element in scored[:k] if score > 0]
        chosen_tables = {element.table for element in selected}
        # Keep every selected column usable: its table element, FK partner
        # columns, and each table's date/label columns. Support elements
        # rank *ahead* of the low-relevance tail so that context truncation
        # never drops a table definition before its columns.
        tables = []
        support = []
        # Selected elements are distinct objects (qualified names are
        # unique), so identity membership matches the equality check the
        # list would do — without O(selected) dataclass comparisons each.
        selected_ids = {id(element) for element in selected}
        for element in schema_elements:
            if id(element) in selected_ids:
                continue
            if element.table in chosen_tables and element.is_table:
                tables.append(element)
            elif element.table in chosen_tables and not element.is_table:
                description = element.description or ""
                interesting = (
                    element.data_type == "DATE"
                    or "Foreign key" in description
                    or "NAME" in element.column
                    or element.column.endswith("_ID")
                )
                if interesting:
                    support.append(element)
        linked = tables + support + selected
        if meter is not None:
            meter.record(
                "link_schema", self.linking_model, prompt,
                " ".join(element.qualified_name for element in linked),
            )
        return linked

    # -- operators #6/#7: planning + generation grounding --------------------

    def understand(self, reformulated, grounding_input: GroundingInput,
                   meter=None, prompt=None):
        """Parse and ground the question; returns grounding candidates."""
        parsed = parse_question(reformulated)
        candidates = self._grounder.ground(parsed, grounding_input)
        if meter is not None:
            meter.record(
                "plan",
                self.model,
                prompt or Prompt(task="Plan the SQL generation."),
                str(candidates[0].spec),
            )
        return parsed, candidates
