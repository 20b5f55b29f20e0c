"""The knowledge set: a materialised view with retrieval indexes.

:class:`KnowledgeSet` stores intents, decomposed examples, instructions,
and schema elements, and maintains retrieval indexes over the intents,
examples and instructions so the pipeline's compounding retrieval
operators can do intent-keyed lookup followed by cosine re-ranking.
Schema elements have no index: schema linking ranks all of them in the
LLM (``SimulatedLLM.link_schema``), the paper's LLM-identified relevant
elements plus re-ranker. The set supports the full edit vocabulary of
the paper's continuous-improvement module: insert, update, and delete of
examples and instructions (§4.1), plus snapshot/restore for the history
and checkpointing machinery (§4.2.2).

:meth:`KnowledgeSet.clone` builds the staging environments of that loop. It
copies the four id -> component dicts and clones the three retrieval
indexes copy-on-write, so a clone starts from its parent's fitted state
and only the indexes its edits touch are refit. The components themselves are
shared: they are frozen dataclasses (:mod:`repro.knowledge.models`) whose
fields are scalars (str, number or date), tuples of those, or the frozen
:class:`~repro.knowledge.models.Provenance`, and every edit replaces a
component (``add_*``/``update_*``/``delete_*``) instead of mutating it. The
only value stored onto a live component, ``SchemaElement._link_signature``
(``llm/simulated.py``), is an immutable tuple derived from the element's
fields and written into its ``__dict__``, so a clone may share it.
Snapshot/restore share the components the same way: a snapshot holds the
sorted component lists, and a restore re-adds them to fresh dicts and
indexes.

:attr:`KnowledgeSet.revision` is an opaque token for the set's contents.
Every mutator (``add_*`` and a ``delete_*`` that removes something;
``update_*`` and :meth:`~KnowledgeSet.restore` go through them) replaces
it, and :meth:`~KnowledgeSet.clone` copies it, so two sets with the same
revision hold the same components in the same insertion order. Memos of
results computed from a set's contents, such as the regression outcomes
of ``repro.feedback.regression``, key on it. Edits must therefore go
through the mutators: writing a component dict directly leaves the
revision (and the retrieval indexes) stale; a component itself cannot be
written in place.
"""

from __future__ import annotations

from ..text.index import RetrievalIndex
from .models import (
    DecomposedExample,
    Instruction,
    Intent,
    SchemaElement,
)


class KnowledgeSet:
    """Materialised view of company-specific Text-to-SQL knowledge."""

    def __init__(self, name="knowledge"):
        self.name = name
        #: Opaque content token; see the module docstring.
        self.revision = object()
        self._intents = {}
        self._examples = {}
        self._instructions = {}
        self._schema_elements = {}
        self._example_index = RetrievalIndex()
        self._instruction_index = RetrievalIndex()
        self._intent_index = RetrievalIndex()

    # -- intents ----------------------------------------------------------

    def add_intent(self, intent: Intent):
        self._intents[intent.intent_id] = intent
        self.revision = object()
        self._intent_index.add(
            intent.intent_id,
            f"{intent.name}\n{intent.description}",
            {"kind": "intent"},
        )
        return intent

    def intent(self, intent_id):
        return self._intents.get(intent_id)

    def intents(self):
        return sorted(self._intents.values(), key=lambda item: item.intent_id)

    def search_intents(self, query, k=3):
        return self._intent_index.search(query, k=k)

    # -- examples ----------------------------------------------------------

    def add_example(self, example: DecomposedExample):
        self._examples[example.example_id] = example
        self.revision = object()
        self._example_index.add(
            example.example_id,
            example.retrieval_text,
            {"kind": "example"},
        )
        return example

    def update_example(self, example: DecomposedExample):
        if example.example_id not in self._examples:
            raise KeyError(f"Unknown example {example.example_id!r}")
        return self.add_example(example)

    def delete_example(self, example_id):
        if self._examples.pop(example_id, None) is not None:
            self.revision = object()
        self._example_index.remove(example_id)

    def example(self, example_id):
        return self._examples.get(example_id)

    def examples(self):
        return sorted(
            self._examples.values(), key=lambda item: item.example_id
        )

    def examples_for_intents(self, intent_ids):
        wanted = set(intent_ids)
        return [
            example for example in self.examples()
            if wanted & set(example.intent_ids)
        ]

    def example_vectors(self):
        """Example id -> ``(vector, norm)`` from the example index's fit.

        Read-only: the example index's fitted vectors
        (:meth:`RetrievalIndex.vectors`). Its documents are the examples'
        ``retrieval_text`` values, and document frequencies do not depend
        on order, so each vector is bit-identical to the one a fresh
        :meth:`~repro.text.vectorize.TfIdfVectorizer.fit_transform` over
        :meth:`examples` gives.
        """
        return self._example_index.vectors()

    def search_examples(self, query, k=10, candidates=None, extra_text=""):
        return self._example_index.search(
            query, k=k, candidates=candidates, extra_text=extra_text
        )

    # -- instructions ----------------------------------------------------------

    def add_instruction(self, instruction: Instruction):
        self._instructions[instruction.instruction_id] = instruction
        self.revision = object()
        self._instruction_index.add(
            instruction.instruction_id,
            instruction.retrieval_text,
            {"kind": "instruction"},
        )
        return instruction

    def update_instruction(self, instruction: Instruction):
        if instruction.instruction_id not in self._instructions:
            raise KeyError(
                f"Unknown instruction {instruction.instruction_id!r}"
            )
        return self.add_instruction(instruction)

    def delete_instruction(self, instruction_id):
        if self._instructions.pop(instruction_id, None) is not None:
            self.revision = object()
        self._instruction_index.remove(instruction_id)

    def instruction(self, instruction_id):
        return self._instructions.get(instruction_id)

    def instructions(self):
        return sorted(
            self._instructions.values(), key=lambda item: item.instruction_id
        )

    def instructions_for_intents(self, intent_ids):
        wanted = set(intent_ids)
        return [
            instruction for instruction in self.instructions()
            if wanted & set(instruction.intent_ids)
        ]

    def term_definitions(self):
        """All instructions that define a domain term, keyed by lower term."""
        return {
            instruction.term.lower(): instruction
            for instruction in self.instructions()
            if instruction.term
        }

    def search_instructions(self, query, k=10, candidates=None, extra_text=""):
        return self._instruction_index.search(
            query, k=k, candidates=candidates, extra_text=extra_text
        )

    # -- schema elements ----------------------------------------------------------

    def add_schema_element(self, element: SchemaElement):
        self._schema_elements[element.element_id] = element
        self.revision = object()
        return element

    def delete_schema_element(self, element_id):
        if self._schema_elements.pop(element_id, None) is not None:
            self.revision = object()

    def schema_element(self, element_id):
        return self._schema_elements.get(element_id)

    def schema_elements(self):
        return sorted(
            self._schema_elements.values(), key=lambda item: item.element_id
        )

    def schema_for_intents(self, intent_ids):
        wanted = set(intent_ids)
        return [
            element for element in self.schema_elements()
            if wanted & set(element.intent_ids)
        ]

    # -- bulk / stats ----------------------------------------------------------

    def stats(self):
        return {
            "intents": len(self._intents),
            "examples": len(self._examples),
            "instructions": len(self._instructions),
            "schema_elements": len(self._schema_elements),
        }

    # -- snapshot / restore ----------------------------------------------------------

    def snapshot(self):
        """All components, as lists (for checkpoints).

        The components are frozen values, so the snapshot shares them: a
        later edit replaces entries in this set's dicts and leaves the
        snapshot's lists as they were.
        """
        return {
            "name": self.name,
            "intents": self.intents(),
            "examples": self.examples(),
            "instructions": self.instructions(),
            "schema_elements": self.schema_elements(),
        }

    def restore(self, snapshot):
        """Replace all contents with ``snapshot`` (from :meth:`snapshot`)."""
        self.name = snapshot["name"]
        self.revision = object()  # even when the snapshot is empty
        self._intents = {}
        self._examples = {}
        self._instructions = {}
        self._schema_elements = {}
        self._example_index = RetrievalIndex()
        self._instruction_index = RetrievalIndex()
        self._intent_index = RetrievalIndex()
        for intent in snapshot["intents"]:
            self.add_intent(intent)
        for example in snapshot["examples"]:
            self.add_example(example)
        for instruction in snapshot["instructions"]:
            self.add_instruction(instruction)
        for element in snapshot["schema_elements"]:
            self.add_schema_element(element)
        return self

    def clone(self):
        """Independent copy (used to build staging environments).

        The component dicts are copied and the frozen components in them
        shared (see the module docstring), so an edit on either side
        replaces entries in its own dict only. The retrieval indexes are
        copy-on-write clones (:meth:`RetrievalIndex.clone`): they share the
        parent's documents and fitted state, and each refits on its own
        only after an edit to it. The clone shares its parent's
        :attr:`revision` until either side is edited.
        """
        clone = KnowledgeSet(self.name)
        clone.revision = self.revision
        clone._intents = dict(self._intents)
        clone._examples = dict(self._examples)
        clone._instructions = dict(self._instructions)
        clone._schema_elements = dict(self._schema_elements)
        clone._example_index = self._example_index.clone()
        clone._instruction_index = self._instruction_index.clone()
        clone._intent_index = self._intent_index.clone()
        return clone
