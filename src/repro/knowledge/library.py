"""Knowledge Set Library: the expert-facing view of the knowledge set.

This is the programmatic equivalent of the paper's library UI (§4.2.2,
Fig. 4): browse components with provenance, list past feedback ordered by
timestamp, make direct edits outside the context of any query, and list
checkpoints. Moving between checkpoints goes through the library's
``history`` (:class:`~.versioning.KnowledgeSetHistory`: ``checkpoint``,
``revert_to``, ``diff``).
"""

from __future__ import annotations

from .models import (
    DecomposedExample,
    Instruction,
    Provenance,
    next_component_id,
)


class KnowledgeLibrary:
    """Expert operations over a knowledge set and its history."""

    def __init__(self, knowledge_set, history):
        self.knowledge_set = knowledge_set
        self.history = history

    # -- browsing ----------------------------------------------------------

    def overview(self):
        """Component counts plus the latest edits, newest first."""
        return {
            "stats": self.knowledge_set.stats(),
            "recent_edits": self.history.records()[:10],
            "checkpoints": [
                (checkpoint.checkpoint_id, checkpoint.label)
                for checkpoint in self.history.checkpoints()
            ],
        }

    def component_provenance(self, component_id):
        """Provenance of one component plus its edit trail."""
        component = (
            self.knowledge_set.example(component_id)
            or self.knowledge_set.instruction(component_id)
            or self.knowledge_set.schema_element(component_id)
            or self.knowledge_set.intent(component_id)
        )
        if component is None:
            raise KeyError(f"Unknown component {component_id!r}")
        trail = [
            record for record in self.history.records()
            if record.component_id == component_id
        ]
        return {"component": component, "provenance": component.provenance,
                "edits": trail}

    def feedback_timeline(self):
        """All feedback-driven edits grouped by feedback id, newest first."""
        grouped = {}
        for record in self.history.records():
            if record.feedback_id:
                grouped.setdefault(record.feedback_id, []).append(record)
        return sorted(
            grouped.items(),
            key=lambda item: -max(record.timestamp for record in item[1]),
        )

    # -- direct edits (outside any feedback session) -----------------------

    def add_instruction(self, text, term="", sql_pattern="", intent_ids=(),
                        author="expert"):
        instruction = Instruction(
            instruction_id=next_component_id("ins"),
            text=text,
            kind="term_definition" if term else "guideline",
            term=term,
            sql_pattern=sql_pattern,
            intent_ids=tuple(intent_ids),
            provenance=Provenance(
                "manual", source_ref=author, timestamp=self.history.now
            ),
        )
        self.knowledge_set.add_instruction(instruction)
        self.history.record(
            "insert", "instruction", instruction.instruction_id,
            f"Direct edit: {text[:60]}", author=author,
        )
        return instruction

    def add_example(self, description, sql, kind="select_item", pattern="",
                    intent_ids=(), author="expert"):
        example = DecomposedExample(
            example_id=next_component_id("ex"),
            description=description,
            sql=sql,
            kind=kind,
            pattern=pattern,
            intent_ids=tuple(intent_ids),
            provenance=Provenance(
                "manual", source_ref=author, timestamp=self.history.now
            ),
        )
        self.knowledge_set.add_example(example)
        self.history.record(
            "insert", "example", example.example_id,
            f"Direct edit: {description[:60]}", author=author,
        )
        return example

    def delete_component(self, component_id, author="expert"):
        if self.knowledge_set.example(component_id):
            self.knowledge_set.delete_example(component_id)
            kind = "example"
        elif self.knowledge_set.instruction(component_id):
            self.knowledge_set.delete_instruction(component_id)
            kind = "instruction"
        else:
            raise KeyError(f"Unknown editable component {component_id!r}")
        self.history.record(
            "delete", kind, component_id, "Direct deletion", author=author
        )
