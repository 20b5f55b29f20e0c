"""Feedback operator #3: Planning of Edits (§4.1.iii).

Takes the expanded feedback and produces a step-by-step CoT plan of what
changes are required and how to apply them. Each step names the action
(insert/update/delete), the component kind, and the directive it stems
from; operator #4 executes the plan.
"""

from __future__ import annotations

from .directives import parse_directives
from .models import (
    ACTION_DELETE,
    ACTION_INSERT,
    ACTION_UPDATE,
    COMPONENT_EXAMPLE,
    COMPONENT_INSTRUCTION,
    EditPlanStep,
)


def plan_edits(feedback, knowledge):
    """Return (steps, directives) for the feedback.

    Directives are the structured reading of the feedback text; steps are
    the natural-language CoT plan shown to the SME before edits are
    generated.
    """
    directives = parse_directives(feedback.text, knowledge)
    steps = []
    for directive in directives:
        kind = directive.get("component", COMPONENT_INSTRUCTION)
        action = directive.get("action", ACTION_INSERT)
        if action == ACTION_INSERT and kind == COMPONENT_INSTRUCTION:
            description = (
                f"Insert a new instruction so future generations know: "
                f"{directive.get('summary', feedback.text[:80])}"
            )
        elif action == ACTION_INSERT and kind == COMPONENT_EXAMPLE:
            description = (
                f"Insert a decomposed example demonstrating the "
                f"{directive.get('pattern', 'requested')} idiom."
            )
        elif action == ACTION_UPDATE:
            description = (
                f"Update component {directive.get('component_id', '?')} "
                f"per the feedback."
            )
        elif action == ACTION_DELETE:
            description = (
                f"Delete component {directive.get('component_id', '?')} — "
                f"the feedback marks it as wrong."
            )
        else:
            description = f"Apply: {directive.get('summary', '')}"
        steps.append(
            EditPlanStep(description=description, action=action, kind=kind)
        )
    if not steps:
        steps.append(
            EditPlanStep(
                description=(
                    "Record the feedback as a general instruction (no "
                    "structured directive was recognised)."
                ),
                action=ACTION_INSERT,
                kind=COMPONENT_INSTRUCTION,
            )
        )
    return steps, directives
