"""Registry of ``GK0xx`` knowledge-set lint rules.

The continuous-improvement loop (§4) mutates knowledge components —
instructions, decomposed examples, schema elements, intents — and a bad
edit silently degrades every future query until a regression run notices.
This registry mirrors :mod:`repro.sql.diagnostics.core` (the ``GE0xx``
pack) for the artifacts the loop actually edits, with the same
:class:`~repro.sql.diagnostics.core.Rule` model: each rule has a stable
code, a severity, and a one-line summary; findings point at the offending
component by kind and id instead of a source span.

Severity policy (DESIGN.md §6f): *error* findings gate — the Feedback
Solver rejects staged edits that introduce new ones and
``repro lint-knowledge`` exits non-zero; *warning* findings flag likely
maintenance debt; *info* findings surface coverage gaps that are normal
for mined sets but useful to SMEs curating them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from ...sql.diagnostics.core import Finding, Severity, register
from ..models import component_ref

__all__ = ["KNOWLEDGE_RULES", "KnowledgeFinding"]


@dataclass(frozen=True)
class KnowledgeFinding(Finding):
    """One knowledge-set lint finding, anchored to a component."""

    component_kind: str = ""
    component_id: str = ""

    @staticmethod
    def anchor(component=None, kind=""):
        """``component`` is any knowledge dataclass; pass ``kind`` alone
        for set-level findings (coverage gaps have no single component)."""
        if component is not None:
            kind, identifier = component_ref(component)
            return {"component_kind": kind, "component_id": identifier}
        return {"component_kind": kind}

    def location(self):
        if self.component_id:
            return f" at {self.component_kind} {self.component_id}"
        return ""


#: All registered knowledge rules, keyed by code.
KNOWLEDGE_RULES = {}
_register = partial(register, KNOWLEDGE_RULES, KnowledgeFinding)


GK001 = _register(
    "GK001", "stale-table", Severity.ERROR,
    "Component references a table absent from the live catalog",
)
GK002 = _register(
    "GK002", "stale-column", Severity.ERROR,
    "Component references a column its table does not have",
)
GK003 = _register(
    "GK003", "example-parse-failure", Severity.ERROR,
    "Example SQL fragment does not parse in any fragment context",
)
GK004 = _register(
    "GK004", "example-lint-error", Severity.ERROR,
    "Full-query example has error-level GE diagnostics",
)
GK005 = _register(
    "GK005", "example-execution-failure", Severity.ERROR,
    "Full-query example fails execution on the current engine",
)
GK006 = _register(
    "GK006", "near-duplicate-example", Severity.WARNING,
    "Edited example near-duplicates an existing example",
)
GK007 = _register(
    "GK007", "contradictory-instructions", Severity.ERROR,
    "Two term definitions for the same term disagree",
)
GK008 = _register(
    "GK008", "missing-provenance", Severity.WARNING,
    "Component has no usable provenance source",
)
GK009 = _register(
    "GK009", "dangling-intent-ref", Severity.ERROR,
    "Component references an intent id that does not exist",
)
GK010 = _register(
    "GK010", "schema-type-drift", Severity.ERROR,
    "Schema element's recorded type disagrees with the live catalog",
)
GK011 = _register(
    "GK011", "table-missing-example", Severity.INFO,
    "Catalog table has no example referencing it",
)
GK012 = _register(
    "GK012", "table-missing-description", Severity.WARNING,
    "Catalog table has no described schema element",
)
GK013 = _register(
    "GK013", "stale-top-value", Severity.INFO,
    "Recorded top value is no longer among the column's top values",
)
