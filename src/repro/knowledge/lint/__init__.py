"""Knowledge-set static analysis: the ``GK0xx`` rule pack.

See DESIGN.md §6f for the rule catalog, gate semantics, and severity
policy. The package mirrors :mod:`repro.sql.diagnostics` but targets the
artifacts the continuous-improvement loop edits rather than generated SQL.
"""

from .checker import finding_keys, lint_knowledge
from .core import KNOWLEDGE_RULES, KnowledgeFinding

__all__ = [
    "KNOWLEDGE_RULES",
    "KnowledgeFinding",
    "finding_keys",
    "lint_codes_by_set",
    "lint_knowledge",
]


def lint_codes_by_set(databases, knowledge_sets):
    """``{set name: {code: count}}`` for every knowledge set with a database.

    ``databases`` maps database name -> :class:`Database`;
    ``knowledge_sets`` maps the same names -> knowledge sets. Sets without
    a matching database are skipped. Used by the harness to stamp
    knowledge lint codes into ledger run records.
    """
    codes_by_set = {}
    for name in sorted(knowledge_sets):
        database = databases.get(name)
        if database is None:
            continue
        counts = {}
        for finding in lint_knowledge(knowledge_sets[name], database):
            counts[finding.code] = counts.get(finding.code, 0) + 1
        codes_by_set[name] = counts
    return codes_by_set
