"""Diagnostic primitives: severities, the rule registry, and records.

Every check the diagnostics engine performs is registered here as a
:class:`Rule` with a stable code (``GE0xx``), a kebab-case slug, a severity,
and a one-line summary. Severity encodes the contract with the execution
engine: ``error`` rules flag SQL the engine would also reject at run time
(so the self-correction operator may skip execution outright), while
``warning``/``info`` rules flag SQL that executes but is very likely wrong
(cartesian products, value-domain mismatches, non-aggregated grouping).

Rules emit :class:`Diagnostic` records carrying the offending node's source
span (threaded from the tokenizer through the parser) and, where the engine
can guess, a concrete suggestion — the regeneration context GenEdit's
self-correction loop feeds back to the model (§2.1, §3).

The model is shared by all three lint packs: :class:`Rule`,
:func:`register`, the :class:`Finding` base and :func:`error_codes` serve
the ``GK0xx`` knowledge pack (:mod:`repro.knowledge.lint`) and the
``GP0xx`` plan pack (:mod:`repro.pipeline.plan_lint`) too. Each pack keeps
its own registry dict and a finding subclass that adds only its anchor.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial


class Severity(enum.Enum):
    """Diagnostic severity, ordered from most to least severe."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def weight(self):
        """Contribution of one diagnostic to a candidate's lint score."""
        return _SEVERITY_WEIGHTS[self]

    def __str__(self):
        return self.value


_SEVERITY_WEIGHTS = {
    Severity.ERROR: 100,
    Severity.WARNING: 10,
    Severity.INFO: 1,
}


@dataclass(frozen=True)
class Finding:
    """One problem a rule found: the base of every pack's finding.

    Each pack's subclass adds only its anchor fields (a source span, a
    knowledge component, a plan step) and the ``location`` text that
    renders them.
    """

    code: str
    slug: str
    severity: Severity
    message: str
    suggestion: str = None

    @staticmethod
    def anchor(**fields):
        """This finding's anchor fields from a rule's ``at`` arguments."""
        return fields

    @property
    def is_error(self):
        return self.severity is Severity.ERROR

    def location(self):
        return ""

    def render(self):
        """One-line rendering used by traces, the CLI, and prompts."""
        hint = f" (did you mean {self.suggestion!r}?)" if self.suggestion else ""
        return (
            f"{self.code} {self.severity}{self.location()}: "
            f"{self.message}{hint}"
        )

    def __str__(self):
        return self.render()


@dataclass(frozen=True)
class Rule:
    """One registered rule of any pack; ``finding`` is the pack's class."""

    code: str
    slug: str
    severity: Severity
    summary: str
    finding: type

    def at(self, message, *anchor, suggestion=None, **fields):
        """Build this rule's finding.

        The pack's finding class maps the anchor arguments to its anchor
        fields; ``suggestion`` is a concrete replacement hint surfaced to
        the regeneration prompt and the CLI.
        """
        return self.finding(
            code=self.code,
            slug=self.slug,
            severity=self.severity,
            message=message,
            suggestion=suggestion,
            **self.finding.anchor(*anchor, **fields),
        )


def register(rules, finding, code, slug, severity, summary):
    """Add a rule to a pack's registry (``rules``, keyed by code)."""
    if code in rules:
        raise ValueError(f"Duplicate rule code {code!r}")
    rule = Rule(code, slug, severity, summary, finding)
    rules[code] = rule
    return rule


def error_codes(findings):
    """Sorted unique error-level codes in ``findings`` (any pack)."""
    return tuple(sorted({f.code for f in findings if f.is_error}))


@dataclass(frozen=True)
class Diagnostic(Finding):
    """One problem found in a query, anchored to a source span."""

    span: object = None          # repro.sql.tokens.Span | None

    @staticmethod
    def anchor(node=None):
        return {"span": getattr(node, "span", None)}

    def location(self):
        return f" at {self.span}" if self.span is not None else ""


#: Registry of every rule, keyed by code, in registration order.
RULES: dict = {}
_register = partial(register, RULES, Diagnostic)


# ---------------------------------------------------------------------------
# The rule table. Error-level rules mirror conditions the execution engine
# rejects; warning-level rules flag legal-but-suspect SQL. DESIGN.md renders
# this table for documentation; tests assert each code fires.
# ---------------------------------------------------------------------------

GE000 = _register(
    "GE000", "syntax-error", Severity.ERROR,
    "SQL fails to tokenize or parse.",
)
GE001 = _register(
    "GE001", "unknown-table", Severity.ERROR,
    "FROM references a table that is in neither the catalog nor a CTE.",
)
GE002 = _register(
    "GE002", "unknown-column", Severity.ERROR,
    "A column reference resolves to no relation in scope.",
)
GE003 = _register(
    "GE003", "ambiguous-column", Severity.ERROR,
    "An unqualified column name matches more than one relation in scope.",
)
GE004 = _register(
    "GE004", "aggregate-in-where", Severity.ERROR,
    "An aggregate function appears in a WHERE clause.",
)
GE005 = _register(
    "GE005", "set-arity", Severity.ERROR,
    "Set-operation operands return different column counts.",
)
GE006 = _register(
    "GE006", "cte-arity", Severity.ERROR,
    "A CTE declares a different column count than its query returns.",
)
GE007 = _register(
    "GE007", "star-no-from", Severity.ERROR,
    "SELECT * used without a FROM clause.",
)
GE008 = _register(
    "GE008", "order-by-target", Severity.ERROR,
    "ORDER BY names an unknown alias or an out-of-range ordinal.",
)
GE009 = _register(
    "GE009", "duplicate-alias", Severity.ERROR,
    "Two relations in one FROM clause share a binding name.",
)
GE010 = _register(
    "GE010", "arith-type", Severity.ERROR,
    "Arithmetic over an operand that can never be numeric "
    "(a date expression or a non-numeric string literal).",
)
GE011 = _register(
    "GE011", "type-mismatch", Severity.WARNING,
    "Comparison or arithmetic over operands whose declared types "
    "do not line up (e.g. text vs number).",
)
GE012 = _register(
    "GE012", "group-by-nonagg", Severity.WARNING,
    "A SELECT column is neither aggregated nor listed in GROUP BY.",
)
GE013 = _register(
    "GE013", "having-misuse", Severity.ERROR,
    "HAVING in a query with no GROUP BY and no aggregate anywhere.",
)
GE014 = _register(
    "GE014", "unused-cte", Severity.WARNING,
    "A WITH-clause CTE is never referenced.",
)
GE015 = _register(
    "GE015", "cartesian-join", Severity.WARNING,
    "A join with no condition produces a cartesian product.",
)
GE016 = _register(
    "GE016", "set-op-type", Severity.WARNING,
    "Set-operation operand columns have incompatible types.",
)
GE017 = _register(
    "GE017", "value-domain", Severity.WARNING,
    "A string literal in an equality filter is close to, but not among, "
    "the column's profiled top values.",
)


def severity_score(diagnostics):
    """Severity-weighted lint score of a candidate (0 = clean).

    The generation operator ranks candidates by this score; the ordering is
    a refinement of the old binary clean/dirty split (any error outweighs
    every possible warning/info mix on realistic diagnostic counts).
    """
    return sum(diag.severity.weight for diag in diagnostics)


def error_count(diagnostics):
    return sum(1 for diag in diagnostics if diag.severity is Severity.ERROR)


def warning_count(diagnostics):
    return sum(
        1 for diag in diagnostics if diag.severity is Severity.WARNING
    )
