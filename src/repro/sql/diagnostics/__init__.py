"""Schema-aware SQL diagnostics: a typed, rule-based lint engine.

The package grows the original single-pass analyzer into an extensible
diagnostics engine with a stable rule registry (``GE0xx`` codes), severity
levels, source spans, and concrete suggestions. It is wired through the
GenEdit pipeline: generation ranks candidates by lint score,
self-correction skips execution of candidates with error-level findings
(feeding the diagnostics into the regeneration context instead), the
feedback loop flags staged edits that introduce new errors, and the bench
harness reports how many failures lint caught before execution.

Public API::

    from repro.sql.diagnostics import DiagnosticsEngine, diagnose

    engine = DiagnosticsEngine(database)
    for diag in engine.run_sql("SELECT * FROM ORDERS WHERE STATUS = 'shipped'"):
        print(diag.render())
"""

from .checker import DiagnosticsEngine, aggregate_functions, window_functions
from .core import (
    RULES,
    Diagnostic,
    Rule,
    Severity,
    error_count,
    severity_score,
    warning_count,
)


def diagnose(sql, database=None):
    """One-shot convenience: lint ``sql`` against ``database``."""
    return DiagnosticsEngine(database).run_sql(sql)


def __getattr__(name):
    # Constant-style aliases for the engine-registry views, kept lazy so
    # that importing this package never touches repro.engine (PEP 562).
    if name in ("AGGREGATE_FUNCTIONS", "WINDOW_FUNCTIONS"):
        from . import checker

        return getattr(checker, name)
    raise AttributeError(name)


__all__ = [
    "AGGREGATE_FUNCTIONS",
    "Diagnostic",
    "DiagnosticsEngine",
    "RULES",
    "Rule",
    "Severity",
    "WINDOW_FUNCTIONS",
    "aggregate_functions",
    "diagnose",
    "error_count",
    "severity_score",
    "warning_count",
    "window_functions",
]
