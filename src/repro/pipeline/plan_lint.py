"""Static analysis of CoT plans: the ``GP0xx`` rule pack.

Runs between planning and generation (the ``lint_plan`` operator) and
checks the plan's pseudo-SQL steps against the live catalog and the
linked schema subset — step-level validation catches grounding errors
earlier and cheaper than SQL-level checks (see PAPERS.md, "Interactive
Text-to-SQL Generation via Editable Step-by-Step Explanations"). Findings
feed candidate ranking (error-weighted, after the ``GE0xx`` score) and
the self-correction regeneration context the same way ``GE0xx``
diagnostics do, and error-level codes flow into ``QuestionOutcome`` and
the run ledger.

Severity policy matches DESIGN.md §6f: errors mark plans whose steps
cannot be grounded at all (unknown tables, dangling references); warnings
mark steps that are suspicious but may still generate valid SQL
(subset-escaping tables, unknown qualified columns, unresolved slots).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial

from ..obs.metrics import get_metrics
from ..obs.tracing import current_span
from ..sql.diagnostics.core import (
    Finding,
    Severity,
    error_count,
    register,
    severity_score,
)
from ..sql.decompose import fragment_parses
from .base import Operator

__all__ = [
    "PLAN_RULES",
    "PlanFinding",
    "PlanLintOperator",
    "lint_plan",
    "plan_error_score",
]


@dataclass(frozen=True)
class PlanFinding(Finding):
    """One plan lint finding, anchored to a 1-based step number."""

    step: int = 0               # 0 = plan-level finding

    def location(self):
        return f" at step {self.step}" if self.step else ""


#: All registered plan rules, keyed by code.
PLAN_RULES = {}
_register = partial(register, PLAN_RULES, PlanFinding)


GP001 = _register(
    "GP001", "empty-plan", Severity.ERROR,
    "Plan has no steps to generate from",
)
GP002 = _register(
    "GP002", "step-unknown-table", Severity.ERROR,
    "Step pseudo-SQL references a table absent from the catalog",
)
GP003 = _register(
    "GP003", "step-table-outside-subset", Severity.WARNING,
    "Step references a table with no linked schema element",
)
GP004 = _register(
    "GP004", "step-unknown-column", Severity.WARNING,
    "Step references a qualified column its table does not have",
)
GP005 = _register(
    "GP005", "step-unparseable-pseudo-sql", Severity.WARNING,
    "Step pseudo-SQL fragment does not parse in any fragment context",
)
GP006 = _register(
    "GP006", "dangling-metric-reference", Severity.ERROR,
    "Plan spec orders or filters on a metric index that does not exist",
)
GP007 = _register(
    "GP007", "dangling-step-reference", Severity.ERROR,
    "Step description references a step number outside the plan",
)
GP008 = _register(
    "GP008", "unresolved-literal-slot", Severity.WARNING,
    "Step pseudo-SQL carries an unexpanded or empty literal slot",
)


_TABLE_REF = re.compile(
    r"\b(?:FROM|JOIN)\s+([A-Za-z_][A-Za-z0-9_]*)", re.IGNORECASE
)
_QUALIFIED_REF = re.compile(
    r"\b([A-Za-z_][A-Za-z0-9_]*)\s*\.\s*([A-Za-z_][A-Za-z0-9_]*)"
)
_STEP_REF = re.compile(r"\bstep\s+(\d+)", re.IGNORECASE)
_INLINE_ALIAS = re.compile(r"\bAS\s+([A-Za-z_][A-Za-z0-9_]*)", re.IGNORECASE)

#: Computed-column names the planner's pseudo-SQL uses as slots; they are
#: produced by earlier steps, not by any catalog table.
PLACEHOLDER_COLUMNS = frozenset({
    "METRIC_VALUE", "METRIC_CHANGE", "BEST_RANK", "WORST_RANK",
    "CUR_VALUE", "PREV_VALUE", "CURRENT_METRIC", "PREVIOUS_METRIC",
    "SHARE", "TOTAL_VALUE",
})


def lint_plan(plan, database=None, schema_elements=None):
    """Run all ``GP0xx`` rules over ``plan``; deterministic finding order.

    ``database`` enables catalog checks (GP002/GP004); ``schema_elements``
    — the linked subset from the pipeline context — enables GP003. Either
    may be ``None`` for standalone plan linting (fixtures, plan editors).
    """
    findings = []
    steps = list(getattr(plan, "steps", ()) or ())
    if not steps:
        findings.append(GP001.at("plan has no steps"))
        return findings
    catalog = {}
    if database is not None:
        catalog = {table.name.upper(): table for table in database.tables}
    subset_tables = None
    if schema_elements is not None:
        subset_tables = {
            element.table.upper() for element in schema_elements
        }
    spec = getattr(plan, "spec", None)
    aliases = set(PLACEHOLDER_COLUMNS)
    for metric in getattr(spec, "metrics", ()) or ():
        alias = getattr(metric, "alias", "")
        if alias:
            aliases.add(alias.upper())
    for number, step in enumerate(steps, start=1):
        pseudo = _strip_markers(getattr(step, "pseudo_sql", "") or "")
        description = getattr(step, "description", "") or ""
        aliases.update(
            match.upper() for match in _INLINE_ALIAS.findall(pseudo)
        )
        _check_step_tables(pseudo, number, catalog, subset_tables,
                           database, findings)
        _check_step_columns(pseudo, number, catalog, aliases, findings)
        _check_step_parses(pseudo, number, findings)
        _check_unresolved_slots(pseudo, number, findings)
        _check_step_references(description, number, len(steps), findings)
    _check_spec_metrics(spec, findings)
    return findings


def plan_error_score(findings):
    """Severity score counting only error-level plan findings.

    Candidate ranking uses this after the ``GE0xx`` score: warnings are
    advisory (mined pseudo-SQL legitimately carries placeholder slots),
    but a candidate whose plan cannot be grounded ranks behind one whose
    plan can.
    """
    return sum(100 for finding in findings if finding.is_error)


# -- step checks -------------------------------------------------------------


def _strip_markers(pseudo):
    return pseudo.strip().strip(".").strip()


def _check_step_tables(pseudo, number, catalog, subset_tables, database,
                       findings):
    if database is None:
        return
    for match in _TABLE_REF.finditer(pseudo):
        name = match.group(1)
        upper = name.upper()
        if upper == "SELECT":  # FROM ( SELECT ... ) subqueries
            continue
        if upper not in catalog:
            findings.append(GP002.at(
                f"references table {name!r} which is not in the catalog",
                step=number,
            ))
        elif subset_tables is not None and upper not in subset_tables:
            findings.append(GP003.at(
                f"references table {name!r} outside the linked schema "
                f"subset",
                step=number,
            ))


def _check_step_columns(pseudo, number, catalog, aliases, findings):
    if not catalog:
        return
    for match in _QUALIFIED_REF.finditer(pseudo):
        qualifier, column = match.group(1), match.group(2)
        table = catalog.get(qualifier.upper())
        if table is None:
            continue  # alias or CTE qualifier — not judgeable
        if table.has_column(column):
            continue
        if column.upper() in aliases:
            continue
        findings.append(GP004.at(
            f"references column {qualifier}.{column} which table "
            f"{table.name} does not have",
            step=number,
        ))


def _check_step_parses(pseudo, number, findings):
    if not pseudo or fragment_parses(pseudo):
        return
    findings.append(GP005.at(
        f"pseudo-SQL does not parse: {pseudo!r}", step=number,
    ))


def _check_unresolved_slots(pseudo, number, findings):
    if "{" in pseudo or "}" in pseudo:
        findings.append(GP008.at(
            f"pseudo-SQL carries an unexpanded template slot: {pseudo!r}",
            step=number,
        ))
        return
    if re.search(r"=\s*''(?!')", pseudo) or re.search(
        r"=\s*None\b", pseudo
    ):
        findings.append(GP008.at(
            f"pseudo-SQL compares against an empty literal slot: "
            f"{pseudo!r}",
            step=number,
        ))


def _check_step_references(description, number, total, findings):
    for match in _STEP_REF.finditer(description):
        target = int(match.group(1))
        if target < 1 or target > total:
            findings.append(GP007.at(
                f"description references step {target} but the plan has "
                f"{total} step(s)",
                step=number,
            ))


def _check_spec_metrics(spec, findings):
    metrics = list(getattr(spec, "metrics", ()) or ())
    order = getattr(spec, "order", None)
    order_index = getattr(order, "metric_index", None)
    if order_index is not None and not (0 <= order_index < len(metrics)):
        findings.append(GP006.at(
            f"order clause references metric index {order_index} but the "
            f"spec has {len(metrics)} metric(s)",
        ))
    for having in getattr(spec, "having", ()) or ():
        having_index = getattr(having, "metric_index", None)
        if having_index is not None and not (
            0 <= having_index < len(metrics)
        ):
            findings.append(GP006.at(
                f"having clause references metric index {having_index} "
                f"but the spec has {len(metrics)} metric(s)",
            ))


class PlanLintOperator(Operator):
    """Optional operator: lint the CoT plan before generation."""

    name = "lint_plan"

    def run(self, context):
        if context.plan is None:
            context.plan_findings = []
            context.add_trace(self.name, "no plan to lint")
            return context
        findings = lint_plan(
            context.plan, context.database, context.schema_elements or None
        )
        context.plan_findings = findings
        metrics = get_metrics()
        if findings:
            metrics.inc("plan_lint.findings", len(findings))
            errors = error_count(findings)
            if errors:
                metrics.inc("plan_lint.errors", errors)
            span = current_span()
            if span is not None:
                span.set_attr("codes", " ".join(sorted(
                    {finding.code for finding in findings}
                )))
                span.set_attr("errors", errors)
        context.add_trace(
            self.name,
            f"{len(findings)} plan finding(s), "
            f"score {severity_score(findings)}",
        )
        return context
