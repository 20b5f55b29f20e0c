#!/usr/bin/env python
"""CI gate: lint the known-bad corpora and check rule coverage.

Three fixture corpora feed the gate, one per rule pack:

* ``tests/fixtures/sql_corpus/*.sql`` — known-bad SQL. Each file starts
  with an ``-- expect: CODE[, CODE...]`` header naming the ``GE0xx``
  codes its SQL must trigger against the demo catalog.
* ``tests/fixtures/knowledge_corpus/*.json`` — serialized knowledge sets
  (the ``repro.knowledge.serialize`` format) with an extra top-level
  ``"expect"`` list of ``GK0xx`` codes (empty = must lint free of
  errors) and an optional ``"database"`` name (``"demo"`` or one of the
  benchmark databases).
* ``tests/fixtures/plan_corpus/*.json`` — CoT plans as ``steps`` lists
  with an ``"expect"`` list of ``GP0xx`` codes, an optional ``subset``
  of linked tables, and an optional ``spec`` stub for metric-index
  checks.

The script fails when

* an expected code does not fire (a rule regressed),
* a fixture expecting no codes produces error-level findings,
* some registered rule — across the GE, GK, *and* GP registries — is
  covered by no corpus fixture (coverage regressed: add a fixture when
  you add a rule), or
* the ``python -m repro lint`` smoke invocation misbehaves.

Run via ``make lint-corpus`` (or ``make lint`` for the full CI lint job).
"""

from __future__ import annotations

import datetime
import io
import json
import pathlib
import sys
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.engine import Column, Database  # noqa: E402
from repro.knowledge import serialize  # noqa: E402
from repro.knowledge.lint import (  # noqa: E402
    KNOWLEDGE_RULES,
    lint_knowledge,
)
from repro.pipeline.base import Plan, PlanStep  # noqa: E402
from repro.pipeline.plan_lint import PLAN_RULES, lint_plan  # noqa: E402
from repro.sql.diagnostics import RULES, DiagnosticsEngine  # noqa: E402
from repro.sql.diagnostics.core import error_codes  # noqa: E402

SQL_CORPUS = ROOT / "tests" / "fixtures" / "sql_corpus"
KNOWLEDGE_CORPUS = ROOT / "tests" / "fixtures" / "knowledge_corpus"
PLAN_CORPUS = ROOT / "tests" / "fixtures" / "plan_corpus"


def demo_database():
    """The DEPT/EMP demo catalog (mirrors tests/conftest.py)."""
    db = Database("demo")
    db.create_table(
        "DEPT",
        [
            Column("DEPT_ID", "INTEGER", "Unique department id."),
            Column("DEPT_NAME", "TEXT", "Department name."),
            Column("REGION", "TEXT", "Region."),
            Column("BUDGET", "FLOAT", "Annual budget."),
        ],
        rows=[
            (1, "Engineering", "West", 1200.0),
            (2, "Sales", "East", 800.0),
            (3, "Support", "West", 300.0),
        ],
        description="Each row is a department.",
    )
    db.create_table(
        "EMP",
        [
            Column("EMP_ID", "INTEGER", "Unique employee id."),
            Column("EMP_NAME", "TEXT", "Employee name."),
            Column("DEPT_ID", "INTEGER", "Department."),
            Column("SALARY", "FLOAT", "Annual salary."),
            Column("HIRED", "DATE", "Hire date."),
            Column("ACTIVE", "BOOLEAN", "Still employed."),
        ],
        rows=[
            (1, "Ada", 1, 120.0, datetime.date(2020, 1, 15), True),
            (2, "Grace", 1, 140.0, datetime.date(2019, 6, 1), True),
            (3, "Alan", 2, 90.0, datetime.date(2021, 3, 10), False),
            (4, "Edsger", 2, 95.0, datetime.date(2022, 7, 20), True),
            (5, "Barbara", 3, 70.0, datetime.date(2023, 2, 5), True),
            (6, "Donald", 3, None, datetime.date(2018, 11, 30), True),
        ],
        description="Each row is an employee.",
    )
    return db


_DATABASES = {}


def get_database(name):
    """The demo catalog or a benchmark database, built once per name."""
    if name not in _DATABASES:
        if name == "demo":
            _DATABASES[name] = demo_database()
        else:
            from repro.bench.schemas import build_profile

            _DATABASES[name] = build_profile(name).database
    return _DATABASES[name]


def parse_sql_fixture(path):
    """Split a SQL corpus file into (expected codes, SQL text)."""
    expected = set()
    sql_lines = []
    for line in path.read_text().splitlines():
        header = line.strip()
        if header.lower().startswith("-- expect:"):
            expected.update(
                code.strip().upper()
                for code in header.split(":", 1)[1].split(",")
                if code.strip()
            )
        else:
            sql_lines.append(line)
    return expected, "\n".join(sql_lines).strip()


def check_fixture(name, expected, findings, registry, failures, covered):
    """Shared expectation logic: expected codes fire, clean stays clean."""
    unknown = expected - set(registry)
    if unknown:
        failures.append(f"{name}: unknown code(s) {sorted(unknown)}")
        return
    emitted = {finding.code for finding in findings}
    if not expected:
        errors = list(error_codes(findings))
        if errors:
            failures.append(
                f"{name}: expected a clean lint but got error(s) {errors}"
            )
        return
    missing = expected - emitted
    if missing:
        failures.append(
            f"{name}: expected {sorted(missing)} did not fire "
            f"(emitted {sorted(emitted) or 'nothing'})"
        )
    covered.update(expected & emitted)


def run_sql_corpus(failures, covered):
    engine = DiagnosticsEngine(get_database("demo"))
    fixtures = sorted(SQL_CORPUS.glob("*.sql"))
    if not fixtures:
        raise SystemExit(f"No corpus files under {SQL_CORPUS}")
    for path in fixtures:
        expected, sql = parse_sql_fixture(path)
        if not expected:
            failures.append(f"{path.name}: no '-- expect:' header")
            continue
        check_fixture(
            path.name, expected, engine.run_sql(sql), RULES, failures,
            covered,
        )
    return len(fixtures)


def run_knowledge_corpus(failures, covered):
    fixtures = sorted(KNOWLEDGE_CORPUS.glob("*.json"))
    if not fixtures:
        raise SystemExit(f"No corpus files under {KNOWLEDGE_CORPUS}")
    for path in fixtures:
        payload = json.loads(path.read_text())
        if "expect" not in payload:
            failures.append(f"{path.name}: no 'expect' key")
            continue
        expected = {code.upper() for code in payload["expect"]}
        knowledge = serialize.from_json(payload)
        database = get_database(payload.get("database", "demo"))
        check_fixture(
            path.name, expected, lint_knowledge(knowledge, database),
            KNOWLEDGE_RULES, failures, covered,
        )
    return len(fixtures)


def build_plan(payload):
    """Rebuild a Plan (plus optional spec stub) from a plan fixture."""
    steps = [
        PlanStep(
            description=entry.get("description", ""),
            pseudo_sql=entry.get("pseudo_sql", ""),
        )
        for entry in payload.get("steps", ())
    ]
    spec = None
    stub = payload.get("spec")
    if stub is not None:
        metrics = [
            types.SimpleNamespace(alias=f"METRIC_{index}")
            for index in range(stub.get("metrics", 0))
        ]
        order = None
        if "order_metric_index" in stub:
            order = types.SimpleNamespace(
                metric_index=stub["order_metric_index"]
            )
        having = [
            types.SimpleNamespace(metric_index=index)
            for index in stub.get("having_metric_indexes", ())
        ]
        spec = types.SimpleNamespace(
            metrics=metrics, order=order, having=having
        )
    return Plan(steps=steps, spec=spec)


def run_plan_corpus(failures, covered):
    database = get_database("demo")
    fixtures = sorted(PLAN_CORPUS.glob("*.json"))
    if not fixtures:
        raise SystemExit(f"No corpus files under {PLAN_CORPUS}")
    for path in fixtures:
        payload = json.loads(path.read_text())
        if "expect" not in payload:
            failures.append(f"{path.name}: no 'expect' key")
            continue
        expected = {code.upper() for code in payload["expect"]}
        subset = payload.get("subset")
        schema_elements = None
        if subset is not None:
            schema_elements = [
                types.SimpleNamespace(table=table) for table in subset
            ]
        findings = lint_plan(
            build_plan(payload), database, schema_elements
        )
        check_fixture(
            path.name, expected, findings, PLAN_RULES, failures, covered,
        )
    return len(fixtures)


def cli_smoke():
    """End-to-end ``repro lint`` / ``repro lint-knowledge`` invocations."""
    from repro.cli import build_arg_parser

    out = io.StringIO()
    args = build_arg_parser().parse_args(
        ["lint", "SELECT ORG_NAM FROM SPORTS_ORGS", "--db", "sports_holdings"]
    )
    code = args.func(args, out=out)
    if code != 1 or "GE002" not in out.getvalue():
        raise SystemExit(
            f"CLI smoke failed: exit {code}, output:\n{out.getvalue()}"
        )
    out = io.StringIO()
    fixture = KNOWLEDGE_CORPUS / "stale_column_sports.json"
    args = build_arg_parser().parse_args(
        ["lint-knowledge", "--db", "sports_holdings",
         "--knowledge", str(fixture)]
    )
    code = args.func(args, out=out)
    if code != 1 or "GK002" not in out.getvalue():
        raise SystemExit(
            f"lint-knowledge smoke failed: exit {code}, "
            f"output:\n{out.getvalue()}"
        )


def main():
    failures = []
    covered = set()
    sql_count = run_sql_corpus(failures, covered)
    knowledge_count = run_knowledge_corpus(failures, covered)
    plan_count = run_plan_corpus(failures, covered)
    all_rules = set(RULES) | set(KNOWLEDGE_RULES) | set(PLAN_RULES)
    uncovered = all_rules - covered
    if uncovered:
        failures.append(
            f"rule-coverage regression: no corpus fixture fires "
            f"{sorted(uncovered)}"
        )
    cli_smoke()
    if failures:
        print("lint corpus FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    total = sql_count + knowledge_count + plan_count
    print(
        f"lint corpus OK: {total} fixture(s) "
        f"({sql_count} sql, {knowledge_count} knowledge, {plan_count} plan), "
        f"{len(covered)}/{len(all_rules)} rules covered, CLI smoke passed"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
