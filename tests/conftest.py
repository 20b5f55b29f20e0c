"""Shared fixtures for the test suite."""

from __future__ import annotations

import datetime

import pytest

from repro.engine import Column, Database


@pytest.fixture()
def demo_db():
    """A small two-table database exercising every value type."""
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
            Column("DEPT_ID", "INTEGER", "Department. Foreign key to DEPT.DEPT_ID."),
            Column("SALARY", "FLOAT", "Annual salary. Also called: pay, wages."),
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


@pytest.fixture()
def executor(demo_db):
    from repro.engine import Executor

    return Executor(demo_db)


@pytest.fixture(scope="session")
def sports_profile():
    from repro.bench.schemas import build_profile

    return build_profile("sports_holdings")


@pytest.fixture(scope="session")
def experiment_context():
    """The shared dev workload + knowledge sets (built once per session)."""
    from repro.bench.harness import ExperimentContext

    context = ExperimentContext()
    # Touch the lazy pieces so later tests share the cached build.
    context.workload
    context.knowledge_sets
    return context


@pytest.fixture(scope="session")
def sports_pipeline(experiment_context):
    from repro.pipeline import GenEditPipeline

    profile = experiment_context.profiles["sports_holdings"]
    knowledge = experiment_context.knowledge_sets["sports_holdings"]
    return GenEditPipeline(profile.database, knowledge)


@pytest.fixture(scope="session")
def check_gate_memo():
    """``scripts/check_gate_memo.py``, imported as a module."""
    import importlib.util
    import pathlib

    script = (pathlib.Path(__file__).parent.parent / "scripts"
              / "check_gate_memo.py")
    spec = importlib.util.spec_from_file_location("check_gate_memo", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def seed7_memo_replay(check_gate_memo, experiment_context):
    """The memo replay script over the seed-7 sessions, run once.

    Returns the script's ``(counts, mismatches)`` and how much the lint
    and generation memo-hit counters grew during the replay.
    """
    from repro.obs.metrics import get_metrics

    metrics = get_metrics()
    names = ("knowledge_lint.memo_hits", "generation.memo_hits")
    before = {name: metrics.counter_value(name) for name in names}
    counts, mismatches = check_gate_memo.check_seed(
        7, context=experiment_context
    )
    grown = {
        name: metrics.counter_value(name) - before[name] for name in names
    }
    return counts, mismatches, grown
