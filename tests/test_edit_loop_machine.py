"""A model-based test of the edit loop's shared and memoised state.

One seeded ``hypothesis`` state machine interleaves what the feedback
loop does to a deployed knowledge set: component edits on the live set
and on staged clones of it, snapshot and restore, the history's
checkpoints and reversion, row inserts (which bump the database version),
``clear_memos()``, and questions answered through
:meth:`GenEditPipeline.answer`, which reads the generation memo. Its state
is seed 7's ``energy_grid``: a private copy of the database, and the live
set mined for it.

Invariants:

* every answer equals a fresh pipeline's ``generate`` on a fresh
  :class:`KnowledgeSet` built from the same components in the same order,
  in SQL, success, error and operator digest trail;
* every search an answer makes returns the hits, ids and ``float.hex``
  scores, that the same search returns on such a fresh set's index with
  its result memo empty (a search memo hit is never stale);
* an edit to one set never reaches another (a clone's never reaches its
  parent, a parent's never reaches its clone);
* two sets with the same revision hold equal components in equal order;
* a regression of the live set against a staged clone gives the
  :class:`RegressionResult` list (``correct_before``, ``correct_after``,
  ``new_error_codes``) that the same regression gives on fresh sets with
  the database's memos cleared, so a shared execution outcome or
  generation entry is never stale.

Tier-1 runs a fixed, derandomized budget of a few seconds;
``REPRO_MACHINE_BUDGET=long`` (``make edit-loop-machine``, part of ``make
lint``) runs a longer one. A failure it finds becomes a plain regression
test in this module.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.bench import schemas
from repro.bench.bird import build_knowledge_sets, build_workload
from repro.feedback.regression import GoldenQuery, run_regression
from repro.knowledge import KnowledgeSet
from repro.knowledge.versioning import KnowledgeSetHistory
from repro.obs.metrics import get_metrics
from repro.pipeline.pipeline import GenEditPipeline
from repro.text.index import RetrievalIndex

SEED = 7
DATABASE = "energy_grid"

#: (max_examples, stateful_step_count) per budget.
BUDGETS = {"tier1": (25, 40), "long": (250, 60)}

_INPUTS = {}


def _inputs():
    """``(mined live set, question pool)`` of seed 7's ``energy_grid``,
    built once per process."""
    if not _INPUTS:
        workload = build_workload(SEED)
        knowledge = build_knowledge_sets(workload, SEED)[DATABASE]
        dev = workload.for_database(DATABASE)[:3]
        logs = [entry.question for entry in
                workload.training_logs[DATABASE]]
        _INPUTS["inputs"] = (
            knowledge,
            tuple([question.question for question in dev] + logs[:1]),
        )
        _INPUTS["golden"] = tuple(
            GoldenQuery(question.question, question.gold_sql)
            for question in dev
        )
    return _INPUTS["inputs"]


def _golden_queries():
    """The pool's dev questions, with their gold SQL."""
    _inputs()
    return _INPUTS["golden"]


def _private_database():
    """A database of its own, so row inserts reach no other test."""
    return schemas._BUILDERS[DATABASE](SEED).database


def _components(knowledge):
    """Every component of ``knowledge``, kind by kind, in insertion order."""
    return (
        tuple(knowledge._intents.values()),
        tuple(knowledge._examples.values()),
        tuple(knowledge._instructions.values()),
        tuple(knowledge._schema_elements.values()),
    )


def fresh_copy(knowledge):
    """A new set built from ``knowledge``'s components in their order:
    fresh indexes, fitted state and query memos, and a revision of its
    own."""
    intents, examples, instructions, elements = _components(knowledge)
    fresh = KnowledgeSet(knowledge.name)
    for intent in intents:
        fresh.add_intent(intent)
    for example in examples:
        fresh.add_example(example)
    for instruction in instructions:
        fresh.add_instruction(instruction)
    for element in elements:
        fresh.add_schema_element(element)
    return fresh


def outcome(result):
    return (result.sql, result.success, result.error,
            result.operator_digests)


#: The knowledge set's retrieval indexes, by attribute.
INDEXES = ("_intent_index", "_example_index", "_instruction_index")


def _hits(hits):
    return [(hit.doc_id, hit.score.hex()) for hit in hits]


@contextmanager
def recorded_searches():
    """Every ``RetrievalIndex.search`` in the block, as ``(index,
    arguments, hits)`` in call order, each hit as its id and the
    ``float.hex`` of its score."""
    searches = []
    real_search = RetrievalIndex.search

    def search(index, query, k=10, candidates=None, extra_text=""):
        hits = real_search(index, query, k, candidates, extra_text)
        # A copy: callers extend the list they get back.
        searches.append(
            (index, (query, k, candidates, extra_text), _hits(hits))
        )
        return hits

    RetrievalIndex.search = search
    try:
        yield searches
    finally:
        RetrievalIndex.search = real_search


@contextmanager
def memos_cleared(database):
    """``database.clear_memos()`` for the block; the warm memos come back
    after it, so later steps read what they would have read."""
    held = database._memos
    database.clear_memos()
    try:
        yield
    finally:
        database._memos = held


def assert_regression_is_fresh(database, live, staged):
    """``run_regression`` of ``live`` against ``staged`` equals the same
    regression on fresh sets with the database's memos cleared."""
    golden = _golden_queries()
    warm = run_regression(database, live, staged, golden)
    with memos_cleared(database):
        cold = run_regression(database, fresh_copy(live),
                              fresh_copy(staged), golden)
    assert warm.results == cold.results
    return warm


def assert_answer_is_fresh(database, knowledge, pipeline, question):
    """``pipeline.answer(question)`` equals a cold generation, and each of
    its searches a search on a fresh set; returns the answer."""
    with recorded_searches() as searches:
        answered = pipeline.answer(question)
    fresh = fresh_copy(knowledge)
    cold = GenEditPipeline(database, fresh).generate(question)
    assert outcome(answered) == outcome(cold), (
        "memo hit" if answered.memo_hit else "generated", question
    )
    for index, arguments, hits in searches:
        name = next(name for name in INDEXES
                    if getattr(knowledge, name) is index)
        fresh_index = getattr(fresh, name)
        fresh_index._fitted().results.clear()
        assert hits == _hits(fresh_index.search(*arguments)), (
            name, arguments,
        )
    return answered


class EditLoopMachine(RuleBasedStateMachine):
    """Live set, staged clones, history and database, under one memo."""

    def __init__(self):
        super().__init__()
        base, self.questions = _inputs()
        self.database = _private_database()
        self.live = base.clone()
        self.sets = [self.live]
        self.history = KnowledgeSetHistory(self.live)
        self.snapshots = []
        self.pipelines = {}
        self.revisions = {}
        self.counter = 0

    # -- helpers ---------------------------------------------------------

    def _set(self, index):
        return self.sets[index % len(self.sets)]

    def _pipeline(self, knowledge):
        pipeline = self.pipelines.get(id(knowledge))
        if pipeline is None:
            pipeline = GenEditPipeline(self.database, knowledge)
            self.pipelines[id(knowledge)] = pipeline
        return pipeline

    def _edit(self, edited, apply):
        """Apply ``apply(edited)``; no other set may change."""
        others = [
            (knowledge, _components(knowledge)) for knowledge in self.sets
            if knowledge is not edited
        ]
        apply(edited)
        for knowledge, before in others:
            assert _components(knowledge) == before

    def _new_id(self, prefix):
        self.counter += 1
        return f"{prefix}-machine-{self.counter:03d}"

    # -- knowledge edits -------------------------------------------------

    @rule(which=st.integers(0, 7), pick=st.integers(0, 10_000))
    def add_example(self, which, pick):
        knowledge = self._set(which)
        examples = list(knowledge._examples.values())
        if not examples:
            return
        source = examples[pick % len(examples)]
        example = replace(
            source, example_id=self._new_id("ex"),
            description=f"{source.description} per reporting period",
        )
        self._edit(knowledge, lambda k: k.add_example(example))

    @rule(which=st.integers(0, 7), pick=st.integers(0, 10_000))
    def update_example(self, which, pick):
        knowledge = self._set(which)
        examples = list(knowledge._examples.values())
        if not examples:
            return
        source = examples[pick % len(examples)]
        example = replace(source, description=f"{source.description} (as "
                                              f"reviewed)")
        self._edit(knowledge, lambda k: k.update_example(example))

    @rule(which=st.integers(0, 7), pick=st.integers(0, 10_000))
    def delete_example(self, which, pick):
        knowledge = self._set(which)
        ids = list(knowledge._examples)
        if ids:
            doomed = ids[pick % len(ids)]
            self._edit(knowledge, lambda k: k.delete_example(doomed))

    @rule(which=st.integers(0, 7), pick=st.integers(0, 10_000))
    def add_instruction(self, which, pick):
        knowledge = self._set(which)
        instructions = list(knowledge._instructions.values())
        if not instructions:
            return
        source = instructions[pick % len(instructions)]
        instruction = replace(
            source, instruction_id=self._new_id("in"),
            text=f"{source.text} Always report totals per plant.",
        )
        self._edit(knowledge, lambda k: k.add_instruction(instruction))

    @rule(which=st.integers(0, 7), pick=st.integers(0, 10_000))
    def update_instruction(self, which, pick):
        knowledge = self._set(which)
        instructions = list(knowledge._instructions.values())
        if not instructions:
            return
        source = instructions[pick % len(instructions)]
        instruction = replace(source, text=f"{source.text} Round to two "
                                           f"decimals.")
        self._edit(knowledge, lambda k: k.update_instruction(instruction))

    @rule(which=st.integers(0, 7), pick=st.integers(0, 10_000))
    def delete_instruction(self, which, pick):
        knowledge = self._set(which)
        ids = list(knowledge._instructions)
        if ids:
            doomed = ids[pick % len(ids)]
            self._edit(knowledge, lambda k: k.delete_instruction(doomed))

    # -- clones, snapshots, history ---------------------------------------

    @precondition(lambda self: len(self.sets) < 5)
    @rule(source=st.integers(0, 7))
    def clone(self, source):
        self.sets.append(self._set(source).clone())

    @rule(source=st.integers(0, 7))
    def snapshot(self, source):
        self.snapshots.append(self._set(source).snapshot())

    @precondition(lambda self: self.snapshots)
    @rule(which=st.integers(0, 7), pick=st.integers(0, 100))
    def restore(self, which, pick):
        snapshot = self.snapshots[pick % len(self.snapshots)]
        self._edit(self._set(which), lambda k: k.restore(snapshot))

    @rule()
    def checkpoint(self):
        self.history.checkpoint()

    @rule(pick=st.integers(0, 100))
    def revert_to(self, pick):
        checkpoints = self.history.checkpoints()
        chosen = checkpoints[pick % len(checkpoints)]
        self._edit(
            self.live,
            lambda k: self.history.revert_to(chosen.checkpoint_id),
        )

    # -- the database ----------------------------------------------------

    @rule(table=st.sampled_from(["PLANTS", "READINGS"]),
          pick=st.integers(0, 10_000))
    def insert_row(self, table, pick):
        rows = self.database.table(table).rows
        version = self.database.version
        self.database.table(table).insert(tuple(rows[pick % len(rows)]))
        assert self.database.version > version

    @rule()
    def clear_memos(self):
        self.database.clear_memos()

    # -- questions -------------------------------------------------------

    @rule(which=st.integers(0, 7), question=st.integers(0, 3))
    def answer(self, which, question):
        knowledge = self._set(which)
        assert_answer_is_fresh(
            self.database, knowledge, self._pipeline(knowledge),
            self.questions[question % len(self.questions)],
        )

    @rule(question=st.integers(0, 3))
    def answer_on_every_set(self, question):
        for knowledge in self.sets:
            assert_answer_is_fresh(
                self.database, knowledge, self._pipeline(knowledge),
                self.questions[question % len(self.questions)],
            )

    @precondition(lambda self: len(self.sets) > 1)
    @rule(which=st.integers(0, 7))
    def regression(self, which):
        staged = self.sets[1 + which % (len(self.sets) - 1)]
        assert_regression_is_fresh(self.database, self.live, staged)

    # -- invariants ------------------------------------------------------

    @invariant()
    def equal_revisions_hold_equal_components(self):
        for knowledge in self.sets:
            components = _components(knowledge)
            assert self.revisions.setdefault(
                knowledge.revision, components
            ) == components


def _run(budget):
    examples, steps = BUDGETS[budget]
    run_state_machine_as_test(
        EditLoopMachine,
        settings=settings(
            max_examples=examples,
            stateful_step_count=steps,
            derandomize=True,
            database=None,
            deadline=None,
            suppress_health_check=list(HealthCheck),
        ),
    )


def test_edit_loop_machine():
    metrics = get_metrics()
    hits = metrics.counter_value("generation.memo_hits")
    _run(os.environ.get("REPRO_MACHINE_BUDGET", "tier1"))
    # The budget must reach the memo's read path, not only its writes.
    assert metrics.counter_value("generation.memo_hits") > hits


class TestMachinePieces:
    """The machine's helpers, and hits that the fixed budget must cover."""

    def test_fresh_copy_keeps_components_and_order(self):
        base, _questions = _inputs()
        copy = fresh_copy(base)
        assert _components(copy) == _components(base)
        assert copy.revision is not base.revision

    def test_clone_answers_from_its_parents_entry(self):
        base, questions = _inputs()
        database = _private_database()
        live = base.clone()
        assert_answer_is_fresh(database, live,
                               GenEditPipeline(database, live), questions[0])
        staged = live.clone()
        answered = assert_answer_is_fresh(
            database, staged, GenEditPipeline(database, staged),
            questions[0],
        )
        assert answered.memo_hit
        staged.delete_example(next(iter(staged._examples)))
        answered = assert_answer_is_fresh(
            database, staged, GenEditPipeline(database, staged),
            questions[0],
        )
        assert not answered.memo_hit

    @pytest.mark.parametrize("change", ["insert_row", "clear_memos"])
    def test_database_changes_cause_a_miss(self, change):
        base, questions = _inputs()
        database = _private_database()
        live = base.clone()
        pipeline = GenEditPipeline(database, live)
        assert_answer_is_fresh(database, live, pipeline, questions[1])
        assert pipeline.answer(questions[1]).memo_hit
        if change == "insert_row":
            table = database.table("PLANTS")
            table.insert(tuple(table.rows[0]))
        else:
            database.clear_memos()
        answered = assert_answer_is_fresh(database, live, pipeline,
                                          questions[1])
        assert not answered.memo_hit

    def test_staged_regression_equals_a_cold_one(self):
        base, _questions = _inputs()
        database = _private_database()
        live = base.clone()
        assert_regression_is_fresh(database, live, live.clone())
        staged = live.clone()
        staged.delete_example(next(iter(staged._examples)))
        metrics = get_metrics()
        hits = metrics.counter_value("execution.memo_hits")
        report = assert_regression_is_fresh(database, live, staged)
        assert len(report.results) == 3
        # The staged side reads the outcomes the live side's run left.
        assert metrics.counter_value("execution.memo_hits") > hits

    def test_revert_answers_like_the_checkpoint(self):
        base, questions = _inputs()
        database = _private_database()
        live = base.clone()
        history = KnowledgeSetHistory(live)
        first = history.checkpoints()[0]
        pipeline = GenEditPipeline(database, live)
        before = assert_answer_is_fresh(database, live, pipeline,
                                        questions[2])
        for example_id in list(live._examples)[:20]:
            live.delete_example(example_id)
        history.revert_to(first.checkpoint_id)
        after = assert_answer_is_fresh(database, live, pipeline,
                                       questions[2])
        assert outcome(after) == outcome(before)
