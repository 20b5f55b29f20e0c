"""Knowledge-set tests: models, store, mining, versioning, library."""

import dataclasses
import datetime
import struct
from unittest import mock

import pytest

from repro.knowledge import (
    DecomposedExample,
    DomainDocument,
    GlossaryEntry,
    GuidelineEntry,
    Instruction,
    Intent,
    KnowledgeLibrary,
    KnowledgeSet,
    KnowledgeSetHistory,
    LoggedQuery,
    Provenance,
    SchemaElement,
    build_examples,
    build_full_query_example,
    describe_unit,
    mine_knowledge_set,
    next_component_id,
)


@pytest.fixture()
def knowledge():
    ks = KnowledgeSet("test")
    intent = Intent(intent_id="i1", name="finance", description="money stuff")
    ks.add_intent(intent)
    ks.add_example(
        DecomposedExample(
            example_id="ex1",
            description="Filter rows where country is Canada",
            sql="WHERE COUNTRY = 'Canada'",
            kind="where",
            intent_ids=("i1",),
        )
    )
    ks.add_example(
        DecomposedExample(
            example_id="ex2",
            description="Rank organisations from both ends",
            sql="ROW_NUMBER() OVER (ORDER BY X DESC)",
            kind="window_function",
            pattern="topk_both_ends",
            intent_ids=("i1",),
        )
    )
    ks.add_instruction(
        Instruction(
            instruction_id="in1",
            text="RPV means revenue per viewer",
            kind="term_definition",
            term="RPV",
            sql_pattern="SUM(R)/NULLIF(SUM(V),0)",
            intent_ids=("i1",),
        )
    )
    return ks


class TestModels:
    def test_component_ids_unique(self):
        first, second = next_component_id("x"), next_component_id("x")
        assert first != second

    def test_pseudo_sql_form(self):
        example = DecomposedExample("e", "d", "WHERE X = 1")
        assert example.pseudo_sql == "... WHERE X = 1 ..."

    def test_retrieval_text_includes_term_and_pattern(self):
        instruction = Instruction(
            "i", "text here", term="AOV", sql_pattern="AVG(A)"
        )
        assert "AOV" in instruction.retrieval_text
        assert "AVG(A)" in instruction.retrieval_text

    def test_schema_element_names(self):
        from repro.knowledge import SchemaElement

        table = SchemaElement("s1", "T")
        column = SchemaElement("s2", "T", "C")
        assert table.is_table and table.qualified_name == "T"
        assert not column.is_table and column.qualified_name == "T.C"


class TestStore:
    def test_stats(self, knowledge):
        stats = knowledge.stats()
        assert stats == {
            "intents": 1, "examples": 2, "instructions": 1,
            "schema_elements": 0,
        }

    def test_intent_keyed_lookup(self, knowledge):
        assert len(knowledge.examples_for_intents(["i1"])) == 2
        assert knowledge.examples_for_intents(["nope"]) == []

    def test_search_examples(self, knowledge):
        hits = knowledge.search_examples("filter by country", k=1)
        assert hits[0].doc_id == "ex1"

    def test_term_definitions(self, knowledge):
        assert "rpv" in knowledge.term_definitions()

    def test_update_requires_existing(self, knowledge):
        with pytest.raises(KeyError):
            knowledge.update_example(
                DecomposedExample("ghost", "d", "SQL")
            )

    def test_delete_example(self, knowledge):
        knowledge.delete_example("ex1")
        assert knowledge.example("ex1") is None
        assert all(
            hit.doc_id != "ex1" for hit in knowledge.search_examples("country")
        )

    def test_snapshot_restore_round_trip(self, knowledge):
        snapshot = knowledge.snapshot()
        knowledge.delete_example("ex1")
        knowledge.delete_instruction("in1")
        knowledge.restore(snapshot)
        assert knowledge.example("ex1") is not None
        assert knowledge.instruction("in1") is not None

    def test_clone_is_independent(self, knowledge):
        clone = knowledge.clone()
        clone.delete_example("ex1")
        assert knowledge.example("ex1") is not None

    def test_snapshot_deep_copies(self, knowledge):
        snapshot = knowledge.snapshot()
        with pytest.raises(dataclasses.FrozenInstanceError):
            snapshot["examples"][0].description = "mutated"
        assert knowledge.example("ex1").description != "mutated"

    def test_add_example_invalidates_index_norms(self, knowledge):
        from repro.text import l2_norm

        knowledge.search_examples("country", k=1)  # warm index + norms
        knowledge.add_example(
            DecomposedExample("ex-new", "wombat census by country",
                              "SELECT COUNT(*) FROM WOMBATS")
        )
        hits = knowledge.search_examples("wombat census", k=1)
        assert hits[0].doc_id == "ex-new"
        vector, norm = knowledge._example_index._state.vectors["ex-new"]
        assert norm == pytest.approx(l2_norm(vector))

    def test_delete_example_invalidates_cached_search(self, knowledge):
        assert any(
            hit.doc_id == "ex1"
            for hit in knowledge.search_examples("filter by country", k=2)
        )
        knowledge.delete_example("ex1")
        assert all(
            hit.doc_id != "ex1"
            for hit in knowledge.search_examples("filter by country", k=2)
        )


QUERIES = ("filter by country", "rank organisations", "revenue per viewer")


def _searches(knowledge):
    """Ids and scores of all three search methods over ``QUERIES``."""
    return [
        [(hit.doc_id, hit.score) for hit in search(query, k=50)]
        for search in (
            knowledge.search_examples,
            knowledge.search_instructions,
            knowledge.search_intents,
        )
        for query in QUERIES
    ]


def _bits(value):
    return struct.pack("d", value)


def _search_bits(knowledge):
    """``_searches`` with every score as its exact bits."""
    return [
        [(doc_id, _bits(score)) for doc_id, score in hits]
        for hits in _searches(knowledge)
    ]


INDEXES = ("_example_index", "_instruction_index", "_intent_index")


def _index_state(knowledge):
    """The published state of each index: vector and norm bits, inverted."""
    states = []
    for name in INDEXES:
        state = getattr(knowledge, name)._state
        states.append((
            {
                doc_id: ([(t, _bits(w)) for t, w in vector.items()],
                         _bits(norm))
                for doc_id, (vector, norm) in state.vectors.items()
            },
            state.inverted,
        ))
    return states


NEW_EXAMPLE = DecomposedExample(
    "ex3", "Count organisations per country", "COUNT(*)", kind="aggregate"
)

NEW_SCHEMA_ELEMENT = SchemaElement("se-new", "ORGS", column="COUNTRY")

#: Every mutator, for each of the four component kinds, over
#: ``with_schema`` (the ``knowledge`` fixture plus two schema elements).
MUTATORS = {
    "add_intent": lambda ks: ks.add_intent(Intent("i2", "ops", "operations")),
    "add_example": lambda ks: ks.add_example(NEW_EXAMPLE),
    "update_example": lambda ks: ks.update_example(dataclasses.replace(
        ks.example("ex1"), description="Keep organisations with revenue"
    )),
    "delete_example": lambda ks: ks.delete_example("ex1"),
    "add_instruction": lambda ks: ks.add_instruction(
        Instruction("in2", "Report revenue per fiscal quarter.")
    ),
    "update_instruction": lambda ks: ks.update_instruction(
        dataclasses.replace(ks.instruction("in1"), text="RPV is revenue")
    ),
    "delete_instruction": lambda ks: ks.delete_instruction("in1"),
    "add_schema_element": lambda ks: ks.add_schema_element(
        NEW_SCHEMA_ELEMENT
    ),
    "delete_schema_element": lambda ks: ks.delete_schema_element("se2"),
}


@pytest.fixture()
def with_schema(knowledge):
    knowledge.add_schema_element(
        SchemaElement("se1", "ORGS", description="sports organisations")
    )
    knowledge.add_schema_element(SchemaElement(
        "se2", "ORGS", column="REVENUE",
        description="annual revenue per organisation",
    ))
    return knowledge


class TestClone:
    def test_edits_to_clone_leave_parent_unchanged(self, knowledge):
        expected = _searches(knowledge)
        state = _index_state(knowledge)
        clone = knowledge.clone()
        clone.add_example(NEW_EXAMPLE)
        clone.delete_instruction("in1")
        with pytest.raises(dataclasses.FrozenInstanceError):
            clone.example("ex2").description = "mutated"
        _searches(clone)
        assert _index_state(knowledge) == state
        assert _searches(knowledge) == expected
        assert knowledge.example("ex2").description != "mutated"

    def test_edits_to_parent_leave_clone_unchanged(self, knowledge):
        _searches(knowledge)
        clone = knowledge.clone()
        expected = _searches(clone)
        state = _index_state(clone)
        knowledge.add_example(NEW_EXAMPLE)
        knowledge.delete_example("ex1")
        _searches(knowledge)
        assert _index_state(clone) == state
        assert _searches(clone) == expected

    def test_clone_of_dirty_set_and_clone_of_clone(self, knowledge):
        child = knowledge.clone()  # the parent was never searched
        child.add_example(NEW_EXAMPLE)
        grandchild = child.clone()
        grandchild.delete_example("ex1")
        for edited in (grandchild, child, knowledge):
            rebuilt = KnowledgeSet(edited.name).restore(edited.snapshot())
            assert _searches(edited) == _searches(rebuilt)
        assert child.example("ex1") is not None
        assert knowledge.example("ex3") is None

    def test_clone_shares_components_and_documents(self, with_schema):
        knowledge = with_schema
        _searches(knowledge)
        clone = knowledge.clone()
        for original, copied in zip(
            _components(knowledge), _components(clone)
        ):
            assert copied is original
        for name in INDEXES:
            parent, child = getattr(knowledge, name), getattr(clone, name)
            assert parent.documents()
            for original, copied in zip(
                parent.documents(), child.documents()
            ):
                assert copied is original
            assert child._state is parent._state

    @pytest.mark.parametrize("edit", list(MUTATORS), ids=list(MUTATORS))
    def test_mutator_on_clone_leaves_parent_hits_unchanged(
        self, with_schema, edit
    ):
        knowledge = with_schema
        expected = _search_bits(knowledge)
        clone = knowledge.clone()
        MUTATORS[edit](clone)
        assert clone.revision is not knowledge.revision
        _searches(clone)
        assert _search_bits(knowledge) == expected

    @pytest.mark.parametrize("edit", list(MUTATORS), ids=list(MUTATORS))
    def test_mutator_on_parent_leaves_clone_hits_unchanged(
        self, with_schema, edit
    ):
        knowledge = with_schema
        _searches(knowledge)
        clone = knowledge.clone()
        expected = _search_bits(clone)
        MUTATORS[edit](knowledge)
        assert clone.revision is not knowledge.revision
        _searches(knowledge)
        assert _search_bits(clone) == expected


class TestRevision:
    """``revision`` changes with the contents; see ``store.py``."""

    @pytest.mark.parametrize("edit", [
        lambda ks: ks.add_intent(Intent("i2", "ops", "operations")),
        lambda ks: ks.add_example(NEW_EXAMPLE),
        lambda ks: ks.update_example(
            dataclasses.replace(ks.example("ex1"), description="changed")
        ),
        lambda ks: ks.delete_example("ex1"),
        lambda ks: ks.add_instruction(
            Instruction("in2", "Use fiscal quarters.")
        ),
        lambda ks: ks.update_instruction(
            dataclasses.replace(ks.instruction("in1"), text="changed")
        ),
        lambda ks: ks.delete_instruction("in1"),
        lambda ks: ks.add_schema_element(NEW_SCHEMA_ELEMENT),
        lambda ks: ks.restore(ks.snapshot()),
        lambda ks: ks.restore(KnowledgeSet("empty").snapshot()),
    ], ids=[
        "add_intent", "add_example", "update_example", "delete_example",
        "add_instruction", "update_instruction", "delete_instruction",
        "add_schema_element", "restore", "restore_empty",
    ])
    def test_every_mutator_replaces_the_revision(self, knowledge, edit):
        before = knowledge.revision
        edit(knowledge)
        assert knowledge.revision is not before

    def test_delete_schema_element_replaces_the_revision(self, knowledge):
        knowledge.add_schema_element(NEW_SCHEMA_ELEMENT)
        before = knowledge.revision
        knowledge.delete_schema_element("se-new")
        assert knowledge.revision is not before

    def test_delete_of_an_absent_id_keeps_the_revision(self, knowledge):
        before = knowledge.revision
        knowledge.delete_example("missing")
        knowledge.delete_instruction("missing")
        knowledge.delete_schema_element("missing")
        assert knowledge.revision is before

    def test_reads_keep_the_revision(self, knowledge):
        before = knowledge.revision
        _searches(knowledge)
        knowledge.snapshot()
        knowledge.stats()
        assert knowledge.revision is before

    def test_clone_shares_the_revision_until_either_side_edits(
        self, knowledge
    ):
        parent = knowledge.revision
        clone = knowledge.clone()
        assert clone.revision is parent
        clone.add_example(NEW_EXAMPLE)
        assert clone.revision is not parent
        assert knowledge.revision is parent
        second = knowledge.clone()
        knowledge.delete_example("ex1")
        assert second.revision is parent
        assert knowledge.revision is not parent

    def test_distinct_sets_have_distinct_revisions(self):
        assert KnowledgeSet().revision is not KnowledgeSet().revision

    def test_revert_yields_a_new_revision(self, knowledge):
        history = KnowledgeSetHistory(knowledge)
        (initial,) = history.checkpoints()
        knowledge.add_example(NEW_EXAMPLE)
        edited = knowledge.revision
        history.revert_to(initial.checkpoint_id)
        assert knowledge.revision is not edited
        assert knowledge.example("ex3") is None


def _immutable(value):
    """A scalar, None, a tuple or frozenset of those, or a Provenance.

    Scalars are str, numbers and dates (``top_values`` of date columns);
    frozensets appear in a cached ``SchemaElement._link_signature``.
    """
    if value is None or isinstance(
        value, (str, int, float, bool, datetime.date)
    ):
        return True
    if isinstance(value, (tuple, frozenset)):
        return all(_immutable(item) for item in value)
    if isinstance(value, Provenance):
        return all(
            _immutable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        )
    return False


def _components(knowledge):
    return [
        *knowledge.intents(), *knowledge.examples(),
        *knowledge.instructions(), *knowledge.schema_elements(),
    ]


def _mutable_objects(knowledge):
    """id -> object for every mutable object a set holds its components in.

    The id -> component dicts, and any field value that is not immutable.
    Components are frozen, so they themselves may be shared.
    """
    found = {}
    for held in (knowledge._intents, knowledge._examples,
                 knowledge._instructions, knowledge._schema_elements):
        found[id(held)] = held
        for component in held.values():
            for value in vars(component).values():
                if not _immutable(value):
                    found[id(value)] = value
    return found


class TestShallowCloneAudit:
    """Why ``clone`` may share components (see ``store.py``)."""

    @pytest.fixture(scope="class")
    def seed41_context(self):
        from repro.bench.harness import ExperimentContext

        return ExperimentContext(41)

    @pytest.fixture(scope="class")
    def edit_payloads(self, experiment_context, seed41_context):
        """Every ``generate_edits`` payload of the seed-7 and -41 sessions."""
        import repro.feedback.solver as solver_module
        from repro.bench.feedback_sim import simulate_feedback_sessions

        payloads = []
        original = solver_module.generate_edits

        def recording(*args, **kwargs):
            recommendations = original(*args, **kwargs)
            payloads.extend(
                edit.payload for edit in recommendations
                if edit.payload is not None
            )
            return recommendations

        with mock.patch.object(solver_module, "generate_edits", recording):
            for context in (experiment_context, seed41_context):
                simulate_feedback_sessions(seed=context.seed, context=context)
        return payloads

    def test_mined_components_are_immutable(
        self, experiment_context, seed41_context
    ):
        for context in (experiment_context, seed41_context):
            for knowledge in context.knowledge_sets.values():
                for component in _components(knowledge):
                    for name, value in vars(component).items():
                        assert _immutable(value), (component, name)

    def test_edit_payloads_are_immutable(self, edit_payloads):
        assert len(edit_payloads) > 80
        for payload in edit_payloads:
            for name, value in vars(payload).items():
                assert _immutable(value), (payload, name)

    def test_clone_shares_no_mutable_object(self, experiment_context):
        for knowledge in experiment_context.knowledge_sets.values():
            clone = knowledge.clone()
            assert [repr(c) for c in _components(clone)] == [
                repr(c) for c in _components(knowledge)
            ]
            assert not (
                _mutable_objects(knowledge).keys()
                & _mutable_objects(clone).keys()
            )
            expected = [repr(c) for c in _components(knowledge)]
            for component in _components(clone):
                name = dataclasses.fields(component)[1].name
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(component, name, "mutated")
            assert [repr(c) for c in _components(knowledge)] == expected

    def test_cached_link_signature_is_valid_on_the_clone(
        self, experiment_context
    ):
        from repro.llm.simulated import SimulatedLLM

        parent = experiment_context.knowledge_sets["sports_holdings"].clone()
        llm = SimulatedLLM()
        llm.link_schema("How many organisations are in Canada?",
                        parent.schema_elements())
        clone = parent.clone()
        for element in clone.schema_elements():
            cached = vars(element)["_link_signature"]
            fresh = dataclasses.replace(element)
            assert "_link_signature" not in vars(fresh)
            llm.link_schema("Which teams play in Toronto?", [fresh])
            assert fresh._link_signature == cached


class TestCloneRefits:
    @pytest.fixture()
    def fitted(self, experiment_context):
        from repro.pipeline import GenEditPipeline

        profile = experiment_context.profiles["sports_holdings"]
        live = experiment_context.knowledge_sets["sports_holdings"]
        knowledge = KnowledgeSet(live.name).restore(live.snapshot())
        before = self._refits()
        _searches(knowledge)  # a restored set starts unfitted
        assert self._refits() == before + 3
        GenEditPipeline(profile.database, knowledge).generate(self.QUESTION)
        return profile.database, knowledge

    QUESTION = "How many organisations are in Canada?"

    @staticmethod
    def _refits():
        from repro.obs.metrics import get_metrics

        return get_metrics().counter_value("retrieval.refits")

    def test_clone_of_fitted_set_generates_without_refits(self, fitted):
        from repro.pipeline import GenEditPipeline

        database, knowledge = fitted
        before = self._refits()
        GenEditPipeline(database, knowledge.clone()).generate(self.QUESTION)
        assert self._refits() == before

    def test_staged_example_insert_refits_only_the_example_index(
        self, fitted
    ):
        _database, knowledge = fitted
        staged = knowledge.clone()
        staged.add_example(NEW_EXAMPLE)
        before = self._refits()
        _searches(staged)
        assert self._refits() == before + 1
        assert (staged._example_index._state
                is not knowledge._example_index._state)
        for name in ("_instruction_index", "_intent_index"):
            assert (getattr(staged, name)._state
                    is getattr(knowledge, name)._state)


class TestDecompositionBuilders:
    SQL = (
        "SELECT DEPT_ID, SUM(SALARY) AS total FROM EMP "
        "WHERE ACTIVE = TRUE GROUP BY DEPT_ID"
    )

    def test_build_examples_skips_full_query_by_default(self):
        examples = build_examples(self.SQL, source_query_id="q1")
        assert all(example.kind != "query" for example in examples)
        assert len(examples) >= 4

    def test_build_examples_provenance(self):
        examples = build_examples(self.SQL, source_query_id="q1")
        assert all(
            example.provenance.source_kind == "query_log"
            and example.source_query_id == "q1"
            for example in examples
        )

    def test_full_query_example(self):
        example = build_full_query_example("q?", self.SQL)
        assert example.kind == "query"
        assert example.description == "q?"
        assert example.tables == ("EMP",)

    def test_describe_unit_templates(self):
        from repro.sql.decompose import decompose
        from repro.sql.parser import parse

        units = decompose(parse(self.SQL))
        where_unit = next(unit for unit in units if unit.kind == "where")
        assert describe_unit(where_unit).startswith("Filter rows where")


class TestMining:
    def test_mine_full_pipeline(self, demo_db):
        log = [
            LoggedQuery(
                "q1", "Show me total salary",
                "SELECT SUM(SALARY) FROM EMP", "hr analytics",
            )
        ]
        documents = [
            DomainDocument(
                "doc1", "handbook",
                glossary=[
                    GlossaryEntry(
                        "headcount", "number of employees",
                        "COUNT(*)", ("EMP",), "hr analytics",
                    )
                ],
                guidelines=[
                    GuidelineEntry(
                        "'active' means ACTIVE = TRUE",
                        "ACTIVE = TRUE", ("EMP",), "hr analytics",
                    )
                ],
            )
        ]
        knowledge = mine_knowledge_set(demo_db, log, documents)
        assert knowledge.stats()["intents"] == 1
        assert knowledge.stats()["examples"] >= 3
        assert "headcount" in knowledge.term_definitions()
        # schema elements: 2 tables + 10 columns
        assert knowledge.stats()["schema_elements"] == 12

    def test_schema_elements_carry_top_values(self, demo_db):
        knowledge = mine_knowledge_set(demo_db, [], [])
        region = next(
            element for element in knowledge.schema_elements()
            if element.column == "REGION"
        )
        assert "West" in region.top_values

    def test_undecomposed_mode(self, demo_db):
        log = [
            LoggedQuery("q1", "total salary", "SELECT SUM(SALARY) FROM EMP")
        ]
        knowledge = mine_knowledge_set(
            demo_db, log, [], decompose_examples=False
        )
        assert all(
            example.kind == "query" for example in knowledge.examples()
        )

    def test_intent_from_table_footprint_when_unnamed(self, demo_db):
        log = [LoggedQuery("q1", "q", "SELECT SUM(SALARY) FROM EMP")]
        knowledge = mine_knowledge_set(demo_db, log, [])
        assert knowledge.intents()[0].name == "emp"


class TestVersioning:
    def test_initial_checkpoint_exists(self, knowledge):
        history = KnowledgeSetHistory(knowledge)
        assert len(history.checkpoints()) == 1

    def test_records_newest_first(self, knowledge):
        history = KnowledgeSetHistory(knowledge)
        history.record("insert", "example", "e1", "first")
        history.record("delete", "example", "e2", "second")
        records = history.records()
        assert records[0].summary == "second"

    def test_filter_by_feedback(self, knowledge):
        history = KnowledgeSetHistory(knowledge)
        history.record("insert", "example", "e1", "s", feedback_id="fb-1")
        history.record("insert", "example", "e2", "s")
        assert len(history.records(feedback_id="fb-1")) == 1

    def test_revert_restores_contents(self, knowledge):
        history = KnowledgeSetHistory(knowledge)
        checkpoint = history.checkpoint("before damage")
        knowledge.delete_example("ex1")
        history.revert_to(checkpoint.checkpoint_id)
        assert knowledge.example("ex1") is not None

    def test_revert_unknown_checkpoint(self, knowledge):
        history = KnowledgeSetHistory(knowledge)
        with pytest.raises(KeyError):
            history.revert_to("ckpt-9999")

    def test_diff_between_checkpoints(self, knowledge):
        history = KnowledgeSetHistory(knowledge)
        first = history.checkpoint("a")
        knowledge.add_instruction(
            Instruction("in2", "new guideline")
        )
        knowledge.delete_example("ex2")
        second = history.checkpoint("b")
        diff = history.diff(first.checkpoint_id, second.checkpoint_id)
        assert diff["instructions"]["added"] == ["in2"]
        assert diff["examples"]["removed"] == ["ex2"]


class TestLibrary:
    @pytest.fixture()
    def library(self, knowledge):
        history = KnowledgeSetHistory(knowledge)
        return KnowledgeLibrary(knowledge, history)

    def test_overview(self, library):
        overview = library.overview()
        assert overview["stats"]["examples"] == 2
        assert overview["checkpoints"]

    def test_direct_instruction_edit_recorded(self, library):
        instruction = library.add_instruction(
            "'gross' means before discounts", term="gross"
        )
        assert library.knowledge_set.instruction(instruction.instruction_id)
        assert library.history.records()[0].action == "insert"

    def test_direct_example_edit(self, library):
        example = library.add_example("demo", "WHERE X = 1", kind="where")
        assert library.knowledge_set.example(example.example_id)

    def test_delete_component(self, library):
        library.delete_component("ex1")
        assert library.knowledge_set.example("ex1") is None
        with pytest.raises(KeyError):
            library.delete_component("missing")

    def test_component_provenance(self, library):
        info = library.component_provenance("in1")
        assert isinstance(info["provenance"], Provenance)
        with pytest.raises(KeyError):
            library.component_provenance("nope")

    def test_feedback_timeline_groups(self, library):
        library.history.record(
            "insert", "example", "e9", "s", feedback_id="fb-9"
        )
        timeline = library.feedback_timeline()
        assert timeline[0][0] == "fb-9"
