"""Concurrency regression tests for the process-global caches and the
resilience/ledger paths hardened for the serving layer.

Each test hammers one shared structure from N threads (barrier-started
so the race window actually overlaps) and asserts the invariant the
fix established: no lost counter increments, no torn cache reads,
distinct ledger run ids. Before the
locks these tests fail intermittently; with them they must never fail.
"""

from __future__ import annotations

import threading

import pytest

from repro.engine import Executor
from repro.engine.stats import engine_snapshot, reset_engine_stats
from repro.obs.ledger import RunLedger
from repro.obs.metrics import MetricsRegistry
from repro.sql import parse

THREADS = 8
ROUNDS = 400


def _hammer(worker, threads=THREADS):
    """Run ``worker(index)`` on N barrier-started threads; re-raise."""
    barrier = threading.Barrier(threads)
    errors = []

    def run(index):
        try:
            barrier.wait(timeout=30.0)
            worker(index)
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    pool = [
        threading.Thread(target=run, args=(index,))
        for index in range(threads)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(60.0)
    if errors:
        raise errors[0]


class TestEngineStats:
    SQL = "SELECT DEPT_ID, SALARY FROM EMP WHERE SALARY > 80"

    def _columnar_selects(self):
        return engine_snapshot()["columnar_selects"]

    def test_no_lost_increments_under_contention(self, demo_db):
        query = parse(self.SQL)
        before = self._columnar_selects()
        Executor(demo_db).execute(query)
        per_query = self._columnar_selects() - before
        assert per_query == 1
        runs = 50

        def worker(index):
            for _ in range(runs):
                Executor(demo_db).execute(query)

        before = self._columnar_selects()
        _hammer(worker)
        assert self._columnar_selects() - before == THREADS * runs

    def test_snapshot_and_reset_race_cleanly(self, demo_db):
        query = parse(self.SQL)

        def worker(index):
            executor = Executor(demo_db)
            for _ in range(50):
                if index % 2:
                    engine_snapshot()
                else:
                    executor.execute(query)
        _hammer(worker)


class TestCompiledPredicateCache:
    def test_concurrent_queries_with_reset_racing(self, demo_db):
        """N executors + a reset thread: identical results, no tears.

        ``reset_engine_stats`` clears the compiled-predicate cache; racing
        it against queries that hit the cache used to be able to observe a
        half-built entry or double-count stats.
        """
        sql = (
            "SELECT DEPT_ID, COUNT(*) AS N FROM EMP "
            "WHERE SALARY > 80 AND ACTIVE = TRUE "
            "GROUP BY DEPT_ID ORDER BY DEPT_ID"
        )
        query = parse(sql)
        expected = Executor(demo_db).execute(query).rows
        stop = threading.Event()

        def resetter():
            while not stop.is_set():
                reset_engine_stats()

        chaos = threading.Thread(target=resetter)
        chaos.start()
        try:
            def worker(index):
                executor = Executor(demo_db)
                for _ in range(60):
                    assert executor.execute(query).rows == expected

            _hammer(worker)
        finally:
            stop.set()
            chaos.join(30.0)


class TestTermsCache:
    def test_concurrent_vectorization_is_stable(self):
        from repro.text.vectorize import TfIdfVectorizer

        texts = [
            f"organisation {index} operates in region {index % 3} "
            f"with revenue targets and quarterly reporting"
            for index in range(40)
        ]
        vectorizer = TfIdfVectorizer()
        vectorizer.fit(texts)
        expected = [vectorizer.transform(text) for text in texts]

        def worker(index):
            for _ in range(20):
                got = [vectorizer.transform(text) for text in texts]
                assert got == expected

        _hammer(worker)


class TestLinkSignatureCache:
    def test_concurrent_generation_identical_results(
        self, sports_pipeline, experiment_context
    ):
        """The real race: one shared pipeline, N threads, same question.

        Covers ``_link_signature``/``_token_set`` memoisation inside the
        simulated LLM plus every per-operator cache behind ``generate``.
        """
        question = experiment_context.workload.for_database(
            "sports_holdings"
        )[0].question
        expected = sports_pipeline.generate(question).sql
        results = [None] * THREADS

        def worker(index):
            results[index] = sports_pipeline.generate(question).sql

        _hammer(worker)
        assert results == [expected] * THREADS


class TestMetricsRegistryContention:
    def test_no_lost_resilience_increments(self):
        registry = MetricsRegistry()

        def worker(index):
            for _ in range(ROUNDS):
                registry.inc("resilience.retries", operator="plan")
                registry.observe("resilience.backoff_ms", 1.0,
                                 operator="plan")

        _hammer(worker)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["resilience.retries{operator=plan}"] \
            == THREADS * ROUNDS
        histogram = snapshot["histograms"][
            "resilience.backoff_ms{operator=plan}"
        ]
        assert histogram["count"] == THREADS * ROUNDS


class TestIntrospectionRings:
    """The serving layer's debug ring buffers stay bounded and race-free
    under N barrier-started writer threads (DESIGN.md §6i)."""

    def test_flight_recorder_bounded_with_priority_intact(self):
        from repro.obs.flight import FlightRecorder

        capacity = 16
        flight = FlightRecorder(capacity=capacity, slow_ms=100.0,
                                sample_every=2)
        statuses = [(500, 0.0), (200, 500.0), (200, 1.0)]

        def worker(index):
            for round_number in range(ROUNDS):
                status, latency = statuses[
                    (index + round_number) % len(statuses)
                ]
                flight.observe(
                    status, False, latency,
                    {"id": f"{index}-{round_number}"},
                )

        _hammer(worker)
        stats = flight.stats()
        assert stats["seen"] == THREADS * ROUNDS
        retained = sum(stats["retained"].values())
        assert retained <= capacity
        assert len(flight.entries()) == retained
        # every failed observation was recorded, and with failures
        # saturating the ring, the survivors are all top-priority.
        expected_failed = sum(
            1 for index in range(THREADS)
            for round_number in range(ROUNDS)
            if statuses[(index + round_number) % len(statuses)][0] == 500
        )
        assert stats["recorded"]["failed"] == expected_failed
        assert all(
            entry["class"] == "failed" for entry in flight.entries()
        )

    def test_request_log_and_trace_store_bounded(self):
        from repro.serve.middleware import RequestLog, TraceStore

        log = RequestLog(capacity=32)
        store = TraceStore(capacity=16, max_spans=8)

        def worker(index):
            for round_number in range(ROUNDS):
                log.add({"request_id": f"{index}-{round_number}"})
                store.add(
                    f"trace-{round_number % 64}",
                    [{"span_id": f"{index}-{round_number}"}],
                )

        _hammer(worker)
        assert len(log) == 32
        assert len(log.entries()) == 32
        assert len(store) <= 16
        for trace_id in store.trace_ids():
            assert len(store.get(trace_id)) <= 8

    def test_tracer_bounded_under_concurrent_spans(self):
        from repro.obs.tracing import Tracer, use_trace_context

        tracer = Tracer(max_finished=64)

        def worker(index):
            with use_trace_context(f"{index:032x}"):
                for _ in range(ROUNDS):
                    with tracer.span("hammer", worker=index):
                        pass

        _hammer(worker)
        spans = tracer.finished_spans()
        assert len(spans) == 64
        # every retained span carries the trace id of the thread that
        # opened it — ambient contexts never bled across threads.
        assert all(
            span.trace_id == f"{span.attributes['worker']:032x}"
            for span in spans
        )


class TestLedgerConcurrentWriters:
    def test_same_second_writers_get_distinct_ids(self, tmp_path):
        ledger = RunLedger(str(tmp_path))
        record = {"kind": "serve", "systems": {}, "target": "t"}
        run_ids = [None] * THREADS

        def worker(index):
            run_ids[index] = ledger.record_run(dict(record))

        _hammer(worker)
        assert len(set(run_ids)) == THREADS
        listed = ledger.run_ids()
        assert sorted(run_ids) == sorted(listed)
        # latest resolution is deterministic and walks the full chain.
        seen = {
            ledger.resolve(f"latest~{offset}")
            for offset in range(THREADS)
        }
        assert seen == set(run_ids)
        with pytest.raises(KeyError):
            ledger.resolve(f"latest~{THREADS}")


class TestRegressionMemo:
    def test_concurrent_submits_match_a_serial_run(
        self, demo_db, monkeypatch
    ):
        """N threads regress N clones of one live set on one database.

        A cap of 3 makes cap-clears race stores; every report must still
        equal the serial one, and the memo must stay within its cap.
        """
        import sys

        from repro.engine import database as database_module
        from repro.feedback.regression import GoldenQuery, run_regression
        from repro.knowledge import KnowledgeSet, SchemaElement

        live = KnowledgeSet("live")
        for table in ("DEPT", "EMP"):
            live.add_schema_element(SchemaElement(f"se-{table}", table))
        golden = [
            GoldenQuery("How many employees are there?",
                        "SELECT COUNT(*) FROM EMP"),
            GoldenQuery("How many departments are there?",
                        "SELECT COUNT(*) FROM DEPT"),
            GoldenQuery("What is the total budget?",
                        "SELECT SUM(BUDGET) FROM DEPT"),
        ]
        expected = run_regression(demo_db, live, live.clone(), golden)
        monkeypatch.setattr(database_module, "_MEMO_CAP", 3)
        reports = [None] * THREADS

        def worker(index):
            reports[index] = run_regression(
                demo_db, live.clone(), live.clone(), golden
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _hammer(worker)
        finally:
            sys.setswitchinterval(interval)
        assert [report.results for report in reports] == (
            [expected.results] * THREADS
        )
        assert len(demo_db.memo("regression")) <= 3


def _rebuild(knowledge):
    from repro.knowledge import KnowledgeSet

    return KnowledgeSet(knowledge.name).restore(knowledge.snapshot())


def _search_bits(knowledge, queries):
    """Ids and exact score bits of every search kind over ``queries``."""
    import struct

    searches = (
        knowledge.search_examples, knowledge.search_instructions,
        knowledge.search_intents,
    )
    return [
        [(hit.doc_id, struct.pack("d", hit.score))
         for hit in search(query, k=20)]
        for query in queries
        for search in searches
    ]


def _sibling_edits(live):
    """Edits of every component kind for the sibling clone, in order."""
    import dataclasses

    from repro.knowledge import Instruction

    example = live.examples()[0]
    instruction = live.instructions()[0]
    element = live.schema_elements()[-1]
    intent = live.intents()[0]
    return [
        lambda ks: ks.add_example(dataclasses.replace(
            example, example_id="ex-sibling",
            description="Organisations ranked by revenue per viewer",
        )),
        lambda ks: ks.delete_example(example.example_id),
        lambda ks: ks.add_instruction(Instruction(
            "in-sibling", "Report revenue per fiscal quarter.",
        )),
        lambda ks: ks.update_instruction(dataclasses.replace(
            instruction, text="Viewers means unique monthly viewers.",
        )),
        lambda ks: ks.delete_schema_element(element.element_id),
        lambda ks: ks.add_intent(dataclasses.replace(
            intent, intent_id="intent-sibling", name="sponsorship deals",
        )),
    ]


class TestSiblingClones:
    SEARCHERS = 4
    #: Fresh parents raced in turn: one lazy postings build is a short
    #: window, and a torn table shows only if a reader lands inside it.
    ROUNDS = 20

    def test_searches_on_a_clone_while_a_sibling_refits(
        self, experiment_context
    ):
        """Four threads search one clone; a fifth edits a sibling clone.

        Both clones start from the same parent, so they share its
        documents and its fitted state, whose postings and query memo are
        still unbuilt. Every result must equal the serial one.
        """
        import sys

        live = experiment_context.knowledge_sets["sports_holdings"]
        queries = [
            question.question for question in
            experiment_context.workload.for_database("sports_holdings")[:12]
        ]
        edits = _sibling_edits(live)

        def fitted_parent():
            parent = _rebuild(live)
            for name in ("_example_index", "_instruction_index",
                         "_intent_index"):
                getattr(parent, name)._fitted()
            return parent

        reference = fitted_parent()
        expected = _search_bits(reference.clone(), queries)
        sibling = reference.clone()
        expected_sibling = []
        for edit in edits:
            edit(sibling)
            expected_sibling.append(_search_bits(sibling, queries[:2]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(self.ROUNDS):
                parent = fitted_parent()
                searched, sibling = parent.clone(), parent.clone()
                results = [None] * self.SEARCHERS
                sibling_results = []

                def worker(index):
                    if index < self.SEARCHERS:
                        results[index] = _search_bits(searched, queries)
                        return
                    for edit in edits:
                        edit(sibling)
                        sibling_results.append(
                            _search_bits(sibling, queries[:2])
                        )

                _hammer(worker, threads=self.SEARCHERS + 1)
                assert results == [expected] * self.SEARCHERS
                assert sibling_results == expected_sibling
                shared = searched._example_index._state
                assert shared is parent._example_index._state
                assert shared._postings is not None  # built in the race
                assert _search_bits(parent, queries) == expected
        finally:
            sys.setswitchinterval(interval)
