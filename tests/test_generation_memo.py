"""The generation memo: ``generate`` records, ``answer`` reuses.

``database.memo("generation")`` holds one slim entry per ``(knowledge
revision, config, model, linking model, question)``
(DESIGN.md §6d). These tests pin what a hit returns and records, when the
memo is bypassed, and that an entry keeps no run's working set alive.
"""

from __future__ import annotations

import asyncio
import gc
import json
import time
import weakref

import pytest

from repro.bench.metrics import QuestionOutcome
from repro.llm.simulated import SimulatedLLM
from repro.obs.metrics import get_metrics
from repro.pipeline import GenEditPipeline
from repro.pipeline.base import GenerationEntry
from repro.resilience import FaultConfig

QUESTION = "How many sports organisations are in Canada?"


@pytest.fixture()
def deployed(experiment_context):
    """A pipeline on a clone of the seed-7 sports set, memos cleared."""
    profile = experiment_context.profiles["sports_holdings"]
    profile.database.clear_memos()
    knowledge = experiment_context.knowledge_sets["sports_holdings"].clone()
    return GenEditPipeline(profile.database, knowledge)


def _outcome(result):
    return (result.sql, result.success, result.error,
            result.operator_digests, result.lint_codes, result.plan_codes,
            tuple(result.context.attempts), result.plan.render())


class TestAnswer:
    def test_miss_generates_then_hit_reuses(self, deployed):
        metrics = get_metrics()
        hits = metrics.counter_value("generation.memo_hits")
        misses = metrics.counter_value("generation.memo_misses")
        first = deployed.answer(QUESTION)
        second = deployed.answer(QUESTION)
        assert (first.memo_hit, second.memo_hit) == (False, True)
        assert metrics.counter_value("generation.memo_hits") == hits + 1
        assert metrics.counter_value("generation.memo_misses") == misses + 1
        assert _outcome(second) == _outcome(first)
        assert first.context.meter.calls
        assert second.context.meter.calls == []
        assert second.cost_usd == 0.0

    def test_hit_span_carries_the_digest_trail(self, deployed):
        generated = deployed.generate(QUESTION)
        hit = deployed.answer(QUESTION)
        (root,) = hit.context.tracer.finished_spans()
        assert root.name == "generate"
        assert root.attributes["generation.memo"] == "hit"
        assert root.attributes["digests"] == " ".join(
            f"{name}:{digest}" for name, digest in generated.operator_digests
        )
        assert root.attributes["success"] is generated.success

    def test_generate_never_reads_the_memo(self, deployed):
        deployed.generate(QUESTION)
        again = deployed.generate(QUESTION)
        assert not again.memo_hit
        assert again.context.meter.calls

    def test_clone_hits_edit_misses(self, deployed):
        deployed.answer(QUESTION)
        staged = deployed.knowledge.clone()
        clone_pipeline = GenEditPipeline(deployed.database, staged)
        assert clone_pipeline.answer(QUESTION).memo_hit
        staged.delete_instruction(next(iter(staged._instructions)))
        assert not clone_pipeline.answer(QUESTION).memo_hit

    def test_key_holds_config_and_models(self, deployed):
        from repro.llm.interface import GPT_4O_MINI

        deployed.answer(QUESTION)
        assert len(next(iter(
            deployed.database.memo("generation")
        ))) == 5
        others = [
            GenEditPipeline(deployed.database, deployed.knowledge,
                            config=deployed.config.without("instructions")),
            GenEditPipeline(deployed.database, deployed.knowledge,
                            llm=SimulatedLLM(model=GPT_4O_MINI)),
        ]
        assert [other.answer(QUESTION).memo_hit for other in others] == [
            False, False,
        ]
        assert deployed.answer(QUESTION).memo_hit
        # A served request's deadline is not an input of the run: a
        # pipeline answering under one hits the same entry.
        from repro.resilience import deadline_scope

        with deadline_scope(time.monotonic() + 60.0):
            assert GenEditPipeline(
                deployed.database, deployed.knowledge
            ).answer(QUESTION).memo_hit


class TestBypass:
    """Pipelines whose runs the key cannot describe neither read nor
    record."""

    def _bypassed(self, deployed, pipeline):
        memo = deployed.database.memo("generation")
        deployed.answer(QUESTION)
        held = dict(memo)
        result = pipeline.answer(QUESTION)
        assert not result.memo_hit
        assert dict(memo) == held
        return result

    def test_armed_fault_injector(self, deployed):
        pipeline = GenEditPipeline(deployed.database, deployed.knowledge)
        pipeline.enable_faults(FaultConfig(rate=0.0, seed=7))
        self._bypassed(deployed, pipeline)

    def test_llm_subclass(self, deployed):
        class Wrapped(SimulatedLLM):
            pass

        pipeline = GenEditPipeline(deployed.database, deployed.knowledge,
                                   llm=Wrapped())
        self._bypassed(deployed, pipeline)

    def test_patched_operator(self, deployed):
        pipeline = GenEditPipeline(deployed.database, deployed.knowledge)
        operator = next(op for op in pipeline.operators
                        if op.name == "generate_sql")

        def boom(context):
            raise RuntimeError("forced failure")

        operator.run = boom
        assert not self._bypassed(deployed, pipeline).success

    def test_replaced_operator_list(self, deployed):
        pipeline = GenEditPipeline(deployed.database, deployed.knowledge)
        pipeline.operators = [
            operator for operator in pipeline.operators
            if operator.name != "lint_plan"
        ]
        self._bypassed(deployed, pipeline)


class TestSlimEntry:
    def test_entry_holds_no_knowledge_set_tracer_or_meter(self, deployed):
        knowledge = deployed.knowledge.clone()
        pipeline = GenEditPipeline(deployed.database, knowledge)
        result = pipeline.generate(QUESTION)
        entry = deployed.database.memo("generation")[
            pipeline._memo_key(QUESTION)
        ]
        assert isinstance(entry, GenerationEntry)
        watched = [weakref.ref(item) for item in (
            knowledge, result.context.tracer, result.context.meter,
        )]
        del knowledge, pipeline, result
        gc.collect()
        assert [ref() for ref in watched] == [None, None, None]
        assert entry.sql and entry.operator_digests

    def test_lint_codes_equal_a_fresh_diagnostics_run(self, deployed):
        from repro.sql.diagnostics import DiagnosticsEngine
        from repro.sql.diagnostics.core import error_codes

        result = deployed.answer("Which organisation has the most teams?")
        hit = deployed.answer("Which organisation has the most teams?")
        fresh = error_codes(
            DiagnosticsEngine(deployed.database).run_sql(result.sql)
        )
        assert result.lint_codes == hit.lint_codes == fresh


class TestVisibility:
    def test_hit_ledger_outcome_has_no_llm_calls_and_the_digests(
        self, deployed
    ):
        def outcome(result):
            return QuestionOutcome.from_result(
                result, True, question_id="q1", difficulty="simple",
                database="sports_holdings", gold_sql="",
                question_text=QUESTION,
            )

        generated = outcome(deployed.answer(QUESTION))
        hit = outcome(deployed.answer(QUESTION))
        assert generated.llm_calls and hit.llm_calls == ()
        assert hit.cost_usd == 0.0
        assert hit.operator_digests == generated.operator_digests
        for field in ("predicted_sql", "lint_codes", "plan_codes",
                      "attempts", "lint_caught", "execution_caught",
                      "issues", "error"):
            assert getattr(hit, field) == getattr(generated, field), field

    def test_flight_recorder_keeps_the_original_digests(
        self, experiment_context
    ):
        from repro.obs.metrics import MetricsRegistry
        from repro.serve.app import ServeApp

        experiment_context.profiles["sports_holdings"].database.clear_memos()
        app = ServeApp(
            databases=["sports_holdings"], workers=1, queue_depth=2,
            profiles=experiment_context.profiles,
            workload=experiment_context.workload,
            knowledge_sets=experiment_context.knowledge_sets,
            registry=MetricsRegistry(), sample_every=1,
        ).startup()
        body = json.dumps({"question": QUESTION,
                           "tenant": "sports_holdings"}).encode()
        try:
            answers = [
                asyncio.run(app.dispatch(
                    "POST", "/ask", {"x-request-id": f"memo-{index}"}, body
                ))[2]
                for index in range(2)
            ]
        finally:
            app.shutdown()
        assert answers[0]["sql"] == answers[1]["sql"]
        assert answers[1]["cost_usd"] == 0.0 < answers[0]["cost_usd"]
        entries = {
            tree.root.attributes["request_id"]: tree.detail
            for tree in app.obs.store.trees()
        }
        generated, hit = entries["memo-0"], entries["memo-1"]
        assert hit["operator_digests"] == generated["operator_digests"]
        assert hit["llm_calls"] == [] and generated["llm_calls"]
        assert any("generation memo hit" in event for event in hit["events"])


class TestVerdictMemo:
    """Self-correction and the final check read each statement's outcome
    from the database's execution memo, which ``generate`` and ``answer``
    share; an armed injector executes every time and neither reads nor
    stores."""

    #: Lints clean, and the engine raises on it.
    ERRORING = "SELECT CAST('abc' AS INTEGER) FROM SPORTS_ORGS"

    @pytest.fixture()
    def database(self, experiment_context):
        # A database of its own: the version test inserts a row.
        from repro.bench import schemas

        return schemas._BUILDERS["sports_holdings"](
            experiment_context.seed
        ).database

    @pytest.fixture()
    def knowledge(self, experiment_context):
        return experiment_context.knowledge_sets["sports_holdings"].clone()

    @pytest.fixture()
    def executions(self, monkeypatch):
        from repro.engine.executor import Executor

        calls = []
        original = Executor.execute

        def counting(executor, query):
            calls.append(query)
            return original(executor, query)

        monkeypatch.setattr(Executor, "execute", counting)
        return calls

    @pytest.fixture()
    def erroring_first(self, monkeypatch):
        """Generation puts :attr:`ERRORING` first in the queue, ahead of
        the SQL it generated (patched on the class, so the memo still
        applies)."""
        from repro.pipeline.generation import GenerationOperator

        original = GenerationOperator.run

        def run(operator, context):
            original(operator, context)
            context.candidates = [context.sql] + list(context.candidates)
            context.sql = self.ERRORING
            return context

        monkeypatch.setattr(GenerationOperator, "run", run)

    @staticmethod
    def _replayed(result):
        """What a run of ``self_correct`` leaves that a reader can see."""
        context = result.context
        return (
            _outcome(result),
            context.execution_caught,
            context.lint_caught,
            [(call.operator, call.model, call.input_tokens,
              call.output_tokens) for call in context.meter.calls],
            [str(event) for event in result.trace],
        )

    def test_erroring_candidate_hit_replays_a_cold_run(
        self, database, knowledge, executions, erroring_first
    ):
        metrics = get_metrics()
        cold = GenEditPipeline(database, knowledge).generate(QUESTION)
        assert cold.success and cold.context.execution_caught == 1
        assert cold.context.attempts[0][0] == self.ERRORING
        # Each statement once: the final check reads self-correction's.
        assert executions == [self.ERRORING, cold.sql]
        del executions[:]
        caught = metrics.counter_value("self_correct.execution_caught")
        hits = metrics.counter_value("execution.memo_hits")
        misses = metrics.counter_value("execution.memo_misses")
        replayed = GenEditPipeline(database, knowledge).generate(QUESTION)
        assert not replayed.memo_hit
        assert executions == []
        assert self._replayed(replayed) == self._replayed(cold)
        assert (metrics.counter_value("self_correct.execution_caught")
                == caught + 1)
        # Two attempts and the final check.
        assert metrics.counter_value("execution.memo_hits") == hits + 3
        assert metrics.counter_value("execution.memo_misses") == misses

        def marks(result, name):
            return [
                record.get("attributes", {}).get("execution.memo_hits")
                for record in result.trace_records() if record["name"] == name
            ]

        assert marks(cold, "execute") == [None, None]
        assert marks(cold, "final_check") == [1]
        assert marks(replayed, "execute") == [1, 1]
        assert marks(replayed, "final_check") == [1]
        attempts = [
            record["attributes"]["outcome"]
            for record in replayed.trace_records()
            if record["name"] == "attempt"
        ]
        assert attempts == ["execution_caught", "ok"]

    def test_armed_injector_always_executes(
        self, database, knowledge, executions, erroring_first
    ):
        GenEditPipeline(database, knowledge).generate(QUESTION)
        held = dict(database.memo("execution"))
        assert set(held) >= {self.ERRORING}
        faulty = GenEditPipeline(database, knowledge)
        faulty.enable_faults(FaultConfig(rate=0.0, seed=7))
        for run in (faulty.answer, faulty.generate):
            del executions[:]
            result = run(QUESTION)
            assert result.success and not result.memo_hit
            # Every candidate, then the final SQL again.
            assert executions == [self.ERRORING, result.sql, result.sql]
            assert dict(database.memo("execution")) == held

    def test_a_second_generate_reads_the_memo(
        self, database, knowledge, executions
    ):
        pipeline = GenEditPipeline(database, knowledge)
        first = pipeline.generate(QUESTION)
        assert executions == [first.sql]
        assert list(database.memo("execution")) == [first.sql]
        for _ in range(2):
            del executions[:]
            assert pipeline.generate(QUESTION).success
            assert executions == []

    def test_version_bump_on_the_answer_path_executes_again(
        self, database, knowledge, executions, monkeypatch
    ):
        from repro.pipeline.correction import SelfCorrectionOperator

        original = SelfCorrectionOperator.run

        def run_then_insert(operator, context):
            original(operator, context)
            table = context.database.tables[0]
            table.insert(table.rows[0])
            return context

        monkeypatch.setattr(SelfCorrectionOperator, "run", run_then_insert)
        pipeline = GenEditPipeline(database, knowledge)
        result = pipeline.answer(QUESTION)
        assert result.success and not result.memo_hit
        assert executions == [result.sql, result.sql]
        # Only the final check's outcome, stored at the new version.
        assert list(database.memo("execution")) == [result.sql]
