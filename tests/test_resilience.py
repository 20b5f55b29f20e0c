"""The resilience layer: retries and backoff, fault injection, and
graceful pipeline degradation (DESIGN.md §6c)."""

import pytest

from repro.llm.simulated import SimulatedLLM
from repro.obs.metrics import get_metrics
from repro.resilience import (
    FatalLLMError,
    FaultConfig,
    FaultInjector,
    FaultyExecutor,
    InjectedExecutionError,
    LLMTimeoutError,
    ResilientLLM,
    RetriesExhaustedError,
    TransientLLMError,
    classify_error,
    stable_unit,
)
from repro.resilience.policy import FATAL, RETRYABLE, backoff_ms


class TestClassification:
    def test_transient_is_retryable(self):
        assert classify_error(TransientLLMError("x")) == RETRYABLE
        assert classify_error(LLMTimeoutError("x")) == RETRYABLE
        assert classify_error(TimeoutError("x")) == RETRYABLE
        assert classify_error(ConnectionResetError("x")) == RETRYABLE

    def test_fatal_and_unknown(self):
        assert classify_error(FatalLLMError("x")) == FATAL
        assert classify_error(ValueError("x")) == FATAL


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        # 50 ms doubling, plus up to 25% jitter, capped at 2 s raw.
        for attempt, raw in ((1, 50.0), (2, 100.0), (3, 200.0),
                             (7, 2000.0), (12, 2000.0)):
            assert raw <= backoff_ms(attempt, "site") < raw * 1.25

    def test_jitter_is_deterministic_and_bounded(self):
        first = backoff_ms(1, "site")
        assert first == backoff_ms(1, "site")  # seeded, stable
        assert 50 <= first <= 62.5
        # Different sites / attempts decorrelate.
        assert first != backoff_ms(1, "other")

    def test_stable_unit_range(self):
        values = [stable_unit(7, "a", n) for n in range(200)]
        assert all(0.0 <= value < 1.0 for value in values)
        assert values == [stable_unit(7, "a", n) for n in range(200)]


class _FlakyLLM:
    """Fails ``failures`` times per site, then succeeds."""

    model = "gpt-4o"

    def __init__(self, failures, error=TransientLLMError):
        self.failures = failures
        self.error = error
        self.calls = 0

    def reformulate(self, question, meter=None):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error(f"flaky call {self.calls}")
        return f"Show me {question}"


class TestResilientLLM:
    def test_transparent_on_success(self):
        llm = ResilientLLM(SimulatedLLM())
        assert llm.reformulate("How many teams are there?") == \
            SimulatedLLM().reformulate("How many teams are there?")
        assert llm.model.name == "gpt-4o"      # attribute passthrough

    def test_retries_then_recovers(self):
        metrics = get_metrics()
        before = metrics.counter_value(
            "resilience.recoveries", operator="reformulate"
        )
        inner = _FlakyLLM(failures=2)
        llm = ResilientLLM(inner)
        assert llm.reformulate("q") == "Show me q"
        assert inner.calls == 3
        after = metrics.counter_value(
            "resilience.recoveries", operator="reformulate"
        )
        assert after == before + 1

    def test_exhausts_into_retries_exhausted(self):
        inner = _FlakyLLM(failures=99)
        llm = ResilientLLM(inner)
        with pytest.raises(RetriesExhaustedError) as excinfo:
            llm.reformulate("q")
        assert inner.calls == 3
        assert excinfo.value.site == "reformulate"
        assert isinstance(excinfo.value.last_error, TransientLLMError)

    def test_fatal_error_not_retried(self):
        inner = _FlakyLLM(failures=99, error=FatalLLMError)
        llm = ResilientLLM(inner)
        with pytest.raises(FatalLLMError):
            llm.reformulate("q")
        assert inner.calls == 1


class TestFaultInjector:
    def test_rate_zero_never_faults(self):
        injector = FaultInjector(FaultConfig(rate=0.0, seed=1), scope="db")
        assert all(injector.decide("site") is None for _ in range(50))

    def test_rate_one_always_faults(self):
        injector = FaultInjector(FaultConfig(rate=1.0, seed=1), scope="db")
        assert all(injector.decide("site") is not None for _ in range(50))

    def test_decisions_are_deterministic(self):
        config = FaultConfig(rate=0.3, seed=7)
        first = [
            FaultInjector(config, scope="db").decide("s") for _ in range(1)
        ]
        one = FaultInjector(config, scope="db")
        two = FaultInjector(config, scope="db")
        assert [one.decide("s") for _ in range(100)] == \
            [two.decide("s") for _ in range(100)]
        other_scope = FaultInjector(config, scope="other")
        assert [one.decide("s") for _ in range(100)] != \
            [other_scope.decide("s") for _ in range(100)]
        del first

    def test_parse_flag_forms(self):
        assert FaultConfig.parse("0.2:7") == FaultConfig(rate=0.2, seed=7)
        assert FaultConfig.parse("0.3").rate == 0.3
        assert FaultConfig.parse("0.3").seed == 0
        with pytest.raises(ValueError):
            FaultConfig.parse("lots")
        with pytest.raises(ValueError):
            FaultConfig(rate=1.5)

    def test_kind_partition_covers_band(self):
        config = FaultConfig(rate=1.0, seed=0)
        kinds = {
            config.kind_for(unit / 100.0) for unit in range(100)
        }
        assert kinds == {"error", "timeout", "garble", "latency"}

    def test_garble_shapes(self):
        injector = FaultInjector(FaultConfig(rate=1.0), scope="db")
        garbled = injector.garble("Show me all the teams in the league")
        assert garbled.endswith("##TRUNCATED##")
        assert len(injector.garble([1, 2, 3, 4])) == 2
        parsed, candidates = injector.garble(("p", [1, 2, 3]))
        assert parsed == "p" and candidates == [1]
        assert injector.garble(42) == 42

    def test_faulty_llm_injects_transient(self):
        config = FaultConfig(rate=0.5, seed=7)
        # Precondition: at this seed the first reformulate call is an
        # injected transient error and the second is clean.
        probe = FaultInjector(config, scope="db")
        assert [probe.decide("reformulate") for _ in range(2)] == \
            ["error", None]
        metrics = get_metrics()
        before = metrics.counter_value(
            "resilience.retries", operator="reformulate"
        )
        injector = FaultInjector(config, scope="db")
        llm = ResilientLLM(SimulatedLLM(), injector=injector)
        assert llm.reformulate("How many teams are there?") == \
            SimulatedLLM().reformulate("How many teams are there?")
        assert injector.injected == {"error": 1}
        assert metrics.counter_value(
            "resilience.retries", operator="reformulate"
        ) == before + 1

    def test_faulty_executor_raises_execution_error(self, demo_db):
        from repro.engine.errors import ExecutionError
        from repro.engine.executor import Executor

        config = FaultConfig(rate=1.0, seed=1)
        # Precondition: the first execute decision at this seed raises.
        assert FaultInjector(config, scope="db").decide("execute") == "error"
        executor = FaultyExecutor(
            Executor(demo_db), FaultInjector(config, scope="db")
        )
        with pytest.raises(InjectedExecutionError):
            executor.execute("SELECT * FROM DEPT")
        assert issubclass(InjectedExecutionError, ExecutionError)

    def test_faulty_executor_passthrough_without_faults(self, demo_db):
        from repro.engine.executor import Executor

        executor = FaultyExecutor(
            Executor(demo_db),
            FaultInjector(FaultConfig(rate=0.0), scope="db"),
        )
        assert len(executor.execute("SELECT * FROM DEPT").rows) == 3


class TestPinnedChaos:
    """Fault decisions and backoff pinned to literal values, so a chaos
    run replays the same faults and retries across refactors, not only
    across two runs of one build."""

    #: The first 200 decisions of ``FaultConfig(0.2, 7)`` scoped to
    #: ``sports_holdings``: ``.`` none, ``E`` error, ``T`` timeout,
    #: ``G`` garble, ``L`` latency.
    DECISIONS = {
        "understand": (
            "E...........E.....G...E.....G............EET...E.T........E"
            ".....L.......L.TET.......E......E......T..........G..TE...."
            "E.......EGT.TL.GE......E.LE......G.E........EG.....T.....ET"
            "...E...E..E.E.E........"
        ),
        "execute": (
            ".............E........E......T..........T.E.LEE....G.G...."
            "G....T.E......TT.G.E...G......L..T.E.G..E.G.EL...........TE"
            "......E...............E......EL.T.....EE.LL..T....EEELE...."
            "E....E......LG.G..L.L.TG"
        ),
    }
    CODES = {None: ".", "error": "E", "timeout": "T", "garble": "G",
             "latency": "L"}

    #: ``backoff_ms(attempt, site)`` for attempts 1-3.
    BACKOFF = {
        "reformulate": (52.51986031469222, 116.44263578863607,
                        235.72399792966513),
        "classify_intents": (60.566345954310115, 102.61398999212247,
                             216.93363413809286),
        "link_schema": (58.89437577425846, 100.73538201395623,
                        209.4179646149394),
        "understand": (52.649368409086065, 102.88421386539815,
                       204.6475689240827),
    }

    @pytest.mark.parametrize("site", ["understand", "execute"])
    def test_first_200_decisions(self, site):
        injector = FaultInjector(FaultConfig(0.2, 7), scope="sports_holdings")
        decided = "".join(
            self.CODES[injector.decide(site)] for _ in range(200)
        )
        assert decided == self.DECISIONS[site]

    def test_backoff_values(self):
        for site, expected in self.BACKOFF.items():
            assert tuple(
                backoff_ms(attempt, site) for attempt in (1, 2, 3)
            ) == expected


class _RaisingLLM(SimulatedLLM):
    """A simulated LLM whose chosen sites always fail fatally."""

    def __init__(self, broken_sites):
        super().__init__()
        self.broken_sites = set(broken_sites)

    def _maybe_raise(self, site):
        if site in self.broken_sites:
            raise FatalLLMError(f"backend down for {site}")

    def reformulate(self, *args, **kwargs):
        self._maybe_raise("reformulate")
        return super().reformulate(*args, **kwargs)

    def classify_intents(self, *args, **kwargs):
        self._maybe_raise("classify_intents")
        return super().classify_intents(*args, **kwargs)

    def link_schema(self, *args, **kwargs):
        self._maybe_raise("link_schema")
        return super().link_schema(*args, **kwargs)

    def understand(self, *args, **kwargs):
        self._maybe_raise("understand")
        return super().understand(*args, **kwargs)


class TestPipelineDegradation:
    def _pipeline(self, experiment_context, llm):
        from repro.pipeline import GenEditPipeline

        profile = experiment_context.profiles["sports_holdings"]
        knowledge = experiment_context.knowledge_sets["sports_holdings"]
        return GenEditPipeline(profile.database, knowledge, llm=llm)

    def test_optional_operator_fails_soft(self, experiment_context):
        pipeline = self._pipeline(
            experiment_context, _RaisingLLM({"reformulate"})
        )
        result = pipeline.generate("How many teams are there?")
        assert result.degraded_operators == ("reformulate",)
        assert result.failed_operator == ""
        # Raw question flowed through; the rest of the pipeline still ran.
        assert result.context.reformulated == "How many teams are there?"
        assert result.sql
        assert result.success

    def test_degradation_recorded_on_span_and_metrics(
        self, experiment_context
    ):
        metrics = get_metrics()
        before = metrics.counter_value(
            "pipeline.operator_degraded", operator="classify_intents"
        )
        pipeline = self._pipeline(
            experiment_context, _RaisingLLM({"classify_intents"})
        )
        result = pipeline.generate("How many teams are there?")
        assert result.context.intent_ids == []
        spans = [
            record for record in result.trace_records()
            if record["name"] == "classify_intents"
        ]
        assert spans and spans[0]["attributes"]["degraded"] is True
        assert "FatalLLMError" in spans[0]["attributes"]["degraded_reason"]
        assert metrics.counter_value(
            "pipeline.operator_degraded", operator="classify_intents"
        ) == before + 1
        root = [
            record for record in result.trace_records()
            if record["parent_id"] is None
        ][0]
        assert root["attributes"]["degraded"] == "classify_intents"

    def test_required_operator_fails_run_without_exception(
        self, experiment_context
    ):
        metrics = get_metrics()
        before = metrics.counter_value(
            "pipeline.failed_runs", operator="plan"
        )
        pipeline = self._pipeline(
            experiment_context, _RaisingLLM({"understand"})
        )
        result = pipeline.generate("How many teams are there?")
        assert not result.success
        assert result.failed_operator == "plan"
        assert "FatalLLMError" in result.error
        assert metrics.counter_value(
            "pipeline.failed_runs", operator="plan"
        ) == before + 1
        spans = {
            record["name"]: record for record in result.trace_records()
        }
        assert spans["plan"]["status"] == "error"
        # The pipeline stopped: generation never ran.
        assert "generate_sql" not in spans

    def test_retries_exhausted_degrades_optional(self, experiment_context):
        class _Transient(_RaisingLLM):
            def _maybe_raise(self, site):
                if site in self.broken_sites:
                    raise TransientLLMError(f"flaky {site}")

        from repro.pipeline import GenEditPipeline

        profile = experiment_context.profiles["sports_holdings"]
        knowledge = experiment_context.knowledge_sets["sports_holdings"]
        pipeline = GenEditPipeline(
            profile.database, knowledge,
            llm=_Transient({"classify_intents"}),
        )
        result = pipeline.generate("How many teams are there?")
        assert result.degraded_operators == ("classify_intents",)
        reason = dict(result.context.degraded_operators)["classify_intents"]
        assert "RetriesExhaustedError" in reason
        assert result.success

    def test_enable_faults_keeps_generate_exception_free(
        self, experiment_context
    ):
        from repro.pipeline import GenEditPipeline

        profile = experiment_context.profiles["sports_holdings"]
        knowledge = experiment_context.knowledge_sets["sports_holdings"]
        pipeline = GenEditPipeline(profile.database, knowledge)
        injector = pipeline.enable_faults(FaultConfig(rate=0.6, seed=11))
        questions = [
            entry.question
            for entry in experiment_context.workload.questions
            if entry.database == "sports_holdings"
        ][:8]
        for question in questions:
            result = pipeline.generate(question)   # must never raise
            assert result.question == question
        assert sum(injector.injected.values()) > 0


class TestChaosEvaluation:
    """The acceptance-criteria pair: equivalence at rate 0, completion
    under faults."""

    def _subset(self, experiment_context, per_db=4):
        questions = []
        seen = {}
        for question in experiment_context.workload.questions:
            if seen.get(question.database, 0) < per_db:
                seen[question.database] = seen.get(question.database, 0) + 1
                questions.append(question)
        return questions

    def _run(self, experiment_context, fault_config):
        from repro.bench.harness import evaluate_system
        from repro.pipeline import GenEditPipeline

        return evaluate_system(
            lambda db, ks: GenEditPipeline(db, ks),
            experiment_context.workload,
            experiment_context.profiles,
            experiment_context.knowledge_sets,
            "chaos",
            questions=self._subset(experiment_context),
            fault_config=fault_config,
        )

    def test_rate_zero_is_equivalent_to_no_faults(self, experiment_context):
        clean = self._run(experiment_context, None)
        zero = self._run(experiment_context, FaultConfig(rate=0.0, seed=7))
        assert [o.correct for o in zero.outcomes] == \
            [o.correct for o in clean.outcomes]
        assert [o.predicted_sql for o in zero.outcomes] == \
            [o.predicted_sql for o in clean.outcomes]

    def test_chaos_run_completes_with_populated_errors(
        self, experiment_context
    ):
        metrics = get_metrics()
        retries_before = sum(
            value
            for key, value in metrics.snapshot()["counters"].items()
            if key.startswith("resilience.retries")
        )
        questions = self._subset(experiment_context)
        report = self._run(
            experiment_context, FaultConfig(rate=0.5, seed=7)
        )
        assert len(report.outcomes) == len(questions)
        assert [o.question_id for o in report.outcomes] == \
            [q.question_id for q in questions]          # workload order
        for outcome in report.outcomes:
            assert outcome.correct or outcome.error     # never silent
        snapshot = metrics.snapshot()["counters"]
        retries_after = sum(
            value for key, value in snapshot.items()
            if key.startswith("resilience.retries")
        )
        assert retries_after > retries_before
        assert any(
            key.startswith("faults.injected") for key in snapshot
        )

    def test_chaos_is_deterministic(self, experiment_context):
        config = FaultConfig(rate=0.4, seed=13)
        first = self._run(experiment_context, config)
        second = self._run(experiment_context, config)
        assert [o.correct for o in first.outcomes] == \
            [o.correct for o in second.outcomes]
        assert [o.predicted_sql for o in first.outcomes] == \
            [o.predicted_sql for o in second.outcomes]
        assert [o.error for o in first.outcomes] == \
            [o.error for o in second.outcomes]


class TestSelfCorrectionSatellites:
    def test_queue_dedupes_duplicate_candidates(self, demo_db, monkeypatch):
        """Duplicate candidates must not burn retry budget."""
        from repro.engine.executor import Executor
        from repro.pipeline.base import PipelineContext
        from repro.pipeline.config import DEFAULT_CONFIG
        from repro.pipeline.correction import SelfCorrectionOperator

        # ``demo_db`` is the test's own, so its execution memo starts
        # empty and every statement it runs reaches the engine.
        executed = []
        original = Executor.execute

        def counting(executor, sql):
            executed.append(sql)
            return original(executor, sql)

        monkeypatch.setattr(Executor, "execute", counting)
        failing = "SELECT SUM(COUNT(*)) FROM EMP"   # lints clean, fails
        clean = "SELECT COUNT(*) FROM EMP"
        context = PipelineContext(
            question="q", database=demo_db, knowledge=None,
            config=DEFAULT_CONFIG,
        )
        # The duplicates: chosen SQL repeated in candidates, twice.
        context.candidates = [failing, failing, failing, clean]
        context.sql = failing
        context = SelfCorrectionOperator().run(context)
        assert context.sql == clean
        assert executed == [failing, clean]         # each distinct SQL once
        assert context.execution_caught == 1

    def test_regeneration_records_configured_model(self, demo_db):
        from repro.llm.interface import GPT_4O_MINI
        from repro.pipeline.base import PipelineContext
        from repro.pipeline.config import DEFAULT_CONFIG
        from repro.pipeline.correction import SelfCorrectionOperator

        llm = SimulatedLLM(model=GPT_4O_MINI)
        context = PipelineContext(
            question="q", database=demo_db, knowledge=None,
            config=DEFAULT_CONFIG,
        )
        context.candidates = ["SELECT SUM(COUNT(*)) FROM EMP",
                              "SELECT COUNT(*) FROM EMP"]
        context.sql = context.candidates[0]
        SelfCorrectionOperator(llm).run(context)
        regen = [
            call for call in context.meter.calls
            if call.operator == "self_correct"
        ]
        assert regen and all(
            call.model == "gpt-4o-mini" for call in regen
        )

    def test_pipeline_threads_model_through_correction(
        self, experiment_context
    ):
        from repro.llm.interface import GPT_4O_MINI
        from repro.pipeline import GenEditPipeline

        profile = experiment_context.profiles["sports_holdings"]
        knowledge = experiment_context.knowledge_sets["sports_holdings"]
        pipeline = GenEditPipeline(
            profile.database, knowledge,
            llm=SimulatedLLM(model=GPT_4O_MINI),
        )
        result = pipeline.generate("How many teams are there?")
        models = {
            call.model for call in result.context.meter.calls
            if call.operator in ("self_correct", "generate_sql")
        }
        assert models <= {"gpt-4o-mini"}
