"""Pipeline operator and end-to-end generation tests."""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
import repro.pipeline.config
from repro.bench.metrics import execution_match
from repro.pipeline import (
    DEFAULT_CONFIG,
    GenEditPipeline,
    PipelineConfig,
)
from repro.pipeline.planning import build_plan_steps
from repro.pipeline.spec import (
    MetricSpec,
    OrderSpec,
    QuerySpec,
    RatioDeltaSpec,
    SHAPE_RATIO_DELTA_RANK,
)


class TestConfig:
    def test_defaults(self):
        assert DEFAULT_CONFIG.use_schema_linking
        assert DEFAULT_CONFIG.max_retries >= 1

    @pytest.mark.parametrize("name,flag", [
        ("schema_linking", "use_schema_linking"),
        ("instructions", "use_instructions"),
        ("examples", "use_examples"),
        ("pseudo_sql", "use_pseudo_sql"),
    ])
    def test_without(self, name, flag):
        config = DEFAULT_CONFIG.without(name)
        assert getattr(config, flag) is False
        assert getattr(DEFAULT_CONFIG, flag) is True  # original untouched

    # Table 2's decomposition row swaps knowledge sets, not the config.
    @pytest.mark.parametrize("name", ["nonsense", "decomposition"])
    def test_without_unknown_raises(self, name):
        with pytest.raises(ValueError):
            DEFAULT_CONFIG.without(name)

    def test_every_field_is_read(self):
        """A config field no module reads is a switch that does nothing."""
        config_path = Path(repro.pipeline.config.__file__).resolve()
        read = set()
        for path in Path(repro.__file__).resolve().parent.rglob("*.py"):
            if path == config_path:
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            read.update(
                node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
            )
        unread = [
            field.name for field in dataclasses.fields(PipelineConfig)
            if field.name not in read
        ]
        assert unread == []


class TestPlanSteps:
    def test_standard_plan_mentions_table_and_metric(self):
        spec = QuerySpec(
            database="d", base_table="EMP",
            metrics=(MetricSpec("SUM", column="SALARY"),),
        )
        steps = build_plan_steps(spec)
        text = "\n".join(step.render() for step in steps)
        assert "EMP" in text and "SUM(SALARY)" in text

    def test_pseudo_sql_toggle(self):
        spec = QuerySpec(
            database="d", base_table="EMP",
            metrics=(MetricSpec("SUM", column="SALARY"),),
        )
        with_pseudo = build_plan_steps(spec, use_pseudo_sql=True)
        without = build_plan_steps(spec, use_pseudo_sql=False)
        assert any(step.pseudo_sql for step in with_pseudo)
        assert not any(step.pseudo_sql for step in without)

    def test_pseudo_sql_wrapped_in_dots(self):
        spec = QuerySpec(
            database="d", base_table="EMP",
            metrics=(MetricSpec("COUNT"),),
        )
        steps = [s for s in build_plan_steps(spec) if s.pseudo_sql]
        assert all(
            step.pseudo_sql.startswith("... ") and step.pseudo_sql.endswith(" ...")
            for step in steps
        )

    def test_ratio_plan_has_pivot_and_rank_steps(self):
        spec = QuerySpec(
            database="d", base_table="F",
            shape=SHAPE_RATIO_DELTA_RANK,
            ratio_delta=RatioDeltaSpec(
                entity_column="ORG", numerator_table="F",
                numerator_date_column="M", numerator_value_column="R",
                year=2023, quarter=2,
                denominator_table="V", denominator_date_column="M2",
                denominator_value_column="W", negate=True,
            ),
        )
        text = "\n".join(step.render() for step in build_plan_steps(spec))
        assert "Pivot" in text
        assert "-1 multiplier" in text
        assert "ROW_NUMBER" in text

    def test_order_step_describes_limit(self):
        spec = QuerySpec(
            database="d", base_table="T",
            projection=("G",),
            metrics=(MetricSpec("SUM", column="X"),),
            group_by=("G",),
            order=OrderSpec(metric_index=0, descending=True, limit=5),
        )
        text = "\n".join(step.description for step in build_plan_steps(spec))
        assert "first 5" in text


class TestEndToEnd:
    def test_simple_generation_succeeds(self, sports_pipeline):
        result = sports_pipeline.generate(
            "How many sports organisations are in Canada?"
        )
        assert result.success
        gold = (
            "SELECT COUNT(*) FROM SPORTS_ORGS WHERE COUNTRY = 'Canada'"
        )
        assert execution_match(
            sports_pipeline.database, result.sql, gold
        )

    def test_trace_names_every_operator(self, sports_pipeline):
        result = sports_pipeline.generate("What is the total revenue?")
        operators = {event.operator for event in result.trace}
        assert {
            "reformulate", "classify_intents", "select_examples",
            "select_instructions", "link_schema", "plan", "generate_sql",
        } <= operators
        # The trace is read from the span tree: every event belongs to a
        # finished span of this run's tracer.
        span_events = [
            event
            for span in result.context.tracer.finished_spans()
            for event in span.events
        ]
        assert result.trace
        assert all(
            any(event is owned for owned in span_events)
            for event in result.trace
        )

    def test_plan_carries_spec_and_issues(self, sports_pipeline):
        result = sports_pipeline.generate("What is the total gibberish?")
        assert result.plan is not None
        assert result.plan.issues  # unresolved metric recorded

    def test_cost_and_latency_accounted(self, sports_pipeline):
        result = sports_pipeline.generate("What is the total revenue?")
        assert result.cost_usd > 0
        assert result.latency_ms > 0

    def test_two_model_calls_plus_retrieval(self, sports_pipeline):
        result = sports_pipeline.generate("What is the total revenue?")
        operators = [call.operator for call in result.context.meter.calls]
        assert "plan" in operators and "generate_sql" in operators

    def test_schema_linking_uses_mini_model(self, sports_pipeline):
        result = sports_pipeline.generate("What is the total revenue?")
        linking_calls = [
            call for call in result.context.meter.calls
            if call.operator == "link_schema"
        ]
        assert linking_calls[0].model == "gpt-4o-mini"

    def test_qoqfp_flagship_query(self, sports_pipeline):
        result = sports_pipeline.generate(
            "Identify our 5 sports organisations with the best and worst "
            "QoQFP in Canada for Q2 2023"
        )
        assert result.success
        assert "WITH" in result.sql
        assert "NULLIF" in result.sql
        assert "-1 *" in result.sql
        assert "WORST_RANK" in result.sql

    def test_generated_sql_always_executes_or_flags(self, sports_pipeline):
        for question in [
            "What is the average expenses in 2023?",
            "Show me the top 3 leagues by total arena capacity",
            "How many sponsorship deals are there?",
        ]:
            result = sports_pipeline.generate(question)
            if result.success:
                sports_pipeline.execute(result.sql)
            else:
                assert result.error

    def test_ablation_configs_still_generate(self, experiment_context):
        profile = experiment_context.profiles["sports_holdings"]
        knowledge = experiment_context.knowledge_sets["sports_holdings"]
        for component in (
            "schema_linking", "instructions", "examples", "pseudo_sql"
        ):
            pipeline = GenEditPipeline(
                profile.database, knowledge,
                config=DEFAULT_CONFIG.without(component),
            )
            result = pipeline.generate("What is the total revenue?")
            assert result.sql

    def test_intent_disabled_pipeline(self, experiment_context):
        profile = experiment_context.profiles["sports_holdings"]
        knowledge = experiment_context.knowledge_sets["sports_holdings"]
        pipeline = GenEditPipeline(
            profile.database, knowledge,
            config=PipelineConfig(use_intent_classification=False),
        )
        result = pipeline.generate("How many sports organisations are there?")
        assert result.success



def golden_generations(profiles, knowledge_sets, golden):
    """``[database, question, sql, operator digests]`` per golden query.

    ``golden`` maps each database name to its golden questions.
    """
    generated = []
    for name in sorted(golden):
        pipeline = GenEditPipeline(
            profiles[name].database, knowledge_sets[name]
        )
        for question in golden[name]:
            result = pipeline.generate(question)
            generated.append([
                name, question, result.sql,
                [list(pair) for pair in result.operator_digests],
            ])
    return generated


def rebuilt_knowledge(name, components):
    """A fresh set holding ``components`` in their recorded order."""
    from repro.knowledge import KnowledgeSet

    knowledge = KnowledgeSet(name)
    adders = (knowledge.add_intent, knowledge.add_example,
              knowledge.add_instruction, knowledge.add_schema_element)
    for add, items in zip(adders, components):
        for item in items:
            add(item)
    return knowledge


def _recorded_components(knowledge):
    """Each component kind in insertion order, as fresh field-only copies.

    ``dataclasses.replace`` drops attributes cached on a live component
    (``SchemaElement._link_signature``), so the fresh process derives them.
    """
    import dataclasses

    return [
        [dataclasses.replace(component) for component in held.values()]
        for held in (knowledge._intents, knowledge._examples,
                     knowledge._instructions, knowledge._schema_elements)
    ]


_FRESH_PROCESS = """
import json, pickle, sys
from repro.bench.harness import ExperimentContext
from tests.test_pipeline import golden_generations, rebuilt_knowledge
generated = []
for seed, sets, golden in pickle.load(open(sys.argv[1], "rb")):
    knowledge_sets = {
        name: rebuilt_knowledge(*recorded) for name, recorded in sets.items()
    }
    generated.append(golden_generations(
        ExperimentContext(seed).profiles, knowledge_sets, golden
    ))
print(json.dumps(generated))
"""


class TestGenerationPurity:
    """Generation is a function of its inputs, not of process history.

    The regression memo (``repro.feedback.regression``) reuses a golden
    query's outcome across submits, keyed on the knowledge set's revision,
    the database version and the config. That is sound only if
    process-wide memos (DESIGN.md §6d) never leak into what ``generate``
    returns.
    """

    def test_golden_queries_match_a_fresh_process(
        self, experiment_context, tmp_path
    ):
        import json
        import os
        import pathlib
        import pickle
        import subprocess
        import sys

        from repro.bench.feedback_sim import simulate_feedback_sessions
        from repro.bench.harness import ExperimentContext

        # Warm the process-wide memos on other seeds first.
        simulate_feedback_sessions(seed=8, limit=5)
        ExperimentContext(9).knowledge_sets
        payload = []
        warm = []
        for context in (experiment_context, ExperimentContext(41)):
            live = {
                name: knowledge.clone()
                for name, knowledge in context.knowledge_sets.items()
            }
            golden = {
                name: [entry.question
                       for entry in context.workload.training_logs[name][:3]]
                for name in live
            }
            payload.append((
                context.seed,
                {name: (knowledge.name, _recorded_components(knowledge))
                 for name, knowledge in live.items()},
                golden,
            ))
            warm.append(golden_generations(context.profiles, live, golden))
        inputs = tmp_path / "inputs.pickle"
        inputs.write_bytes(pickle.dumps(payload))
        root = pathlib.Path(__file__).parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")])
        )
        fresh = subprocess.run(
            [sys.executable, "-c", _FRESH_PROCESS, str(inputs)],
            cwd=root, env=env, capture_output=True, text=True, check=True,
        )
        assert [seed for seed, _sets, _golden in payload] == [7, 41]
        assert [len(generated) for generated in warm] == [18, 18]
        assert warm == json.loads(fresh.stdout)


class TestFinalCheck:
    """The final check reads the outcome the database's execution memo
    holds for its SQL on the current version, and executes when the
    version moved or an injector is armed."""

    QUESTION = "How many sports organisations are in Canada?"

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
    def pipeline(self, experiment_context):
        # A database of its own, so a test that inserts rows changes no
        # other test's data: ``build_all`` shares its databases.
        from repro.bench import schemas

        database = schemas._BUILDERS["sports_holdings"](
            experiment_context.seed
        ).database
        knowledge = experiment_context.knowledge_sets["sports_holdings"]
        return GenEditPipeline(database, knowledge)

    def test_clean_question_executes_once(self, pipeline, executions):
        result = pipeline.generate(self.QUESTION)
        assert result.success and not result.context.attempts
        assert executions == [result.sql]
        check = [
            record for record in result.trace_records()
            if record["name"] == "final_check"
        ]
        assert check and check[0]["attributes"]["success"] is True

    def test_armed_injector_executes_again(self, pipeline, executions):
        from repro.resilience import FaultConfig

        pipeline.enable_faults(FaultConfig(rate=0.0, seed=7))
        result = pipeline.generate(self.QUESTION)
        assert result.success
        assert executions == [result.sql, result.sql]

    def test_version_bump_executes_again(
        self, pipeline, executions, monkeypatch
    ):
        from repro.pipeline.correction import SelfCorrectionOperator

        original = SelfCorrectionOperator.run

        def run_then_insert(operator, context):
            original(operator, context)
            table = context.database.tables[0]
            table.insert(table.rows[0])
            return context

        monkeypatch.setattr(SelfCorrectionOperator, "run", run_then_insert)
        result = pipeline.generate(self.QUESTION)
        assert result.success
        assert executions == [result.sql, result.sql]

    def test_degraded_self_correct_reads_the_memo(
        self, pipeline, executions, monkeypatch
    ):
        from repro.pipeline.correction import SelfCorrectionOperator

        original = SelfCorrectionOperator.run

        def run_then_fail(operator, context):
            original(operator, context)
            raise RuntimeError("boom")

        monkeypatch.setattr(SelfCorrectionOperator, "run", run_then_fail)
        result = pipeline.generate(self.QUESTION)
        assert result.degraded_operators == ("self_correct",)
        assert result.success
        # Self-correction executed the SQL before it failed.
        assert executions == [result.sql]

    def test_erroring_final_sql_is_not_executed_again(
        self, pipeline, executions, monkeypatch
    ):
        from repro.pipeline.generation import GenerationOperator

        erroring = "SELECT CAST('abc' AS INTEGER) FROM SPORTS_ORGS"

        def generate_erroring(operator, context):
            context.sql = erroring
            context.candidates = [erroring]
            return context

        monkeypatch.setattr(GenerationOperator, "run", generate_erroring)
        result = pipeline.generate(self.QUESTION)
        assert not result.success
        assert executions == [erroring]
        assert result.context.attempts == [(erroring, result.error)]
        assert "Cannot cast" in result.error


class TestOperatorDigest:
    def test_component_repr_is_built_only_without_an_id(self):
        from types import SimpleNamespace

        from repro.pipeline.base import operator_output_digest

        class Unprintable:
            def __init__(self, **ids):
                self.__dict__.update(ids)

            def __repr__(self):
                raise AssertionError("repr built for a component with an id")

        def digests(examples, instructions, elements):
            context = SimpleNamespace(
                examples=examples, instructions=instructions,
                schema_elements=elements,
            )
            return [
                operator_output_digest(name, context)
                for name in (
                    "select_examples", "select_instructions", "link_schema"
                )
            ]

        assert digests(
            [Unprintable(example_id="e1")],
            [Unprintable(instruction_id="i1")],
            [Unprintable(element_id="s1")],
        ) == digests(
            [SimpleNamespace(example_id="e1")],
            [SimpleNamespace(instruction_id="i1")],
            [SimpleNamespace(element_id="s1")],
        )
        # A component without its id still digests by its repr.
        assert digests(["x"], [], []) != digests(["y"], [], [])


class TestRollupLlmColumns:
    def test_rollup_sums_equal_the_meter(self, experiment_context):
        # Each LLM call is counted once, on the span that made it: the
        # columns summed over every span name are the meter's totals.
        from repro.obs.render import rollup_spans

        question = experiment_context.workload.questions[0]
        result = GenEditPipeline(
            experiment_context.profiles[question.database].database,
            experiment_context.knowledge_sets[question.database],
        ).generate(question.question)
        calls = result.context.meter.calls
        assert calls
        rollup = rollup_spans(result.trace_records())

        def column(key):
            return sum(entry[key] for entry in rollup.values())

        assert column("llm_calls") == len(calls)
        assert column("input_tokens") == sum(
            call.input_tokens for call in calls
        )
        assert column("output_tokens") == sum(
            call.output_tokens for call in calls
        )
        assert column("cost_usd") == pytest.approx(
            result.context.meter.total_cost_usd, rel=1e-12
        )
        assert rollup["generate"]["cost_usd"] == 0.0
