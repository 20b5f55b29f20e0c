"""Pipeline operator and end-to-end generation tests."""

import pytest

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
        ("decomposition", "use_decomposition"),
    ])
    def test_without(self, name, flag):
        config = DEFAULT_CONFIG.without(name)
        assert getattr(config, flag) is False
        assert getattr(DEFAULT_CONFIG, flag) is True  # original untouched

    def test_without_unknown_raises(self):
        with pytest.raises(ValueError):
            DEFAULT_CONFIG.without("nonsense")


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
