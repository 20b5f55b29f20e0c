"""Experiment harness: run systems over workloads and print paper tables.

``python -m repro.bench.harness table1|table2|crossover|feedback|all``
regenerates the corresponding experiment from the paper (see DESIGN.md's
per-experiment index); no target runs ``all``. Its argv is parsed by the
``repro bench`` parser, so an unknown target or option exits 2. The
harness is also the library API the benchmark suite under ``benchmarks/``
calls into.

Evaluation runs on a fast path: :func:`~repro.bench.metrics.execution_match`
memoizes gold result sets on each database (``database.memo("comparable")``),
so all systems and experiments of an :class:`ExperimentContext` share
them. :func:`evaluate_system` runs the workload on the calling thread,
one database group after another, and reports outcomes in workload
order. The ``profile`` target, with ``--json`` for machine-readable
output, prints a span-derived profile: the measured wall clock, its
stages, and each operator's self time. Below span level, ``python -m
cProfile -o run.prof -m repro bench table1`` (or any other target)
profiles every pipeline call.

Observability: every pipeline run is traced (see :mod:`repro.obs`).
``--trace-out PATH`` exports each question's span tree plus a final
metrics-snapshot record as JSONL — in workload order, without touching
stdout, so the printed tables stay byte-identical — for ``python -m repro
trace PATH``. ``--metrics`` prints the process-wide registry snapshot
after the experiment.

Resilience: pipeline failures become per-question error outcomes instead of
aborting the experiment, and ``--faults RATE[:SEED]`` injects
seed-deterministic chaos (transient LLM/executor errors, timeouts,
garbled outputs) through every pipeline — ``make chaos-smoke`` proves the
harness completes under a 20% fault rate. See DESIGN.md §6c.

Run ledger: ``--ledger`` (optionally ``--ledger-dir PATH``) persists the
whole invocation as a versioned run record under ``.repro/runs/<run_id>/``
— per-question outcomes with operator output digests, the cost/token
accounting table, and wall-clock span rollups — for ``python -m repro
runs|diff|triage``. The record notice goes to stderr; stdout stays
byte-identical. See DESIGN.md §6d.

Continuous telemetry (DESIGN.md §6g): ``--telemetry-out PATH`` streams
registry snapshots to ``PATH`` *while the experiment runs*, in the
Prometheus text format, refreshed after every finished question-group
through a push :class:`~repro.obs.telemetry.TelemetrySink` (bounded
queue, atomic replace-writes, drops counted). ``--limit N`` truncates
the workload to its first N questions for quick smokes. All notices land on
stderr; the printed tables stay byte-identical.
"""

from __future__ import annotations

import json
import sys
import time

from ..obs.metrics import get_metrics, global_snapshot
from ..obs.render import render_metrics_snapshot, rollup_spans, write_trace
from ..pipeline.config import DEFAULT_CONFIG
from ..pipeline.pipeline import GenEditPipeline
from .bird import build_knowledge_sets, build_workload
from .metrics import EvaluationReport, QuestionOutcome, execution_match
from .schemas import DEFAULT_SEED, build_all

#: Version stamp for the ``profile --json`` payload (see BENCH_baseline.json).
#: v2 added the ``diagnostics`` section (lint_caught / execution_caught),
#: v3 the ``engine`` section, v4 the span-derived ``wall_s``/``operators``.
PROFILE_SCHEMA_VERSION = 4


def evaluate_system(make_pipeline, workload, profiles, knowledge_sets,
                    system_name, questions=None, trace_sink=None,
                    fault_config=None, ledger=None, ledger_meta=None,
                    telemetry=None):
    """Run one system over the workload and return an EvaluationReport.

    ``make_pipeline(database, knowledge)`` builds the system under test for
    one database; it must expose ``generate(question) -> GenerationResult``.

    Questions are grouped by database and the groups run one after
    another on the calling thread, so ``python -m cProfile`` sees every
    pipeline call. Outcomes are reassembled in workload order.

    ``trace_sink`` (a list) receives every question's span records — again
    in workload order — with the root span
    annotated with system/question_id/correct. Collection never touches
    generation, so the report is identical with or without it.

    Resilience (DESIGN.md §6c): an exception — in
    ``pipeline.generate``, in the EX check, or while building the pipeline
    itself — never aborts the experiment. The affected question(s) become
    incorrect outcomes whose ``error`` field carries the rendered
    exception, and the run carries on. ``fault_config`` (a
    :class:`~repro.resilience.FaultConfig`) arms deterministic fault
    injection on every pipeline that supports ``enable_faults`` — each
    database group gets an injector scoped by database name, so chaos runs
    replay identically.

    ``ledger`` (a :class:`~repro.obs.ledger.RunLedger`) persists the run as
    a single-system run record; the assigned run id lands on
    ``report.run_id``. ``ledger_meta`` may carry ``seed``/``config``/
    ``kind`` plus free-form keys stored under the record's ``extra``.

    ``telemetry`` (a :class:`~repro.obs.telemetry.TelemetrySink`) gets a
    registry snapshot pushed after every finished question-group and once
    more when the system completes, so an external scraper watching the
    sink's file sees progress *during* a long run, not only at the end.
    Publishing is non-blocking (a full sink drops the intermediate
    snapshot — harmless, counters are monotone) and never touches
    reports or stdout.
    """
    question_list = list(
        questions if questions is not None else workload.questions
    )
    started = time.perf_counter()
    metrics = get_metrics()
    report = EvaluationReport(system=system_name)
    groups = {}
    for position, question in enumerate(question_list):
        groups.setdefault(question.database, []).append((position, question))

    def error_outcome(question, error):
        metrics.inc("harness.question_errors", system=system_name)
        return QuestionOutcome(
            question_id=question.question_id,
            difficulty=question.difficulty,
            database=question.database,
            correct=False,
            predicted_sql="",
            gold_sql=question.gold_sql,
            features=question.features,
            error=f"{type(error).__name__}: {error}",
            question_text=question.question,
        )

    def run_question(pipeline, profile, question):
        result = pipeline.generate(question.question)
        correct = execution_match(
            profile.database, result.sql, question.gold_sql
        )
        records = None
        if trace_sink is not None:
            records = result.trace_records()
            for record in records:
                if record.get("parent_id") is None:
                    attributes = record.setdefault("attributes", {})
                    attributes["system"] = system_name
                    attributes["question_id"] = question.question_id
                    attributes["correct"] = correct
        return QuestionOutcome.from_result(
            result, correct,
            question_id=question.question_id,
            difficulty=question.difficulty,
            database=question.database,
            gold_sql=question.gold_sql,
            question_text=question.question,
            features=question.features,
        ), records

    def run_group(database_name, items):
        profile = profiles[database_name]
        pipeline = make_pipeline(
            profile.database, knowledge_sets[database_name]
        )
        if (
            fault_config is not None
            and fault_config.rate
            and hasattr(pipeline, "enable_faults")
        ):
            pipeline.enable_faults(fault_config, scope=database_name)
        outcomes = []
        for position, question in items:
            try:
                outcome, records = run_question(pipeline, profile, question)
            except Exception as error:
                # Per-question hardening: gold-SQL assertion errors and any
                # pipeline bug the degradation layer could not absorb.
                outcome, records = error_outcome(question, error), None
            outcomes.append((position, outcome, records))
        return outcomes

    def safe_run_group(database_name, items):
        try:
            return run_group(database_name, items)
        except Exception as error:
            # Group-level hardening: a failing make_pipeline (or profile)
            # marks every question of the group instead of aborting.
            metrics.inc("harness.group_errors", system=system_name)
            return [
                (position, error_outcome(question, error), None)
                for position, question in items
            ]
        finally:
            if telemetry is not None:
                telemetry.publish()

    collected = [
        outcome for database_name, items in groups.items()
        for outcome in safe_run_group(database_name, items)
    ]
    for _position, outcome, records in sorted(
        collected, key=lambda item: item[0]
    ):
        report.add(outcome)
        if trace_sink is not None and records:
            trace_sink.extend(records)
    elapsed = time.perf_counter() - started
    metrics.inc("harness.questions", len(question_list))
    metrics.inc("harness.systems")
    metrics.observe("harness.system_s", elapsed,
                    buckets=(0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0,
                             120.0, 300.0))
    if question_list and elapsed > 0:
        metrics.set_gauge(
            "harness.questions_per_s",
            round(len(question_list) / elapsed, 2),
        )
    if telemetry is not None:
        telemetry.publish()
    if ledger is not None:
        from ..obs.ledger import build_run_record, build_timing

        meta = dict(ledger_meta or {})
        record = build_run_record(
            [report],
            kind=meta.pop("kind", "evaluate"),
            target=system_name,
            seed=meta.pop("seed", None),
            config=meta.pop("config", None),
            knowledge_sets=knowledge_sets,
            faults=fault_config,
            extra=meta or None,
            knowledge_lint=_knowledge_lint_codes(profiles, knowledge_sets),
        )
        report.run_id = ledger.record_run(
            record,
            timing=build_timing(trace_sink or (), wall_s=elapsed),
        )
    return report


def _knowledge_lint_codes(profiles, knowledge_sets):
    """``{set name: {GK code: count}}`` for the ledger's run record.

    Deterministic (rule order and component ids are stable for a given
    seed), so re-recording the same run yields byte-identical records —
    the ledger-smoke invariant.
    """
    from ..knowledge.lint import lint_codes_by_set

    databases = {
        name: profile.database
        for name, profile in (profiles or {}).items()
    }
    return lint_codes_by_set(databases, knowledge_sets or {})


def format_table(title, headers, rows, precision=2):
    """Render an aligned text table.

    Floats are formatted with ``precision`` decimals (one consistent width
    per table); columns whose every cell is numeric are right-aligned so
    magnitudes line up, everything else stays left-aligned.
    """
    def render(cell):
        if isinstance(cell, float):
            return f"{cell:.{precision}f}"
        return str(cell)

    def numeric(cell):
        return isinstance(cell, (int, float)) and not isinstance(cell, bool)

    widths = [len(header) for header in headers]
    right_align = [bool(rows)] * len(headers)
    rendered_rows = []
    for row in rows:
        rendered = [render(cell) for cell in row]
        rendered_rows.append(rendered)
        widths = [max(w, len(cell)) for w, cell in zip(widths, rendered)]
        right_align = [
            aligned and numeric(cell)
            for aligned, cell in zip(right_align, row)
        ]

    def pad(cell, width, column):
        if right_align[column]:
            return cell.rjust(width)
        return cell.ljust(width)

    lines = [title]
    lines.append(
        " | ".join(
            pad(header, width, column)
            for column, (header, width) in enumerate(zip(headers, widths))
        )
    )
    lines.append("-+-".join("-" * width for width in widths))
    for rendered in rendered_rows:
        lines.append(
            " | ".join(
                pad(cell, width, column)
                for column, (cell, width) in enumerate(zip(rendered, widths))
            )
        )
    return "\n".join(lines)


class ExperimentContext:
    """Shared, lazily-built workload + knowledge sets for all experiments.

    Its databases memoize gold result sets, so every experiment run
    against the same context reuses them.
    """

    def __init__(self, seed=DEFAULT_SEED):
        self.seed = seed
        self.trace_sink = None      # set to a list to collect span records
        self.fault_config = None    # set to a FaultConfig to inject chaos
        self.telemetry_sink = None  # set to a TelemetrySink to stream metrics
        self._workload = None
        self._profiles = None
        self._knowledge = None
        self._knowledge_full = None

    @property
    def workload(self):
        if self._workload is None:
            self._workload = build_workload(self.seed)
        return self._workload

    @property
    def profiles(self):
        if self._profiles is None:
            self._profiles = build_all(self.seed)
        return self._profiles

    @property
    def knowledge_sets(self):
        if self._knowledge is None:
            self._knowledge = build_knowledge_sets(self.workload, self.seed)
        return self._knowledge

    def knowledge_sets_full_queries(self):
        """Knowledge sets with *undecomposed* examples (the w/o-decomposition
        regime and the full-query baselines)."""
        if self._knowledge_full is None:
            self._knowledge_full = build_knowledge_sets(
                self.workload, self.seed, decompose=False
            )
        return self._knowledge_full


def run_genedit(context, config=None, questions=None, system_name="GenEdit",
                knowledge_sets=None):
    return evaluate_system(
        lambda database, knowledge: GenEditPipeline(
            database, knowledge, config=config or DEFAULT_CONFIG
        ),
        context.workload,
        context.profiles,
        knowledge_sets or context.knowledge_sets,
        system_name,
        questions=questions,
        trace_sink=context.trace_sink,
        fault_config=context.fault_config,
        telemetry=context.telemetry_sink,
    )


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def table1(context=None, verbose=True):
    """Table 1: GenEdit vs prior systems on the BIRD-like dev sample."""
    from .baselines import BASELINES
    from ..pipeline.pipeline import GenEditPipeline as _Pipeline

    context = context or ExperimentContext()
    reports = []
    for spec in BASELINES:
        knowledge = (
            context.knowledge_sets_full_queries()
            if spec.knowledge == "full"
            else context.knowledge_sets
        )
        reports.append(
            evaluate_system(
                lambda db, ks, cfg=spec.config: _Pipeline(db, ks, config=cfg),
                context.workload,
                context.profiles,
                knowledge,
                spec.name,
                trace_sink=context.trace_sink,
                fault_config=context.fault_config,
                telemetry=context.telemetry_sink,
            )
        )
    reports.append(run_genedit(context))
    reports.sort(key=lambda report: -report.accuracy())
    rows = [
        (report.system, *report.row()) for report in reports
    ]
    table = format_table(
        "Table 1: EX on the BIRD-like dev sample (10% buckets: 93/28/11)",
        ["Method", "Simple", "Moderate", "Challenging", "All"],
        rows,
    )
    if verbose:
        print(table)
    return reports


ABLATIONS = (
    ("w/o Schema Linking", "schema_linking"),
    ("w/o Instructions", "instructions"),
    ("w/o Examples", "examples"),
    ("w/o Pseudo-SQL", "pseudo_sql"),
    ("w/o Decomposition", "decomposition"),
)


def table2(context=None, verbose=True):
    """Table 2: operator ablations."""
    context = context or ExperimentContext()
    full = run_genedit(context)
    reports = [full]
    for label, component in ABLATIONS:
        if component == "decomposition":
            # The decomposition row differs only in its knowledge: the
            # examples keep their full, undecomposed queries.
            config = DEFAULT_CONFIG
            knowledge = context.knowledge_sets_full_queries()
        else:
            config = DEFAULT_CONFIG.without(component)
            knowledge = None
        reports.append(
            run_genedit(
                context, config=config, system_name=label,
                knowledge_sets=knowledge,
            )
        )
    rows = []
    base_total = full.accuracy()
    for report in reports:
        simple, moderate, challenging, total = report.row()
        delta = total - base_total
        suffix = f"{total:.2f}" if report is full else (
            f"{total:.2f} ({delta:+.2f})"
        )
        rows.append(
            (report.system, f"{simple:.2f}", f"{moderate:.2f}",
             f"{challenging:.2f}", suffix)
        )
    table = format_table(
        "Table 2: ablation study (EX without each operator)",
        ["Method", "Simple", "Moderate", "Challenging", "Total"],
        rows,
    )
    if verbose:
        print(table)
    return reports


def crossover(context=None, verbose=True):
    """§3.3.4: schema-maximal approach vs GenEdit, BIRD-like vs enterprise."""
    from .baselines import build_schema_maximal
    from .enterprise import build_enterprise_workload

    context = context or ExperimentContext()
    enterprise = build_enterprise_workload(context.seed)
    rows = []
    reports = {}
    for system_name, builder in (
        ("GenEdit", lambda db, ks: GenEditPipeline(db, ks)),
        ("SchemaMaximal", build_schema_maximal),
    ):
        dev_report = evaluate_system(
            builder, context.workload, context.profiles,
            context.knowledge_sets, system_name,
            trace_sink=context.trace_sink,
            fault_config=context.fault_config,
            telemetry=context.telemetry_sink,
        )
        enterprise_report = evaluate_system(
            builder, enterprise, context.profiles,
            context.knowledge_sets, system_name,
            questions=enterprise.questions,
            trace_sink=context.trace_sink,
            fault_config=context.fault_config,
            telemetry=context.telemetry_sink,
        )
        reports[system_name] = (dev_report, enterprise_report)
        rows.append(
            (
                system_name,
                dev_report.accuracy(),
                enterprise_report.accuracy(),
            )
        )
    table = format_table(
        "Crossover (§3.3.4): BIRD-like dev vs enterprise workload EX",
        ["Method", "BIRD-like", "Enterprise"],
        rows,
    )
    if verbose:
        print(table)
    return reports


def model_selection(context=None, verbose=True):
    """§3.3.3: GPT-4o-mini on schema linking — cost/latency vs accuracy.

    The paper runs GPT-4o everywhere except schema linking, "where we
    instead employ GPT-4o-mini to reduce primarily cost and then latency".
    This experiment runs the pipeline with each choice and reports EX,
    total simulated cost, and per-question latency.
    """
    from ..llm.interface import GPT_4O, GPT_4O_MINI
    from ..llm.simulated import SimulatedLLM

    context = context or ExperimentContext()
    rows = []
    reports = {}
    for label, linking_model in (
        ("gpt-4o-mini linking (deployed)", GPT_4O_MINI),
        ("gpt-4o linking", GPT_4O),
    ):
        report = evaluate_system(
            lambda db, ks, model=linking_model: GenEditPipeline(
                db, ks, llm=SimulatedLLM(linking_model=model)
            ),
            context.workload,
            context.profiles,
            context.knowledge_sets,
            label,
            trace_sink=context.trace_sink,
            fault_config=context.fault_config,
            telemetry=context.telemetry_sink,
        )
        reports[label] = report
        questions = len(report.outcomes)
        rows.append(
            (
                label,
                report.accuracy(),
                report.total_cost_usd,
                sum(o.latency_ms for o in report.outcomes) / questions / 1000,
            )
        )
    table = format_table(
        "Model selection (§3.3.3): schema-linking model choice",
        ["Configuration", "EX", "Total cost ($)", "Latency/question (s)"],
        rows,
    )
    if verbose:
        print(table)
    return reports


def retrieval_ablation(context=None, verbose=True):
    """Design-choice ablations: compounding retrieval (§3.1.1).

    Beyond Table 2, DESIGN.md calls out two GenEdit-specific retrieval
    design choices — intent-keyed candidate pools and context expansion
    (re-ranking each component with the previous component's selections).
    This experiment switches each off independently.
    """
    from dataclasses import replace as _replace

    context = context or ExperimentContext()
    variants = (
        ("GenEdit (full)", {}),
        ("w/o Context Expansion", {"use_context_expansion": False}),
        ("w/o Intent Classification", {"use_intent_classification": False}),
        ("flat retrieval (w/o both)", {
            "use_context_expansion": False,
            "use_intent_classification": False,
        }),
    )
    reports = []
    for label, overrides in variants:
        config = _replace(DEFAULT_CONFIG, **overrides)
        reports.append(
            run_genedit(context, config=config, system_name=label)
        )
    rows = [(report.system, *report.row()) for report in reports]
    table = format_table(
        "Compounding-retrieval design ablations (§3.1.1)",
        ["Variant", "Simple", "Moderate", "Challenging", "All"],
        rows,
    )
    if verbose:
        print(table)
    return reports


def profile(context=None, limit=None, verbose=True, as_json=False):
    """Span-derived timing of a GenEdit evaluation over the dev sample.

    One ``profile`` root span (``wall_s``) has four stage children:
    ``build`` (databases + workload), ``mine`` (knowledge sets),
    ``generate`` (the question loop) and ``execute`` (EX checks through
    the databases' memos); a stage the context built earlier reads near 0.
    ``operators`` folds the pipeline runs' own spans apart from those to
    ``{calls, self_ms, total_ms}`` per name, and ``cache`` the growth of
    the ``eval_cache.hits``/``misses`` registry counters over the run.
    ``limit`` keeps the first N questions. Returns the payload (schema
    v4; v2/v3 snapshots such as ``BENCH_baseline.json`` still load);
    ``as_json`` prints it as JSON.
    """
    from ..engine.stats import engine_snapshot, reset_engine_stats
    from ..obs.tracing import Tracer

    reset_engine_stats()
    metrics = get_metrics()
    lookups = ("hits", "misses")
    before = {
        key: metrics.counter_value(f"eval_cache.{key}") for key in lookups
    }
    context = context or ExperimentContext()
    tracer = Tracer()
    with tracer.span("profile"):
        with tracer.span("build"):
            profiles = context.profiles
            questions = context.workload.questions
        with tracer.span("mine"):
            knowledge_sets = context.knowledge_sets
        if limit is not None:
            questions = questions[:limit]

        pipelines = {}
        results = []
        with tracer.span("generate"):
            for question in questions:
                if question.database not in pipelines:
                    pipeline = GenEditPipeline(
                        profiles[question.database].database,
                        knowledge_sets[question.database],
                    )
                    if context.fault_config is not None \
                            and context.fault_config.rate:
                        pipeline.enable_faults(
                            context.fault_config, scope=question.database
                        )
                    pipelines[question.database] = pipeline
                results.append(
                    pipelines[question.database].generate(question.question)
                )

        correct = 0
        with tracer.span("execute"):
            for question, result in zip(questions, results):
                correct += execution_match(
                    profiles[question.database].database,
                    result.sql, question.gold_sql,
                )

    stages = rollup_spans(tracer.to_records())
    wall = stages.pop("profile")
    operators = rollup_spans(
        record for result in results for record in result.trace_records()
    )
    payload = {
        "schema_version": PROFILE_SCHEMA_VERSION,
        "seed": context.seed,
        "questions": len(questions),
        "ex_all": round(100.0 * correct / len(questions), 2)
        if questions else 0.0,
        "wall_s": round(wall["total_ms"] / 1000.0, 6),
        "stages": {
            name: round(entry["total_ms"] / 1000.0, 6)
            for name, entry in stages.items()
        },
        "operators": {
            name: {
                "calls": entry["count"],
                "self_ms": round(entry["self_ms"], 3),
                "total_ms": round(entry["total_ms"], 3),
            }
            for name, entry in operators.items()
        },
        "engine": engine_snapshot(),
        "cache": {
            key: metrics.counter_value(f"eval_cache.{key}") - before[key]
            for key in lookups
        },
        "diagnostics": {
            "lint_caught": sum(
                result.context.lint_caught for result in results
            ),
            "execution_caught": sum(
                result.context.execution_caught for result in results
            ),
        },
    }
    if verbose:
        if as_json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            rows = list(payload["stages"].items())
            rows.append(("wall", payload["wall_s"]))
            print(format_table(
                f"Harness profile ({payload['questions']} questions, "
                f"EX {payload['ex_all']:.2f})",
                ["Stage", "Seconds"],
                rows,
                precision=4,
            ))
    return payload


def feedback_metrics(verbose=True, seed=DEFAULT_SEED):
    """§4.2.3: edits-recommendation acceptance metrics."""
    from .feedback_sim import simulate_feedback_sessions

    summary = simulate_feedback_sessions(seed=seed)
    rows = [
        ("sessions", summary.sessions),
        ("edits recommended", summary.recommended),
        ("accepted as-is", summary.accepted_as_is),
        ("accepted after iteration", summary.accepted_after_iteration),
        ("rejected", summary.rejected),
        ("fixed generations", summary.fixed),
    ]
    table = format_table(
        "Feedback metrics (§4.2.3)", ["Metric", "Value"], rows
    )
    if verbose:
        print(table)
    return summary


def main(argv=None):
    """``python -m repro.bench.harness [TARGET] [options]``: the ``repro
    bench`` command line (an unknown target or option exits 2)."""
    from ..cli import build_arg_parser

    argv = sys.argv[1:] if argv is None else argv
    return run_bench(build_arg_parser().parse_args(["bench", *argv]))


def run_bench(args):
    """Run the experiment a parsed ``repro bench`` namespace names."""
    target = args.experiment
    context = ExperimentContext()
    if args.limit is not None:
        # Truncate the workload in place before anything derives from it
        # (knowledge mining included) — a quick, *approximate* run for
        # smokes; full-workload numbers are the byte-compared ones.
        del context.workload.questions[max(0, args.limit):]
    if args.trace_out is not None:
        context.trace_sink = []
    if args.telemetry_out is not None:
        from ..obs.telemetry import TelemetrySink

        context.telemetry_sink = TelemetrySink(
            args.telemetry_out,
            snapshot_fn=global_snapshot,
        )
    ledger = None
    if args.ledger or args.ledger_dir is not None:
        from ..obs.ledger import RunLedger

        ledger = RunLedger(args.ledger_dir)
        if context.trace_sink is None:
            # The ledger's timing file wants per-span rollups; collecting
            # never perturbs reports or stdout.
            context.trace_sink = []
    if args.faults is not None:
        from ..resilience import FaultConfig

        context.fault_config = FaultConfig.parse(args.faults)
        print(
            f"fault injection armed: rate={context.fault_config.rate} "
            f"seed={context.fault_config.seed}",
            file=sys.stderr,
        )
    reports = []
    if target in ("table1", "all"):
        reports.extend(table1(context))
        print()
    if target in ("table2", "all"):
        reports.extend(table2(context))
        print()
    if target in ("crossover", "all"):
        for pair in crossover(context).values():
            reports.extend(pair)
        print()
    if target in ("models", "all"):
        reports.extend(model_selection(context).values())
        print()
    if target in ("retrieval", "all"):
        reports.extend(retrieval_ablation(context))
        print()
    if target in ("feedback", "all"):
        feedback_metrics()
    profile_payload = None
    if target == "profile":
        profile_payload = profile(context, as_json=args.json)
    _finish(context, args, reports=reports,
            profile_payload=profile_payload, ledger=ledger)
    return 0


def _finish(context, args, reports=(), profile_payload=None, ledger=None):
    """Handle ``--metrics`` / ``--ledger`` / ``--trace-out`` /
    ``--telemetry-out`` after the run.

    Every notice goes to stderr so experiment stdout (the tables the
    determinism tests byte-compare) is untouched. The run record is
    written first so the trace export can be stamped with its run id.
    """
    target, trace_out = args.experiment, args.trace_out
    if args.metrics:
        print()
        print(render_metrics_snapshot(global_snapshot()))
    run_id = None
    if ledger is not None:
        from ..obs.ledger import build_run_record, build_timing

        record = build_run_record(
            reports,
            kind="bench",
            target=target,
            seed=context.seed,
            config=DEFAULT_CONFIG,
            knowledge_sets=context._knowledge,
            faults=context.fault_config,
            knowledge_lint=_knowledge_lint_codes(
                context._profiles, context._knowledge
            ),
        )
        timing = build_timing(
            context.trace_sink or (), profile=profile_payload
        )
        run_id = ledger.record_run(
            record, timing=timing, meta={"target": target}
        )
        print(
            f"recorded run {run_id} -> {ledger.run_dir(run_id)}",
            file=sys.stderr,
        )
    if trace_out is not None:
        meta = {"target": target, "seed": context.seed}
        if run_id is not None:
            meta["run_id"] = run_id
        count = write_trace(
            trace_out,
            context.trace_sink or [],
            metrics=global_snapshot(),
            meta=meta,
        )
        print(
            f"wrote {count} span(s) + metrics snapshot to {trace_out}",
            file=sys.stderr,
        )
    if context.telemetry_sink is not None:
        sink = context.telemetry_sink
        sink.close()
        stats = sink.stats()
        print(
            f"telemetry: {stats['writes']} write(s), "
            f"{stats['dropped']} dropped snapshot(s) -> {sink.path}",
            file=sys.stderr,
        )


if __name__ == "__main__":
    from ..cli import _safe_main

    raise SystemExit(_safe_main(main))
