"""Command-line interface: the analytics-engine veneer around GenEdit.

The paper notes Text-to-SQL "is not a standalone product and instead ships
within an analytics engine" (§1, §4.2). This CLI is that thin engine:

    python -m repro ask sports_holdings "How many organisations are in Canada?"
    python -m repro ask sports_holdings "..." --trace --plan
    python -m repro ask sports_holdings "..." --trace-out run.jsonl
    python -m repro trace run.jsonl [--slow 5]     # inspect an exported run
    python -m repro lint "SELECT ..." --db sports_holdings  # SQL diagnostics
    python -m repro lint-knowledge [--db NAME] [--json]  # GK0xx knowledge lint
    python -m repro solve sports_holdings          # interactive feedback REPL
    python -m repro knowledge sports_holdings      # knowledge-set overview
    python -m repro bench table1 [--metrics] [--trace-out run.jsonl]
    python -m repro bench table1 --faults 0.2:7   # chaos run (§6c)
    python -m repro bench table1 --ledger          # persist a run record (§6d)
    python -m repro runs [list|show RUN|gc]        # browse the run ledger
    python -m repro runs gc --keep-days 14         # age-based retention
    python -m repro diff RUN_A RUN_B               # EX flips + cost deltas
    python -m repro triage RUN                     # cluster a run's failures
    python -m repro watch [--json]                 # ledger watchdog (§6g)
    python -m repro slo examples/slo.json          # SLO/error-budget gate
    python -m repro bench table1 --telemetry-out m.prom  # live exporter

Databases are the six benchmark profiles; their knowledge sets are mined
on first use from the benchmark's training logs and documents.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .bench.bird import build_knowledge_sets, build_workload
from .bench.schemas import DATABASE_NAMES, build_all
from .feedback.regression import GoldenQuery
from .feedback.solver import FeedbackSolver
from .knowledge.library import KnowledgeLibrary
from .knowledge.versioning import KnowledgeSetHistory
from .pipeline.pipeline import GenEditPipeline
from .serve.app import DEFAULT_DEADLINE_MS, DEFAULT_QUEUE_DEPTH, \
    DEFAULT_SAMPLE_EVERY, DEFAULT_SLOW_MS, DEFAULT_WORKERS
from .sql import format_sql, parse


def _safe_main(func, *args, **kwargs):
    """Run a CLI entry point, exiting cleanly when the output pipe closes.

    Every subcommand funnels through this wrapper (and so does ``python -m
    repro.bench.harness``): a downstream ``head``/pager closing stdout
    mid-print becomes a clean exit 0 instead of a traceback, and stdout is
    re-pointed at devnull so interpreter shutdown does not complain.
    """
    try:
        return func(*args, **kwargs)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _open_ledger(args):
    from .obs.ledger import RunLedger

    return RunLedger(getattr(args, "ledger_dir", None))


def _load(database_name, seed=7):
    if database_name not in DATABASE_NAMES:
        raise SystemExit(
            f"Unknown database {database_name!r}; "
            f"choose from: {', '.join(DATABASE_NAMES)}"
        )
    profiles = build_all(seed)
    workload = build_workload(seed)
    knowledge = build_knowledge_sets(workload, seed)[database_name]
    return profiles[database_name], workload, knowledge


def _print_result(pipeline, result, show_trace=False, show_plan=False,
                  out=sys.stdout):
    if show_trace:
        print("-- operator trace --", file=out)
        for event in result.trace:
            print("  ", event, file=out)
    if show_plan and result.plan is not None:
        print("-- plan --", file=out)
        print(result.plan.render(), file=out)
    print("-- SQL --", file=out)
    try:
        print(format_sql(parse(result.sql)), file=out)
    except Exception:
        print(result.sql, file=out)
    if result.success:
        table = pipeline.execute(result.sql)
        print("-- result --", file=out)
        print(" | ".join(table.columns), file=out)
        for row in table.rows[:20]:
            print(" | ".join(str(value) for value in row), file=out)
        if len(table.rows) > 20:
            print(f"... ({len(table.rows)} rows total)", file=out)
    else:
        print(f"-- failed: {result.error}", file=out)


def cmd_ask(args, out=sys.stdout):
    profile, _workload, knowledge = _load(args.database, args.seed)
    pipeline = GenEditPipeline(profile.database, knowledge)
    result = pipeline.generate(args.question)
    _print_result(pipeline, result, args.trace, args.plan, out=out)
    if getattr(args, "explain", False) and result.success:
        from .engine.explain import explain

        print("-- logical plan --", file=out)
        print(explain(result.sql), file=out)
    if getattr(args, "trace_out", None):
        from .obs import global_snapshot, write_trace

        count = write_trace(
            args.trace_out,
            result.trace_records(),
            metrics=global_snapshot(),
            meta={"question": args.question, "database": args.database},
        )
        print(
            f"wrote {count} span(s) + metrics snapshot to {args.trace_out}",
            file=out,
        )
    if getattr(args, "ledger", False):
        from .bench.metrics import EvaluationReport, QuestionOutcome
        from .obs.ledger import build_run_record, build_timing

        # A one-question run record; "correct" records generation success
        # (ask has no gold SQL to check against).
        report = EvaluationReport(system="ask")
        report.add(QuestionOutcome.from_result(
            result, bool(result.success),
            question_id="ask-1",
            difficulty="",
            database=args.database,
            gold_sql="",
            question_text=args.question,
        ))
        ledger = _open_ledger(args)
        run_id = ledger.record_run(
            build_run_record(
                [report], kind="ask", target=args.database,
                seed=args.seed, config=pipeline.config,
                knowledge_sets={args.database: knowledge},
            ),
            timing=build_timing(result.trace_records()),
            meta={"question": args.question},
        )
        print(
            f"recorded run {run_id} -> {ledger.run_dir(run_id)}",
            file=out,
        )
    return 0 if result.success else 1


def cmd_knowledge(args, out=sys.stdout):
    _profile, _workload, knowledge = _load(args.database, args.seed)
    stats = knowledge.stats()
    print(f"Knowledge set for {args.database}:", file=out)
    for kind, count in stats.items():
        print(f"  {kind}: {count}", file=out)
    print("\nIntents:", file=out)
    for intent in knowledge.intents():
        print(f"  {intent.intent_id}: {intent.name}", file=out)
    print("\nTerm definitions:", file=out)
    for term, instruction in sorted(knowledge.term_definitions().items()):
        print(f"  {instruction.term}: {instruction.text[:70]}", file=out)
    return 0


def cmd_solve(args, out=sys.stdout, input_fn=input):
    """Interactive feedback REPL (the Feedback Solver, §4.2.1)."""
    profile, workload, knowledge = _load(args.database, args.seed)
    knowledge = knowledge.clone()
    history = KnowledgeSetHistory(knowledge)
    from .feedback.review import ApprovalQueue

    queue = ApprovalQueue(knowledge, history)
    pipeline = GenEditPipeline(profile.database, knowledge)
    golden = [
        GoldenQuery(entry.question, entry.sql)
        for entry in workload.training_logs[args.database][:4]
    ]
    baseline_record = None
    if getattr(args, "baseline", None):
        try:
            baseline_record = _open_ledger(args).read_record(args.baseline)
        except KeyError as error:
            print(f"error: {error.args[0]}", file=out)
            return 2
        print(
            f"regression baseline: run {baseline_record['run_id']}",
            file=out,
        )
    solver = FeedbackSolver(pipeline, golden_queries=golden,
                            approval_queue=queue,
                            baseline_record=baseline_record)
    print(
        "Feedback Solver. Commands: ask <question> | feedback <text> | "
        "stage | regen | submit | approve | library | quit",
        file=out,
    )
    while True:
        try:
            line = input_fn("> ").strip()
        except (EOFError, KeyboardInterrupt):
            break
        if not line:
            continue
        command, _, rest = line.partition(" ")
        command = command.lower()
        if command in ("quit", "exit"):
            break
        try:
            if command == "ask":
                result = solver.ask(rest)
                _print_result(pipeline, result, out=out)
            elif command == "feedback":
                for edit in solver.give_feedback(rest):
                    print("  recommended:", edit.describe(), file=out)
            elif command == "stage":
                staged = solver.stage()
                print(f"  staged {len(staged)} edit(s)", file=out)
            elif command == "regen":
                result = solver.regenerate()
                _print_result(pipeline, result, out=out)
            elif command == "submit":
                submission = solver.submit()
                if submission.knowledge_gate is not None:
                    print("  knowledge gate:",
                          submission.knowledge_gate.summary(), file=out)
                print("  regression:",
                      submission.regression_report.summary(), file=out)
                print("  status:", submission.status, file=out)
            elif command == "approve":
                pending = queue.pending()
                if not pending:
                    print("  nothing pending", file=out)
                else:
                    queue.approve(pending[0])
                    print("  merged", file=out)
            elif command == "library":
                library = KnowledgeLibrary(knowledge, history)
                overview = library.overview()
                print("  stats:", overview["stats"], file=out)
                for record in overview["recent_edits"]:
                    print(f"  [{record.timestamp}] {record.action} "
                          f"{record.component_id}: {record.summary}",
                          file=out)
            else:
                print(f"  unknown command {command!r}", file=out)
        except Exception as error:  # REPL resilience
            print(f"  error: {error}", file=out)
    return 0


def cmd_lint(args, out=sys.stdout):
    """Lint SQL with the diagnostics engine; non-zero exit on errors.

    Unlike ``ask``/``solve`` this needs no knowledge sets — only the
    database catalog and value profiles — so it starts fast enough to sit
    in editor hooks and CI.
    """
    from .sql.diagnostics import DiagnosticsEngine, error_count, warning_count

    sql = args.sql
    if sql == "-":
        sql = sys.stdin.read()
    if not sql.strip():
        print("error: no SQL given", file=out)
        return 2
    database = None
    if args.db is not None:
        if args.db not in DATABASE_NAMES:
            raise SystemExit(
                f"Unknown database {args.db!r}; "
                f"choose from: {', '.join(DATABASE_NAMES)}"
            )
        database = build_all(args.seed)[args.db].database
    diagnostics = DiagnosticsEngine(database).run_sql(sql)
    errors = error_count(diagnostics)
    if getattr(args, "json", False):
        records = [
            {
                "code": diag.code,
                "slug": diag.slug,
                "severity": diag.severity.value,
                "message": diag.message,
                "span": (
                    {
                        "position": diag.span.position,
                        "line": diag.span.line,
                        "column": diag.span.column,
                    }
                    if diag.span is not None else None
                ),
                "suggestion": diag.suggestion,
            }
            for diag in diagnostics
        ]
        print(json.dumps(records, indent=2), file=out)
        return 1 if errors else 0
    for diagnostic in diagnostics:
        print(diagnostic.render(), file=out)
    warnings = warning_count(diagnostics)
    if diagnostics:
        print(f"{errors} error(s), {warnings} warning(s)", file=out)
    else:
        print("clean: no diagnostics", file=out)
    return 1 if errors else 0


def cmd_lint_knowledge(args, out=sys.stdout):
    """Lint knowledge sets with the ``GK0xx`` rules (DESIGN.md §6f).

    By default every seeded knowledge set is linted against its own
    database; ``--db`` narrows to one, and ``--knowledge PATH`` lints a
    serialized knowledge-set file (requires ``--db`` for the catalog) —
    the CI hook for staged or exported sets. Exit 1 on any error-level
    finding.
    """
    from .knowledge.lint import lint_knowledge
    from .sql.diagnostics import error_count, warning_count

    if args.db is not None and args.db not in DATABASE_NAMES:
        raise SystemExit(
            f"Unknown database {args.db!r}; "
            f"choose from: {', '.join(DATABASE_NAMES)}"
        )
    if args.knowledge and not args.db:
        print("error: --knowledge requires --db for the catalog", file=out)
        return 2
    profiles = build_all(args.seed)
    if args.knowledge:
        from .knowledge.serialize import load as load_knowledge

        try:
            loaded = load_knowledge(args.knowledge)
        except (OSError, ValueError, KeyError) as error:
            print(f"error: cannot load {args.knowledge}: {error}", file=out)
            return 2
        targets = [(loaded.name, loaded, profiles[args.db].database)]
    else:
        names = [args.db] if args.db else list(DATABASE_NAMES)
        workload = build_workload(args.seed)
        knowledge_sets = build_knowledge_sets(workload, args.seed)
        targets = [
            (name, knowledge_sets[name], profiles[name].database)
            for name in names
        ]
    total_errors = 0
    records = []
    for label, knowledge, database in targets:
        findings = lint_knowledge(knowledge, database)
        errors = error_count(findings)
        total_errors += errors
        if getattr(args, "json", False):
            records.extend(
                {
                    "set": label,
                    "code": finding.code,
                    "slug": finding.slug,
                    "severity": finding.severity.value,
                    "component_kind": finding.component_kind,
                    "component_id": finding.component_id,
                    "message": finding.message,
                    "suggestion": finding.suggestion,
                }
                for finding in findings
            )
            continue
        for finding in findings:
            print(f"{label}: {finding.render()}", file=out)
        warnings = warning_count(findings)
        if findings:
            print(
                f"{label}: {errors} error(s), {warnings} warning(s), "
                f"{len(findings)} finding(s)",
                file=out,
            )
        else:
            print(f"{label}: clean", file=out)
    if getattr(args, "json", False):
        print(json.dumps(records, indent=2), file=out)
    return 1 if total_errors else 0


def cmd_trace(args, out=sys.stdout):
    """Render an exported trace file as a span tree with rollups."""
    from .obs import load_trace, render_trace_payload

    try:
        payload = load_trace(args.path)
    except OSError as error:
        print(f"error: cannot read {args.path}: {error}", file=out)
        return 2
    except ValueError as error:
        print(f"error: {error}", file=out)
        return 2
    if not payload["spans"]:
        print(f"{args.path}: no span records", file=out)
        return 1
    print(
        render_trace_payload(
            payload, slow_ms=args.slow, show_metrics=not args.no_metrics
        ),
        file=out,
    )
    return 0


def cmd_runs(args, out=sys.stdout):
    """Browse the run ledger: list recorded runs, show one, or gc."""
    from .bench.harness import format_table
    from .obs.ledger import render_triage, triage_record

    ledger = _open_ledger(args)
    if args.action == "gc":
        # --keep-days alone is pure age-based retention; --keep alone is
        # pure count-based (default 20); together, either condemns a run.
        keep = args.keep
        if keep is None:
            keep = 0 if args.keep_days is not None else 20
        removed = ledger.gc(keep=keep, keep_days=args.keep_days)
        print(
            f"removed {len(removed)} run(s), kept "
            f"{len(ledger.run_ids())}",
            file=out,
        )
        return 0
    if args.action == "show":
        if not args.run:
            print("error: 'runs show' needs a RUN id", file=out)
            return 2
        record = ledger.read_record(args.run)
        meta = ledger.read_meta(args.run)
        print(f"run {record['run_id']}", file=out)
        print(
            f"  created: {meta.get('created_at', '?')}  kind: "
            f"{record['kind']}  target: {record['target']}  "
            f"seed: {record['seed']}",
            file=out,
        )
        print(
            f"  config fingerprint: {record['config_fingerprint']}",
            file=out,
        )
        for name, entry in record.get("knowledge", {}).items():
            print(
                f"  knowledge[{name}]: {entry['fingerprint']} "
                f"{entry['stats']}",
                file=out,
            )
        rows = [
            (name, entry["ex"]["all"], entry["correct"],
             entry["questions"], entry["cost_usd"], entry["degraded"],
             entry["errors"])
            for name, entry in record.get("systems", {}).items()
        ]
        if rows:
            print(format_table(
                "systems",
                ["System", "EX", "Correct", "Questions", "Cost ($)",
                 "Degraded", "Errors"],
                rows,
            ), file=out)
        accounting = record.get("accounting", {})
        operator_rows = [
            (operator, bucket["calls"], bucket["input_tokens"],
             bucket["output_tokens"], bucket["cost_usd"])
            for operator, bucket in accounting.get(
                "by_operator", {}
            ).items()
        ]
        if operator_rows:
            print(format_table(
                "cost/token accounting (per operator)",
                ["Operator", "Calls", "In tok", "Out tok", "Cost ($)"],
                operator_rows,
                precision=6,
            ), file=out)
        model_rows = [
            (model, bucket["calls"], bucket["input_tokens"],
             bucket["output_tokens"], bucket["cost_usd"])
            for model, bucket in accounting.get("by_model", {}).items()
        ]
        if model_rows:
            print(format_table(
                "cost/token accounting (per model)",
                ["Model", "Calls", "In tok", "Out tok", "Cost ($)"],
                model_rows,
                precision=6,
            ), file=out)
        if args.triage:
            print(render_triage(triage_record(record)), file=out)
        return 0
    runs = ledger.list_runs()
    if not runs:
        print(f"no runs recorded under {ledger.root}", file=out)
        return 1
    rows = [
        (entry["run_id"], entry["created_at"], entry["kind"],
         entry["target"], entry["systems"], entry["questions"],
         "-" if entry["ex_all"] is None else entry["ex_all"],
         entry["cost_usd"])
        for entry in runs
    ]
    print(format_table(
        f"run ledger ({ledger.root})",
        ["Run", "Created", "Kind", "Target", "Systems", "Questions",
         "GenEdit EX", "Cost ($)"],
        rows,
    ), file=out)
    return 0


def cmd_diff(args, out=sys.stdout):
    """Diff two ledger runs: EX flips, first divergence, cost deltas."""
    from .obs.ledger import diff_records, render_diff

    ledger = _open_ledger(args)
    if args.latest and not (args.run_a and args.run_b):
        run_a, run_b = "latest~1", "latest"
    elif args.run_a and args.run_b:
        run_a, run_b = args.run_a, args.run_b
    else:
        print("error: diff needs RUN_A RUN_B (or --latest)", file=out)
        return 2
    try:
        record_a = ledger.read_record(run_a)
        record_b = ledger.read_record(run_b)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=out)
        return 2
    diff = diff_records(record_a, record_b)
    print(render_diff(diff, show_sql=args.sql), file=out)
    return 1 if diff["flips"] else 0


def cmd_triage(args, out=sys.stdout):
    """Cluster one run's failures by the resilience error taxonomy."""
    from .obs.ledger import render_triage, triage_record

    ledger = _open_ledger(args)
    try:
        record = ledger.read_record(args.run)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=out)
        return 2
    print(render_triage(triage_record(record, top=args.top)), file=out)
    return 0


def cmd_watch(args, out=sys.stdout):
    """Ledger watchdog: robust level-shift alerts over recorded runs.

    Exit 0 when the newest run sits inside every metric's recent band,
    1 when any *regression* alert fires (EX dropping, cost/latency/error
    counts rising), 2 when the ledger holds nothing to watch. Improvement
    shifts are reported but do not fail the gate.
    """
    from .obs.timeseries import render_watch, to_json, watch_payload

    ledger = _open_ledger(args)
    payload = watch_payload(
        ledger, system=args.system, kind=args.kind,
        window=args.window, z_threshold=args.threshold,
        limit=args.limit,
    )
    if getattr(args, "json", False):
        print(to_json(payload), file=out)
    else:
        print(render_watch(payload), file=out)
    if not payload["runs"]:
        return 2
    regressions = [
        alert for alert in payload["alerts"]
        if alert["severity"] == "regression"
    ]
    return 1 if regressions else 0


def cmd_slo(args, out=sys.stdout):
    """Evaluate declarative SLOs; CI exit semantics (1 breach, 2 bad spec).

    By default objectives are checked against the run ledger with
    multi-window burn rates; ``--trace PATH`` instead checks the metrics
    snapshot embedded in an exported trace file (point-in-time, no burn
    rates) — the live-registry view of the run that wrote it.
    """
    from .obs.slo import (
        SloSpecError,
        any_breach,
        evaluate_ledger,
        evaluate_registry,
        load_slo_specs,
        render_slo_results,
    )

    try:
        specs = load_slo_specs(args.spec)
    except OSError as error:
        print(f"error: cannot read {args.spec}: {error}", file=out)
        return 2
    except SloSpecError as error:
        print(f"error: {error}", file=out)
        return 2
    if args.trace:
        from .obs import load_trace

        try:
            payload = load_trace(args.trace)
        except (OSError, ValueError) as error:
            print(f"error: cannot read {args.trace}: {error}", file=out)
            return 2
        snapshot = payload.get("metrics")
        if not snapshot:
            print(
                f"error: {args.trace} has no metrics snapshot", file=out
            )
            return 2
        results = evaluate_registry(specs, snapshot)
    else:
        results = evaluate_ledger(
            specs, _open_ledger(args), system=args.system, kind=args.kind
        )
    if getattr(args, "json", False):
        print(json.dumps(results, indent=2, default=str), file=out)
    else:
        print(render_slo_results(results), file=out)
    return 1 if any_breach(results) else 0


def cmd_bench(args, out=sys.stdout):
    from .bench.harness import run_bench

    return run_bench(args, out)


def cmd_serve(args, out=sys.stdout):
    """Run the GenEdit service until interrupted, then drain gracefully."""
    from .serve import ServeApp, ServerThread

    app = ServeApp(
        databases=args.databases or None,
        seed=args.seed,
        workers=args.workers,
        queue_depth=args.queue_depth,
        deadline_ms=args.deadline_ms,
        ledger_dir=args.ledger_dir,
        telemetry_out=args.telemetry_out,
        trace_out=args.trace_out,
        slow_ms=args.slow_ms,
        sample_every=args.sample_every,
    )
    server = ServerThread(app, host=args.host, port=args.port).start()
    print(
        f"serving {', '.join(app.databases)} on {server.address} "
        f"({args.workers} worker(s), queue depth {args.queue_depth})",
        file=out,
    )
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("draining...", file=out)
    drained = server.stop()
    if app.last_run_id:
        print(f"recorded serve run {app.last_run_id}", file=out)
    print("drained" if drained else "drain timed out", file=out)
    return 0 if drained else 1


def cmd_loadgen(args, out=sys.stdout):
    """Benchmark a serve endpoint (or --self-boot one) and report QPS."""
    from .serve.loadgen import check_report, run_loadgen

    report = run_loadgen(
        host=args.host,
        port=0 if args.self_serve else args.port,
        databases=args.databases or None,
        seed=args.seed,
        requests=args.requests,
        concurrency=args.concurrency,
        skew=args.skew,
        sweep=args.sweep,
        probe=args.probe,
        self_serve=args.self_serve,
        workers=args.workers,
        queue_depth=args.queue_depth,
        ledger_dir=args.ledger_dir,
        telemetry_out=args.telemetry_out,
        out=lambda line: print(line, file=out),
    )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True), file=out)
    if args.check:
        failures = check_report(
            report, sweep=args.sweep, probed=args.probe
        )
        for failure in failures:
            print(f"loadgen: FAIL {failure}", file=out)
        if failures:
            return 1
        print("loadgen: all checks passed", file=out)
    return 0


def build_arg_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GenEdit reproduction: enterprise Text-to-SQL.",
    )
    parser.add_argument("--seed", type=int, default=7)
    commands = parser.add_subparsers(dest="command", required=True)

    ask = commands.add_parser("ask", help="generate SQL for a question")
    ask.add_argument("database", help=f"one of: {', '.join(DATABASE_NAMES)}")
    ask.add_argument("question")
    ask.add_argument("--trace", action="store_true",
                     help="print the operator trace")
    ask.add_argument("--plan", action="store_true",
                     help="print the CoT plan")
    ask.add_argument("--explain", action="store_true",
                     help="print the engine's logical plan for the SQL")
    ask.add_argument(
        "--trace-out", dest="trace_out", metavar="PATH", default=None,
        help="export the run's spans + metrics snapshot as JSONL "
             "(inspect with 'repro trace PATH')",
    )
    ask.add_argument(
        "--ledger", action="store_true",
        help="persist this run as a ledger record (see 'repro runs')",
    )
    ask.add_argument(
        "--ledger-dir", dest="ledger_dir", metavar="PATH", default=None,
        help="ledger root (default .repro/runs, or $REPRO_LEDGER_DIR)",
    )
    ask.set_defaults(func=cmd_ask)

    trace = commands.add_parser(
        "trace", help="inspect an exported trace (span tree + rollups)"
    )
    trace.add_argument("path", help="JSONL trace written by --trace-out")
    trace.add_argument(
        "--slow", type=float, default=None, metavar="N",
        help="only show spans taking at least N ms (ancestors kept)",
    )
    trace.add_argument(
        "--no-metrics", action="store_true",
        help="omit the metrics snapshot section",
    )
    trace.set_defaults(func=cmd_trace)

    knowledge = commands.add_parser(
        "knowledge", help="show a database's knowledge set"
    )
    knowledge.add_argument("database")
    knowledge.set_defaults(func=cmd_knowledge)

    lint = commands.add_parser(
        "lint", help="run the SQL diagnostics engine over a statement"
    )
    lint.add_argument("sql", help="SQL text, or '-' to read stdin")
    lint.add_argument(
        "--db", default=None,
        help=f"database catalog to lint against (one of: "
             f"{', '.join(DATABASE_NAMES)}); omit for structure-only checks",
    )
    lint.add_argument(
        "--json", action="store_true",
        help="emit diagnostics as structured JSON records "
             "(code, severity, span, suggestion)",
    )
    lint.set_defaults(func=cmd_lint)

    lint_knowledge = commands.add_parser(
        "lint-knowledge",
        help="run the GK0xx knowledge-set rules (DESIGN.md §6f)",
    )
    lint_knowledge.add_argument(
        "--db", default=None,
        help=f"lint only this database's knowledge set (one of: "
             f"{', '.join(DATABASE_NAMES)}); omit to lint all",
    )
    lint_knowledge.add_argument(
        "--knowledge", metavar="PATH", default=None,
        help="lint a serialized knowledge-set JSON file against --db's "
             "catalog instead of the seeded set",
    )
    lint_knowledge.add_argument(
        "--json", action="store_true",
        help="emit findings as structured JSON records",
    )
    lint_knowledge.set_defaults(func=cmd_lint_knowledge)

    solve = commands.add_parser(
        "solve", help="interactive feedback solver session"
    )
    solve.add_argument("database")
    solve.add_argument(
        "--baseline", metavar="RUN", default=None,
        help="ledger run whose outcomes baseline the submission's "
             "regression tests (accepts a run id, prefix, or 'latest')",
    )
    solve.add_argument(
        "--ledger-dir", dest="ledger_dir", metavar="PATH", default=None,
        help="ledger root (default .repro/runs, or $REPRO_LEDGER_DIR)",
    )
    solve.set_defaults(func=cmd_solve)

    runs = commands.add_parser(
        "runs", help="browse the run ledger (list / show / gc)"
    )
    runs.add_argument(
        "action", nargs="?", default="list",
        choices=["list", "show", "gc"],
    )
    runs.add_argument(
        "run", nargs="?", default=None,
        help="run id, unique prefix, or 'latest' (for 'show')",
    )
    runs.add_argument(
        "--ledger-dir", dest="ledger_dir", metavar="PATH", default=None,
        help="ledger root (default .repro/runs, or $REPRO_LEDGER_DIR)",
    )
    runs.add_argument(
        "--keep", type=int, default=None,
        help="runs to retain on 'gc' (default 20; combined with "
             "--keep-days, a run matching either policy is removed)",
    )
    runs.add_argument(
        "--keep-days", dest="keep_days", type=float, default=None,
        metavar="N",
        help="on 'gc', also remove runs created more than N days ago",
    )
    runs.add_argument(
        "--triage", action="store_true",
        help="append the failure-triage section to 'show'",
    )
    runs.set_defaults(func=cmd_runs)

    diff = commands.add_parser(
        "diff", help="diff two ledger runs (EX flips, cost/latency deltas)"
    )
    diff.add_argument("run_a", nargs="?", default=None)
    diff.add_argument("run_b", nargs="?", default=None)
    diff.add_argument(
        "--latest", action="store_true",
        help="diff the two most recent runs (RUN_A/RUN_B omitted)",
    )
    diff.add_argument(
        "--sql", action="store_true",
        help="show before/after SQL for every flipped question",
    )
    diff.add_argument(
        "--ledger-dir", dest="ledger_dir", metavar="PATH", default=None,
        help="ledger root (default .repro/runs, or $REPRO_LEDGER_DIR)",
    )
    diff.set_defaults(func=cmd_diff)

    triage = commands.add_parser(
        "triage", help="cluster a run's failures by error taxonomy"
    )
    triage.add_argument(
        "run", nargs="?", default="latest",
        help="run id, unique prefix, or 'latest' (the default)",
    )
    triage.add_argument(
        "--top", type=int, default=5,
        help="worst-cost / slowest questions to list (default 5)",
    )
    triage.add_argument(
        "--ledger-dir", dest="ledger_dir", metavar="PATH", default=None,
        help="ledger root (default .repro/runs, or $REPRO_LEDGER_DIR)",
    )
    triage.set_defaults(func=cmd_triage)

    watch = commands.add_parser(
        "watch",
        help="watch the run ledger for metric level shifts (DESIGN.md §6g)",
    )
    watch.add_argument(
        "--system", default=None,
        help="track this system's series (default: GenEdit when "
             "present, else each record's first system)",
    )
    watch.add_argument(
        "--kind", default="bench",
        help="only fold records of this kind (default 'bench'; "
             "pass '' for all)",
    )
    watch.add_argument(
        "--window", type=int, default=20,
        help="baseline window: prior runs per metric (default 20)",
    )
    watch.add_argument(
        "--threshold", type=float, default=3.5,
        help="robust z-score alert threshold (default 3.5)",
    )
    watch.add_argument(
        "--limit", type=int, default=None,
        help="only consider the newest N runs",
    )
    watch.add_argument(
        "--ledger-dir", dest="ledger_dir", metavar="PATH",
        default=None,
        help="ledger root (default .repro/runs, or $REPRO_LEDGER_DIR)",
    )
    watch.add_argument(
        "--json", action="store_true",
        help="emit the full watch payload (series + alerts) as JSON",
    )
    watch.set_defaults(func=cmd_watch)

    slo = commands.add_parser(
        "slo",
        help="evaluate SLOs/error budgets (exit 1 breach, 2 bad spec)",
    )
    slo.add_argument(
        "spec", help="SLO spec file (JSON)"
    )
    slo.add_argument(
        "--system", default=None,
        help="ledger system to evaluate (default: GenEdit when present)",
    )
    slo.add_argument(
        "--kind", default="bench",
        help="only fold ledger records of this kind (default 'bench')",
    )
    slo.add_argument(
        "--trace", metavar="PATH", default=None,
        help="evaluate the metrics snapshot inside this exported trace "
             "instead of the ledger (point-in-time, no burn rates)",
    )
    slo.add_argument(
        "--json", action="store_true",
        help="emit evaluation results as JSON",
    )
    slo.add_argument(
        "--ledger-dir", dest="ledger_dir", metavar="PATH", default=None,
        help="ledger root (default .repro/runs, or $REPRO_LEDGER_DIR)",
    )
    slo.set_defaults(func=cmd_slo)

    bench = commands.add_parser("bench", help="run a paper experiment")
    bench.add_argument(
        "experiment", nargs="?", default="all",
        choices=["table1", "table2", "crossover", "models", "retrieval",
                 "feedback", "profile", "all"],
    )
    bench.add_argument(
        "--json", action="store_true",
        help="emit the profile payload as JSON (with the profile target)",
    )
    bench.add_argument(
        "--metrics", action="store_true",
        help="print the process-wide metrics registry snapshot at the end",
    )
    bench.add_argument(
        "--trace-out", dest="trace_out", metavar="PATH", default=None,
        help="export every question's spans + a metrics snapshot as JSONL",
    )
    bench.add_argument(
        "--faults", metavar="RATE[:SEED]", default=None,
        help="inject deterministic faults (transient errors, timeouts, "
             "garbled outputs) at RATE into every pipeline — chaos testing "
             "for the resilience layer (DESIGN.md §6c)",
    )
    bench.add_argument(
        "--ledger", action="store_true",
        help="persist the invocation as a run record under .repro/runs "
             "(DESIGN.md §6d); inspect with 'repro runs|diff|triage'",
    )
    bench.add_argument(
        "--ledger-dir", dest="ledger_dir", metavar="PATH", default=None,
        help="ledger root (default .repro/runs, or $REPRO_LEDGER_DIR); "
             "implies --ledger",
    )
    bench.add_argument(
        "--telemetry-out", dest="telemetry_out", metavar="PATH",
        default=None,
        help="write the registry snapshot to PATH when the run ends "
             "(Prometheus text format)",
    )
    bench.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="truncate the workload to its first N questions (smokes)",
    )
    bench.set_defaults(func=cmd_bench)

    serve = commands.add_parser(
        "serve", help="run the GenEdit HTTP service (DESIGN.md §6h)"
    )
    serve.add_argument(
        "databases", nargs="*", metavar="DATABASE",
        help=f"tenants to serve (default: all of "
             f"{', '.join(DATABASE_NAMES)})",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765)
    serve.add_argument(
        "--workers", type=int, default=DEFAULT_WORKERS,
        help="pipeline worker threads (default %(default)s)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=DEFAULT_QUEUE_DEPTH,
        help="admitted requests beyond the workers before 429 "
             "(default %(default)s)",
    )
    serve.add_argument(
        "--deadline-ms", type=float, default=DEFAULT_DEADLINE_MS,
        help="per-request deadline in ms: past it the client gets a 504 "
             "and the run stops at its next operator (default %(default)s)",
    )
    serve.add_argument(
        "--ledger-dir", dest="ledger_dir", metavar="PATH", default=None,
        help="record benchmark traffic as a serve run in this ledger",
    )
    serve.add_argument(
        "--telemetry-out", dest="telemetry_out", metavar="PATH",
        default=None,
        help="on shutdown, write the metrics snapshot to PATH "
             "(Prometheus text)",
    )
    serve.add_argument(
        "--trace-out", dest="trace_out", metavar="PATH", default=None,
        help="on shutdown, export the retained request trees (failed, "
             "slow, sampled, then newest, within the span bound): each "
             "serve.request span with the pipeline spans under it",
    )
    serve.add_argument(
        "--slow-ms", type=float, default=DEFAULT_SLOW_MS,
        help="a request this slow (ms) is retained as slow, with its "
             "detail, in /debug/errors (default %(default)s)",
    )
    serve.add_argument(
        "--sample-every", type=int, default=DEFAULT_SAMPLE_EVERY,
        help="retain every Nth request as a sampled baseline, with its "
             "detail (default %(default)s; 0 disables sampling)",
    )
    serve.set_defaults(func=cmd_serve)

    loadgen = commands.add_parser(
        "loadgen", help="drive a serve endpoint and report QPS/p50/p99"
    )
    loadgen.add_argument(
        "databases", nargs="*", metavar="DATABASE",
        help="databases whose workload questions to send "
             "(default: the server's tenants with --self, else required)",
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument(
        "--port", type=int, default=8765,
        help="target port (ignored with --self: an ephemeral port is used)",
    )
    loadgen.add_argument(
        "--self", dest="self_serve", action="store_true",
        help="boot an in-process server first, drain it after",
    )
    loadgen.add_argument(
        "--requests", type=int, default=50,
        help="requests to send in the skewed mix (default 50)",
    )
    loadgen.add_argument(
        "--concurrency", type=int, default=4,
        help="closed-loop client workers (default 4)",
    )
    loadgen.add_argument(
        "--skew", type=float, default=1.2,
        help="Zipf exponent for the question mix (default 1.2)",
    )
    loadgen.add_argument(
        "--sweep", action="store_true",
        help="send every workload question once with gold SQL "
             "(EX-scored, ledger-comparable)",
    )
    loadgen.add_argument(
        "--probe", action="store_true",
        help="burst past capacity until admission control answers 429",
    )
    loadgen.add_argument(
        "--check", action="store_true",
        help="exit non-zero on non-2xx traffic, sweep scoring gaps, "
             "or a silent probe",
    )
    loadgen.add_argument(
        "--workers", type=int, default=DEFAULT_WORKERS,
        help="server worker threads (--self only, default %(default)s)",
    )
    loadgen.add_argument(
        "--queue-depth", type=int, default=DEFAULT_QUEUE_DEPTH,
        help="server queue depth (--self only, default %(default)s)",
    )
    loadgen.add_argument(
        "--ledger-dir", dest="ledger_dir", metavar="PATH", default=None,
        help="ledger for the server's serve run (--self only)",
    )
    loadgen.add_argument(
        "--telemetry-out", dest="telemetry_out", metavar="PATH",
        default=None,
        help="server telemetry file, written on drain (--self only)",
    )
    loadgen.add_argument(
        "--json", action="store_true",
        help="print the full report as JSON",
    )
    loadgen.set_defaults(func=cmd_loadgen)
    return parser


def main(argv=None):
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    # Every subcommand is BrokenPipe-safe: `repro runs | head` and friends
    # exit cleanly instead of tracebacking when the pager closes the pipe.
    return _safe_main(args.func, args)


if __name__ == "__main__":
    raise SystemExit(main())
