"""Self-correction operator (§2.1, §3).

Works through the candidate queue in two gates. First the diagnostics
engine lints the candidate: an error-level finding means the execution
engine would reject it anyway, so the operator skips execution outright
and feeds the diagnostic codes, messages, and suggestions into the
regeneration context. Candidates that lint clean (of errors) are then
executed; a runtime failure is carried as context the same way, up to
``k`` retries. This mirrors the execution-guided retry loop the paper
adopts from prior work, with the lint gate supplying the "perceived
error" more cheaply and precisely than execution.

An execution serves only to learn whether the candidate raises, so it
goes through :meth:`PipelineContext.verdict`: a candidate any earlier
execution ran on this database version is read from the database's
execution memo, and a replayed error is handled exactly like a fresh
one.
"""

from __future__ import annotations

from ..obs.metrics import get_metrics
from ..sql.diagnostics import DiagnosticsEngine
from .base import Operator


class SelfCorrectionOperator(Operator):
    name = "self_correct"

    def __init__(self, llm=None):
        # The pipeline passes its LLM so regeneration meter records carry
        # the configured model; standalone construction falls back to the
        # paper's default.
        self._llm = llm

    def run(self, context):
        config = context.config
        engine = DiagnosticsEngine(context.database)
        metrics = get_metrics()
        attempts = []
        # Dedupe the whole queue (preserving order): duplicate candidates
        # would burn retry budget re-linting/re-executing identical SQL.
        queue = list(dict.fromkeys([context.sql] + list(context.candidates)))
        tried = 0
        for sql in queue:
            if not sql:
                continue
            if tried > config.max_retries:
                break
            tried += 1
            with context.span("attempt", index=tried) as attempt:
                diagnostics = context.candidate_diagnostics.get(sql)
                if diagnostics is None:
                    diagnostics = engine.run_sql(sql)
                    context.candidate_diagnostics[sql] = diagnostics
                errors = [diag for diag in diagnostics if diag.is_error]
                if errors:
                    # The engine would reject this candidate too — skip the
                    # execution and regenerate from the lint findings.
                    context.lint_caught += 1
                    metrics.inc("self_correct.lint_caught")
                    attempt.set_attr("outcome", "lint_caught")
                    attempt.set_attr(
                        "codes", " ".join(diag.code for diag in errors)
                    )
                    summary = "; ".join(diag.render() for diag in errors[:3])
                    attempts.append((sql, f"lint: {summary}"))
                    context.add_trace(
                        self.name,
                        f"attempt {tried} lint-rejected: {summary}",
                    )
                    findings = "\n".join(diag.render() for diag in errors)
                    plan_errors = self._plan_errors(context, sql)
                    if plan_errors:
                        attempt.set_attr(
                            "plan_codes",
                            " ".join(f.code for f in plan_errors),
                        )
                        findings += "\nPlan findings:\n" + "\n".join(
                            finding.render() for finding in plan_errors
                        )
                    context.meter.record(
                        "self_correct", self._model,
                        f"Diagnostics:\n{findings}\nRegenerate the SQL.", sql,
                    )
                    continue
                with context.span("execute"):
                    error = context.verdict(sql)
                if error:
                    context.execution_caught += 1
                    metrics.inc("self_correct.execution_caught")
                    attempt.set_attr("outcome", "execution_caught")
                    attempts.append((sql, error))
                    context.add_trace(
                        self.name,
                        f"attempt {tried} failed: {error}",
                    )
                    # The regeneration prompt would carry the error text; the
                    # next grounding candidate plays that corrected role.
                    context.meter.record(
                        "self_correct", self._model,
                        f"Error: {error}\nRegenerate the SQL.", sql,
                    )
                    continue
                attempt.set_attr("outcome", "ok")
            metrics.inc("self_correct.clean")
            context.sql = sql
            context.attempts = attempts
            context.add_trace(
                self.name,
                f"candidate executed cleanly on attempt {tried}",
            )
            return context
        context.attempts = attempts
        context.add_trace(
            self.name,
            f"no candidate executed cleanly after {tried} attempt(s)",
        )
        return context

    @staticmethod
    def _plan_errors(context, sql):
        """Error-level GP findings for this candidate's grounding plan.

        Feeds the regeneration context alongside the GE diagnostics — a
        step that cannot be grounded explains *why* the SQL lints broken,
        which the paper's regeneration prompt wants spelled out.
        """
        return [
            finding for finding in context.plan_findings_for(sql)
            if finding.is_error
        ]
