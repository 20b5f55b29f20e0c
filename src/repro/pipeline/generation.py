"""SQL generation operator (the second model call of §3.1.2).

Renders candidate SQL from the plan's grounded spec (and the grounding
alternates) with the shared builders, lints every candidate with the
diagnostics engine, and picks the one with the best severity-weighted
score — "if more than one candidate query is generated, GenEdit picks the
'best' one". Each candidate's diagnostics are stashed on the context so
the self-correction operator can reuse them without re-analyzing.
"""

from __future__ import annotations

from ..sql.diagnostics import DiagnosticsEngine, severity_score
from .base import Operator, Plan
from .builders import build_sql
from .plan_lint import lint_plan, plan_error_score
from .planning import build_plan_steps
from .prompt import assemble_prompt


class GenerationOperator(Operator):
    name = "generate_sql"

    def __init__(self, llm=None):
        # Same model-threading contract as SelfCorrectionOperator: meter
        # records follow the pipeline's configured model.
        self._llm = llm

    def run(self, context):
        config = context.config
        candidates = context.grounding_candidates
        if context.plan is None or not candidates:
            context.add_trace(self.name, "no plan available")
            context.candidates = []
            return context
        prompt_examples = context.examples if config.use_examples else []
        fitted = assemble_prompt(
            context.reformulated,
            context.instructions,
            prompt_examples,
            context.schema_elements,
            plan_text=context.plan.render(),
            budget_tokens=config.context_budget_tokens,
        )
        rendered = []
        seen = set()
        spec_by_sql = {}
        # Without pseudo-SQL the plan steps carry no fragments to anchor
        # alternative groundings, so only the primary candidate is viable.
        candidate_limit = (
            max(config.candidate_count, 1) + 2
            if config.use_pseudo_sql else 1
        )
        for candidate in candidates[:candidate_limit]:
            try:
                sql = build_sql(candidate.spec)
            except Exception as error:  # malformed spec -> skip candidate
                context.add_trace(
                    self.name, f"candidate build failed: {error}"
                )
                continue
            if sql not in seen:
                seen.add(sql)
                rendered.append(sql)
                spec_by_sql[sql] = candidate.spec
        context.candidates = rendered
        context.meter.record(
            "generate_sql",
            self._model,
            fitted.prompt,
            rendered[0] if rendered else "",
        )
        # Lint once per candidate; selection and the trace reuse the same
        # diagnostics (previously the chosen candidate was analyzed twice).
        engine = DiagnosticsEngine(context.database)
        scored = []
        for index, sql in enumerate(rendered):
            diagnostics = engine.run_sql(sql)
            context.candidate_diagnostics[sql] = diagnostics
            plan_findings = self._plan_findings(context, spec_by_sql[sql])
            context.candidate_plan_findings[sql] = plan_findings
            scored.append((
                severity_score(diagnostics),
                plan_error_score(plan_findings),
                index,
                sql,
            ))
        if scored:
            best_score, best_plan_score, best_index, chosen = min(scored)
            context.sql = chosen
            summary = (
                f"{len(rendered)} candidate(s); selected #{best_index + 1} "
                f"with lint score {best_score}"
            )
            if best_plan_score:
                summary += f", plan score {best_plan_score}"
            context.add_trace(self.name, summary)
        else:
            context.sql = ""
            context.add_trace(self.name, "0 candidate(s); nothing selected")
        return context

    def _plan_findings(self, context, spec):
        """GP0xx findings for the plan a candidate spec renders to.

        The primary candidate's plan is the context plan the ``lint_plan``
        operator already checked; alternates get a plan built from their
        own spec so grounding errors rank them behind the primary.
        """
        plan = context.plan
        if plan is not None and spec is plan.spec:
            return list(context.plan_findings)
        try:
            steps = build_plan_steps(
                spec, use_pseudo_sql=context.config.use_pseudo_sql
            )
        except Exception:  # malformed spec — the build above caught worse
            return []
        return lint_plan(
            Plan(steps=steps, spec=spec),
            context.database,
            context.schema_elements or None,
        )
