"""Cold-vs-warm equivalence of the memoised knowledge lint over SME sessions.

Replays every simulated feedback session of each seed (the sessions
``repro bench feedback`` runs). At each submit the knowledge gate runs as
it does in production, with the lint memo warm from earlier lints. The
script then lints the live and the staged set again, warm, and once more
with the memo cleared before every lint, and requires identical findings
in identical order and an identical gate report. Exits 1 on any
difference.

    PYTHONPATH=src python scripts/check_gate_memo.py 7 41
"""

from __future__ import annotations

import sys
from unittest import mock

import repro.feedback.solver as solver_module
import repro.knowledge.lint as lint_package
from repro.bench.feedback_sim import simulate_feedback_sessions
from repro.knowledge.lint import checker


def _cold_lint(knowledge, database, value_k=5):
    checker._MEMO.clear()
    return checker.lint_knowledge(knowledge, database, value_k)


def check_seed(seed, context=None):
    """Replay ``seed``'s sessions; returns ``(gates checked, mismatches)``."""
    mismatches = []
    gates = 0
    real_gate = solver_module.run_knowledge_gate

    def checked_gate(database, live, staged, tracer=None):
        nonlocal gates
        gates += 1
        warm_gate = real_gate(database, live, staged, tracer=tracer)
        warm = [checker.lint_knowledge(live, database),
                checker.lint_knowledge(staged, database)]
        cold = [_cold_lint(live, database), _cold_lint(staged, database)]
        with mock.patch.object(lint_package, "lint_knowledge", _cold_lint):
            cold_gate = real_gate(database, live, staged)
        for side, warm_findings, cold_findings in zip(
            ("live", "staged"), warm, cold
        ):
            if warm_findings != cold_findings:
                mismatches.append(f"seed {seed} gate {gates}: {side} "
                                  f"findings differ")
        if warm_gate != cold_gate or warm_gate.passed != cold_gate.passed:
            mismatches.append(f"seed {seed} gate {gates}: gate reports "
                              f"differ ({warm_gate.summary()} vs "
                              f"{cold_gate.summary()})")
        return warm_gate

    with mock.patch.object(solver_module, "run_knowledge_gate",
                           checked_gate):
        simulate_feedback_sessions(seed=seed, context=context)
    return gates, mismatches


def main(argv):
    seeds = [int(arg) for arg in argv] or [7]
    failed = False
    for seed in seeds:
        gates, mismatches = check_seed(seed)
        for line in mismatches:
            print(line)
        failed = failed or bool(mismatches) or not gates
        print(f"seed {seed}: {gates} gate(s), {len(mismatches)} mismatch(es)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
