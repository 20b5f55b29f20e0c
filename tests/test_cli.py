"""CLI tests (the analytics-engine veneer)."""

import io
import pathlib
import re

import pytest

from repro.cli import (
    build_arg_parser,
    cmd_ask,
    cmd_bench,
    cmd_knowledge,
    cmd_solve,
    main,
)

GOLDEN = pathlib.Path(__file__).resolve().parent / "fixtures" / "golden"


def _bench(argv):
    """``repro ARGV`` for a ``bench`` command line, run in process."""
    out = io.StringIO()
    assert cmd_bench(build_arg_parser().parse_args(argv), out) == 0
    return out.getvalue()


def _bench_table1_limit10(seed):
    """``repro --seed SEED bench table1 --limit 10``, run in process."""
    return _bench(["--seed", str(seed), "bench", "table1", "--limit", "10"])


class TestArgParsing:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_arg_parser().parse_args([])

    def test_ask_args(self):
        args = build_arg_parser().parse_args(
            ["ask", "sports_holdings", "How many orgs?", "--trace"]
        )
        assert args.database == "sports_holdings"
        assert args.trace and not args.plan

    def test_bench_choices(self):
        args = build_arg_parser().parse_args(["bench", "table1"])
        assert args.experiment == "table1"
        with pytest.raises(SystemExit):
            build_arg_parser().parse_args(["bench", "nope"])

    @pytest.mark.parametrize("options", [
        ["--profile-sample", "97"],
        ["--profile-out", "x"],
        ["--profile"],
        ["--no-ledger"],
    ], ids=["profile-sample", "profile-out", "profile", "no-ledger"])
    def test_bench_rejects_retired_options(self, options):
        with pytest.raises(SystemExit) as exit_info:
            build_arg_parser().parse_args(["bench", "table1", *options])
        assert exit_info.value.code == 2

    def test_bench_profile_json(self):
        args = build_arg_parser().parse_args(["bench", "profile", "--json"])
        assert (args.experiment, args.json) == ("profile", True)


class TestBenchOutput:
    @pytest.fixture(scope="class")
    def seed7_table1(self):
        return _bench_table1_limit10(7)

    def test_table1_limit10_matches_golden(self, seed7_table1):
        golden = GOLDEN / "table1_limit10_seed7.txt"
        assert seed7_table1 == golden.read_text(encoding="utf-8")

    def test_seed_option_reaches_the_experiments(self, seed7_table1):
        assert _bench_table1_limit10(11) != seed7_table1

    @pytest.mark.parametrize("limit, sessions", [(3, 0), (60, 5)])
    def test_limit_reaches_the_feedback_sessions(self, limit, sessions):
        # The sessions run on the bench command's own (truncated)
        # workload; all 132 questions give 43 sessions.
        text = _bench(["bench", "feedback", "--limit", str(limit)])
        assert re.search(rf"^sessions +\| +{sessions}$", text, re.M), text


    def test_feedback_sessions_reuse_table1_genedit_report(self, tmp_path):
        from collections import Counter

        from repro.bench.harness import ExperimentContext
        from repro.obs import load_trace

        path = tmp_path / "all.jsonl"
        _bench(["bench", "all", "--limit", "20", "--trace-out", str(path)])
        roots = Counter(
            span["attributes"]["question_id"]
            for span in load_trace(str(path))["spans"]
            if span["name"] == "generate" and span["parent_id"] is None
            and span["attributes"]["system"] == "GenEdit"
        )
        # Table 1, Table 2's full row and the crossover each evaluate
        # GenEdit once; the feedback sessions read Table 1's report.
        questions = ExperimentContext(7).workload.questions[:20]
        assert [roots[q.question_id] for q in questions] == [3] * 20


class TestCommands:
    def test_unknown_database_exits(self):
        args = build_arg_parser().parse_args(["ask", "nope", "q"])
        with pytest.raises(SystemExit, match="Unknown database"):
            cmd_ask(args)

    def test_ask_prints_sql_and_result(self):
        out = io.StringIO()
        code = main_like(
            ["ask", "sports_holdings",
             "How many sports organisations are in Canada?"],
            out,
        )
        text = out.getvalue()
        assert code == 0
        assert "-- SQL --" in text
        assert "COUNT(*)" in text
        assert "-- result --" in text

    def test_ask_with_trace_and_plan(self):
        out = io.StringIO()
        main_like(
            ["ask", "sports_holdings", "What is the total revenue?",
             "--trace", "--plan"],
            out,
        )
        text = out.getvalue()
        assert "operator trace" in text
        assert "Step 1:" in text

    def test_knowledge_overview(self):
        out = io.StringIO()
        args = build_arg_parser().parse_args(["knowledge", "retail_chain"])
        assert cmd_knowledge(args, out=out) == 0
        text = out.getvalue()
        assert "intents:" in text
        assert "AOV" in text

    def test_solver_repl_scripted_session(self):
        out = io.StringIO()
        script = iter(
            [
                "ask What is the average outlay?",
                "feedback 'outlay' refers to the EXPENSES column in "
                "SPORTS_FINANCIALS.",
                "stage",
                "regen",
                "submit",
                "approve",
                "library",
                "badcommand",
                "quit",
            ]
        )
        args = build_arg_parser().parse_args(["solve", "sports_holdings"])
        code = cmd_solve(args, out=out, input_fn=lambda _prompt: next(script))
        text = out.getvalue()
        assert code == 0
        assert "recommended:" in text
        assert "staged 1 edit(s)" in text
        assert "AVG(EXPENSES)" in text
        assert "PASS" in text
        assert "merged" in text
        assert "unknown command" in text


def main_like(argv, out):
    """Run a CLI command with stdout captured via the out= hook."""
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    return args.func(args, out=out)
