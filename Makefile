# CI entry points for the GenEdit reproduction.
#
#   make lint     - the full lint job: bytecode-compile everything, run the
#                   tier-1 test suite, then gate on the known-bad SQL corpus
#                   (fails on any rule-coverage regression)
#   make compile  - python -m compileall over src/
#   make test     - tier-1 pytest suite
#   make lint-corpus - diagnostics corpus + CLI smoke only
#   make knowledge-lint - seeded knowledge sets must lint free of errors;
#                   a planted stale-column fixture must fail the linter
#   make trace-smoke - export one traced run, render it, check the root span;
#                   check a span-derived profile (schema v4, wall >= stages)
#                   and that the raw harness rejects an unknown target;
#                   cProfile a bench table1 run and check it sees at least
#                   10 GenEditPipeline.generate calls
#   make feedback-smoke - the simulated SME sessions (§4.2.3) must still
#                   fix 43 generations with no rejected edit; guards the
#                   staging clone path end to end. Every session of seeds
#                   7 and 41 must also gate identically with the knowledge
#                   lint memo warm and cold, and give the same regression
#                   report from the outcome memo as generated afresh
#   make chaos-smoke - run Table 1 under fault injection; every question
#                   must still produce an outcome, and the run's faults.*
#                   and resilience.* metric lines must equal the pinned
#                   tests/fixtures/chaos_smoke_metrics.txt (seed 7)
#   make ledger-smoke - record the same bench run twice into a scratch
#                   ledger; repro diff must find zero flips (determinism)
#   make telemetry-smoke - stream Prometheus telemetry from a short bench
#                   run (output must pass the promtext linter), then
#                   repro watch over a fresh two-run ledger must report
#                   zero level shifts
#   make perf-smoke - columnar micro-ops vs the row oracle; fails if any
#                   executor op drops below the 1.5x speedup gate. Also
#                   the batch retrieval refit vs the per-document one:
#                   bit-identical tables and at least 1.2x faster; the
#                   column-wise table load vs the per-row loader over the
#                   x32 fact tables of seeds 7-9: identical cells and
#                   versions and at least 2x faster; and the executor
#                   (column kernels included) against the row engine by
#                   type and repr of every cell, over every sql_scaled
#                   statement of seeds 8-11 at scale 4
#   make bench-selftest - the benchmark's own tests (perf/tests); the
#                   benchmark imports and patches engine internals, so an
#                   engine refactor can break it while tier-1 stays green
#   make serve-smoke - boot the HTTP service in-process on an ephemeral
#                   port, drive a loadgen burst + backpressure probe
#                   (all non-probe traffic 2xx, probe must see a 429),
#                   check the telemetry flush, then sweep the workload at
#                   concurrency 1 and 8: repro diff must find zero flips
#   make debug-smoke - boot the service in-process, round-trip a caller
#                   traceparent through /debug/traces/{id}, scrape
#                   /metrics through the promtext linter, force one
#                   failing request and reconstruct it from /debug/errors
#   make bench    - regenerate the paper tables

PYTHON ?= python

.PHONY: lint compile test lint-corpus knowledge-lint trace-smoke \
	feedback-smoke chaos-smoke ledger-smoke telemetry-smoke perf-smoke \
	bench-selftest serve-smoke debug-smoke bench

lint: compile test lint-corpus knowledge-lint trace-smoke feedback-smoke \
	chaos-smoke ledger-smoke telemetry-smoke perf-smoke bench-selftest \
	serve-smoke debug-smoke

compile:
	$(PYTHON) -m compileall -q src

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

lint-corpus:
	$(PYTHON) scripts/lint_corpus.py

knowledge-lint:
	PYTHONPATH=src $(PYTHON) -m repro lint-knowledge
	! PYTHONPATH=src $(PYTHON) -m repro lint-knowledge \
		--db sports_holdings \
		--knowledge tests/fixtures/knowledge_corpus/stale_column_sports.json \
		> /dev/null

trace-smoke:
	PYTHONPATH=src $(PYTHON) -m repro ask sports_holdings \
		"How many teams are there?" \
		--trace-out /tmp/repro-trace-smoke.jsonl > /dev/null
	PYTHONPATH=src $(PYTHON) -m repro trace /tmp/repro-trace-smoke.jsonl \
		> /tmp/repro-trace-smoke.txt
	grep -q "^generate " /tmp/repro-trace-smoke.txt
	grep -q -- "-- metrics snapshot" /tmp/repro-trace-smoke.txt
	PYTHONPATH=src $(PYTHON) -m repro bench profile --json --limit 5 \
		> /tmp/repro-trace-smoke-profile.json
	$(PYTHON) -c "import json, sys; p = json.load(open(sys.argv[1])); \
		assert p['schema_version'] == 4, p['schema_version']; \
		assert p['wall_s'] >= sum(p['stages'].values()), p" \
		/tmp/repro-trace-smoke-profile.json
	! PYTHONPATH=src $(PYTHON) -m repro.bench.harness tabel1 2> /dev/null
	PYTHONPATH=src $(PYTHON) -m cProfile -o /tmp/repro-trace-smoke.prof \
		-m repro bench table1 --limit 10 > /dev/null
	$(PYTHON) -c "import pstats, sys; \
		stats = pstats.Stats(sys.argv[1]).stats; \
		calls = sum(row[1] for (path, _line, name), row in stats.items() \
			if name == 'generate' and path.endswith('pipeline/pipeline.py')); \
		assert calls >= 10, calls" /tmp/repro-trace-smoke.prof

feedback-smoke:
	PYTHONPATH=src $(PYTHON) -m repro bench feedback \
		> /tmp/repro-feedback-smoke.txt
	grep -Eq "^fixed generations +\| +43$$" /tmp/repro-feedback-smoke.txt
	grep -Eq "^rejected +\| +0$$" /tmp/repro-feedback-smoke.txt
	PYTHONPATH=src $(PYTHON) scripts/check_gate_memo.py 7 41

chaos-smoke:
	PYTHONPATH=src $(PYTHON) -m repro bench table1 --faults 0.2:7 --metrics \
		> /tmp/repro-chaos-smoke.txt
	grep -q "GenEdit" /tmp/repro-chaos-smoke.txt
	grep -E "^[a-z]+ +(faults|resilience)\." /tmp/repro-chaos-smoke.txt \
		> /tmp/repro-chaos-smoke-metrics.txt
	diff tests/fixtures/chaos_smoke_metrics.txt \
		/tmp/repro-chaos-smoke-metrics.txt

ledger-smoke:
	rm -rf /tmp/repro-ledger-smoke
	PYTHONPATH=src $(PYTHON) -m repro bench table1 \
		--ledger-dir /tmp/repro-ledger-smoke > /dev/null
	PYTHONPATH=src $(PYTHON) -m repro bench table1 \
		--ledger-dir /tmp/repro-ledger-smoke > /dev/null
	PYTHONPATH=src $(PYTHON) -m repro diff --latest \
		--ledger-dir /tmp/repro-ledger-smoke > /tmp/repro-ledger-smoke.txt
	grep -q "total: 0 flip(s)" /tmp/repro-ledger-smoke.txt

telemetry-smoke:
	rm -rf /tmp/repro-telemetry-smoke
	mkdir -p /tmp/repro-telemetry-smoke
	PYTHONPATH=src $(PYTHON) -m repro bench table1 --limit 3 \
		--telemetry-out /tmp/repro-telemetry-smoke/metrics.prom \
		--ledger-dir /tmp/repro-telemetry-smoke/runs > /dev/null
	PYTHONPATH=src $(PYTHON) scripts/check_promtext.py \
		/tmp/repro-telemetry-smoke/metrics.prom
	PYTHONPATH=src $(PYTHON) -m repro bench table1 --limit 3 \
		--ledger-dir /tmp/repro-telemetry-smoke/runs > /dev/null
	PYTHONPATH=src $(PYTHON) -m repro watch --json \
		--ledger-dir /tmp/repro-telemetry-smoke/runs \
		> /tmp/repro-telemetry-smoke/watch.json
	grep -q '"alerts": \[\]' /tmp/repro-telemetry-smoke/watch.json
	PYTHONPATH=src $(PYTHON) -m repro slo examples/slo.json \
		--ledger-dir /tmp/repro-telemetry-smoke/runs \
		> /tmp/repro-telemetry-smoke/slo.txt
	grep -q "all 4 SLO(s) met" /tmp/repro-telemetry-smoke/slo.txt

perf-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_columnar_micro.py \
		benchmarks/test_retrieval_micro.py benchmarks/test_load_micro.py \
		benchmarks/test_engine_differential.py -q -s -p no:cacheprovider

bench-selftest:
	PYTHONPATH=src $(PYTHON) -m pytest -q perf/tests

serve-smoke:
	rm -rf /tmp/repro-serve-smoke
	mkdir -p /tmp/repro-serve-smoke
	PYTHONPATH=src $(PYTHON) -m repro loadgen --self --check --probe \
		--requests 30 --concurrency 4 --workers 2 --queue-depth 2 \
		--telemetry-out /tmp/repro-serve-smoke/metrics.prom \
		energy_grid sports_holdings > /tmp/repro-serve-smoke/burst.txt
	grep -q "p99" /tmp/repro-serve-smoke/burst.txt
	PYTHONPATH=src $(PYTHON) scripts/check_promtext.py \
		/tmp/repro-serve-smoke/metrics.prom
	PYTHONPATH=src $(PYTHON) -m repro loadgen --self --check --sweep \
		--concurrency 1 --ledger-dir /tmp/repro-serve-smoke/runs \
		energy_grid sports_holdings > /dev/null
	PYTHONPATH=src $(PYTHON) -m repro loadgen --self --check --sweep \
		--concurrency 8 --ledger-dir /tmp/repro-serve-smoke/runs \
		energy_grid sports_holdings > /dev/null
	PYTHONPATH=src $(PYTHON) -m repro diff --latest \
		--ledger-dir /tmp/repro-serve-smoke/runs \
		> /tmp/repro-serve-smoke/diff.txt
	grep -q "total: 0 flip(s)" /tmp/repro-serve-smoke/diff.txt

debug-smoke:
	rm -rf /tmp/repro-debug-smoke
	mkdir -p /tmp/repro-debug-smoke
	$(PYTHON) scripts/debug_smoke.py /tmp/repro-debug-smoke/metrics.prom
	PYTHONPATH=src $(PYTHON) scripts/check_promtext.py \
		/tmp/repro-debug-smoke/metrics.prom

bench:
	PYTHONPATH=src $(PYTHON) -m repro bench all
