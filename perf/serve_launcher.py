"""Start ``repro serve`` under the benchmark's span wrappers.

Usage: ``python perf/serve_launcher.py SEED`` (with ``src`` and the repo
root on ``PYTHONPATH``). The server prints its address and serves as
``python -m repro --seed SEED serve --port 0`` would. Recording starts on
SIGUSR1, for the requests ``sampled_request`` picks. After SIGINT drains
the server, one line ``PERF-DUMP <json>`` on stdout carries the recorded
spans, the knowledge-write counts and the engine and parse-cache counter
deltas since recording started.
"""

from __future__ import annotations

import json
import signal
import sys


def main(argv):
    from repro.cli import main as repro_main
    from repro.obs.tracing import current_trace_id

    from perf.layers import counter_delta, instrumented, program_counters
    from perf.workloads import sampled_request

    seed = int(argv[0])
    with instrumented(request_id_fn=current_trace_id,
                      sample=sampled_request) as recorder:
        baseline = {}

        def start_recording(_signum, _frame):
            baseline.update(program_counters())
            recorder.enabled = True

        signal.signal(signal.SIGUSR1, start_recording)
        code = repro_main(["--seed", str(seed), "serve", "--port", "0"])
        recorder.enabled = False
        dump = {
            "spans": [span.to_record() for span in recorder.spans],
            "counts": dict(recorder.counts),
            "counters": counter_delta(baseline, program_counters())
            if baseline else {},
        }
    print("PERF-DUMP " + json.dumps(dump), flush=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
