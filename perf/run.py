"""Run the repository benchmark.

Full run, every workload in its own process, first untraced (end-to-end
metrics) then traced (per-layer metrics)::

    PYTHONPATH=src python perf/run.py --seed 7 --out DIR

writes ``DIR/results.json`` and ``DIR/spans.jsonl`` and exits non-zero,
naming the check, when any correctness check fails. One run of one
workload, whose last line of output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``::

    python3 perf/run.py --workload ask_cold --seed 7 --seconds 15 --trace 0

``--seconds`` sets the size of each workload (see
``workloads.sizes_for``); it defaults to ``run_seconds`` of
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    # The benchmark measures the program in this checkout, never an
    # installed copy: without its source there is nothing to measure.
    sys.exit(f"perf/run.py: no program source under {ROOT / 'src'}")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perf import workloads  # noqa: E402
from perf.metrics import WORKLOADS  # noqa: E402

BENCHMARK = ROOT / "BENCHMARK.json"


def load_benchmark():
    return json.loads(BENCHMARK.read_text(encoding="utf-8"))


def run_workload(name, seed, seconds, traced):
    sizes = workloads.sizes_for(seconds)[name]
    return getattr(workloads, name)(seed, traced=traced, **sizes)


def contract_result(run, benchmark):
    """The one-line result: every end-to-end metric of ``BENCHMARK.json``
    for an untraced run, every per-layer metric for a traced one."""
    listed = benchmark["per_layer" if run.traced else "end_to_end"]
    return {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            entry["name"]: {
                "value": run.metrics[entry["name"]]["value"],
                "unit": run.metrics[entry["name"]]["unit"],
            }
            for entry in listed
        },
    }


def print_run(run):
    mode = "traced" if run.traced else "untraced"
    print(f"== {run.workload} ({mode}): {run.attempted} operation(s), "
          f"{run.failed} failed")
    for name, entry in run.metrics.items():
        samples = entry.get("samples")
        suffix = f"  (n={samples})" if samples is not None else ""
        print(f"  {name:34s} {entry['value']:>14.4f} {entry['unit']:<6s}"
              f"{suffix}")
    for check in run.checks:
        verdict = "ok" if check["ok"] else "FAILED"
        print(f"  check {check['name']}: {verdict}  {check['detail']}")


def save_part(out, run):
    """Write one run's results under ``out/parts``; append its spans to
    ``out/spans.jsonl``."""
    parts = out / "parts"
    parts.mkdir(parents=True, exist_ok=True)
    path = parts / f"{run.workload}.trace{int(run.traced)}.json"
    path.write_text(json.dumps(run.to_dict(), indent=1, sort_keys=True),
                    encoding="utf-8")
    if run.spans:
        with open(out / "spans.jsonl", "a", encoding="utf-8") as spans:
            for span in run.spans:
                spans.write(json.dumps(span.to_record(
                    workload=run.workload
                )) + "\n")


def write_results(out, seed, seconds):
    """Merge the parts under ``out`` into ``out/results.json``."""
    results = {"seed": seed, "seconds": seconds, "workloads": {}}
    for path in sorted((out / "parts").glob("*.json")):
        part = json.loads(path.read_text(encoding="utf-8"))
        entry = results["workloads"].setdefault(part["workload"], {
            "correct": True, "attempted": 0, "failed": 0,
            "end_to_end": {}, "per_layer": {}, "checks": [], "details": {},
        })
        mode = "traced" if part["traced"] else "untraced"
        entry["correct"] = entry["correct"] and part["correct"]
        if not part["traced"]:
            entry["attempted"], entry["failed"] = \
                part["attempted"], part["failed"]
        entry["per_layer" if part["traced"] else "end_to_end"] = \
            part["metrics"]
        entry["checks"] += [
            dict(check, run=mode) for check in part["checks"]
        ]
        entry["details"][mode] = part["details"]
    (out / "results.json").write_text(
        json.dumps(results, indent=1, sort_keys=True), encoding="utf-8"
    )
    return results


def single(args, benchmark):
    # On SIGTERM, unwind normally so a running server is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    run = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    print_run(run)
    if args.out:
        save_part(Path(args.out), run)
        write_results(Path(args.out), args.seed, args.seconds)
    for check in run.checks:
        if not check["ok"]:
            print(f"correctness check failed: {run.workload}: "
                  f"{check['name']}: {check['detail']}", file=sys.stderr)
    print(json.dumps(contract_result(run, benchmark)), flush=True)
    return 0 if run.correct else 1


def full(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for stale in [out / "spans.jsonl", *(out / "parts").glob("*.json")]:
        stale.unlink(missing_ok=True)
    failed_runs = []
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--out", str(out),
            ]
            completed = subprocess.run(command, cwd=ROOT, timeout=900,
                                       check=False)
            if completed.returncode != 0:
                failed_runs.append(f"{name} --trace {trace}")
    results = write_results(out, args.seed, args.seconds)
    for name, entry in results["workloads"].items():
        for check in entry["checks"]:
            if not check["ok"]:
                print(f"correctness check failed: {name} ({check['run']}): "
                      f"{check['name']}: {check['detail']}")
    print(f"wrote {out / 'results.json'} and {out / 'spans.jsonl'}")
    if failed_runs:
        print(f"failed run(s): {', '.join(failed_runs)}")
        return 1
    return 0


def main(argv=None):
    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int,
                        default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for results.json, "
                        "spans.jsonl and per-run parts")
    args = parser.parse_args(argv)
    if args.workload:
        return single(args, benchmark)
    if not args.out:
        parser.error("--out DIR is required without --workload")
    return full(args)


if __name__ == "__main__":
    raise SystemExit(main())
