"""The run ledger: persistent run records, diffing, and failure triage.

GenEdit's continuous-improvement loop is built on comparing runs — staged
knowledge-set edits are regression-tested against prior behaviour before a
human approves them (§4.2.1) — yet a harness invocation used to evaporate
the moment it printed its table. This module gives every run a durable,
versioned **run record** in a content-addressed ledger directory::

    .repro/runs/<run_id>/
        record.json   deterministic core: config + knowledge fingerprints,
                      per-question outcomes (correct/degraded/failed, error,
                      lint codes, self-correction attempts, operator output
                      digests), and the full cost/token accounting table
        timing.json   volatile wall-clock data: per-span rollups
                      (p50/p90/p99) and the optional profile payload
        meta.json     creation timestamp and invocation metadata

``record.json`` contains *only* deterministic content (simulated latency,
token counts, digests — never wall-clock), so two runs with the same seed
and config produce byte-identical records modulo the ``run_id`` field; the
run id itself is ``<utc stamp>-<content digest>``, i.e. the directory is
content-addressed with a timestamp disambiguator.

On top of the store: :func:`diff_records` reports per-question EX flips
with **first-divergence attribution** (the earliest operator whose output
digest changed, recorded by the pipeline per ``repro.pipeline.base``),
cost/token/latency deltas, new/resolved diagnostic codes, and degradation
changes; :func:`triage_record` clusters failures by the resilience error
taxonomy (:func:`repro.resilience.categorize_failure`) and surfaces the
worst-cost and slowest questions. ``python -m repro runs|diff|triage`` are
the CLI faces of the three. See DESIGN.md §6d.

Like the rest of :mod:`repro.obs`, this module imports nothing from the
rest of the repo at module scope (the triage taxonomy is a lazy import);
records are built from duck-typed reports/outcomes.
"""

from __future__ import annotations

import calendar
import hashlib
import json
import os
import shutil
import time

from .metrics import get_metrics
from .render import rollup_spans

#: Version of the on-disk run-record schema. Bump on rename/meaning change;
#: additions are backwards-compatible.
LEDGER_SCHEMA_VERSION = 1

#: Default ledger root, relative to the working directory.
DEFAULT_LEDGER_ROOT = os.path.join(".repro", "runs")

_RECORD_FILE = "record.json"
_TIMING_FILE = "timing.json"
_META_FILE = "meta.json"


# -- fingerprints -----------------------------------------------------------


def canonical_json(payload):
    """Deterministic JSON text for hashing and byte-stable comparison."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )


def stable_digest(payload, size=6):
    """Hex blake2b digest of ``payload``'s canonical representation."""
    if not isinstance(payload, str):
        payload = canonical_json(payload)
    return hashlib.blake2b(
        payload.encode("utf-8"), digest_size=size
    ).hexdigest()


def config_fingerprint(config, seed=None):
    """Digest of a pipeline config (a dataclass with a stable repr) + seed."""
    return stable_digest(("config", repr(config), seed))


def knowledge_fingerprint(knowledge):
    """Content digest of one knowledge set (a *version* of its contents).

    Components are digested via their dataclass reprs, sorted, so the
    fingerprint is insertion-order independent and changes exactly when a
    component is added, removed, or edited.
    """
    parts = [knowledge.name]
    for components in (knowledge.intents(), knowledge.examples(),
                       knowledge.instructions(), knowledge.schema_elements()):
        parts.extend(sorted(repr(item) for item in components))
    return stable_digest(parts, size=8)


# -- record building --------------------------------------------------------


def _outcome_entry(outcome):
    """The JSON-ready ledger entry for one QuestionOutcome."""
    return {
        "question_id": outcome.question_id,
        "question": outcome.question_text,
        "difficulty": outcome.difficulty,
        "database": outcome.database,
        "correct": bool(outcome.correct),
        "predicted_sql": outcome.predicted_sql,
        "gold_sql": outcome.gold_sql,
        "error": outcome.error,
        "degraded": list(outcome.degraded),
        "lint_codes": list(outcome.lint_codes),
        "plan_codes": list(outcome.plan_codes),
        "lint_caught": outcome.lint_caught,
        "execution_caught": outcome.execution_caught,
        "attempts": outcome.attempts,
        "cost_usd": round(outcome.cost_usd, 10),
        "latency_ms": round(outcome.latency_ms, 4),
        "operator_digests": [
            [operator, digest] for operator, digest in outcome.operator_digests
        ],
        "llm_calls": [list(call) for call in outcome.llm_calls],
    }


def _accounting_bucket():
    return {"calls": 0, "input_tokens": 0, "output_tokens": 0,
            "cost_usd": 0.0}


def _fold_call(bucket, call):
    _operator, _model, input_tokens, output_tokens, cost_usd = call
    bucket["calls"] += 1
    bucket["input_tokens"] += input_tokens
    bucket["output_tokens"] += output_tokens
    bucket["cost_usd"] += cost_usd


def _round_accounting(table):
    for bucket in table.values():
        bucket["cost_usd"] = round(bucket["cost_usd"], 10)
    return table


def build_accounting(systems):
    """The cost/token table: per operator, per model, and per system.

    ``systems`` is the record's ``{system: {"outcomes": [...]}}`` mapping;
    per-question cost already lives on each outcome entry.
    """
    by_operator = {}
    by_model = {}
    by_system = {}
    total = _accounting_bucket()
    for system_name, entry in systems.items():
        system_bucket = by_system.setdefault(
            system_name, _accounting_bucket()
        )
        for outcome in entry["outcomes"]:
            for call in outcome["llm_calls"]:
                operator, model = call[0], call[1]
                _fold_call(
                    by_operator.setdefault(operator, _accounting_bucket()),
                    call,
                )
                _fold_call(
                    by_model.setdefault(model, _accounting_bucket()), call
                )
                _fold_call(system_bucket, call)
                _fold_call(total, call)
    total["cost_usd"] = round(total["cost_usd"], 10)
    return {
        "by_operator": _round_accounting(by_operator),
        "by_model": _round_accounting(by_model),
        "by_system": _round_accounting(by_system),
        "total": total,
    }


def build_run_record(reports, kind="bench", target="", seed=None,
                     config=None, knowledge_sets=None, faults=None,
                     knowledge_lint=None):
    """Assemble the deterministic ``record.json`` payload (no run id yet).

    ``reports`` is any iterable of duck-typed
    :class:`~repro.bench.metrics.EvaluationReport` objects; duplicate
    system names (e.g. the crossover experiment evaluating GenEdit on two
    workloads) are disambiguated with ``#2``, ``#3``... suffixes in
    arrival order. Everything in the payload is reproducible given the
    same seed and config — wall-clock data belongs in the timing file.

    ``knowledge_lint`` optionally maps knowledge-set name ->
    ``{GK code: count}`` (see
    :func:`repro.knowledge.lint.lint_codes_by_set`); ``repro diff``
    surfaces new/resolved knowledge codes between two records from it.
    """
    systems = {}
    for report in reports or ():
        name = report.system
        suffix = 2
        while name in systems:
            name = f"{report.system}#{suffix}"
            suffix += 1
        correct, questions = report.counts()
        systems[name] = {
            "ex": {
                "simple": round(report.accuracy("simple"), 2),
                "moderate": round(report.accuracy("moderate"), 2),
                "challenging": round(report.accuracy("challenging"), 2),
                "all": round(report.accuracy(), 2),
            },
            "questions": questions,
            "correct": correct,
            "cost_usd": round(report.total_cost_usd, 10),
            "lint_caught": report.lint_caught,
            "execution_caught": report.execution_caught,
            "degraded": report.degraded_count,
            "errors": len(report.errored),
            "outcomes": [
                _outcome_entry(outcome) for outcome in report.outcomes
            ],
        }
    return {
        "schema_version": LEDGER_SCHEMA_VERSION,
        "kind": kind,
        "target": target,
        "seed": seed,
        "config_fingerprint": (
            config_fingerprint(config, seed) if config is not None else None
        ),
        "knowledge": {
            name: _knowledge_entry(name, knowledge, knowledge_lint)
            for name, knowledge in sorted((knowledge_sets or {}).items())
        },
        "faults": (
            {"rate": faults.rate, "seed": faults.seed}
            if faults is not None and getattr(faults, "rate", 0) else None
        ),
        "systems": systems,
        "accounting": build_accounting(systems),
    }


def _knowledge_entry(name, knowledge, knowledge_lint):
    entry = {
        "fingerprint": knowledge_fingerprint(knowledge),
        "stats": knowledge.stats(),
    }
    if knowledge_lint is not None:
        counts = knowledge_lint.get(name) or {}
        entry["lint_codes"] = {
            code: counts[code] for code in sorted(counts)
        }
    return entry


def build_timing(trace_records, profile=None):
    """The volatile ``timing.json`` payload: per-span rollups (p50/90/99).

    ``trace_records`` are span dicts (``Span.to_record`` shape, e.g. a
    harness trace sink), folded by :func:`~repro.obs.render.rollup_spans`
    with every ``*_ms`` figure rounded to the microsecond; ``profile`` is
    an optional ``profile --json`` payload to embed (its own
    ``schema_version`` travels with it).
    """
    rollup = rollup_spans(trace_records)
    rollups = {
        name: {
            key: round(value, 3 if key.endswith("_ms") else 10)
            for key, value in rollup[name].items()
        }
        for name in sorted(rollup)
    }
    timing = {
        "schema_version": LEDGER_SCHEMA_VERSION,
        "span_rollups": rollups,
    }
    if profile is not None:
        timing["profile"] = profile
    return timing


# -- the store --------------------------------------------------------------


class RunLedger:
    """Content-addressed, append-only store of run records on disk."""

    def __init__(self, root=None):
        self.root = str(
            root
            or os.environ.get("REPRO_LEDGER_DIR")
            or DEFAULT_LEDGER_ROOT
        )

    def run_dir(self, run_id):
        return os.path.join(self.root, run_id)

    # -- writing --------------------------------------------------------

    def record_run(self, record, timing=None, meta=None):
        """Persist one run; returns the assigned ``run_id``.

        The id is ``<utc stamp>-<digest>`` where the digest covers the
        record body minus any pre-existing ``run_id`` — identical content
        recorded twice gets the same digest, a fresh timestamp, and a
        ``-2``/``-3`` suffix on a same-second collision.

        Directory creation is the atomicity point: ``os.mkdir`` either
        claims the id or raises ``FileExistsError``, so two writers
        landing in the same UTC second can never both "win" an id the way
        a check-then-makedirs race could — the loser simply retries with
        the next suffix. The claim time (``created_ns``) is persisted in
        the meta header so :meth:`run_ids` can order same-second runs
        deterministically without trusting filesystem mtimes.
        """
        body = {
            key: value for key, value in record.items() if key != "run_id"
        }
        digest = stable_digest(body, size=5)
        stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
        base = f"{stamp}-{digest}"
        os.makedirs(self.root, exist_ok=True)
        run_id = base
        suffix = 2
        while True:
            try:
                os.mkdir(self.run_dir(run_id))
                break
            except FileExistsError:
                run_id = f"{base}-{suffix}"
                suffix += 1
        created_ns = time.time_ns()
        record = dict(body)
        record["run_id"] = run_id
        self._write(run_id, _RECORD_FILE, record)
        if timing is not None:
            timing = dict(timing)
            timing["run_id"] = run_id
            self._write(run_id, _TIMING_FILE, timing)
        header = {
            "schema_version": LEDGER_SCHEMA_VERSION,
            "run_id": run_id,
            "created_at": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            ),
            "created_ns": created_ns,
            "content_digest": digest,
        }
        header.update(meta or {})
        self._write(run_id, _META_FILE, header)
        get_metrics().inc("ledger.runs_recorded")
        return run_id

    def _write(self, run_id, filename, payload):
        path = os.path.join(self.run_dir(run_id), filename)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True, default=str)
            handle.write("\n")

    # -- reading --------------------------------------------------------

    def _read(self, run_id, filename, required=True):
        path = os.path.join(self.run_dir(run_id), filename)
        if not os.path.exists(path):
            if required:
                raise KeyError(f"Run {run_id!r} has no {filename}")
            return None
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    def run_ids(self):
        """Every recorded run id, oldest first.

        Ids lead with a second-resolution UTC stamp, so they mostly sort
        chronologically on their own; the meta header's persisted
        ``created_ns`` breaks ties between distinct runs recorded within
        the same second. Unlike an mtime tiebreak, the persisted
        nanosecond stamp survives copies and is immune to concurrent
        writers touching files out of claim order — ``latest``/``latest~N``
        resolve the same way on every read. Runs recorded before
        ``created_ns`` existed fall back to the record file's mtime.
        """
        if not os.path.isdir(self.root):
            return []
        entries = []
        for entry in os.listdir(self.root):
            path = os.path.join(self.root, entry, _RECORD_FILE)
            if os.path.isfile(path):
                stamp = entry.split("-", 1)[0]
                entries.append(
                    (stamp, self._created_ns(entry, path), entry)
                )
        return [entry for _stamp, _order, entry in sorted(entries)]

    def _created_ns(self, run_id, record_path):
        """Same-second ordering key: persisted claim time, mtime fallback."""
        meta_path = os.path.join(self.run_dir(run_id), _META_FILE)
        if os.path.isfile(meta_path):
            try:
                with open(meta_path, "r", encoding="utf-8") as handle:
                    created_ns = json.load(handle).get("created_ns")
                if created_ns is not None:
                    return int(created_ns)
            except (OSError, ValueError):
                pass
        return int(os.path.getmtime(record_path) * 1e9)

    def resolve(self, reference):
        """A full run id from an exact id, unique prefix, or ``latest``.

        ``latest`` / ``last`` name the most recent run; ``latest~N`` the
        N-th most recent before it (``latest~1`` is the second newest).
        """
        run_ids = self.run_ids()
        if reference in ("latest", "last") or reference.startswith(
            ("latest~", "last~")
        ):
            _, _, offset = reference.partition("~")
            index = int(offset) if offset else 0
            if index >= len(run_ids):
                raise KeyError(
                    f"Ledger {self.root} has {len(run_ids)} run(s); "
                    f"cannot resolve {reference!r}"
                )
            return run_ids[-1 - index]
        if reference in run_ids:
            return reference
        matches = [
            run_id for run_id in run_ids if run_id.startswith(reference)
        ]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise KeyError(
                f"No run matching {reference!r} in {self.root}"
            )
        raise KeyError(
            f"Ambiguous run reference {reference!r}: "
            + ", ".join(matches)
        )

    def read_record(self, reference):
        return self._read(self.resolve(reference), _RECORD_FILE)

    def read_timing(self, reference):
        return self._read(self.resolve(reference), _TIMING_FILE,
                          required=False)

    def read_meta(self, reference):
        return self._read(self.resolve(reference), _META_FILE,
                          required=False) or {}

    def list_runs(self):
        """One summary dict per run, oldest first."""
        summaries = []
        for run_id in self.run_ids():
            record = self._read(run_id, _RECORD_FILE)
            meta = self._read(run_id, _META_FILE, required=False) or {}
            systems = record.get("systems") or {}
            questions = sum(
                entry.get("questions", 0) for entry in systems.values()
            )
            genedit = systems.get("GenEdit") or {}
            summaries.append({
                "run_id": run_id,
                "created_at": meta.get("created_at", ""),
                "kind": record.get("kind", ""),
                "target": record.get("target", ""),
                "seed": record.get("seed"),
                "systems": len(systems),
                "questions": questions,
                "ex_all": (genedit.get("ex") or {}).get("all"),
                "cost_usd": record.get("accounting", {})
                .get("total", {}).get("cost_usd", 0.0),
            })
        return summaries

    def _created_at(self, run_id):
        """A run's creation time as a Unix timestamp.

        Prefers the meta header's ``created_at``; falls back to the
        second-resolution UTC stamp the run id leads with, then to the
        record file's mtime (a run directory is always one of the three).
        """
        meta = self._read(run_id, _META_FILE, required=False) or {}
        for stamp, fmt in (
            (meta.get("created_at"), "%Y-%m-%dT%H:%M:%SZ"),
            (run_id.split("-", 1)[0], "%Y%m%dT%H%M%SZ"),
        ):
            if not stamp:
                continue
            try:
                return calendar.timegm(time.strptime(stamp, fmt))
            except ValueError:
                continue
        return os.path.getmtime(
            os.path.join(self.run_dir(run_id), _RECORD_FILE)
        )

    def gc(self, keep=20, keep_days=None, now=None):
        """Delete old runs; returns the removed ids, oldest first.

        Two independent retention policies compose: ``keep`` bounds the
        run *count* (oldest beyond the newest ``keep`` go; ``keep <= 0``
        disables the count bound when ``keep_days`` is given), and
        ``keep_days`` bounds *age* — runs created more than that many
        days before ``now`` (Unix seconds, defaults to the current time)
        are removed even if they fit the count. A run is deleted when
        EITHER policy condemns it.
        """
        run_ids = self.run_ids()
        condemned = set()
        if keep_days is None or keep > 0:
            condemned.update(run_ids[:-keep] if keep > 0 else run_ids)
        if keep_days is not None:
            if now is None:
                now = time.time()
            cutoff = now - float(keep_days) * 86400.0
            condemned.update(
                run_id for run_id in run_ids
                if self._created_at(run_id) < cutoff
            )
        removed = [run_id for run_id in run_ids if run_id in condemned]
        for run_id in removed:
            shutil.rmtree(self.run_dir(run_id))
        return removed


# -- diffing ----------------------------------------------------------------


def first_divergence(outcome_a, outcome_b):
    """The earliest operator whose output digest differs between outcomes.

    Returns the operator name, ``"final_check"`` when every recorded
    digest matches (the divergence is in execution, not generation), or
    ``"unknown"`` when either side carries no digest trail (records from
    before the digest schema, or failed runs with no operator output).
    """
    trail_a = outcome_a.get("operator_digests") or []
    trail_b = outcome_b.get("operator_digests") or []
    if not trail_a or not trail_b:
        return "unknown"
    for (op_a, digest_a), (op_b, digest_b) in zip(trail_a, trail_b):
        if op_a != op_b:
            return op_b
        if digest_a != digest_b:
            return op_a
    if len(trail_a) != len(trail_b):
        longer = trail_a if len(trail_a) > len(trail_b) else trail_b
        return longer[min(len(trail_a), len(trail_b))][0]
    return "final_check"


def _system_totals(entry):
    calls = [
        call
        for outcome in entry["outcomes"]
        for call in outcome["llm_calls"]
    ]
    return {
        "cost_usd": sum(call[4] for call in calls),
        "input_tokens": sum(call[2] for call in calls),
        "output_tokens": sum(call[3] for call in calls),
        "latency_ms": sum(
            outcome["latency_ms"] for outcome in entry["outcomes"]
        ),
    }


def diff_records(record_a, record_b):
    """Structured run-to-run diff of two ``record.json`` payloads.

    Per system present in both records: per-question EX flips (with
    first-divergence attribution and before/after SQL), EX / cost / token
    / simulated-latency deltas, diagnostic codes introduced or resolved,
    and degradation-count changes.
    """
    systems_a = record_a.get("systems") or {}
    systems_b = record_b.get("systems") or {}
    knowledge_changes = {}
    knowledge_a = record_a.get("knowledge") or {}
    knowledge_b = record_b.get("knowledge") or {}
    for name in sorted(set(knowledge_a) | set(knowledge_b)):
        entry_a = knowledge_a.get(name) or {}
        entry_b = knowledge_b.get(name) or {}
        fingerprint_a = entry_a.get("fingerprint")
        fingerprint_b = entry_b.get("fingerprint")
        codes_a = entry_a.get("lint_codes") or {}
        codes_b = entry_b.get("lint_codes") or {}
        new_knowledge_codes = {
            code: codes_b[code]
            for code in sorted(set(codes_b) - set(codes_a))
        }
        resolved_knowledge_codes = {
            code: codes_a[code]
            for code in sorted(set(codes_a) - set(codes_b))
        }
        if (
            fingerprint_a != fingerprint_b
            or new_knowledge_codes or resolved_knowledge_codes
        ):
            knowledge_changes[name] = {
                "a": fingerprint_a, "b": fingerprint_b,
                "new_codes": new_knowledge_codes,
                "resolved_codes": resolved_knowledge_codes,
            }
    diff = {
        "run_a": record_a.get("run_id", ""),
        "run_b": record_b.get("run_id", ""),
        "config_changed": (
            record_a.get("config_fingerprint")
            != record_b.get("config_fingerprint")
        ),
        "seed_changed": record_a.get("seed") != record_b.get("seed"),
        "knowledge_changes": knowledge_changes,
        "systems": {},
        "only_in_a": sorted(set(systems_a) - set(systems_b)),
        "only_in_b": sorted(set(systems_b) - set(systems_a)),
        "flips": 0,
        "cost_delta_usd": 0.0,
    }
    for name in sorted(set(systems_a) & set(systems_b)):
        entry_a, entry_b = systems_a[name], systems_b[name]
        outcomes_a = {
            outcome["question_id"]: outcome
            for outcome in entry_a["outcomes"]
        }
        outcomes_b = {
            outcome["question_id"]: outcome
            for outcome in entry_b["outcomes"]
        }
        shared = [
            question_id for question_id in outcomes_a
            if question_id in outcomes_b
        ]
        flips = []
        new_codes = {}
        resolved_codes = {}
        degraded_delta = {}
        for question_id in shared:
            outcome_a, outcome_b = (
                outcomes_a[question_id], outcomes_b[question_id],
            )
            if outcome_a["correct"] != outcome_b["correct"]:
                flips.append({
                    "question_id": question_id,
                    "database": outcome_a["database"],
                    "direction": (
                        "fixed" if outcome_b["correct"] else "broke"
                    ),
                    "first_divergence": first_divergence(
                        outcome_a, outcome_b
                    ),
                    "error_a": outcome_a["error"],
                    "error_b": outcome_b["error"],
                    "sql_a": outcome_a["predicted_sql"],
                    "sql_b": outcome_b["predicted_sql"],
                })
            codes_a = set(outcome_a.get("lint_codes") or ()) | set(
                outcome_a.get("plan_codes") or ()
            )
            codes_b = set(outcome_b.get("lint_codes") or ()) | set(
                outcome_b.get("plan_codes") or ()
            )
            for code in codes_b - codes_a:
                new_codes[code] = new_codes.get(code, 0) + 1
            for code in codes_a - codes_b:
                resolved_codes[code] = resolved_codes.get(code, 0) + 1
            for operator in outcome_b.get("degraded") or ():
                degraded_delta[operator] = (
                    degraded_delta.get(operator, 0) + 1
                )
            for operator in outcome_a.get("degraded") or ():
                degraded_delta[operator] = (
                    degraded_delta.get(operator, 0) - 1
                )
        totals_a = _system_totals(entry_a)
        totals_b = _system_totals(entry_b)
        cost_delta = round(
            totals_b["cost_usd"] - totals_a["cost_usd"], 10
        )
        diff["systems"][name] = {
            "questions_compared": len(shared),
            "only_in_a": len(outcomes_a) - len(shared),
            "only_in_b": len(outcomes_b) - len(shared),
            "ex_a": entry_a["ex"]["all"],
            "ex_b": entry_b["ex"]["all"],
            "ex_delta": round(
                entry_b["ex"]["all"] - entry_a["ex"]["all"], 2
            ),
            "flips": flips,
            "cost_delta_usd": cost_delta,
            "input_tokens_delta": (
                totals_b["input_tokens"] - totals_a["input_tokens"]
            ),
            "output_tokens_delta": (
                totals_b["output_tokens"] - totals_a["output_tokens"]
            ),
            "latency_ms_delta": round(
                totals_b["latency_ms"] - totals_a["latency_ms"], 4
            ),
            "new_codes": dict(sorted(new_codes.items())),
            "resolved_codes": dict(sorted(resolved_codes.items())),
            "degraded_delta": {
                operator: delta
                for operator, delta in sorted(degraded_delta.items())
                if delta
            },
        }
        diff["flips"] += len(flips)
        diff["cost_delta_usd"] = round(
            diff["cost_delta_usd"] + cost_delta, 10
        )
    return diff


def render_diff(diff, show_sql=False):
    """Human-readable rendering of a :func:`diff_records` payload."""
    lines = [f"run diff: {diff['run_a']} -> {diff['run_b']}"]
    lines.append(
        "config: " + ("CHANGED" if diff["config_changed"] else "identical")
    )
    if diff.get("seed_changed"):
        lines.append("seed: CHANGED")
    if diff["knowledge_changes"]:
        for name, change in diff["knowledge_changes"].items():
            if change["a"] != change["b"]:
                lines.append(
                    f"knowledge[{name}]: {change['a']} -> {change['b']}"
                )
            if change.get("new_codes"):
                lines.append(
                    f"knowledge[{name}] new knowledge codes: " + ", ".join(
                        f"{code} (x{count})"
                        for code, count in change["new_codes"].items()
                    )
                )
            if change.get("resolved_codes"):
                lines.append(
                    f"knowledge[{name}] resolved knowledge codes: "
                    + ", ".join(
                        f"{code} (x{count})"
                        for code, count in
                        change["resolved_codes"].items()
                    )
                )
    else:
        lines.append("knowledge: identical")
    for name in diff["only_in_a"]:
        lines.append(f"system only in A: {name}")
    for name in diff["only_in_b"]:
        lines.append(f"system only in B: {name}")
    for name, entry in diff["systems"].items():
        lines.append("")
        lines.append(
            f"{name}: EX {entry['ex_a']:.2f} -> {entry['ex_b']:.2f} "
            f"({entry['ex_delta']:+.2f}), "
            f"{len(entry['flips'])} flip(s), "
            f"cost {entry['cost_delta_usd']:+.6f} USD, "
            f"tokens {entry['input_tokens_delta']:+d} in / "
            f"{entry['output_tokens_delta']:+d} out, "
            f"latency {entry['latency_ms_delta']:+.1f} ms (simulated)"
        )
        for flip in entry["flips"]:
            lines.append(
                f"  {flip['direction']:>5}  {flip['question_id']} "
                f"[{flip['database']}]  "
                f"first divergence: {flip['first_divergence']}"
            )
            if flip["direction"] == "broke" and flip["error_b"]:
                lines.append(f"         error: {flip['error_b']}")
            if show_sql:
                lines.append(f"         A: {flip['sql_a']}")
                lines.append(f"         B: {flip['sql_b']}")
        if entry["new_codes"]:
            lines.append(
                "  new diagnostic codes: " + ", ".join(
                    f"{code} (x{count})"
                    for code, count in entry["new_codes"].items()
                )
            )
        if entry["resolved_codes"]:
            lines.append(
                "  resolved diagnostic codes: " + ", ".join(
                    f"{code} (x{count})"
                    for code, count in entry["resolved_codes"].items()
                )
            )
        if entry["degraded_delta"]:
            lines.append(
                "  degradation delta: " + ", ".join(
                    f"{operator} {delta:+d}"
                    for operator, delta in entry["degraded_delta"].items()
                )
            )
    lines.append("")
    lines.append(
        f"total: {diff['flips']} flip(s), "
        f"cost delta {diff['cost_delta_usd']:+.6f} USD"
    )
    return "\n".join(lines)


# -- triage -----------------------------------------------------------------


def triage_record(record, top=5):
    """Cluster a run's failures by the resilience error taxonomy.

    Returns per-category counts with example questions, the degradation
    tally, and the ``top`` worst-cost and slowest (simulated latency)
    questions across all systems.
    """
    from ..resilience import categorize_failure  # lazy: obs stays standalone

    categories = {}
    degraded = {}
    ranked = []
    failures = 0
    questions = 0
    for system_name, entry in (record.get("systems") or {}).items():
        for outcome in entry["outcomes"]:
            questions += 1
            ranked.append((
                system_name, outcome["question_id"],
                outcome["cost_usd"], outcome["latency_ms"],
            ))
            for operator in outcome.get("degraded") or ():
                degraded[operator] = degraded.get(operator, 0) + 1
            if outcome["correct"]:
                continue
            failures += 1
            category = categorize_failure(outcome["error"])
            bucket = categories.setdefault(
                category, {"count": 0, "examples": []}
            )
            bucket["count"] += 1
            if len(bucket["examples"]) < 3:
                bucket["examples"].append({
                    "system": system_name,
                    "question_id": outcome["question_id"],
                    "error": outcome["error"],
                })
    return {
        "run_id": record.get("run_id", ""),
        "questions": questions,
        "failures": failures,
        "categories": dict(
            sorted(
                categories.items(),
                key=lambda item: (-item[1]["count"], item[0]),
            )
        ),
        "degraded": dict(sorted(degraded.items())),
        "worst_cost": [
            {"system": system, "question_id": question_id,
             "cost_usd": cost}
            for system, question_id, cost, _latency in sorted(
                ranked, key=lambda item: -item[2]
            )[:top]
        ],
        "slowest": [
            {"system": system, "question_id": question_id,
             "latency_ms": latency}
            for system, question_id, _cost, latency in sorted(
                ranked, key=lambda item: -item[3]
            )[:top]
        ],
    }


def render_triage(triage):
    """Human-readable rendering of a :func:`triage_record` payload."""
    lines = [
        f"triage: run {triage['run_id']} — "
        f"{triage['failures']}/{triage['questions']} question(s) failed"
    ]
    for category, bucket in triage["categories"].items():
        lines.append(f"  {category}: {bucket['count']}")
        for example in bucket["examples"]:
            error = example["error"]
            if len(error) > 70:
                error = error[:69] + "…"
            lines.append(
                f"    {example['system']}/{example['question_id']}: {error}"
            )
    if triage["degraded"]:
        lines.append(
            "degradations: " + ", ".join(
                f"{operator} x{count}"
                for operator, count in triage["degraded"].items()
            )
        )
    lines.append("worst cost:")
    for entry in triage["worst_cost"]:
        lines.append(
            f"  {entry['system']}/{entry['question_id']}: "
            f"${entry['cost_usd']:.6f}"
        )
    lines.append("slowest (simulated):")
    for entry in triage["slowest"]:
        lines.append(
            f"  {entry['system']}/{entry['question_id']}: "
            f"{entry['latency_ms']:.0f} ms"
        )
    return "\n".join(lines)


# -- regression baselining --------------------------------------------------


def outcomes_by_question(record, system=None):
    """Index a record's outcomes by question text for baseline lookup.

    ``system`` picks one system's outcomes; by default ``GenEdit`` when
    present, otherwise the record's first system. Outcomes with no
    recorded question text are skipped.
    """
    systems = record.get("systems") or {}
    if not systems:
        return {}
    if system is None:
        system = "GenEdit" if "GenEdit" in systems else next(iter(systems))
    entry = systems.get(system)
    if entry is None:
        raise KeyError(
            f"Run {record.get('run_id', '?')} has no system {system!r}"
        )
    return {
        outcome["question"]: outcome
        for outcome in entry["outcomes"]
        if outcome.get("question")
    }


def golden_queries_from_record(record, system=None, database=None,
                               limit=None):
    """(question, gold_sql) anchors from a record's *correct* outcomes.

    The natural regression suite for a staged edit: everything the
    baseline run got right on ``database`` must stay right. Returns a
    list of ``(question, gold_sql)`` tuples (the caller wraps them in its
    own GoldenQuery type to keep this module import-free).
    """
    anchors = []
    for outcome in outcomes_by_question(record, system=system).values():
        if not outcome["correct"] or not outcome.get("gold_sql"):
            continue
        if database is not None and outcome["database"] != database:
            continue
        anchors.append((outcome["question"], outcome["gold_sql"]))
        if limit is not None and len(anchors) >= limit:
            break
    return anchors
