"""SLO engine: declarative objectives, multi-window burn rates, CI gates.

The serving-layer framing of the ROADMAP needs the vocabulary serving
teams actually use: *objectives* ("EX ≥ 60%", "p99 ≤ 2s", "cost ≤ 1¢ a
question"), an *error budget* (the allowed shortfall), and *burn rate*
(how fast the recent window is spending that budget, where 1.0 means
"exactly on budget"). This module evaluates declarative SLO specs
against two sources:

* the **ledger** — per-run series from :mod:`repro.obs.timeseries`,
  evaluated over a fast window (default 5 runs) and a slow window
  (default 20 runs). An SLO breaches only when *both* windows burn above
  the threshold — the classic multi-window rule: the fast window makes
  alerts immediate, the slow window stops a single stale run from
  paging forever.
* the **live registry** — a metrics snapshot
  (:func:`repro.obs.metrics.global_snapshot`), for mid-run checks
  against ``pipeline.*`` counters/histograms. Objectives the registry
  cannot observe (EX needs gold SQL) report ``"no data"`` rather than
  pass or fail.

Specs are JSON (``examples/slo.json``): a ``slos`` list of flat maps.
``python -m repro slo SPEC`` exits 1 on breach, 2 on a bad spec — CI
alert semantics. See DESIGN.md §6g.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .timeseries import ledger_series

#: Default multi-window sizes, in ledger runs (fast, slow).
DEFAULT_WINDOWS = (5, 20)

#: Metrics whose objective is a floor (value must stay at or above).
_LOWER_BOUND_METRICS = {"ex"}

#: Ratio metrics (0..1 budgets) that support burn-rate computation.
#: Maps metric name -> callable(point value) -> bad fraction in [0, 1].
_BAD_FRACTION = {
    "ex": lambda value: max(0.0, min(1.0, 1.0 - value / 100.0)),
    "error_rate": lambda value: max(0.0, min(1.0, value)),
}


class SloSpecError(ValueError):
    """A spec file that cannot be parsed or validated."""


@dataclass
class SloSpec:
    """One declarative objective.

    ``metric`` names a ledger series (``ex``, ``latency_p99_ms``,
    ``cost_usd_per_question``, ``error_rate``, ``degraded``, ...);
    ``objective`` is the floor (for ``ex``) or ceiling (everything
    else) unless ``bound`` overrides; ``windows`` are the fast/slow run
    counts; ``max_burn_rate`` gates ratio metrics.
    """

    name: str
    metric: str
    objective: float
    bound: str = ""                 # "lower" | "upper"; "" = by metric
    windows: tuple = DEFAULT_WINDOWS
    max_burn_rate: float = 1.0
    description: str = ""
    labels: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.bound not in ("", "lower", "upper"):
            raise SloSpecError(
                f"SLO {self.name!r}: bound must be 'lower' or 'upper', "
                f"not {self.bound!r}"
            )
        windows = tuple(int(window) for window in self.windows)
        if len(windows) != 2 or windows[0] <= 0 or windows[1] < windows[0]:
            raise SloSpecError(
                f"SLO {self.name!r}: windows must be [fast, slow] with "
                f"0 < fast <= slow, not {self.windows!r}"
            )
        self.windows = windows
        self.objective = float(self.objective)
        self.max_burn_rate = float(self.max_burn_rate)

    @property
    def lower_bound(self):
        if self.bound:
            return self.bound == "lower"
        return self.metric in _LOWER_BOUND_METRICS

    @property
    def budget(self):
        """The error budget for ratio metrics, else None.

        For ``ex`` with objective 60, the budget is the allowed bad
        fraction 0.40; for ``error_rate`` with objective 0.25 it is
        0.25 directly.
        """
        if self.metric == "ex":
            return max(0.0, min(1.0, 1.0 - self.objective / 100.0))
        if self.metric == "error_rate":
            return max(0.0, min(1.0, self.objective))
        return None


# -- spec loading ------------------------------------------------------------


def _payload_to_specs(payload):
    if isinstance(payload, list):
        entries = payload
    elif isinstance(payload, dict):
        entries = payload.get("slos")
        if entries is None:
            raise SloSpecError("spec has no top-level 'slos' list")
    else:
        raise SloSpecError(f"spec root must be a map or list, "
                           f"not {type(payload).__name__}")
    specs = []
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise SloSpecError(f"slos[{index}] is not a map")
        try:
            known = {
                key: entry[key]
                for key in ("name", "metric", "objective", "bound",
                            "windows", "max_burn_rate", "description",
                            "labels")
                if key in entry
            }
            unknown = set(entry) - set(known)
            if unknown:
                raise SloSpecError(
                    f"slos[{index}] has unknown key(s): "
                    + ", ".join(sorted(unknown))
                )
            specs.append(SloSpec(**known))
        except TypeError as error:
            raise SloSpecError(f"slos[{index}]: {error}") from None
    if not specs:
        raise SloSpecError("spec defines no SLOs")
    return specs


def _parse_json(text, source):
    try:
        return json.loads(text)
    except json.JSONDecodeError as error:
        raise SloSpecError(
            f"{source}: invalid JSON at line {error.lineno}, column "
            f"{error.colno}: {error.msg}"
        ) from None


def load_slo_specs(path):
    """Load SLO specs from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return _payload_to_specs(_parse_json(text, path))


def parse_slo_text(text):
    """Specs from in-memory JSON text (tests, embedded configs)."""
    return _payload_to_specs(_parse_json(text, "spec"))


# -- evaluation: ledger ------------------------------------------------------


def _window_values(points, window):
    return [value for _run, value in points[-window:]]


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def burn_rate(spec, values):
    """Budget burn over ``values`` (per-run points), or None if N/A.

    ``mean(bad fraction) / budget``; a zero budget burns infinitely for
    any failure and 0.0 when the window is perfect.
    """
    bad_of = _BAD_FRACTION.get(spec.metric)
    budget = spec.budget
    if bad_of is None or budget is None or not values:
        return None
    bad = _mean([bad_of(value) for value in values])
    if budget == 0.0:
        return 0.0 if bad == 0.0 else float("inf")
    return bad / budget


def evaluate_slo(spec, points):
    """Evaluate one spec against its metric's ledger points.

    The threshold check uses the fast window's mean (an SLO is about
    recent behaviour, not all history); ratio metrics additionally
    compute fast/slow burn rates and only breach when *both* windows
    exceed ``max_burn_rate``. Non-ratio metrics breach on the threshold
    alone.
    """
    fast_window, slow_window = spec.windows
    result = {
        "name": spec.name,
        "metric": spec.metric,
        "objective": spec.objective,
        "bound": "lower" if spec.lower_bound else "upper",
        "windows": list(spec.windows),
        "source": "ledger",
    }
    if not points:
        result.update({"status": "no data", "ok": True})
        return result
    fast_values = _window_values(points, fast_window)
    slow_values = _window_values(points, slow_window)
    fast_mean = _mean(fast_values)
    slow_mean = _mean(slow_values)
    if spec.lower_bound:
        threshold_ok = fast_mean >= spec.objective
    else:
        threshold_ok = fast_mean <= spec.objective
    result.update({
        "runs": len(points),
        "latest": points[-1][1],
        "fast_mean": round(fast_mean, 6),
        "slow_mean": round(slow_mean, 6),
        "threshold_ok": threshold_ok,
    })
    fast_burn = burn_rate(spec, fast_values)
    if fast_burn is not None:
        slow_burn = burn_rate(spec, slow_values)
        burning = (
            fast_burn > spec.max_burn_rate
            and slow_burn > spec.max_burn_rate
        )
        result.update({
            "budget": spec.budget,
            "burn_fast": round(fast_burn, 4)
            if fast_burn != float("inf") else fast_burn,
            "burn_slow": round(slow_burn, 4)
            if slow_burn != float("inf") else slow_burn,
            "max_burn_rate": spec.max_burn_rate,
            "burning": burning,
        })
        ok = not burning
    else:
        ok = threshold_ok
    result["ok"] = ok
    result["status"] = "ok" if ok else "breach"
    return result


def evaluate_ledger(specs, ledger, system=None, kind="bench"):
    """Evaluate every spec against the ledger; returns result dicts."""
    series = ledger_series(ledger, system=system, kind=kind)
    synthetic = _synthetic_series(series)
    results = []
    for spec in specs:
        points = series.get(spec.metric) or synthetic.get(spec.metric) or []
        results.append(evaluate_slo(spec, points))
    return results


def _synthetic_series(series):
    """Series derivable from the ledger ones (currently ``error_rate``)."""
    synthetic = {}
    ex_points = series.get("ex")
    if ex_points:
        synthetic["error_rate"] = [
            (run_id, round(1.0 - value / 100.0, 6))
            for run_id, value in ex_points
        ]
    return synthetic


# -- evaluation: live registry -----------------------------------------------


def _registry_value(spec, snapshot):
    """The live-registry reading for a spec's metric, or None.

    ``error_rate`` = failed runs / total runs (``pipeline.failed_runs``
    over ``pipeline.runs``); ``latency_p99_ms`` = p99 of
    ``pipeline.generate_ms``; ``cost_usd_per_question`` = mean of the
    ``pipeline.cost_usd`` histogram. ``ex`` needs gold SQL: not
    observable live.
    """
    counters = snapshot.get("counters") or {}
    histograms = snapshot.get("histograms") or {}
    if spec.metric == "error_rate":
        runs = counters.get("pipeline.runs", 0)
        if not runs:
            return None
        failed = sum(
            value for key, value in counters.items()
            if key.startswith("pipeline.failed_runs")
        )
        return failed / runs
    if spec.metric == "latency_p99_ms":
        entry = histograms.get("pipeline.generate_ms")
        return entry.get("p99") if entry else None
    if spec.metric == "cost_usd_per_question":
        entry = histograms.get("pipeline.cost_usd")
        if not entry or not entry.get("count"):
            return None
        return entry["sum"] / entry["count"]
    return None


def evaluate_registry(specs, snapshot):
    """Evaluate specs against a live metrics snapshot (single-window).

    Burn rates need run history, so this is a point-in-time threshold
    check; metrics the registry cannot observe report ``"no data"``
    (``ok=True`` — absence of evidence must not fail CI mid-run).
    """
    results = []
    for spec in specs:
        result = {
            "name": spec.name,
            "metric": spec.metric,
            "objective": spec.objective,
            "bound": "lower" if spec.lower_bound else "upper",
            "source": "registry",
        }
        value = _registry_value(spec, snapshot)
        if value is None:
            result.update({"status": "no data", "ok": True})
        else:
            ok = (
                value >= spec.objective if spec.lower_bound
                else value <= spec.objective
            )
            result.update({
                "value": round(value, 6),
                "ok": ok,
                "status": "ok" if ok else "breach",
            })
        results.append(result)
    return results


# -- rendering ---------------------------------------------------------------


def render_slo_results(results):
    """Human-readable SLO report (one line per objective + a verdict)."""
    lines = []
    breaches = 0
    for result in results:
        bound = ">=" if result["bound"] == "lower" else "<="
        status = result["status"].upper()
        if result["status"] == "breach":
            breaches += 1
        detail = []
        if "fast_mean" in result:
            detail.append(f"fast {result['fast_mean']:g}")
            detail.append(f"slow {result['slow_mean']:g}")
        if "value" in result:
            detail.append(f"value {result['value']:g}")
        if "burn_fast" in result:
            detail.append(
                f"burn {result['burn_fast']:g}/{result['burn_slow']:g} "
                f"(max {result['max_burn_rate']:g})"
            )
        lines.append(
            f"  [{status:>8}] {result['name']}: {result['metric']} "
            f"{bound} {result['objective']:g}"
            + (f" — {', '.join(detail)}" if detail else "")
        )
    verdict = (
        f"{breaches} breach(es) of {len(results)} SLO(s)"
        if breaches else f"all {len(results)} SLO(s) met"
    )
    return "\n".join([f"slo: {verdict}"] + lines)


def any_breach(results):
    return any(result["status"] == "breach" for result in results)
