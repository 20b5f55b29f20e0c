"""Deterministic fault injection for chaos testing.

A :class:`FaultInjector` decides, per call site and occurrence, whether to
inject a fault and of which kind. Decisions are a pure function of
``(seed, scope, site, occurrence)`` via :func:`~.policy.stable_unit`, so a
chaos run replays bit-identically — each per-database pipeline owns its
own injector (scoped by database name), and the per-site occurrence
counters are locked.

Fault kinds, carved out of the configured overall ``rate`` in the fixed
proportions of :data:`FAULT_SHARES`:

* ``error``   — a :class:`~.policy.TransientLLMError` before the call;
* ``timeout`` — an :class:`~.policy.LLMTimeoutError` (the call "hung"
  past its deadline);
* ``garble``  — the call succeeds but its output is truncated/garbled;
* ``latency`` — a recorded latency spike (metrics only; nothing sleeps).

:class:`~.wrapper.ResilientLLM` applies the injector inside each attempt
at the simulated LLM's operator methods; :class:`FaultyExecutor` applies
it to the execution engine, where an injected fault surfaces as
:class:`InjectedExecutionError` — a regular
:class:`~repro.engine.errors.ExecutionError`, so the self-correction
operator and the final check handle it like any runtime failure.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..engine.errors import ExecutionError
from ..obs.metrics import get_metrics
from .policy import LLMTimeoutError, TransientLLMError, stable_unit

FAULT_ERROR = "error"
FAULT_TIMEOUT = "timeout"
FAULT_GARBLE = "garble"
FAULT_LATENCY = "latency"

#: How the faulted band ``[0, rate)`` splits across the kinds; normalised,
#: so only the proportions matter.
FAULT_SHARES = (
    (FAULT_ERROR, 0.45),
    (FAULT_TIMEOUT, 0.25),
    (FAULT_GARBLE, 0.20),
    (FAULT_LATENCY, 0.10),
)
#: The spike an injected ``latency`` fault records.
INJECTED_LATENCY_MS = 250.0


class InjectedExecutionError(ExecutionError):
    """An injected engine failure (subclass so normal handling applies)."""


@dataclass(frozen=True)
class FaultConfig:
    """Overall fault rate and seed (``--faults RATE[:SEED]``)."""

    rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")

    @classmethod
    def parse(cls, text):
        """Parse the harness flag form ``RATE`` or ``RATE:SEED``."""
        rate_text, _, seed_text = str(text).partition(":")
        try:
            rate = float(rate_text)
            seed = int(seed_text) if seed_text else 0
        except ValueError as error:
            raise ValueError(
                f"--faults expects RATE[:SEED], got {text!r}"
            ) from error
        return cls(rate=rate, seed=seed)

    def kind_for(self, unit):
        """Map a ``[0, 1)`` sample to a fault kind, or None for no fault."""
        if unit >= self.rate or self.rate <= 0.0:
            return None
        total = sum(share for _kind, share in FAULT_SHARES)
        band = unit / self.rate
        cumulative = 0.0
        for kind, share in FAULT_SHARES:
            cumulative += share / total
            if band < cumulative:
                return kind
        return FAULT_LATENCY


class FaultInjector:
    """Seed-deterministic fault decisions for one pipeline's call sites."""

    def __init__(self, config, scope=""):
        self.config = config
        self.scope = scope
        self._lock = threading.Lock()
        self._counts = {}
        self.injected = {}          # kind -> count, for assertions/tests

    def decide(self, site):
        """The fault kind for this occurrence of ``site`` (or None)."""
        with self._lock:
            occurrence = self._counts[site] = self._counts.get(site, 0) + 1
        unit = stable_unit(self.config.seed, self.scope, site, occurrence)
        kind = self.config.kind_for(unit)
        if kind is not None:
            with self._lock:
                self.injected[kind] = self.injected.get(kind, 0) + 1
            get_metrics().inc("faults.injected", kind=kind, site=site)
        return kind

    def before_llm_call(self, site):
        """Raise the decided fault (if raising); return the kind otherwise."""
        kind = self.decide(site)
        if kind == FAULT_ERROR:
            raise TransientLLMError(
                f"injected transient failure in {site} ({self.scope})"
            )
        if kind == FAULT_TIMEOUT:
            raise LLMTimeoutError(
                f"injected timeout in {site} ({self.scope})"
            )
        if kind == FAULT_LATENCY:
            get_metrics().observe(
                "faults.injected_latency_ms", INJECTED_LATENCY_MS, site=site,
            )
        return kind

    def garble(self, value):
        """Truncate/garble an output the way a cut-off response would."""
        if isinstance(value, str):
            return value[: max(len(value) // 2, 1)] + " ##TRUNCATED##"
        if isinstance(value, list):
            return value[: len(value) // 2]
        if (
            isinstance(value, tuple)
            and len(value) == 2
            and isinstance(value[1], list)
            and value[1]
        ):
            # The understand() shape: (parsed, candidates) — drop the
            # alternate candidates, keeping the call well-formed.
            return (value[0], value[1][:1])
        return value


class FaultyExecutor:
    """Wraps an :class:`~repro.engine.executor.Executor` with faults.

    Injected error/timeout kinds surface as
    :class:`InjectedExecutionError`; garble and latency kinds are no-ops
    beyond their metrics (a result set cannot be half-returned here).
    """

    def __init__(self, executor, injector):
        self.inner = executor
        self.injector = injector

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def execute(self, query):
        kind = self.injector.decide("execute")
        if kind in (FAULT_ERROR, FAULT_TIMEOUT):
            raise InjectedExecutionError(
                f"injected {kind} in execute ({self.injector.scope})"
            )
        return self.inner.execute(query)
