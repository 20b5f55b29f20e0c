"""The one LLM wrapper: retries, the soft deadline and fault injection.

:class:`ResilientLLM` is transparent when nothing fails — same arguments,
same return values, attribute access (``model``, ``linking_model``...)
passes through — so wrapping the simulated LLM never perturbs a healthy
run. Each attempt at an operator method first asks the optional
:class:`~.faults.FaultInjector` for a fault, then calls the model, then
garbles the output on a ``garble`` decision. On failure it classifies the
error (:func:`~.policy.classify_error`), retries retryable ones up to
:data:`~.policy.MAX_ATTEMPTS` with deterministic recorded backoff, and
annotates both the enclosing span and the process-wide metrics registry
with what happened.
"""

from __future__ import annotations

import time

from ..obs.metrics import get_metrics
from ..obs.tracing import current_span
from .faults import FAULT_GARBLE
from .policy import (
    FATAL,
    LLM_TIMEOUT_MS,
    MAX_ATTEMPTS,
    LLMTimeoutError,
    RetriesExhaustedError,
    backoff_ms,
    classify_error,
)


class ResilientLLM:
    """Retry/backoff/timeout/fault-injection wrapper around an LLM."""

    def __init__(self, llm, timeout_ms=LLM_TIMEOUT_MS, injector=None):
        self.inner = llm
        self.timeout_ms = timeout_ms
        self.injector = injector

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def reformulate(self, *args, **kwargs):
        return self._call("reformulate", *args, **kwargs)

    def classify_intents(self, *args, **kwargs):
        return self._call("classify_intents", *args, **kwargs)

    def link_schema(self, *args, **kwargs):
        return self._call("link_schema", *args, **kwargs)

    def understand(self, *args, **kwargs):
        return self._call("understand", *args, **kwargs)

    # -- machinery -------------------------------------------------------

    def _call(self, site, *args, **kwargs):
        metrics = get_metrics()
        function = getattr(self.inner, site)
        injector = self.injector
        last_error = None
        for attempt in range(1, MAX_ATTEMPTS + 1):
            started = time.perf_counter()
            try:
                kind = None
                if injector is not None:
                    kind = injector.before_llm_call(site)
                result = function(*args, **kwargs)
                if kind == FAULT_GARBLE:
                    result = injector.garble(result)
                elapsed_ms = (time.perf_counter() - started) * 1000.0
                if elapsed_ms > self.timeout_ms:
                    # Soft deadline: a synchronous stack cannot preempt the
                    # call, but a call observed past the budget is treated
                    # exactly like one that timed out remotely.
                    raise LLMTimeoutError(
                        f"{site} took {elapsed_ms:.0f}ms "
                        f"(deadline {self.timeout_ms:.0f}ms)"
                    )
            except Exception as error:
                if classify_error(error) is FATAL:
                    metrics.inc("resilience.fatal", operator=site)
                    raise
                last_error = error
                if attempt >= MAX_ATTEMPTS:
                    break
                backoff = backoff_ms(attempt, site)
                metrics.inc("resilience.retries", operator=site)
                metrics.observe("resilience.backoff_ms", backoff,
                                operator=site)
                self._annotate_span("resilience.retries", 1)
                self._annotate_span("resilience.backoff_ms", backoff)
                continue
            if attempt > 1:
                metrics.inc("resilience.recoveries", operator=site)
                span = current_span()
                if span is not None:
                    span.set_attr("resilience.recovered_attempt", attempt)
            return result
        metrics.inc("resilience.exhausted", operator=site)
        self._annotate_span("resilience.exhausted", 1)
        raise RetriesExhaustedError(site, MAX_ATTEMPTS, last_error)

    @staticmethod
    def _annotate_span(key, value):
        span = current_span()
        if span is not None:
            span.inc_attr(key, value)
