"""Resilience layer: retries, fault injection, and graceful degradation.

The paper's pipeline already budgets for *semantic* failure (up to ``k``
self-correction retries, §2.1); this package supplies the *operational*
half an enterprise deployment needs. :class:`ResilientLLM` is the one
wrapper around every simulated LLM operator method: each attempt passes
through an optional :class:`FaultInjector`, errors are classified as
retryable or fatal, and retryable ones are retried up to
:data:`~.policy.MAX_ATTEMPTS` with exponential backoff (deterministic seeded
jitter, recorded rather than slept) under a soft per-call deadline
(``timeout_ms``). :class:`FaultyExecutor` applies the same injector to
the execution engine, so chaos behaviour — transient errors, timeouts,
truncated/garbled outputs, latency spikes — is reproducible in tests and
benchmarks (``--faults RATE[:SEED]`` on the harness, ``make chaos-smoke``
in CI). See DESIGN.md §6c.
"""

from .faults import (
    FAULT_ERROR,
    FAULT_GARBLE,
    FAULT_LATENCY,
    FAULT_TIMEOUT,
    FaultConfig,
    FaultInjector,
    FaultyExecutor,
    InjectedExecutionError,
)
from .policy import (
    FAILURE_CATEGORIES,
    FATAL,
    LLM_TIMEOUT_MS,
    RETRYABLE,
    FatalLLMError,
    LLMTimeoutError,
    ResilienceError,
    RetriesExhaustedError,
    TransientError,
    TransientLLMError,
    categorize_failure,
    classify_error,
    stable_unit,
)
from .wrapper import ResilientLLM

__all__ = [
    "FAILURE_CATEGORIES",
    "FATAL",
    "FAULT_ERROR",
    "FAULT_GARBLE",
    "FAULT_LATENCY",
    "FAULT_TIMEOUT",
    "FatalLLMError",
    "FaultConfig",
    "FaultInjector",
    "FaultyExecutor",
    "InjectedExecutionError",
    "LLMTimeoutError",
    "LLM_TIMEOUT_MS",
    "RETRYABLE",
    "ResilienceError",
    "ResilientLLM",
    "RetriesExhaustedError",
    "TransientError",
    "TransientLLMError",
    "categorize_failure",
    "classify_error",
    "stable_unit",
]
