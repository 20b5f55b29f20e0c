"""Retry constants, backoff, error classification and the request deadline.

All but the deadline is deterministic by construction: backoff jitter
comes from a stable hash of ``(seed, site, attempt)`` rather than a
shared RNG, so a chaos run replays identically under any scheduling.
"""

from __future__ import annotations

import hashlib
import threading
import time
from contextlib import contextmanager


def stable_unit(*parts):
    """A deterministic sample in ``[0, 1)`` from the hash of ``parts``.

    Used for backoff jitter and fault sampling: unlike a sequential RNG the
    value depends only on the identifying parts, never on how many draws
    other threads made first — chaos runs replay identically under the
    parallel harness.
    """
    text = "|".join(str(part) for part in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2**64


# -- error taxonomy ---------------------------------------------------------


class ResilienceError(Exception):
    """Base of the resilience layer's own error types."""


class TransientError(ResilienceError):
    """A failure worth retrying (network blip, throttle, flaky backend)."""


class TransientLLMError(TransientError):
    """A retryable failure of a (simulated) model call."""


class LLMTimeoutError(TransientError):
    """A model call timed out (an injected ``timeout`` fault)."""


class FatalLLMError(ResilienceError):
    """A model-call failure retrying cannot fix (bad request, auth)."""


class RetriesExhaustedError(ResilienceError):
    """Every allowed attempt failed; carries the last underlying error."""

    def __init__(self, site, attempts, last_error):
        self.site = site
        self.attempts = attempts
        self.last_error = last_error
        super().__init__(
            f"{site} failed after {attempts} attempt(s): "
            f"{type(last_error).__name__}: {last_error}"
        )


RETRYABLE = "retryable"
FATAL = "fatal"


def classify_error(error):
    """Classify ``error`` as :data:`RETRYABLE` or :data:`FATAL`.

    The layer's own transient types are retryable; so are the stdlib
    shapes a real inference stack produces (timeouts, connection resets).
    Everything else — including :class:`FatalLLMError` and arbitrary
    programming errors — is fatal: retrying a deterministic failure only
    burns budget.
    """
    if isinstance(error, TransientError):
        return RETRYABLE
    if isinstance(error, (TimeoutError, ConnectionError, BrokenPipeError)):
        return RETRYABLE
    return FATAL


#: Failure-triage categories keyed by rendered exception type name. This is
#: the text-side mirror of :func:`classify_error` for consumers that only
#: have a recorded outcome's ``error`` string (the run ledger's ``python -m
#: repro triage``): outcome errors are rendered as ``Type: message`` by the
#: harness and ``operator: Type: message`` by the pipeline's required-
#: operator failure path.
FAILURE_CATEGORIES = {
    "TransientLLMError": "llm-transient",
    "ConnectionError": "llm-transient",
    "BrokenPipeError": "llm-transient",
    "LLMTimeoutError": "llm-timeout",
    "TimeoutError": "llm-timeout",
    "FatalLLMError": "llm-fatal",
    "RetriesExhaustedError": "retries-exhausted",
    "InjectedExecutionError": "execution",
    "ExecutionError": "execution",
    "SqlError": "sql-invalid",
    "ParseError": "sql-invalid",
    "AssertionError": "harness",
}


def categorize_failure(error_text):
    """Map an outcome's rendered ``error`` onto the resilience taxonomy.

    Recognised shapes: ``"result mismatch"`` / ``"no SQL generated"`` /
    ``"generation failed"`` (the harness's clean-failure texts),
    ``"Type: message"`` (worker exceptions),
    ``"operator: Type: message"`` (required-operator failures, where the
    type name is the second segment), and the bare parser/executor
    messages the final check records without a type name (``"Unknown
    column ..."``, ``"Expected ..."``, ...). Anything else falls into
    ``"other"``. Empty text (a correct outcome) maps to ``"none"``.
    """
    text = (error_text or "").strip()
    if not text:
        return "none"
    if text == "result mismatch":
        return "wrong-result"
    if text in ("no SQL generated", "generation failed"):
        return "no-sql"
    for segment in text.split(": ", 2)[:2]:
        category = FAILURE_CATEGORIES.get(segment)
        if category is not None:
            return category
    # Final-check errors carry only the message, not the exception type:
    # recognise the parser's and executor's well-known openings.
    if text.startswith(("Expected ", "Unexpected ", "Unterminated ")):
        return "sql-invalid"
    if text.startswith(("Unknown ", "Ambiguous ", "Aggregate ", "Division ")):
        return "execution"
    return "other"


# -- retry constants ----------------------------------------------------------

#: Tries per LLM call: the first plus two retries.
MAX_ATTEMPTS = 3
#: Backoff before retry ``n`` is ``BASE * MULTIPLIER ** (n - 1)``, capped.
BACKOFF_BASE_MS = 50.0
BACKOFF_MULTIPLIER = 2.0
BACKOFF_MAX_MS = 2000.0
#: Seeded jitter adds up to this share of the raw backoff.
JITTER_RATIO = 0.25
BACKOFF_SEED = 0


def backoff_ms(attempt, site=""):
    """Backoff before retry number ``attempt`` (1-based) at ``site``.

    Recorded in ``resilience.backoff_ms``, never slept: the simulated
    stack has nothing to wait for.
    """
    raw = min(
        BACKOFF_BASE_MS * BACKOFF_MULTIPLIER ** max(attempt - 1, 0),
        BACKOFF_MAX_MS,
    )
    jitter = raw * JITTER_RATIO * stable_unit(BACKOFF_SEED, site, attempt)
    return raw + jitter


# -- the request deadline -----------------------------------------------------


class DeadlineExceeded(Exception):
    """The request's deadline passed before its run finished (504)."""


_deadline = threading.local()


@contextmanager
def deadline_scope(at):
    """Run the block under the ``time.monotonic()`` deadline ``at``."""
    outer, _deadline.at = getattr(_deadline, "at", None), at
    try:
        yield
    finally:
        _deadline.at = outer


def check_deadline():
    """Raise :class:`DeadlineExceeded` once this thread's deadline passed."""
    at = getattr(_deadline, "at", None)
    if at is not None and time.monotonic() >= at:
        raise DeadlineExceeded("deadline passed before the run finished")
