"""Wall-clock sampling profiler with span attribution.

The ``profile`` harness target folds spans into stage and operator
times; this module answers the finer question — *which code is hot
inside an operator* — without instrumenting anything. A :class:`SamplingProfiler` thread wakes at a
fixed rate (``--profile-sample HZ`` on the harness, default 97 Hz — a
prime, so the period cannot alias with periodic work), grabs every
thread's current Python frame via :func:`sys._current_frames` (no
``sys.setprofile``/``sys.settrace``, so the traced program runs at full
speed), and folds each stack into a counter.

Output is the collapsed-stack format flamegraph tooling consumes
(``frame;frame;leaf count`` per line, root first). Each stack is rooted
at two synthetic frames: ``thread:<name>`` and — when the sampled thread
is inside a traced span — ``span:<name>`` from the ambient stack
(:func:`repro.obs.tracing.span_name_for_thread`), so samples group under
the *operator* that was running (``span:generate``, ``span:plan``, ...)
and hot operators are identifiable straight from the flamegraph.

Sampling is statistical: counts approximate wall time per stack at
``samples / hz`` seconds each. The sampler never touches the sampled
threads (frames are read, not resumed), and its own thread is excluded.
See DESIGN.md §6g.
"""

from __future__ import annotations

import os
import sys
import threading
import time

from .metrics import get_metrics
from .tracing import span_name_for_thread

#: Version of the collapsed-output header line.
PROFILE_SAMPLE_SCHEMA_VERSION = 1

#: Default sampling rate (Hz). Prime, to avoid aliasing periodic work.
DEFAULT_HZ = 97.0


def _frame_label(frame):
    code = frame.f_code
    module = os.path.splitext(os.path.basename(code.co_filename))[0]
    return f"{module}.{code.co_name}"


def collapse_frame(frame, limit=64):
    """Root-first ``module.function`` labels for one thread's stack."""
    labels = []
    while frame is not None and len(labels) < limit:
        labels.append(_frame_label(frame))
        frame = frame.f_back
    labels.reverse()
    return labels


class SamplingProfiler:
    """Samples every thread's stack at ``hz`` until stopped.

    Use as a context manager or ``start()``/``stop()``. ``collapsed()``
    returns the flamegraph-ready text; ``write(path)`` saves it with a
    one-line ``#`` header (schema version, rate, sample count) that
    collapsed-stack consumers ignore.
    """

    def __init__(self, hz=DEFAULT_HZ, clock=time.perf_counter):
        if hz <= 0:
            raise ValueError(f"sampling rate must be positive, not {hz!r}")
        self.hz = float(hz)
        self.interval = 1.0 / self.hz
        self._clock = clock
        self._samples = {}          # stack tuple -> count
        self._lock = threading.Lock()
        self._stop_event = threading.Event()
        self._thread = None
        self.sample_count = 0       # sampling passes taken
        self.stack_count = 0        # thread stacks folded in
        self.started_at = None
        self.wall_s = 0.0

    # -- lifecycle -------------------------------------------------------

    def start(self):
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        self._stop_event.clear()
        self.started_at = self._clock()
        self._thread = threading.Thread(
            target=self._run, name="sampling-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self):
        if self._thread is None:
            return self
        self._stop_event.set()
        self._thread.join()
        self._thread = None
        self.wall_s = self._clock() - self.started_at
        metrics = get_metrics()
        metrics.inc("profiler.samples", self.sample_count)
        metrics.set_gauge("profiler.hz", self.hz)
        return self

    def __enter__(self):
        return self.start()

    def __exit__(self, *_exc_info):
        self.stop()

    # -- sampling --------------------------------------------------------

    def _run(self):
        own_ident = threading.get_ident()
        while not self._stop_event.is_set():
            self._sample(own_ident)
            # wait() (not sleep) so stop() returns promptly mid-interval.
            self._stop_event.wait(self.interval)

    def _sample(self, own_ident):
        names = {
            thread.ident: thread.name for thread in threading.enumerate()
        }
        frames = sys._current_frames()
        with self._lock:
            self.sample_count += 1
            for ident, frame in frames.items():
                if ident == own_ident:
                    continue
                stack = collapse_frame(frame)
                if not stack:
                    continue
                roots = [f"thread:{names.get(ident, ident)}"]
                span_name = span_name_for_thread(ident)
                if span_name:
                    roots.append(f"span:{span_name}")
                key = tuple(roots + stack)
                self._samples[key] = self._samples.get(key, 0) + 1
                self.stack_count += 1

    # -- output ----------------------------------------------------------

    def samples(self):
        """``{stack tuple: count}`` snapshot (copy; safe after stop)."""
        with self._lock:
            return dict(self._samples)

    def hot_spans(self):
        """``{span name: samples}`` — wall-clock weight per traced span."""
        weights = {}
        with self._lock:
            for stack, count in self._samples.items():
                for label in stack:
                    if label.startswith("span:"):
                        name = label[len("span:"):]
                        weights[name] = weights.get(name, 0) + count
                        break
        return dict(sorted(weights.items(), key=lambda item: -item[1]))

    def collapsed(self):
        """Collapsed-stack text: ``frame;frame;leaf count`` per line.

        Sorted by count (descending) then stack, so the hottest paths
        lead and identical runs produce identical files.
        """
        with self._lock:
            entries = sorted(
                self._samples.items(), key=lambda item: (-item[1], item[0])
            )
        return "\n".join(
            ";".join(stack) + f" {count}" for stack, count in entries
        ) + ("\n" if entries else "")

    def write(self, path):
        """Write the collapsed output (+ ``#`` header) to ``path``."""
        header = (
            f"# repro.obs.profiler v{PROFILE_SAMPLE_SCHEMA_VERSION} "
            f"hz={self.hz:g} samples={self.sample_count} "
            f"stacks={self.stack_count} wall_s={self.wall_s:.3f}\n"
        )
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(header)
            handle.write(self.collapsed())
        return self.stack_count
