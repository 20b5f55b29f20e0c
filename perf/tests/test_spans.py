"""Self-time fold and span recording, on hand-built spans and a fake clock."""

import asyncio
import threading

import pytest

from perf.spans import Span, SpanRecorder, rollup, root_residuals, \
    self_times


def spans_of(*rows):
    """Spans from ``(id, parent, start, end)`` rows, named by id."""
    return [
        Span(str(span_id), span_id, parent, start, end)
        for span_id, parent, start, end in rows
    ]


def test_nested_children_leave_the_gaps_as_self_time():
    spans = spans_of((1, None, 0, 10), (2, 1, 1, 4), (3, 1, 5, 8),
                     (4, 2, 2, 3))
    assert self_times(spans) == {1: 4, 2: 2, 3: 3, 4: 1}
    assert root_residuals(spans) == {1: 0.0}


def test_overlapping_children_from_worker_threads_count_once():
    # Two workers under one root overlap during [4, 6].
    spans = spans_of((1, None, 0, 10), (2, 1, 1, 6), (3, 1, 4, 9))
    assert self_times(spans) == {1: 2, 2: 5, 3: 5}
    # The overlap is counted in both workers' self time, so the subtree
    # sums to more than the root: the residual shows it.
    assert root_residuals(spans)[1] == pytest.approx(0.2)


def test_children_are_clipped_to_their_parent():
    spans = spans_of((1, None, 0, 5), (2, 1, 3, 8), (3, 1, 6, 7))
    assert self_times(spans)[1] == 3


def test_rollup_renames_by_context():
    spans = [
        Span("generate", 1, None, 0, 10),
        Span("execute", 2, 1, 8, 10),
        Span("operator", 3, 1, 0, 8),
        Span("execute", 4, 3, 1, 2),
    ]

    def name_of(span, parent):
        if span.name == "execute" and parent and parent.name == "generate":
            return "final_check"
        return span.name

    table = rollup(spans, name_of=name_of)
    assert table["final_check"] == {"calls": 1, "total_s": 2, "self_s": 2}
    assert table["execute"]["calls"] == 1
    assert table["operator"]["self_s"] == 7
    assert table["generate"]["self_s"] == 0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_recorder_links_nested_calls_and_records_only_when_enabled():
    recorder = SpanRecorder(clock=FakeClock())
    inner = recorder.wrap("inner", lambda: "x")
    outer = recorder.wrap("outer", lambda: inner())
    assert outer() == "x"
    assert recorder.spans == []
    recorder.enabled = True
    with recorder.root("op", "r1"):
        outer()
    by_name = {span.name: span for span in recorder.spans}
    assert by_name["inner"].parent_id == by_name["outer"].span_id
    assert by_name["outer"].parent_id == by_name["op"].span_id
    assert {span.request_id for span in recorder.spans} == {"r1"}
    assert root_residuals(recorder.spans) == {by_name["op"].span_id: 0.0}


def test_worker_thread_spans_join_their_request_root():
    ambient = threading.local()
    recorder = SpanRecorder(
        request_id_fn=lambda: getattr(ambient, "request", None),
        sample=lambda request_id: request_id != "skip",
    )
    recorder.enabled = True
    work = recorder.wrap("work", lambda: None)

    def worker(request_id):
        ambient.request = request_id
        work()

    async def dispatch(request_id):
        thread = threading.Thread(target=worker, args=(request_id,))
        thread.start()
        await asyncio.to_thread(thread.join)

    root = recorder.wrap_async_root("dispatch", dispatch,
                                    lambda args: args[0])

    async def main():
        await asyncio.gather(root("a"), root("b"), root("skip"))

    asyncio.run(main())
    roots = {span.request_id: span for span in recorder.spans
             if span.name == "dispatch"}
    assert set(roots) == {"a", "b"}
    for span in recorder.spans:
        if span.name == "work":
            assert span.parent_id == roots[span.request_id].span_id


def test_count_skips_calls_inside_the_named_span():
    recorder = SpanRecorder()
    write = recorder.count("write", lambda: None, unless_inside="clone")

    def copy():
        write()
        write()

    clone = recorder.wrap("clone", copy)
    recorder.enabled = True
    with recorder.root("op", "r"):
        clone()
        write()
    assert recorder.counts["write"] == 1
