"""Tests for the span API."""

from __future__ import annotations

from repro.telemetry.spans import Span, SpanRecorder, open_span


def _fixed_clock():
    times = iter(float(i) for i in range(1000))
    return lambda: next(times)


class TestSpan:
    def test_accumulates_messages_and_nodes(self):
        span = Span(name="q", phase="query")
        span.add_messages(3)
        span.add_messages(2)
        span.add_nodes([1, 2])
        span.add_nodes((2, 3))
        assert span.messages == 5
        assert span.nodes == {1, 2, 3}

    def test_seconds_zero_while_open(self):
        span = Span(name="q", phase="query", started_at=5.0)
        assert span.seconds == 0.0
        span.ended_at = 7.5
        assert span.seconds == 2.5

    def test_as_dict_excludes_timings_by_default(self):
        span = Span(name="q", phase="query", started_at=1.0, ended_at=2.0)
        span.add_nodes([3, 1, 2])
        payload = span.as_dict()
        assert "seconds" not in payload
        assert payload["nodes"] == [1, 2, 3]  # sorted, deterministic
        assert span.as_dict(include_timings=True)["seconds"] == 1.0

    def test_annotate_sets_attrs(self):
        span = Span(name="q", phase="query", attrs={"a": 1})
        span.annotate(a=2, b=3)
        assert span.attrs == {"a": 2, "b": 3}

    def test_walk_depth_first(self):
        root = Span(name="a", phase="p")
        child = Span(name="b", phase="p")
        grand = Span(name="c", phase="p")
        child.children.append(grand)
        root.children.append(child)
        assert [s.name for s in root.walk()] == ["a", "b", "c"]


class TestSpanRecorder:
    def test_context_manager_nests(self):
        rec = SpanRecorder(label="pool", clock=_fixed_clock())
        with rec.span("query", phase="query") as outer:
            with rec.span("fanout", phase="forward") as inner:
                inner.add_messages(4)
            outer.add_messages(10)
        assert len(rec.roots) == 1
        root = rec.roots[0]
        assert root.system == "pool"  # label is the default system stamp
        assert [c.name for c in root.children] == ["fanout"]
        assert root.messages == 10

    def test_record_leaf_nests_under_open_span(self):
        rec = SpanRecorder(label="pool", clock=_fixed_clock())
        with rec.span("query", phase="query"):
            rec.record("resolve", phase="resolve", messages=0, pool=2)
        assert rec.roots[0].children[0].attrs == {"pool": 2}

    def test_record_without_open_span_is_a_root(self):
        rec = SpanRecorder(clock=_fixed_clock())
        rec.record("resolve", phase="resolve", messages=0)
        assert len(rec.roots) == 1

    def test_stack_unwinds_on_exception(self):
        rec = SpanRecorder(clock=_fixed_clock())
        try:
            with rec.span("query", phase="query"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        # Next span must open at root level, not under the dead one.
        with rec.span("again", phase="query"):
            pass
        assert [r.name for r in rec.roots] == ["query", "again"]

    def test_summary_groups_by_system_phase_name(self):
        rec = SpanRecorder(label="pool", clock=_fixed_clock())
        rec.record("resolve", phase="resolve", messages=0, nodes=[1])
        rec.record("resolve", phase="resolve", messages=0, nodes=[2])
        rec.record("fanout", phase="forward", messages=7, nodes=[1, 2])
        summary = rec.summary()
        assert [(s["phase"], s["name"], s["count"]) for s in summary] == [
            ("forward", "fanout", 1),
            ("resolve", "resolve", 2),
        ]
        resolve = summary[1]
        assert resolve["nodes"] == 2  # union of {1} and {2}

    def test_len_and_clear(self):
        rec = SpanRecorder(clock=_fixed_clock())
        with rec.span("a", phase="p"):
            rec.record("b", phase="p")
        assert len(rec) == 2
        rec.clear()
        assert len(rec) == 0 and rec.as_dicts() == []

    def test_explicit_system_overrides_label(self):
        rec = SpanRecorder(label="pool", clock=_fixed_clock())
        rec.record("x", phase="p", system="dim")
        assert rec.roots[0].system == "dim"


class TestOpenSpan:
    def test_without_recorder_returns_one_shared_noop(self):
        first = open_span(None, "a", phase="p")
        second = open_span(None, "b", phase="q", pool=1)
        assert first is second
        assert not isinstance(first, Span)
        with first as span:
            assert span is first
            span.add_messages(3)
            span.add_nodes([1, 2])
            span.annotate(answered=0)

    def test_with_recorder_opens_a_real_span(self):
        recorder = SpanRecorder(label="pool", clock=_fixed_clock())
        with open_span(recorder, "query", phase="query", sink=4) as span:
            span.add_messages(2)
            span.annotate(matches=1)
        (root,) = recorder.roots
        assert (root.name, root.messages) == ("query", 2)
        assert root.attrs == {"sink": 4, "matches": 1}
