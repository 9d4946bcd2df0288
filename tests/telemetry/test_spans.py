"""Tests for the span API."""

from __future__ import annotations

from repro.network.messages import MessageCategory
from repro.network.radio import MessageStats
from repro.telemetry.spans import Span, SpanRecorder, open_span

FORWARD = MessageCategory.QUERY_FORWARD


def _fixed_clock():
    times = iter(float(i) for i in range(1000))
    return lambda: next(times)


class TestSpan:
    def test_accumulates_messages_and_nodes(self):
        ledger = MessageStats()
        ledger.record(FORWARD, 7)  # charged before the span opens
        rec = SpanRecorder(clock=_fixed_clock())
        with rec.span("q", ledger=ledger, phase="query") as span:
            ledger.record(FORWARD, 3)
            ledger.record(MessageCategory.ACK, 2)
            span.add_nodes([1, 2])
            span.add_nodes((2, 3))
        ledger.record(FORWARD, 4)  # charged after it closed
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
        ledger = MessageStats()
        rec = SpanRecorder(label="pool", clock=_fixed_clock())
        with rec.span("query", ledger=ledger, phase="query"):
            with rec.span("fanout", ledger=ledger, phase="forward"):
                ledger.record(FORWARD, 4)
            ledger.record(MessageCategory.QUERY_REPLY, 6)
        assert len(rec.roots) == 1
        root = rec.roots[0]
        assert root.system == "pool"  # label is the default system stamp
        assert [c.name for c in root.children] == ["fanout"]
        # The parent's count includes what its child charged.
        assert (root.messages, root.children[0].messages) == (10, 4)

    def test_record_leaf_nests_under_open_span(self):
        ledger = MessageStats()
        rec = SpanRecorder(label="pool", clock=_fixed_clock())
        with rec.span("query", ledger=ledger, phase="query"):
            rec.record("resolve", phase="resolve", pool=2)
            ledger.record(FORWARD, 3)
        (leaf,) = rec.roots[0].children
        assert leaf.attrs == {"pool": 2}
        assert (leaf.messages, rec.roots[0].messages) == (0, 3)

    def test_record_without_open_span_is_a_root(self):
        rec = SpanRecorder(clock=_fixed_clock())
        rec.record("resolve", phase="resolve")
        assert len(rec.roots) == 1

    def test_stack_unwinds_on_exception(self):
        ledger = MessageStats()
        rec = SpanRecorder(clock=_fixed_clock())
        try:
            with rec.span("query", ledger=ledger, phase="query"):
                ledger.record(FORWARD, 2)
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        # The failed span still keeps what was charged before it raised.
        assert rec.roots[0].messages == 2
        # Next span must open at root level, not under the dead one.
        with rec.span("again", ledger=ledger, phase="query"):
            pass
        assert [r.name for r in rec.roots] == ["query", "again"]

    def test_summary_groups_by_system_phase_name(self):
        ledger = MessageStats()
        rec = SpanRecorder(label="pool", clock=_fixed_clock())
        rec.record("resolve", phase="resolve", nodes=[1])
        rec.record("resolve", phase="resolve", nodes=[2])
        with rec.span("fanout", ledger=ledger, phase="forward") as span:
            ledger.record(FORWARD, 7)
            span.add_nodes([1, 2])
        summary = rec.summary()
        assert [(s["phase"], s["name"], s["count"]) for s in summary] == [
            ("forward", "fanout", 1),
            ("resolve", "resolve", 2),
        ]
        fanout, resolve = summary
        assert fanout["messages"] == 7
        assert resolve["nodes"] == 2  # union of {1} and {2}

    def test_len_and_clear(self):
        rec = SpanRecorder(clock=_fixed_clock())
        with rec.span("a", ledger=MessageStats(), phase="p"):
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
        class UnreadLedger:
            @property
            def total(self):
                raise AssertionError("a no-op span must not read the ledger")

        ledger = UnreadLedger()
        first = open_span(None, "a", ledger=ledger, phase="p")
        second = open_span(None, "b", ledger=ledger, phase="q", pool=1)
        assert first is second
        assert not isinstance(first, Span)
        with first as span:
            assert span is first
            span.add_nodes([1, 2])
            span.annotate(answered=0)

    def test_with_recorder_opens_a_real_span(self):
        ledger = MessageStats()
        recorder = SpanRecorder(label="pool", clock=_fixed_clock())
        with open_span(
            recorder, "query", ledger=ledger, phase="query", sink=4
        ) as span:
            ledger.record(FORWARD, 2)
            span.annotate(matches=1)
        (root,) = recorder.roots
        assert (root.name, root.messages) == ("query", 2)
        assert root.attrs == {"sink": 4, "matches": 1}
