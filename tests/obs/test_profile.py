"""The span-tree fold: self/total work units, seconds segregation."""

from __future__ import annotations

import pytest

from repro.exceptions import ValidationError
from repro.obs.profile import fold_span_tree, profile_records, profile_span_dicts


def _span(name, messages, children=(), seconds=None, phase="query", system="pool"):
    span = {
        "name": name,
        "phase": phase,
        "system": system,
        "messages": messages,
        "children": list(children),
    }
    if seconds is not None:
        span["seconds"] = seconds
    return span


class TestFoldSpanTree:
    def test_leaf_costs(self):
        (cost,) = fold_span_tree(_span("route", 7))
        assert (cost.self_wu, cost.total_wu) == (7, 7)
        assert cost.path == ("route",)
        assert cost.self_seconds is None and cost.total_seconds is None

    def test_self_is_residual_of_itemizing_children(self):
        # A span's count includes what its children charged: self is
        # the residual, not the sum.
        tree = _span("query", 10, [_span("fanout", 6), _span("reply", 3)])
        costs = fold_span_tree(tree)
        root = costs[0]
        assert root.self_wu == 1  # 10 - (6 + 3)
        assert root.total_wu == 10
        assert [c.name for c in costs] == ["query", "fanout", "reply"]
        assert costs[1].path == ("query", "fanout")

    def test_children_charging_more_than_the_parent_are_rejected(self):
        # Spans read their count off the ledger, so a parent covers its
        # children; a capture where it does not is refused, not clamped.
        tree = _span("query", 8, [_span("a", 4), _span("b", 5)])
        with pytest.raises(ValidationError, match="'query'"):
            fold_span_tree(tree)
        nested = _span("query", 9, [_span("fanout", 2, [_span("leg", 3)])])
        with pytest.raises(ValidationError, match="'query/fanout'"):
            fold_span_tree(nested)

    def test_parent_equal_to_its_children_has_no_self_cost(self):
        tree = _span("group", 9, [_span("a", 4), _span("b", 5)])
        root = fold_span_tree(tree)[0]
        assert (root.self_wu, root.total_wu) == (0, 9)

    def test_seconds_folded_with_same_rule(self):
        tree = _span(
            "query",
            10,
            [_span("fanout", 6, seconds=0.25)],
            seconds=1.0,
        )
        root = fold_span_tree(tree)[0]
        assert root.self_seconds == 0.75
        assert root.total_seconds == 1.0

    def test_untimed_parent_inherits_timed_child_total(self):
        tree = _span("group", 4, [_span("a", 4, seconds=0.5)])
        root = fold_span_tree(tree)[0]
        assert root.self_seconds == 0.0
        assert root.total_seconds == 0.5


class TestAggregation:
    def test_entries_grouped_and_sorted_by_kind(self):
        spans = [
            _span("query", 5, [_span("fanout", 2)]),
            _span("query", 7, [_span("fanout", 3)]),
        ]
        entries = profile_span_dicts(spans)
        assert [(e.name, e.count) for e in entries] == [
            ("fanout", 2),
            ("query", 2),
        ]
        query = entries[1]
        assert query.self_wu == (5 - 2) + (7 - 3)
        assert query.total_wu == 12

    def test_as_dict_omits_unmeasured_seconds(self):
        (entry,) = profile_span_dicts([_span("query", 5)])
        payload = entry.as_dict()
        assert "self_seconds" not in payload and "total_seconds" not in payload
        assert payload["self_wu"] == 5

    def test_profile_records_uses_record_system_as_default(self):
        record = {
            "system": "dim",
            "spans": [{"name": "query", "phase": "query", "messages": 4}],
        }
        (entry,) = profile_records([record])
        assert entry.system == "dim"

    def test_v1_and_v2_records_fold_identically(self):
        spans = [_span("query", 5, [_span("fanout", 2)])]
        v1 = {"system": "pool", "spans": spans}
        v2 = {
            "system": "pool",
            "spans": spans,
            "profile": [e.as_dict() for e in profile_span_dicts(spans)],
        }
        assert profile_records([v1]) == profile_records([v2])
