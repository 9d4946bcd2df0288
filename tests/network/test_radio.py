"""Tests for message accounting and the energy model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.messages import Message, MessageCategory
from repro.network.radio import EnergyModel, MessageStats
from repro.routing.multicast import MulticastTree


class TestMessageStats:
    def test_record_and_count(self):
        stats = MessageStats()
        stats.record(MessageCategory.INSERT, 3)
        stats.record(MessageCategory.INSERT)
        assert stats.count(MessageCategory.INSERT) == 4
        assert stats.total == 4

    def test_zero_hops_is_noop(self):
        stats = MessageStats()
        stats.record(MessageCategory.INSERT, 0)
        assert stats.total == 0

    def test_negative_hops_rejected(self):
        stats = MessageStats()
        with pytest.raises(ValueError):
            stats.record(MessageCategory.INSERT, -1)

    def test_record_path_counts_edges(self):
        stats = MessageStats()
        stats.record_path(MessageCategory.QUERY_FORWARD, [1, 2, 3, 4])
        assert stats.count(MessageCategory.QUERY_FORWARD) == 3

    def test_record_path_single_node_is_free(self):
        stats = MessageStats()
        stats.record_path(MessageCategory.QUERY_FORWARD, [7])
        assert stats.total == 0

    def test_query_cost_sums_forward_and_reply(self):
        stats = MessageStats()
        stats.record(MessageCategory.QUERY_FORWARD, 5)
        stats.record(MessageCategory.QUERY_REPLY, 4)
        stats.record(MessageCategory.INSERT, 100)  # excluded
        assert stats.query_cost() == 9

    def test_snapshot_has_all_categories(self):
        stats = MessageStats()
        snap = stats.snapshot()
        assert set(snap) == {c.value for c in MessageCategory}
        assert all(v == 0 for v in snap.values())

    def test_reset(self):
        stats = MessageStats()
        stats.record(MessageCategory.DHT, 5)
        stats.reset()
        assert stats.total == 0

    def test_checkpoint_delta(self):
        stats = MessageStats()
        stats.record(MessageCategory.INSERT, 2)
        mark = stats.checkpoint()
        stats.record(MessageCategory.INSERT, 3)
        stats.record(MessageCategory.DHT, 1)
        delta = stats.delta(mark)
        assert delta["insert"] == 3
        assert delta["dht"] == 1

    def test_per_node_ledger(self):
        stats = MessageStats()
        stats.record_path(MessageCategory.INSERT, [1, 2, 3])
        tx = stats.per_node_transmissions()
        rx = stats.per_node_receptions()
        assert tx == {1: 1, 2: 1}
        assert rx == {2: 1, 3: 1}

    @pytest.mark.parametrize(
        "path",
        [[], [7], [4, 9], [3, 1, 4, 1, 5, 9, 2, 6, 5, 3]],
        ids=["empty", "one-node", "one-hop", "revisits"],
    )
    def test_record_path_matches_per_hop_records(self, path):
        """The batched charge equals one ``record()`` per hop, key order too."""
        batched = MessageStats()
        per_hop = MessageStats()
        for stats in (batched, per_hop):
            stats.record(MessageCategory.DHT, sender=8, receiver=3)
        batched.record_path(MessageCategory.INSERT, path)
        for sender, receiver in zip(path, path[1:]):
            per_hop.record(MessageCategory.INSERT, sender=sender, receiver=receiver)
        assert batched.snapshot() == per_hop.snapshot()
        assert list(batched._counts.items()) == list(per_hop._counts.items())
        for view in ("per_node_transmissions", "per_node_receptions"):
            assert list(getattr(batched, view)().items()) == list(
                getattr(per_hop, view)().items()
            )


class TestEnergyModel:
    def test_spent_linear(self):
        model = EnergyModel(tx_cost=2.0, rx_cost=1.0, idle_cost_per_s=0.5)
        assert model.spent(3, 4, idle_s=2.0) == pytest.approx(3 * 2 + 4 * 1 + 1.0)

    def test_remaining(self):
        model = EnergyModel(tx_cost=1.0, rx_cost=0.0, initial_energy=10.0)
        assert model.remaining(4, 0) == pytest.approx(6.0)

    def test_per_node_remaining_from_stats(self):
        stats = MessageStats()
        stats.record_path(MessageCategory.INSERT, [0, 1, 2])
        model = EnergyModel(tx_cost=1.0, rx_cost=0.5, initial_energy=10.0)
        remaining = model.per_node_remaining(stats)
        assert remaining[0] == pytest.approx(9.0)   # 1 tx
        assert remaining[1] == pytest.approx(8.5)   # 1 tx + 1 rx
        assert remaining[2] == pytest.approx(9.5)   # 1 rx


class TestMessage:
    def test_unique_ids(self):
        a = Message(MessageCategory.INSERT, src=0)
        b = Message(MessageCategory.INSERT, src=0)
        assert a.msg_id != b.msg_id

    def test_category_str(self):
        assert str(MessageCategory.QUERY_REPLY) == "query_reply"


def _tree(parent_picks: list[int]) -> MulticastTree:
    """A tree over nodes 0..n rooted at 0: node ``i + 1`` hangs under
    node ``parent_picks[i] % (i + 1)``."""
    parents: dict[int, int] = {}
    depths = {0: 0}
    for index, pick in enumerate(parent_picks):
        parent = pick % (index + 1)
        parents[index + 1] = parent
        depths[index + 1] = depths[parent] + 1
    return MulticastTree(
        root=0, destinations=tuple(parents), parents=parents, depths=depths
    )


_categories = st.sampled_from(list(MessageCategory))
_nodes = st.integers(min_value=0, max_value=40)
_charges = st.one_of(
    st.tuples(
        st.just("record"),
        _categories,
        st.integers(min_value=0, max_value=9),
        st.one_of(st.none(), _nodes),
        st.one_of(st.none(), _nodes),
    ),
    st.tuples(st.just("path"), _categories, st.lists(_nodes, max_size=8)),
    st.tuples(
        st.just("tree"),
        _categories,
        st.lists(st.integers(min_value=0, max_value=40), max_size=8),
        st.booleans(),
    ),
    st.tuples(st.just("reset")),
)


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=2), _charges), max_size=40))
@settings(max_examples=150, deadline=None)
def test_total_is_the_sum_of_category_counts(steps):
    root = MessageStats()
    child = root.scope("child")
    scopes = [root, child, child.scope("grandchild")]
    last: MulticastTree | None = None
    for target, (kind, *args) in steps:
        stats = scopes[target]
        if kind == "record":
            category, hops, sender, receiver = args
            stats.record(category, hops, sender=sender, receiver=receiver)
        elif kind == "path":
            category, path = args
            stats.record_path(category, path)
        elif kind == "tree":
            category, picks, reply = args
            # A reply retraces the last tree sent, which may join it.
            tree = last if reply and last is not None else _tree(picks)
            last = tree
            stats.record_tree(category, tree, reply=reply)
        else:
            stats.reset()
        for scope in scopes:
            assert scope.total == sum(scope.count(c) for c in MessageCategory)
