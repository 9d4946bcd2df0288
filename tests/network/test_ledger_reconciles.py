"""The per-node ledger reconciles with the category ledger and the ring.

Every charge that names its nodes (routed paths, ARQ hops, trees, reply
legs) lands in the per-node views, so on traffic without the
category-only charges (Pool's ``REPLICATE``/``SHARING`` transfers, the
flooding broadcast, continuous-query cancellations):

* per-node transmissions and receptions each sum to ``stats.total``;
* a lossless facade's per-node maps equal, in iteration order too, the
  maps a reliability layer at loss rate 0 produces hop by hop;
* the flight recorder's ``hop`` events, grouped by their packet's
  category, equal the ledger's counts when the ring dropped nothing.

Pool, DIM and DIFS each insert and answer exact and 1-partial queries
from the centre sink on small random fields.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.system import PoolSystem
from repro.difs.index import DifsIndex
from repro.dim.index import DimIndex
from repro.events.generators import EventWorkload, QueryWorkload
from repro.network import radio
from repro.network.messages import MessageCategory
from repro.network.network import Network
from repro.network.radio import MessageStats
from repro.network.reliability import ArqPolicy, LossModel, ReliabilityLayer
from repro.network.topology import Topology, deploy_uniform
from repro.obs.recorder import FlightRecorder
from repro.routing.multicast import MulticastTree

SYSTEMS = {
    "pool": lambda network: PoolSystem(network, 2, seed=5),
    "dim": lambda network: DimIndex(network, 2),
    "difs": lambda network: DifsIndex(network, 2),
}

QUERIES = (
    QueryWorkload(dimensions=2, kind="exact", range_sizes="uniform"),
    QueryWorkload(dimensions=2, kind="partial", unspecified=1),
)


def _run(topology: Topology, name: str, seed: int, lossy: bool) -> Network:
    """Inserts, then exact and 1-partial queries from the centre sink."""
    reliability = (
        ReliabilityLayer(loss=LossModel(0.0, seed=seed), arq=ArqPolicy(retry_limit=1))
        if lossy
        else None
    )
    network = Network(
        topology,
        reliability=reliability,
        flight_recorder=FlightRecorder(capacity=1 << 20),
    )
    system = SYSTEMS[name](network)
    for event in EventWorkload(dimensions=2).generate(
        2 * topology.size, seed=seed, sources=list(topology)
    ):
        system.insert(event)
    sink = topology.closest_node(topology.field.center)
    for workload in QUERIES:
        for query in workload.generate(3, seed=seed + 1):
            system.query(sink, query)
    return network


def _ring_hops(flight: FlightRecorder) -> dict[str, int]:
    """``hop`` events per category of the packet that holds them."""
    events = flight.as_dict()["events"]
    category = {e["pid"]: e["info"] for e in events if e["kind"] == "send"}
    return dict(Counter(category[e["pid"]] for e in events if e["kind"] == "hop"))


def _charged(stats: MessageStats) -> dict[str, int]:
    return {category: count for category, count in stats.snapshot().items() if count}


@settings(max_examples=12, deadline=None)
@given(
    size=st.integers(min_value=40, max_value=110),
    seed=st.integers(min_value=0, max_value=10_000),
    name=st.sampled_from(sorted(SYSTEMS)),
)
def test_per_node_ledger_reconciles(size, seed, name):
    topology = deploy_uniform(size, seed=seed, max_attempts=50)
    lossless = _run(topology, name, seed, lossy=False)
    arq = _run(topology, name, seed, lossy=True)
    assert _charged(lossless.stats) == _charged(arq.stats)
    for network in (lossless, arq):
        stats = network.stats
        tx = stats.per_node_transmissions()
        rx = stats.per_node_receptions()
        assert sum(tx.values()) == stats.total == sum(rx.values())
        flight = network.flight_recorder
        assert flight.dropped == 0
        assert _ring_hops(flight) == _charged(stats)
    for view in ("per_node_transmissions", "per_node_receptions"):
        assert list(getattr(lossless.stats, view)().items()) == list(
            getattr(arq.stats, view)().items()
        )


# --------------------------------------------------------------------- #
# The log against one record() per hop                                  #
# --------------------------------------------------------------------- #

# root 0; children 5 and 2; 5 has 9 and 1; 2 has 7; 1 has 3.
TREE = MulticastTree(
    root=0,
    destinations=(9, 3, 7),
    parents={5: 0, 9: 5, 1: 5, 3: 1, 2: 0, 7: 2},
    depths={0: 0, 5: 1, 9: 2, 1: 2, 3: 3, 2: 1, 7: 2},
)
BFS_EDGES = [(0, 2), (0, 5), (2, 7), (5, 1), (5, 9), (1, 3)]
REPLY_EDGES = [(3, 1), (1, 5), (7, 2), (9, 5), (2, 0), (5, 0)]


def _per_hop(edges, before=()) -> MessageStats:
    stats = MessageStats()
    for sender, receiver in [*before, *edges]:
        stats.record(MessageCategory.QUERY_REPLY, sender=sender, receiver=receiver)
    return stats


def _views(stats: MessageStats):
    return (
        list(stats.per_node_transmissions().items()),
        list(stats.per_node_receptions().items()),
    )


def test_tree_orders_are_bfs_and_deepest_first():
    assert [(TREE.parents[c], c) for c in TREE.bfs_order()[1:]] == BFS_EDGES
    assert [(c, TREE.parents[c]) for c in TREE.reply_order()] == REPLY_EDGES


def test_forward_tree_folds_in_bfs_order():
    logged = MessageStats()
    logged.record_tree(MessageCategory.QUERY_FORWARD, TREE)
    assert _views(logged) == _views(_per_hop(BFS_EDGES))


def test_reply_tree_folds_deepest_first():
    logged = MessageStats()
    logged.record_tree(MessageCategory.QUERY_REPLY, TREE, reply=True)
    assert _views(logged) == _views(_per_hop(REPLY_EDGES))


def test_a_round_trip_folds_forward_then_back():
    logged = MessageStats()
    logged.record_tree(MessageCategory.QUERY_FORWARD, TREE)
    logged.record_tree(MessageCategory.QUERY_REPLY, TREE, reply=True)
    assert len(logged._log) == 1
    assert _views(logged) == _views(_per_hop(BFS_EDGES + REPLY_EDGES))


def test_a_reply_after_other_traffic_is_its_own_entry():
    logged = MessageStats()
    logged.record_tree(MessageCategory.QUERY_FORWARD, TREE)
    logged.record_path(MessageCategory.QUERY_FORWARD, [9, 4])
    logged.record_tree(MessageCategory.QUERY_REPLY, TREE, reply=True)
    assert len(logged._log) == 3
    assert _views(logged) == _views(_per_hop(BFS_EDGES + [(9, 4)] + REPLY_EDGES))


@st.composite
def _trees(draw):
    """A random tree over shuffled ids, its parents dict in graft order."""
    size = draw(st.integers(min_value=2, max_value=30))
    ids = draw(st.permutations(range(size)))
    parents: dict[int, int] = {}
    depths = {ids[0]: 0}
    for position in range(1, size):
        parent = ids[draw(st.integers(min_value=0, max_value=position - 1))]
        parents[ids[position]] = parent
        depths[ids[position]] = depths[parent] + 1
    graft = draw(st.permutations(list(parents)))
    return MulticastTree(
        root=ids[0],
        destinations=(),
        parents={child: parents[child] for child in graft},
        depths=depths,
    )


@settings(max_examples=150, deadline=None)
@given(
    tree=_trees(),
    kind=st.sampled_from(["forward", "reply", "both"]),
    seen=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=6),
)
def test_a_tree_folds_as_its_hops_would(tree, kind, seen):
    """Any tree, any direction, with some nodes already in the views."""
    forward = [(tree.parents[c], c) for c in tree.bfs_order()[1:]]
    reply = [(c, tree.parents[c]) for c in tree.reply_order()]
    edges = {"forward": forward, "reply": reply, "both": forward + reply}[kind]
    logged = MessageStats()
    for sender, receiver in seen:
        logged.record(MessageCategory.DHT, sender=sender, receiver=receiver)
    if kind != "reply":
        logged.record_tree(MessageCategory.QUERY_FORWARD, tree)
    if kind != "forward":
        logged.record_tree(MessageCategory.QUERY_REPLY, tree, reply=True)
    assert _views(logged) == _views(_per_hop(edges, before=seen))


def test_known_nodes_keep_their_place():
    """Only nodes new to a view take a place from the tree's order."""
    logged = MessageStats()
    logged.record_path(MessageCategory.INSERT, [7, 1, 4])
    logged.record_tree(MessageCategory.QUERY_REPLY, TREE, reply=True)
    logged.record_path(MessageCategory.INSERT, [8, 3])
    reference = _per_hop(REPLY_EDGES + [(8, 3)], before=[(7, 1), (1, 4)])
    assert _views(logged) == _views(reference)


def test_a_long_log_folds_itself(monkeypatch):
    path_weight = 3 * radio._PATH_ID_WEIGHT + radio._ENTRY_WEIGHT
    monkeypatch.setattr(radio, "LOG_FOLD_WEIGHT", 3 * path_weight)
    monkeypatch.setattr(radio, "_FOLD_STEP", 7)
    logged = MessageStats()
    edges = []
    for start in range(40):
        path = [start % 11, (start * 7) % 13, (start * 5) % 17 + 20]
        logged.record_path(MessageCategory.INSERT, path)
        edges += zip(path, path[1:])
        assert len(logged._log) < 3
    logged.record_tree(MessageCategory.QUERY_FORWARD, TREE)
    logged.record(MessageCategory.BEACON, 3, sender=4)
    reference = _per_hop(edges + BFS_EDGES)
    reference.record(MessageCategory.BEACON, 3, sender=4)
    assert _views(logged) == _views(reference)


def test_ids_past_two_bytes_fold_exactly():
    big = MulticastTree(
        root=70_000,
        destinations=(5, 90_000),
        parents={90_000: 70_000, 5: 70_000, 7: 5},
        depths={70_000: 0, 90_000: 1, 5: 1, 7: 2},
    )
    logged = MessageStats()
    logged.record_tree(MessageCategory.QUERY_FORWARD, big)
    logged.record_tree(MessageCategory.QUERY_REPLY, big, reply=True)
    forward = [(70_000, 5), (70_000, 90_000), (5, 7)]
    reply = [(7, 5), (5, 70_000), (90_000, 70_000)]
    assert _views(logged) == _views(_per_hop(forward + reply))


def test_reset_clears_the_log():
    logged = MessageStats()
    logged.record_tree(MessageCategory.QUERY_FORWARD, TREE)
    logged.reset()
    assert _views(logged) == ([], [])
    logged.record_path(MessageCategory.INSERT, [2, 1])
    assert _views(logged) == ([(2, 1)], [(1, 1)])
