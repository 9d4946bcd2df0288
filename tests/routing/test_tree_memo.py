"""The router's tree memo and the one-pass graft.

``graft`` keeps each tree it grafts in the router's :class:`TreeMemo`,
keyed by ``(root, destinations)``, and grafts a missing one in one pass
over the destinations.  Each check compares it with the one-path-at-a-
time oracle of ``test_multicast_properties``, on dense and sparse fields
(sparse fields route many paths through perimeter mode), on routers made
by ``without_nodes``, with cold routers and with warm ones.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DeliveryError
from repro.network.messages import MessageCategory
from repro.network.network import Network
from repro.network.reliability import ArqPolicy, LossModel, ReliabilityLayer
from repro.network.topology import deploy_uniform
from repro.routing import gpsr, multicast
from repro.routing.gpsr import GPSRRouter
from repro.routing.multicast import MulticastTree, TreeMemo, graft

from tests.routing.test_multicast_properties import _ForwardScanBuilder


def _twin_routers(data, n: int, seed: int, degree: int):
    """Two routers in the same state (cold, warm, or derived by
    ``without_nodes`` from equally warm ones), and the live node ids."""
    topology = deploy_uniform(n, seed=seed, target_degree=degree, require_connected=False)
    routers = [GPSRRouter(topology), GPSRRouter(topology)]
    warm = data.draw(st.lists(st.integers(0, n - 1), max_size=12), label="warm")
    for router in routers:
        for node in warm:
            try:
                router.path(warm[0], node)
            except DeliveryError:
                pass
    alive = list(range(n))
    if data.draw(st.booleans(), label="failures"):
        failed = data.draw(
            st.sets(st.integers(0, n - 1), max_size=n // 4), label="failed"
        )
        routers = [router.without_nodes(failed) for router in routers]
        alive = [node for node in alive if node not in failed]
    return routers, alive


def _destinations(data, root: int, alive: list[int], router: GPSRRouter) -> list[int]:
    """Live destinations the root can reach, with repeats and the root."""
    drawn = data.draw(
        st.lists(
            st.one_of(st.sampled_from(alive), st.just(root)), min_size=1, max_size=40
        ),
        label="destinations",
    )
    drawn += data.draw(st.lists(st.sampled_from(drawn), max_size=6), label="repeats")
    reachable = []
    for node in drawn:
        try:
            router.path(root, node)
        except DeliveryError:
            continue
        reachable.append(node)
    return reachable


def _assert_same_tree(tree: MulticastTree, oracle: _ForwardScanBuilder) -> None:
    assert list(tree.parents.items()) == list(oracle.parents.items())
    assert list(tree.depths.items()) == list(oracle.depths.items())
    assert tree.destinations == tuple(oracle.destinations)


fields = st.tuples(
    st.integers(min_value=20, max_value=90),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=5, max_value=9),
)


class TestGraftEqualsOracle:
    @given(fields, st.booleans(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_graft_equals_one_path_at_a_time(self, field, small_batches, data):
        n, seed, degree = field
        (grafting, oracle_router), alive = _twin_routers(data, n, seed, degree)
        root = data.draw(st.sampled_from(alive), label="root")
        # A copy of the oracle's router picks the reachable destinations
        # without warming either of the two compared.
        destinations = _destinations(data, root, alive, oracle_router.without_nodes(()))
        oracle = _ForwardScanBuilder(oracle_router, root)
        for node in destinations:
            oracle.add_destination(node)
        threshold = 1 if small_batches else gpsr.LOCKSTEP_DESTINATIONS
        with mock.patch.object(gpsr, "LOCKSTEP_DESTINATIONS", threshold):
            tree = graft(grafting, root, destinations)
        _assert_same_tree(tree, oracle)
        # The graft caches every path the oracle routed, and may also
        # cache those of destinations it grafted as relays.
        cached = grafting.path_cache
        assert all(cached.get(key) == path for key, path in oracle_router.path_cache.items())
        # A hit is the same object, whatever iterable names the key.
        assert graft(grafting, root, tuple(destinations)) is tree
        assert graft(grafting, root, iter(destinations)) is tree
        _assert_same_tree(tree, oracle)

    @given(fields, st.data())
    @settings(max_examples=60, deadline=None)
    def test_keys_tell_roots_and_orders_apart(self, field, data):
        n, seed, degree = field
        (grafting, oracle_router), alive = _twin_routers(data, n, seed, degree)
        for _ in range(data.draw(st.integers(1, 6), label="trees")):
            root = data.draw(st.sampled_from(alive), label="root")
            destinations = _destinations(
                data, root, alive, oracle_router.without_nodes(())
            )
            if data.draw(st.booleans(), label="shuffle"):
                destinations = data.draw(st.permutations(destinations), label="order")
            oracle = _ForwardScanBuilder(oracle_router, root)
            for node in destinations:
                oracle.add_destination(node)
            _assert_same_tree(graft(grafting, root, destinations), oracle)

    def test_without_nodes_starts_an_empty_memo(self):
        router = GPSRRouter(deploy_uniform(120, seed=4))
        tree = graft(router, 0, (30, 60, 90))
        assert router.tree_memo is not None and len(router.tree_memo._trees) == 1
        survivor = router.without_nodes([tree.parents[30]])
        assert survivor.tree_memo is None
        fresh = graft(survivor, 0, (30, 60, 90))
        assert fresh is not tree
        assert graft(router, 0, (30, 60, 90)) is tree


class TestMemoBound:
    @given(
        st.integers(min_value=1, max_value=120),
        st.lists(
            st.tuples(
                st.integers(0, 59),
                st.lists(st.integers(0, 59), min_size=1, max_size=10),
            ),
            min_size=1,
            max_size=40,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_memo_is_an_lru_within_its_bound(self, bound, requests):
        router = GPSRRouter(deploy_uniform(60, seed=3))
        # A reference LRU: keys least recently used first, with weights.
        model: dict[tuple[int, tuple[int, ...]], int] = {}
        with mock.patch.object(multicast, "MEMO_TREE_IDS", bound):
            for root, destinations in requests:
                key = (root, tuple(destinations))
                hit = key in model
                kept = router.tree_memo._trees.get(key) if router.tree_memo else None
                tree = graft(router, root, destinations)
                assert (kept is tree) == hit
                if hit:
                    model[key] = model.pop(key)
                else:
                    weight = len(key[1]) + len(tree.depths)
                    if weight <= bound:
                        while sum(model.values()) + weight > bound:
                            del model[next(iter(model))]
                        model[key] = weight
                memo = router.tree_memo
                assert isinstance(memo, TreeMemo)
                assert memo.ids <= bound
                assert memo.ids == sum(model.values())
                assert list(memo._trees) == list(model)

    def test_shipped_bound_keeps_repeats(self):
        router = GPSRRouter(deploy_uniform(200, seed=9))
        roots = range(0, 200, 10)
        trees = [graft(router, root, (1, 50, 120, 199)) for root in roots]
        assert all(
            graft(router, root, (1, 50, 120, 199)) is tree
            for root, tree in zip(roots, trees)
        )
        assert len(router.tree_memo._trees) == len(roots)


class TestSentTreesStayIntact:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([0.0, 0.1, 0.3, 0.6]),
        st.integers(min_value=0, max_value=3),
        st.lists(st.integers(1, 79), min_size=1, max_size=15),
    )
    @settings(max_examples=60, deadline=None)
    def test_sending_leaves_a_kept_tree_unchanged(self, seed, loss, retries, destinations):
        topology = deploy_uniform(80, seed=seed % 50)
        layer = ReliabilityLayer(
            loss=LossModel(loss, seed=seed), arq=ArqPolicy(retry_limit=retries)
        )
        for network in (Network(topology, reliability=layer), Network(topology)):
            try:
                tree = graft(network.router, 0, destinations)
            except DeliveryError:
                return
            before = (
                tree.root,
                tree.destinations,
                list(tree.parents.items()),
                list(tree.depths.items()),
            )
            for _ in range(3):
                delivery = network.disseminate(MessageCategory.QUERY_FORWARD, tree)
                network.collect_up_tree(MessageCategory.QUERY_REPLY, delivery)
            again = graft(network.router, 0, destinations)
            assert again is tree
            assert (
                again.root,
                again.destinations,
                list(again.parents.items()),
                list(again.depths.items()),
            ) == before

    def test_repeated_tree_keeps_its_edge_ends(self):
        network = Network(deploy_uniform(80, seed=6))
        tree = graft(network.router, 0, (10, 40, 70))
        first = tree.edge_ends()
        second = graft(network.router, 0, (10, 40, 70)).edge_ends()
        assert second is not first
        assert graft(network.router, 0, (10, 40, 70)).edge_ends() is second
        assert second.tolist() == first.tolist()
