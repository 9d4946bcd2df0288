"""Property test: ``GPSRRouter.paths`` equals a loop of ``path()``.

``paths(src, destinations)`` walks a batch of cold destinations in
lockstep, one numpy step per hop for all of them, and falls back to
``path()`` for walks that dead-end.  Against a second router that calls
``path()`` once per destination it must return the same paths, cache the
same keys in the same order with the same per-hop modes, and raise the
same error (type, text and partial path) with the same cache keys when a
destination is failed, out of range or unreachable.

Fields are random, sparse (greedy dead ends, possibly disconnected),
unjittered grids (exact distance ties, where ``argmin``'s first minimum
must be the scan's strict ``<`` in table order) and fields degraded by
``without_nodes``.  Lists repeat destinations and contain the source.
The lockstep threshold is lowered to one destination so every draw walks
in lockstep; a separate test keeps the shipped threshold.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DeliveryError, RoutingError
from repro.network.topology import Topology, deploy_uniform
from repro.routing import gpsr
from repro.routing.gpsr import GPSRRouter
from tests.routing.test_gpsr_kernel import (
    grid_topologies,
    random_topologies,
    sparse_topologies,
)

_TOPOLOGIES = st.one_of(random_topologies(), sparse_topologies(), grid_topologies())


def _run(call):
    try:
        return ("ok", call())
    except (RoutingError, DeliveryError) as error:
        return (type(error).__name__, error.args, getattr(error, "partial_path", None))


def _cache(router: GPSRRouter):
    return [(key, path, router.hop_modes(*key)) for key, path in router.path_cache.items()]


def _assert_paths_equal_loop(
    looped: GPSRRouter, batched: GPSRRouter, src: int, destinations: list[int]
) -> None:
    assert _cache(looped) == _cache(batched)
    expected = _run(lambda: [looped.path(src, dst) for dst in destinations])
    with mock.patch.object(gpsr, "LOCKSTEP_DESTINATIONS", 1):
        got = _run(lambda: batched.paths(src, destinations))
    assert got == expected
    assert _cache(batched) == _cache(looped)
    assert batched.cached_paths == looped.cached_paths


@st.composite
def _destinations(draw, topology: Topology, src: int, invalid: bool = False):
    alive = sorted(topology)
    nodes = st.sampled_from(alive)
    picks = draw(st.lists(nodes, min_size=1, max_size=40))
    # Duplicates and the source itself, anywhere in the list.
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        extra = draw(st.one_of(st.just(src), st.sampled_from(picks)))
        picks.insert(draw(st.integers(min_value=0, max_value=len(picks))), extra)
    if invalid:
        bad = draw(
            st.one_of(
                st.integers(min_value=topology.size, max_value=topology.size + 5),
                st.just(-1),
                st.sampled_from(sorted(topology.excluded) or [-2]),
            )
        )
        picks.insert(draw(st.integers(min_value=0, max_value=len(picks))), bad)
    return picks


def _warm(draw, routers: tuple[GPSRRouter, ...], topology: Topology) -> None:
    """Route the same few pairs on every router, so some are cached."""
    alive = sorted(topology)
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        src = draw(st.sampled_from(alive))
        dst = draw(st.sampled_from(alive))
        for router in routers:
            _run(lambda: router.path(src, dst))


class TestPathsEqualPathLoop:
    @given(_TOPOLOGIES, st.data())
    @settings(max_examples=80, deadline=None)
    def test_fields(self, topology, data):
        looped, batched = GPSRRouter(topology), GPSRRouter(topology)
        _warm(data.draw, (looped, batched), topology)
        src = data.draw(st.sampled_from(sorted(topology)))
        destinations = data.draw(_destinations(topology, src))
        _assert_paths_equal_loop(looped, batched, src, destinations)

    @given(_TOPOLOGIES, st.data())
    @settings(max_examples=60, deadline=None)
    def test_after_without_nodes(self, topology, data):
        parents = (GPSRRouter(topology), GPSRRouter(topology))
        _warm(data.draw, parents, topology)
        alive = sorted(topology)
        if len(alive) < 3:
            return
        failed = data.draw(
            st.sets(st.sampled_from(alive), min_size=1, max_size=len(alive) // 3 or 1)
        )
        looped, batched = (router.without_nodes(failed) for router in parents)
        degraded = looped.topology
        src = data.draw(st.sampled_from(sorted(degraded)))
        destinations = data.draw(_destinations(degraded, src))
        _assert_paths_equal_loop(looped, batched, src, destinations)

    @given(_TOPOLOGIES, st.data())
    @settings(max_examples=60, deadline=None)
    def test_invalid_destination_mid_list(self, topology, data):
        # A failed, negative or out-of-range id: the loop raises there,
        # and ``paths`` must raise the same error with the same keys.
        alive = sorted(topology)
        failed = data.draw(st.sets(st.sampled_from(alive), max_size=2))
        if len(failed) >= len(alive):
            failed = set()
        looped, batched = (
            GPSRRouter(topology).without_nodes(failed) for _ in range(2)
        )
        degraded = looped.topology
        src = data.draw(st.sampled_from(sorted(degraded)))
        destinations = data.draw(_destinations(degraded, src, invalid=True))
        _assert_paths_equal_loop(looped, batched, src, destinations)

    def test_failed_or_unknown_source(self):
        topology = deploy_uniform(60, seed=4)
        looped, batched = (GPSRRouter(topology).without_nodes([7]) for _ in range(2))
        _assert_paths_equal_loop(looped, batched, 7, [7, 3, 9, 3])
        _assert_paths_equal_loop(looped, batched, 64, [64, 3, 9])


class TestEqualDistanceIsADeadEnd:
    def test_neighbour_as_far_as_the_node_is_no_greedy_hop(self):
        # Node 1 is exactly as far from node 3 as the source 0 is (both
        # squared distances are 400), so greedy mode dead-ends at 0 and
        # the packet leaves in perimeter mode.  A lockstep walk that
        # advanced on a tie would report the same path as all-greedy.
        topology = Topology([(0, 0), (12, 4), (12, 16), (0, 20)], radio_range=13)
        looped, batched = GPSRRouter(topology), GPSRRouter(topology)
        _assert_paths_equal_loop(looped, batched, 0, [3, 2, 1])
        assert batched.hop_modes(0, 3) == ("perimeter", "perimeter", "greedy")
        assert batched.hop_modes(0, 2) == ("greedy", "greedy")


class TestShippedThreshold:
    def test_large_batch_walks_in_lockstep_and_matches(self):
        topology = deploy_uniform(400, seed=11)
        looped, batched = GPSRRouter(topology), GPSRRouter(topology)
        destinations = list(range(0, 400, 7))
        walked: dict[int, list[int]] = {}
        scalar: list[int] = []
        walk = GPSRRouter._lockstep

        def lockstep(router, src, cold):
            walked.update(walk(router, src, cold))
            return walked

        def path(src, dst):
            scalar.append(dst)
            return GPSRRouter.path(batched, src, dst)

        batched.path = path  # type: ignore[method-assign]
        with mock.patch.object(GPSRRouter, "_lockstep", autospec=True, side_effect=lockstep):
            got = batched.paths(5, destinations)
        assert got == [looped.path(5, dst) for dst in destinations]
        assert _cache(batched) == _cache(looped)
        # Only the source and the walks that dead-ended take ``path()``.
        assert len(walked) > len(destinations) // 2
        assert scalar == [dst for dst in destinations if dst not in walked]
        node_ids = topology.node_ids
        assert all(v is node_ids[v] for path in walked.values() for v in path[1:])

    def test_small_batch_routes_each_through_path(self):
        topology = deploy_uniform(200, seed=2)
        router = GPSRRouter(topology)
        destinations = list(range(1, gpsr.LOCKSTEP_DESTINATIONS))
        with mock.patch.object(GPSRRouter, "_lockstep") as lockstep:
            router.paths(0, destinations)
        lockstep.assert_not_called()
        assert router.cached_paths == len(destinations)

    def test_all_greedy_modes_are_shared(self):
        topology = deploy_uniform(300, seed=8)
        router = GPSRRouter(topology)
        router.paths(0, list(range(1, 300)))
        by_length: dict[int, tuple[str, ...]] = {}
        for key in router.path_cache:
            modes = router.hop_modes(*key)
            assert modes is not None
            if "perimeter" not in modes:
                assert by_length.setdefault(len(modes), modes) is modes
