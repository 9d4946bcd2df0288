"""Property test: planar rows built one at a time equal the whole build.

``GPSRRouter`` computes a node's planar row the first time a perimeter
walk reads it.  Read in any order, every row must equal that node's row
of :func:`planarize` over the same topology — under Gabriel, RNG and
``none`` planarization, on random, sparse (perimeter-heavy) and grid
(exact distance ties) fields — and no row may be computed twice.  A
router derived by ``without_nodes`` starts with no rows; chained twice,
each derived router's rows must equal ``planarize`` of its own degraded
topology, never the rows its parent had read.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.instrumentation import CONSTRUCTION_COUNTERS
from repro.routing.gpsr import GPSRRouter
from tests.routing._planar import planarize
from tests.routing.test_gpsr_kernel import (
    grid_topologies,
    random_topologies,
    sparse_topologies,
)

_KINDS = st.sampled_from(["gabriel", "rng", "none"])
_TOPOLOGIES = st.one_of(random_topologies(), sparse_topologies(), grid_topologies())


def _assert_rows_match(router: GPSRRouter, order: list[int]) -> None:
    """Read ``router``'s rows in ``order`` (twice): each equals the full
    build's row and is computed exactly once."""
    full = planarize(router.topology, router.planarization_kind)
    CONSTRUCTION_COUNTERS.reset()
    for u in order + order:
        assert router.planar_neighbors(u) == full[u]
    assert CONSTRUCTION_COUNTERS.planar_rows == len(order)
    assert router.planar_adjacency == full


def _fail_some(draw, router: GPSRRouter) -> GPSRRouter:
    alive = sorted(router.topology)
    failed = draw(
        st.sets(st.sampled_from(alive), min_size=1, max_size=max(1, len(alive) // 4))
    )
    degraded = router.without_nodes(failed)
    assert all(row is None for row in degraded.planar_adjacency)
    return degraded


class TestPlanarRows:
    @given(_TOPOLOGIES, _KINDS, st.data())
    @settings(max_examples=60, deadline=None)
    def test_rows_in_any_order_equal_planarize(self, topology, kind, data):
        router = GPSRRouter(topology, planarization=kind)
        order = data.draw(st.permutations(range(topology.size)))
        _assert_rows_match(router, list(order))

    @given(_TOPOLOGIES, _KINDS, st.data())
    @settings(max_examples=40, deadline=None)
    def test_chained_failures_rebuild_from_the_degraded_topology(
        self, topology, kind, data
    ):
        router = GPSRRouter(topology, planarization=kind)
        _assert_rows_match(router, list(range(topology.size)))
        for _ in range(2):
            router = _fail_some(data.draw, router)
            order = data.draw(st.permutations(range(topology.size)))
            _assert_rows_match(router, list(order))
