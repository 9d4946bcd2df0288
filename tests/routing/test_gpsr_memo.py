"""Property test: the greedy next-hop memo never changes a route.

``GPSRRouter`` memoizes each greedy decision per destination node.  One
router routes every ordered pair of a random field, so later packets hit
entries earlier ones filled — also on greedy hops taken after a
perimeter-to-greedy recovery — and every outcome must equal the frozen,
memo-free ``_ReferenceGPSR``, whose own loop takes one ``forward_one``
step per TTL slot: path, per-hop modes, perimeter hops, delivery, the
``DeliveryError`` text and the modes ``path()`` caches.  Failing nodes with
``without_nodes`` and re-routing every surviving pair checks that the
derived router does not reuse next hops chosen over the old neighbor
tables.  Some draws keep the memo of only three destinations, so the
oldest are dropped as new ones arrive.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DeliveryError
from repro.network.topology import Topology, deploy_uniform
from repro.rng import derive
from repro.routing import gpsr
from repro.routing.gpsr import GPSRRouter
from tests.routing.test_gpsr_kernel import _ReferenceGPSR


@st.composite
def memo_topologies(draw):
    """Small random fields; degrees 6–9 are sparse and perimeter-heavy,
    so connectivity is only required for the denser draws."""
    n = draw(st.integers(min_value=12, max_value=48))
    seed = draw(st.integers(min_value=0, max_value=5_000))
    degree = draw(st.sampled_from([6.0, 7.0, 8.0, 9.0, 14.0, 20.0]))
    return deploy_uniform(
        n,
        target_degree=degree,
        seed=seed,
        require_connected=degree > 8.0,
        max_attempts=50,
    )


def _outcome(router: GPSRRouter, src: int, dst: int):
    """Route outcome as comparable data (including failure identity).

    A delivered pair is also routed through ``path()``, which warms the
    path cache ``without_nodes`` carries, and its cached modes compared.
    """
    try:
        result = router.route(src, dst)
    except DeliveryError as error:
        return ("error", str(error), error.partial_path)
    outcome = (result.delivered, result.path, result.perimeter_hops, result.modes)
    if not result.delivered:
        return outcome
    router.path(src, dst)
    return outcome, router.hop_modes(src, dst)


def _assert_every_pair_matches(
    router: GPSRRouter, topology: Topology, kind: str
) -> None:
    reference = _ReferenceGPSR(topology, planarization=kind)
    alive = sorted(topology)
    # Destination-major order: a destination's packets run back to back,
    # so its memo is hit even when only a few destinations are kept.
    for dst in alive:
        for src in alive:
            if src == dst:
                continue
            assert _outcome(router, src, dst) == _outcome(
                reference, src, dst
            ), f"divergence on ({src}, {dst})"


class TestRouteEquivalence:
    @given(
        memo_topologies(),
        st.sampled_from(["gabriel", "rng"]),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([3, gpsr.MEMO_DESTINATIONS]),
    )
    @settings(max_examples=25, deadline=None)
    def test_memoized_routes_match_the_reference(self, topology, kind, pick, kept):
        with mock.patch.object(gpsr, "MEMO_DESTINATIONS", kept):
            router = GPSRRouter(topology, planarization=kind)
            _assert_every_pair_matches(router, topology, kind)
            rng = derive(pick, "failed-nodes")
            failed = {
                int(node) for node in rng.choice(topology.size, size=3, replace=False)
            }
            degraded = router.without_nodes(failed)
            _assert_every_pair_matches(degraded, degraded.topology, kind)
