"""The :class:`Network` facade the storage systems program against.

It exposes a shared :class:`~repro.network.deployment.Deployment`
(topology + planarization + GPSR route cache) together with one
:class:`~repro.network.radio.MessageStats` ledger scope, and offers the
handful of communication primitives Pool, DIM and GHT need:

* :meth:`unicast` / :meth:`unicast_to_point` — one logical message, hop
  count recorded under a category;
* :meth:`disseminate` — push one message down a planned forwarding tree,
  reporting which nodes it reached;
* :meth:`collect_up_tree` — aggregate the replies back up that tree,
  reporting which nodes' replies reached the root.

Several facades can share one deployment: :meth:`scope` returns a sibling
facade over the same topology and route cache whose ledger is an
independent child scope, which is how the benchmark harness runs every
system of an experiment cell against one deployment without any
accounting bleeding between them (the parent facade's ledger still reads
as the aggregate).  Failures are per-facade: :meth:`fail_nodes` swaps in
a *derived* deployment, leaving siblings routing over the healthy field.
"""

from __future__ import annotations

from typing import Sequence, TYPE_CHECKING

from repro.exceptions import ConfigurationError
from repro.geometry import Point
from repro.network.deployment import Deployment
from repro.network.radio import EnergyModel, MessageStats
from repro.network.messages import MessageCategory
from repro.network.reliability import ReliabilityLayer
from repro.network.topology import Topology
from repro.routing.gpsr import GPSRRouter
from repro.routing.multicast import MulticastTree, TreeDelivery
from repro.routing.planarization import PlanarizationKind
from repro.telemetry.spans import open_span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.recorder import FlightRecorder
    from repro.telemetry.spans import SpanRecorder

__all__ = ["Network"]


class Network:
    """Deployment + accounting scope, as one object.

    Parameters
    ----------
    topology:
        The deployed sensor field; a private :class:`Deployment` is built
        around it.  Mutually exclusive with ``deployment``.
    deployment:
        An existing (typically shared) deployment to run over.
    planarization:
        Planar subgraph for GPSR perimeter mode (only used when building
        a private deployment from ``topology``).
    energy_model:
        Interprets the message ledger as battery drain; optional.
    stats:
        The ledger scope to record into; a fresh root ledger by default.
    telemetry:
        Optional :class:`~repro.telemetry.spans.SpanRecorder` observing
        query lifecycles on this facade and every scope derived from it.
        ``None`` (the default) makes every span a shared no-op, so the
        instrumented paths allocate no spans.
    flight_recorder:
        Optional :class:`~repro.obs.recorder.FlightRecorder` capturing
        per-hop events (hop + GPSR mode, ARQ losses/retransmits) for
        every unicast and tree sent through this facade and its scopes.  Same
        zero-cost-when-``None`` contract as ``telemetry``.
    """

    def __init__(
        self,
        topology: Topology | None = None,
        *,
        deployment: Deployment | None = None,
        planarization: PlanarizationKind = "gabriel",
        energy_model: EnergyModel | None = None,
        stats: MessageStats | None = None,
        telemetry: "SpanRecorder | None" = None,
        reliability: ReliabilityLayer | None = None,
        flight_recorder: "FlightRecorder | None" = None,
    ) -> None:
        if (topology is None) == (deployment is None):
            raise ConfigurationError(
                "pass exactly one of topology= or deployment="
            )
        if deployment is None:
            assert topology is not None
            deployment = Deployment(topology, planarization=planarization)
        self._deployment = deployment
        #: Bumped by every :meth:`fail_nodes`: a plan holding trees grafted
        #: over this facade's routes is stale once it changes.
        self.router_version = 0
        self.stats = stats if stats is not None else MessageStats()
        self.energy_model = energy_model or EnergyModel()
        self.telemetry = telemetry
        self.reliability = reliability
        self.flight_recorder = flight_recorder
        if reliability is not None:
            reliability.bind(self.topology)

    # ------------------------------------------------------------------ #
    # Deployment access                                                  #
    # ------------------------------------------------------------------ #

    @property
    def deployment(self) -> Deployment:
        """The (possibly shared) deployment this facade routes over."""
        return self._deployment

    @property
    def topology(self) -> Topology:
        """The deployed sensor field."""
        return self._deployment.topology

    @property
    def router(self) -> GPSRRouter:
        """The shared GPSR router (route cache included)."""
        return self._deployment.router

    def scope(self, label: str | None = None) -> "Network":
        """A sibling facade: same deployment, independent ledger scope.

        Storage systems call this at construction so each one measures
        its own traffic while sharing the deployment's topology,
        planarization and warmed route cache.  The receiver's ledger
        keeps aggregating everything recorded in the scopes below it.
        """
        return Network(
            deployment=self._deployment,
            energy_model=self.energy_model,
            stats=self.stats.scope(label),
            telemetry=self.telemetry,
            reliability=self.reliability,
            flight_recorder=self.flight_recorder,
        )

    # ------------------------------------------------------------------ #
    # Topology passthroughs                                              #
    # ------------------------------------------------------------------ #

    @property
    def size(self) -> int:
        """Number of sensor nodes."""
        return self.topology.size

    def position(self, node: int) -> Point:
        """Geographic position of a node."""
        return self.topology.position(node)

    def closest_node(self, point: tuple[float, float]) -> int:
        """Home node of a geographic location."""
        return self.topology.closest_node(point)

    # ------------------------------------------------------------------ #
    # Failures                                                           #
    # ------------------------------------------------------------------ #

    def fail_nodes(self, nodes: Sequence[int]) -> None:
        """Remove ``nodes`` from this facade's radio graph.

        The facade swaps to a *derived* deployment: cached GPSR paths
        through the dead nodes are evicted (survivor-to-survivor paths
        stay warm), the surviving subgraph's planar rows are built on
        first read, and sibling facades sharing the original deployment
        are untouched.  The message ledger and energy model
        survive; subsequent traffic routes around the failures (GPSR's
        perimeter mode handles the holes).  Storage systems holding this
        facade should call their own failure handler afterwards to
        re-elect roles and recover data (e.g.
        :meth:`repro.core.system.PoolSystem.handle_failures`).
        """
        self._deployment = self._deployment.fail_nodes(tuple(nodes))
        self.router_version += 1

    @property
    def failed_nodes(self) -> frozenset[int]:
        """Ids removed from the radio graph so far."""
        return self.topology.excluded

    # ------------------------------------------------------------------ #
    # Communication primitives                                           #
    # ------------------------------------------------------------------ #

    def unicast(
        self, category: MessageCategory, src: int, dst: int
    ) -> list[int]:
        """Send one logical message ``src -> dst``; returns the hop path.

        Under a reliability layer each hop runs ARQ; an exhausted hop
        raises :class:`~repro.exceptions.UnreachableError`.
        """
        path = self.router.path(src, dst)
        self.send_along(category, path)
        return path

    def unicast_to_point(
        self, category: MessageCategory, src: int, point: tuple[float, float]
    ) -> tuple[int, list[int]]:
        """Send to a geographic location; returns ``(home_node, path)``."""
        path = self.router.path_to_point(src, point)
        self.send_along(category, path)
        return path[-1], path

    def send_along(
        self, category: MessageCategory, path: Sequence[int]
    ) -> None:
        """Charge a concrete hop path, reliability-aware.

        Without a reliability layer this is exactly
        ``stats.record_path``; with one, each hop runs ARQ and an
        exhausted hop raises :class:`~repro.exceptions.UnreachableError`
        carrying the delivered prefix.

        With a flight recorder attached, the logical send and every hop
        (annotated with its GPSR mode, when the path came from the route
        cache) are appended to the ring *without touching* the routing
        or accounting path — disabling the recorder yields captures byte
        identical to a build without it.
        """
        flight = self.flight_recorder
        pid: int | None = None
        modes: tuple[str, ...] | None = None
        if flight is not None and len(path) > 1:
            src, dst = path[0], path[-1]
            pid = flight.open_packet(category.value, src, dst)
            # A caller-supplied path (e.g. a reversed reply leg) is not the
            # cached route; record unknown modes rather than mislabel hops.
            if self.router.path_cache.get((src, dst)) == list(path):
                modes = self.router.hop_modes(src, dst)
        if self.reliability is None:
            self.stats.record_path(category, path)
            if flight is not None and pid is not None:
                for index in range(len(path) - 1):
                    flight.record(
                        pid,
                        "hop",
                        path[index],
                        path[index + 1],
                        modes[index] if modes is not None else None,
                    )
        else:
            self.reliability.send_path(
                category, path, self.stats, flight=flight, pid=pid, modes=modes
            )

    def disseminate(
        self, category: MessageCategory, tree: MulticastTree
    ) -> TreeDelivery:
        """Push one message down a planned tree, reporting who received it.

        The one tree send: Pool, DIM and DIFS each send the trees their
        plans grafted (:func:`~repro.routing.multicast.graft`).  Edges go
        in BFS order (parents before children, siblings sorted).  Without
        a reliability layer every tree node is reached and the tree is
        logged whole (one transmission per edge).  With one, each edge
        runs ARQ, and an edge whose budget is exhausted prunes its
        subtree, since a branch that never heard the query cannot relay
        it.  A flight
        recorder sees the dissemination as one packet from the root.
        Charging runs inside a ``cell-fanout`` span, the dissemination
        leg of Section 3.2.3.
        """
        src = tree.root
        flight = self.flight_recorder
        with open_span(
            self.telemetry, "cell-fanout", ledger=self.stats, phase="forward", root=src
        ) as span:
            span.annotate(destinations=len(tree.destinations))
            span.add_nodes(tree.depths)
            rel = self.reliability
            if rel is None:
                self.stats.record_tree(category, tree)
                if flight is not None:
                    _record_tree_hops(flight, category, tree, reply=False)
                return TreeDelivery(
                    tree=tree,
                    reached=frozenset(tree.depths),
                    attempted_edges=tree.forward_cost,
                )
            pid = _open_tree_packet(flight, category, tree)
            parents = tree.parents
            reached = {src}
            attempted = 0
            for child in tree.bfs_order()[1:]:
                parent = parents[child]
                if parent in reached:
                    attempted += 1
                    if rel.deliver_hop(
                        category, parent, child, self.stats, flight=flight, pid=pid
                    ):
                        reached.add(child)
        return TreeDelivery(
            tree=tree, reached=frozenset(reached), attempted_edges=attempted
        )

    def collect_up_tree(
        self, category: MessageCategory, delivery: TreeDelivery
    ) -> tuple[frozenset[int], int]:
        """Aggregate replies up a delivered tree.

        Returns ``(answered, reply_messages)`` where ``answered`` is the
        set of tree nodes whose reply reached the root (replies merge at
        branch points; a lost child→parent hop silences that child's
        whole aggregated subtree) and ``reply_messages`` counts attempted
        reply transmissions (first attempts, matching ``reply_cost`` when
        nothing is lost).  Reached nodes reply deepest-first, ties by id,
        so the transmission-tick order is deterministic; a flight
        recorder sees the collection as one packet converging on the
        root.
        """
        tree = delivery.tree
        rel = self.reliability
        flight = self.flight_recorder
        if rel is None:
            self.stats.record_tree(category, tree, reply=True)
            if flight is not None:
                _record_tree_hops(flight, category, tree, reply=True)
            return delivery.reached, tree.reply_cost
        pid = _open_tree_packet(flight, category, tree)
        reached = delivery.reached
        parents = tree.parents
        hop_ok: dict[int, bool] = {}
        for child in tree.reply_order():
            if child in reached:
                hop_ok[child] = rel.deliver_hop(
                    category, child, parents[child], self.stats, flight=flight, pid=pid
                )
        answered: set[int] = set()
        for node in sorted(reached):
            current = node
            ok = True
            while current != tree.root:
                if not hop_ok.get(current, False):
                    ok = False
                    break
                current = parents[current]
            if ok:
                answered.add(node)
        return frozenset(answered), len(hop_ok)

    # ------------------------------------------------------------------ #
    # Accounting helpers                                                 #
    # ------------------------------------------------------------------ #

    def reset_stats(self) -> None:
        """Zero the message ledger (start of a measured phase)."""
        self.stats.reset()

    def remaining_energy(self) -> dict[int, float]:
        """Per-node remaining battery implied by the current ledger."""
        return self.energy_model.per_node_remaining(self.stats)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Network({self.topology!r})"


def _open_tree_packet(
    flight: "FlightRecorder | None", category: MessageCategory, tree: MulticastTree
) -> int | None:
    """A tree's packet id in ``flight`` (``None`` with no recorder or edge).

    A tree packet runs from its root back to the root: the ``send`` event
    names the root as both ends.
    """
    if flight is None or not tree.parents:
        return None
    return flight.open_packet(category.value, tree.root, tree.root)


def _record_tree_hops(
    flight: "FlightRecorder", category: MessageCategory, tree: MulticastTree, *, reply: bool
) -> None:
    """One packet and one ``hop`` event per edge of a lossless tree send."""
    pid = _open_tree_packet(flight, category, tree)
    if pid is None:
        return
    parents = tree.parents
    if reply:
        for child in tree.reply_order():
            flight.record(pid, "hop", child, parents[child])
    else:
        for child in tree.bfs_order()[1:]:
            flight.record(pid, "hop", parents[child], child)
