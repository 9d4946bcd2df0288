"""Merged-prefix forwarding trees for query dissemination and replies.

Section 3.2.3 of the paper: "the entire query forwarding paths form a
tree, which enables the system to consume sensor energy more efficiently
than by unicasting the query to index nodes individually", and replies
aggregate on the way back.

The tree is built by unioning the GPSR unicast paths from a root to each
destination: a hop shared by several destinations carries the query only
once.  GPSR paths are deterministic per topology, so nearby destinations
share long prefixes and the tree is genuinely cheaper than independent
unicasts.  DIM is given exactly the same machinery so the cost comparison
is apples-to-apples (see DESIGN.md §5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.routing.gpsr import GPSRRouter

__all__ = ["MulticastTree", "TreeDelivery", "TreeBuilder"]


@dataclass(slots=True)
class MulticastTree:
    """An immutable dissemination tree rooted at ``root``.

    ``parents`` maps every node but the root to its parent, and ``depths``
    gives every node's hop depth (the root at 0), so its keys are the
    tree's nodes.  :class:`TreeBuilder` fills both while grafting; the
    parent→child ``edges`` and ``children()`` adjacency are derived on
    demand.  Each edge carries the query exactly once downstream
    (``forward_cost``) and one aggregated reply upstream (``reply_cost``).
    """

    root: int
    destinations: tuple[int, ...]
    parents: dict[int, int]
    depths: dict[int, int]

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Directed parent→child pairs, one per non-root node."""
        return frozenset((parent, child) for child, parent in self.parents.items())

    @property
    def forward_cost(self) -> int:
        """Transmissions to push the query to every destination."""
        return len(self.parents)

    @property
    def reply_cost(self) -> int:
        """Transmissions to aggregate every destination's reply to the root.

        One reply message per tree edge: children's replies merge at branch
        points (the paper's in-splitter aggregation).
        """
        return len(self.parents)

    @property
    def total_cost(self) -> int:
        """The paper's query-processing cost for this tree."""
        return self.forward_cost + self.reply_cost

    def nodes(self) -> set[int]:
        """All node ids touched by the tree (including the root)."""
        return set(self.depths)

    def children(self) -> dict[int, list[int]]:
        """Adjacency (parent → sorted children) for traversals/tests."""
        table: dict[int, list[int]] = {}
        for child, parent in self.parents.items():
            table.setdefault(parent, []).append(child)
        for kids in table.values():
            kids.sort()
        return table

    def height(self) -> int:
        """Hop depth of the deepest destination — the dissemination
        latency critical path (in hops) of this tree."""
        return max(self.depths.values())

    def depth_of(self, node: int) -> int:
        """Hop distance from the root to ``node`` along tree edges."""
        return self.depths[node]


@dataclass(slots=True)
class TreeDelivery:
    """Outcome of pushing a query down a :class:`MulticastTree` under loss.

    ``reached`` is the set of tree nodes the dissemination actually
    arrived at (always includes the root); an edge whose ARQ budget was
    exhausted prunes its whole subtree — those edges are never attempted,
    mirroring a real forwarding tree where a dead branch cannot relay.
    ``attempted_edges`` is the number of tree edges whose first attempt
    was made (the lossless ``forward_cost`` when nothing fails).
    """

    tree: MulticastTree
    reached: frozenset[int]
    attempted_edges: int

    @property
    def complete(self) -> bool:
        """Did every destination receive the query?"""
        return all(node in self.reached for node in self.tree.destinations)

    def unreachable_destinations(self) -> tuple[int, ...]:
        return tuple(n for n in self.tree.destinations if n not in self.reached)


class TreeBuilder:
    """Incrementally merge unicast paths into a :class:`MulticastTree`.

    Usage::

        builder = TreeBuilder(router, root=sink)
        for index_node in relevant_nodes:
            builder.add_destination(index_node)
        tree = builder.build()
    """

    def __init__(self, router: GPSRRouter, root: int) -> None:
        self.router = router
        self.root = root
        # Destinations in first-added order (a dict as an ordered set).
        self._destinations: dict[int, None] = {}
        self._parents: dict[int, int] = {}
        # Every reached node's hop depth; the keys are the reached set.
        self._depths: dict[int, int] = {root: 0}

    def add_destination(self, node: int) -> None:
        """Graft the GPSR path ``root -> node`` onto the tree."""
        self.add_destinations((node,))

    def add_destinations(self, nodes: Iterable[int]) -> None:
        """Graft the GPSR path ``root -> node`` of each node, in order.

        Each path is scanned backward from its destination to the first
        node already in the tree, and grafted from there on, so shared
        prefixes are never re-added and the structure stays a tree (each
        node has one parent).

        A destination's path is first probed in the router's path cache
        inline, so a warm tree makes no routing call.  At the first miss,
        that destination and every later one not yet in the tree go to
        :meth:`GPSRRouter.paths` at once, which walks a large cold batch
        in lockstep; the later probes then hit.
        """
        destinations = self._destinations
        parents = self._parents
        depths = self._depths
        router = self.router
        root = self.root
        probe = router.path_cache.get
        pending = list(nodes)
        for position, node in enumerate(pending):
            if node in depths:
                destinations[node] = None
                continue
            path = probe((root, node))
            if path is None:
                rest = [n for n in pending[position:] if n not in depths]
                # Route planning, not a send: the grafted edges are charged
                # in bulk when the finished tree is disseminated.
                path = router.paths(root, rest)[0]  # repro-lint: ignore[REP101]
            # The root at index 0 is always in the tree.
            splice = len(path) - 1
            while path[splice] not in depths:
                splice -= 1
            parent = path[splice]
            for child in path[splice + 1 :]:
                # A node the path re-enters keeps its existing parent.
                if child not in depths:
                    parents[child] = parent
                    depths[child] = depths[parent] + 1
                parent = child
            destinations[node] = None

    def build(self) -> MulticastTree:
        """Freeze the current tree.

        Pure planning: nothing is charged or recorded here.  The caller
        charges the tree when it sends the query down it
        (:meth:`repro.network.network.Network.send_tree`, which also
        opens the ``cell-fanout`` span).
        """
        return MulticastTree(
            root=self.root,
            destinations=tuple(self._destinations),
            parents=dict(self._parents),
            depths=dict(self._depths),
        )
