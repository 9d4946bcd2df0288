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

from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable

import numpy as np

from repro.routing.gpsr import GPSRRouter

__all__ = [
    "MEMO_TREE_IDS",
    "MulticastTree",
    "TreeDelivery",
    "TreeBuilder",
    "TreeMemo",
    "graft",
]


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
    # ``None`` until the first ``edge_ends()``, ``False`` after it, then
    # the ids from the second call on.
    _edge_ends: np.ndarray | bool | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def edge_ends(self) -> np.ndarray:
        """Each edge's parent id, then each edge's child id, in graft order.

        One id array (2-byte ids where they fit): the form the message
        ledger logs the tree in.  A tree sent again (a plan the serving
        cache keeps) keeps its array after the second call; a tree sent
        once does not, since plans held for other reasons would otherwise
        carry the array as long as they live.
        """
        ends = self._edge_ends
        if isinstance(ends, np.ndarray):
            return ends
        parents = self.parents
        count = 2 * len(parents)
        try:
            converted = np.fromiter(
                chain(parents.values(), parents.keys()), dtype=np.uint16, count=count
            )
        except OverflowError:  # ids past 65535
            converted = np.fromiter(
                chain(parents.values(), parents.keys()), dtype=np.int64, count=count
            )
        self._edge_ends = converted if ends is False else False
        return converted

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

    def bfs_order(self) -> list[int]:
        """Tree nodes parents-first, siblings by id: the order a query
        floods down the tree (the root comes first)."""
        children = self.children()
        order = [self.root]
        for node in order:
            kids = children.get(node)
            if kids:
                order.extend(kids)
        return order

    def reply_order(self) -> list[int]:
        """Non-root nodes deepest first, ties by id: the order their
        replies leave for their parents."""
        depths = self.depths
        return sorted(self.parents, key=lambda node: (-depths[node], node))

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


#: Ids a router's :class:`TreeMemo` holds, counting each tree's
#: destinations key and its nodes; past this the least recently used
#: trees are dropped.  On the 900-node Figure 7 field every distinct
#: Pool leg tree of an 1,800-query stream fits (540 trees, 8,668 ids),
#: and 89% of Pool's grafts hit.  DIM's sink trees (about 340 ids each)
#: rarely repeat within any bound this size: doubling the bound to
#: 20,000 ids took DIM's hits from 18 to 38 of 1,890 grafts and added
#: about 1 MB of peak memory.
MEMO_TREE_IDS = 10_000


class TreeMemo:
    """A router's grafted trees by ``(root, destinations)``, least recently
    used first, holding at most :data:`MEMO_TREE_IDS` ids.

    ``ids`` is the ids the memo holds: per tree, its destinations key
    plus its nodes.  A tree heavier than the whole bound is not kept.
    """

    __slots__ = ("_trees", "ids")

    def __init__(self) -> None:
        self._trees: OrderedDict[tuple[int, tuple[int, ...]], MulticastTree] = (
            OrderedDict()
        )
        self.ids = 0

    def get(self, key: tuple[int, tuple[int, ...]]) -> MulticastTree | None:
        """The tree kept under ``key`` (now the most recently used), or None."""
        tree = self._trees.get(key)
        if tree is not None:
            self._trees.move_to_end(key)
        return tree

    def put(self, key: tuple[int, tuple[int, ...]], tree: MulticastTree) -> None:
        """Keep ``tree`` under ``key``, dropping the least recently used
        trees past the bound."""
        weight = len(key[1]) + len(tree.depths)
        if weight > MEMO_TREE_IDS:
            return
        trees = self._trees
        ids = self.ids + weight
        while ids > MEMO_TREE_IDS:
            (_, old_destinations), old = trees.popitem(last=False)
            ids -= len(old_destinations) + len(old.depths)
        trees[key] = tree
        self.ids = ids


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

        A node already in the tree costs one lookup.  Otherwise its path
        is grafted from the last node on it already in the tree, so
        shared prefixes are never re-added and the structure stays a tree
        (each node has one parent).  Usually that is the node before the
        destination, found with one more lookup; only the rest scan the
        path backward.

        A destination's path is first probed in the router's path cache
        inline, so a warm tree makes no routing call.  At the first miss,
        that destination and every later one not yet in the tree go to
        :meth:`GPSRRouter.paths` at once, which walks a large cold batch
        in lockstep; the later probes then hit.  That routes and caches
        the later destinations that an earlier path of the batch grafts
        as relays too: later trees reuse those paths, and routing only
        the grafted ones made the Figure 6 ingest workload's queries
        slower.
        """
        destinations = self._destinations
        parents = self._parents
        depths = self._depths
        router = self.router
        root = self.root
        probe = router.path_cache.get
        pending = tuple(nodes)
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
            # ``node`` is not in the tree and the root at index 0 is.
            parent = path[-2]
            if parent in depths:
                parents[node] = parent
                depths[node] = depths[parent] + 1
            else:
                splice = len(path) - 3
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
        """Freeze the tree, which takes over the builder's dicts: add
        nothing after this.

        Pure planning: nothing is charged or recorded here.  The caller
        charges the tree when it sends the query down it
        (:meth:`repro.network.network.Network.disseminate`, which also
        opens the ``cell-fanout`` span).
        """
        return MulticastTree(
            root=self.root,
            destinations=tuple(self._destinations),
            parents=self._parents,
            depths=self._depths,
        )


def graft(router: GPSRRouter, root: int, destinations: Iterable[int]) -> MulticastTree:
    """The merged GPSR tree from ``root`` to ``destinations``, in order.

    The one place a plan's tree is grafted: Pool grafts one per leg from
    its splitter, DIM and DIFS one per plan from the sink.  The router's
    :class:`TreeMemo` keeps trees by ``(root, destinations)``, so a
    repeated tree comes back as the same object and keeps its
    :meth:`~MulticastTree.edge_ends` from its second send on.  Pass a
    tuple to key on it as is.
    """
    if not isinstance(destinations, tuple):
        destinations = tuple(destinations)
    key = (root, destinations)
    memo = router.tree_memo
    if memo is None:
        memo = router.tree_memo = TreeMemo()
    tree = memo.get(key)
    if tree is None:
        builder = TreeBuilder(router, root)
        builder.add_destinations(destinations)
        tree = builder.build()
        memo.put(key, tree)
    return tree
