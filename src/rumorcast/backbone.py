"""Backbone selection: connected dominating sets and clustered variants.

A backbone is a connected dominating set of a symmetric network together
with a root and a spanning arborescence over its members.  Rumor traffic is
collected and redistributed along that arborescence, so backbone size and
induced diameter directly bound message and round counts.

``greedy_cds`` grows the set by coverage picks; ``bounded_diameter_cds``
thickens it with root paths read off one breadth-first tree of the whole
network; ``brute_force_mcds`` is the exact oracle for small networks.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Container, Mapping, Sequence

from .model import (
    DisconnectedError,
    ModelError,
    NetworkGraph,
    diameter,
    is_strongly_connected,
)
# Unused here, but perfbench/selftest.py checks that its tracer rebinds
# this module's copy of bfs_distances.
from .model import bfs_distances  # noqa: F401

BRUTE_FORCE_NODE_LIMIT = 16


class BackboneError(ValueError):
    """A proposed backbone violates domination, connectivity, or shape."""


@dataclass(frozen=True)
class Backbone:
    """A connected dominating set with a rooted spanning arborescence.

    ``parent`` maps every member to its arborescence parent (None for the
    root); parent edges are edges of the network.

    A backbone is immutable: its tree (``children`` and ``depth``) comes
    from one walk from the root, done at most once and cached on it.
    """

    members: tuple
    root: int | str
    parent: Mapping[int | str, int | str | None]

    @property
    def size(self) -> int:
        return len(self.members)

    @cached_property
    def children(self) -> Mapping[int | str, tuple]:
        """Each member's children along parent links, sorted by id."""
        kids: dict = {m: [] for m in self.members}
        for m in sorted(self.members):
            if self.parent[m] is not None:
                kids.setdefault(self.parent[m], []).append(m)
        return {u: tuple(vs) for u, vs in kids.items()}

    @cached_property
    def depth(self) -> Mapping[int | str, int]:
        """Hop depth of every member the root reaches through children.

        Keys run in root-first (breadth-first) order, so depths never
        decrease along them.  Each member is visited at most once, so the
        walk ends on any parent map; members whose parent links never reach
        the root (a parent cycle) are left out.
        """
        depth = {self.root: 0}
        order = [self.root]
        for u in order:  # grows while iterated: a breadth-first walk
            for v in self.children.get(u, ()):
                if v not in depth:
                    depth[v] = depth[u] + 1
                    order.append(v)
        return depth

    @cached_property
    def max_depth(self) -> int:
        return max(self.depth.values())


@dataclass(frozen=True)
class ClusterAssignment:
    """Partition of backbone members into depth bands of a traversal tree.

    ``cluster_of`` maps each member to its band index; ``leaders`` maps each
    band index to its smallest member id.
    """

    cluster_of: Mapping[int | str, int]
    leaders: Mapping[int, int | str]


def _require_symmetric(g: NetworkGraph, what: str) -> None:
    if not g.symmetric:
        raise ModelError(f"{what} requires a symmetric network")


def _member_walk(g: NetworkGraph, group: Container, root: int | str) -> dict:
    """Breadth-first parent links from ``root`` (parent None) over the
    subgraph ``group`` induces, keyed in visit order; members the walk
    cannot reach are left out.  ``g.adjacency`` as the group walks the
    whole network."""
    parent: dict = {root: None}
    order = [root]
    for u in order:  # grows while iterated: a breadth-first walk
        for v in g.adjacency[u]:
            if v in group and v not in parent:
                parent[v] = u
                order.append(v)
    return parent


def build_arborescence(g: NetworkGraph, members: Sequence,
                       root: int | str) -> dict:
    """Breadth-first spanning arborescence of the member-induced subgraph.

    Ties are broken toward smaller parent ids (parents are dequeued in BFS
    order and scan their neighbors in ascending id order).  Raises
    BackboneError if some member is unreachable from the root.
    """
    group = set(members)
    if root not in group:
        raise BackboneError(f"root {root!r} is not a member")
    parent = _member_walk(g, group, root)
    if len(parent) != len(group):
        missing = sorted(group - set(parent))[0]
        raise BackboneError(
            f"members are not connected: {missing!r} unreachable from root")
    return parent


def validate_backbone(g: NetworkGraph, bb: Backbone) -> None:
    """Check domination, member connectivity, and arborescence shape.

    Raises BackboneError with a specific message on the first violation.
    """
    members = bb.members
    if not members:
        raise BackboneError("backbone has no members")
    if list(members) != sorted(set(members)):
        raise BackboneError("members must be sorted and unique")
    ids = set(g.node_ids)
    for m in members:
        if m not in ids:
            raise BackboneError(f"member {m!r} is not a node of the network")
    if bb.root not in members:
        raise BackboneError(f"root {bb.root!r} is not a member")
    group = set(members)
    uncovered = set(g.node_ids).difference(
        group, *(g.adjacency[m] for m in group))
    if uncovered:
        raise BackboneError(f"node {min(uncovered)!r} is not dominated")
    if len(_member_walk(g, group, bb.root)) != len(group):
        raise BackboneError("members do not induce a connected subgraph")
    if set(bb.parent) != group:
        raise BackboneError("parent map must cover exactly the members")
    if bb.parent[bb.root] is not None:
        raise BackboneError("root must have no parent")
    for m in members:
        p = bb.parent[m]
        if m == bb.root:
            continue
        if p not in group:
            raise BackboneError(f"parent of {m!r} is not a member")
        if m not in g.adjacency[p]:
            raise BackboneError(f"parent link {p!r} -> {m!r} is not an edge")
    # every parent is a member, so a member the root's walk misses sits on
    # a parent cycle
    if len(bb.depth) != len(members):
        raise BackboneError("parent links contain a cycle")


def greedy_cds(g: NetworkGraph) -> Backbone:
    """``_greedy_cds(g)``, built once per graph and kept in the graph's
    instance dict, where its diameter and connectivity are cached too."""
    if "_greedy_cds" not in vars(g):
        vars(g)["_greedy_cds"] = _greedy_cds(g)
    return vars(g)["_greedy_cds"]


def _greedy_cds(g: NetworkGraph) -> Backbone:
    """Grow a connected dominating set by repeated best-coverage picks.

    Starts from the node covering the most nodes (itself plus neighbors:
    the highest degree, as adjacency lists hold no self-loops or repeats) and
    repeatedly blackens either one covered non-member or a covered/uncovered
    adjacent pair, whichever newly covers the most uncovered nodes.  Ties
    prefer the single pick, then smaller ids.  The chosen set stays connected
    throughout, and its size is within a (2 + ln(max_degree)) factor of the
    minimum for symmetric networks.

    Picks are found by lazy evaluation (Minoux's accelerated greedy): the
    candidates of each node sit in a heap from the moment it turns gray,
    keyed ``(-gain, kind, pick)``.  ``wdeg[u]`` counts u's white
    (uncovered) neighbors; it drops by one over a node's neighbors when
    that node leaves white, O(edges) in all, so a single pick's gain is its
    count.  A pair (v, w) newly covers the white neighbors of v and of w,
    so it is pushed with the upper bound ``wdeg[v] + wdeg[w]`` and
    recounted exactly when popped.  Gains only fall as white nodes vanish,
    so every stored key is at least as good as the true one, and a popped
    key that survives recomputation unchanged (gain, kind and pick) is the
    very pick a full rescan would make, ties included.  The connectivity
    test behind it is cached on the graph.
    """
    _require_symmetric(g, "greedy_cds")
    if not is_strongly_connected(g):
        raise DisconnectedError("greedy_cds needs a connected network")
    ids = list(g.node_ids)
    if len(ids) == 1:
        only = ids[0]
        return Backbone(members=(only,), root=only, parent={only: None})

    adj = g.adjacency
    white = set(ids)
    black: set = set()
    gray: set = set()
    wdeg = {u: len(adj[u]) for u in ids}
    heap: list = []

    def leave_white(u) -> None:
        white.discard(u)
        for x in adj[u]:
            wdeg[x] -= 1

    def blacken(u) -> list:
        """Blacken u and return the nodes it turned from white to gray."""
        if u in white:
            leave_white(u)
        gray.discard(u)
        black.add(u)
        fresh = [v for v in adj[u] if v in white]
        for v in fresh:
            leave_white(v)
        gray.update(fresh)
        return fresh

    def current_key(kind: int, pick: tuple):
        """The pick's exact heap key, or None once it can never win."""
        v = pick[0]
        if v not in gray:
            return None
        if kind == 0:
            return (-wdeg[v], 0, pick) if wdeg[v] else None
        w = pick[1]
        if w not in white:
            return None
        # w is white and adjacent to v, so it is counted among v's neighbors
        return (-len(white.intersection((*adj[v], *adj[w]))), 1, pick)

    def push_candidates(v) -> None:
        if wdeg[v]:
            heapq.heappush(heap, (-wdeg[v], 0, (v,)))
        for w in adj[v]:
            if w in white:
                heapq.heappush(heap, (-(wdeg[v] + wdeg[w]), 1, (v, w)))

    first = min(ids, key=lambda u: (-len(adj[u]), u))
    for v in blacken(first):
        push_candidates(v)

    while white:
        while True:
            if not heap:
                raise DisconnectedError(
                    "coverage stalled; network disconnected")
            top = heapq.heappop(heap)
            now = current_key(top[1], top[2])
            if now == top:
                break
            if now is not None:
                heapq.heappush(heap, now)
        fresh = [v for u in top[2] for v in blacken(u)]
        for v in fresh:
            if v in gray:
                push_candidates(v)

    members = tuple(sorted(black))
    root = members[0]
    return Backbone(members=members, root=root,
                    parent=build_arborescence(g, members, root))


def brute_force_mcds(g: NetworkGraph) -> Backbone:
    """Exact minimum connected dominating set by exhaustive search.

    Checks candidate sets in increasing size and lexicographic order, so the
    result is the lexicographically smallest optimum.  Limited to networks
    of at most BRUTE_FORCE_NODE_LIMIT nodes.
    """
    _require_symmetric(g, "brute_force_mcds")
    ids = sorted(g.node_ids)
    n = len(ids)
    if n > BRUTE_FORCE_NODE_LIMIT:
        raise ModelError(
            f"brute_force_mcds is capped at {BRUTE_FORCE_NODE_LIMIT} nodes, "
            f"got {n}")
    if not is_strongly_connected(g):
        raise DisconnectedError("brute_force_mcds needs a connected network")
    bit = {u: 1 << i for i, u in enumerate(ids)}
    full = (1 << n) - 1
    cover = {u: bit[u] | sum(bit[v] for v in g.adjacency[u]) for u in ids}
    for size in range(1, n + 1):
        for combo in itertools.combinations(ids, size):
            mask = 0
            for u in combo:
                mask |= cover[u]
            if mask != full:
                continue
            # the walk that connects the members is the arborescence
            parent = _member_walk(g, set(combo), combo[0])
            if len(parent) == size:
                return Backbone(members=combo, root=combo[0], parent=parent)
    raise DisconnectedError("no connected dominating set exists")


def dfs_cluster(g: NetworkGraph, members: Sequence) -> ClusterAssignment:
    """Band backbone members by depth-first tree depth in diameter-sized slabs.

    Runs an iterative DFS over the member-induced subgraph from the smallest
    member id, visiting neighbors in ascending order.  A member first reached
    at tree depth h lands in band h // diameter(network); each band's leader
    is its smallest member.
    """
    _require_symmetric(g, "dfs_cluster")
    group = set(members)
    if not group:
        raise BackboneError("cannot cluster an empty member set")
    root = min(group)
    depth_of = {root: 0}
    stack = [root]
    while stack:
        u = stack.pop()
        for v in sorted((w for w in g.adjacency[u] if w in group),
                        reverse=True):
            if v not in depth_of:
                depth_of[v] = depth_of[u] + 1
                stack.append(v)
    # the DFS reaches every member only if they induce a connected
    # subgraph; that is checked before the network's diameter is asked for
    if len(depth_of) != len(group):
        raise BackboneError("members do not induce a connected subgraph")
    slab = max(1, diameter(g))
    cluster_of = {m: depth_of[m] // slab for m in group}
    leaders: dict[int, int | str] = {}
    for m in sorted(group):
        j = cluster_of[m]
        if j not in leaders:
            leaders[j] = m
    return ClusterAssignment(cluster_of=cluster_of, leaders=leaders)


def bounded_diameter_cds(g: NetworkGraph,
                         base: Backbone | None = None) -> Backbone:
    """Thicken a dominating backbone so its induced diameter stays small.

    Clusters the base members into diameter-deep DFS bands, then splices the
    lexicographically smallest shortest network paths from each band leader
    back to the base root.  The result keeps every base member, is still a
    connected dominating set, and has at most 3x the base size; its induced
    diameter is bounded by a small multiple of the network diameter because
    every member sits within one band of a leader wired straight to the root.

    All those paths come from one breadth-first tree of the whole network
    from the root.  A FIFO walk over sorted neighbor tuples visits each
    level in the lexicographic order of its nodes' smallest shortest paths,
    so a node's first discoverer is its predecessor on that path; climbing
    the tree's parent links from a leader reads the path backwards.
    """
    _require_symmetric(g, "bounded_diameter_cds")
    if base is None:
        base = greedy_cds(g)
    clusters = dfs_cluster(g, base.members)
    root = min(base.members)
    tree = _member_walk(g, g.adjacency, root)
    spliced: set = set()
    for v in clusters.leaders.values():
        # a path's prefixes are the smallest paths to their own ends, so a
        # climb may stop where an earlier one passed
        while v is not None and v not in spliced:
            spliced.add(v)
            v = tree[v]
    out = tuple(sorted(spliced.union(base.members)))
    return Backbone(members=out, root=root,
                    parent=build_arborescence(g, out, root))
