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
    kept,
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
        missing = min(group.difference(parent))
        raise BackboneError(
            f"members are not connected: {missing!r} unreachable from root")
    return parent


def validate_backbone(g: NetworkGraph, bb: Backbone) -> None:
    """Check domination, member connectivity, and arborescence shape.

    Connectivity needs no walk of its own: every non-root member hangs
    from a member parent by a network edge, so ``bb.depth``, the root's
    walk down parent links, proves the members connected by reaching
    them all, and a member it misses sits on a parent cycle.

    Raises BackboneError with a specific message on the first violation.
    """
    members = bb.members
    if not members:
        raise BackboneError("backbone has no members")
    group = set(members)
    if list(members) != sorted(group):
        raise BackboneError("members must be sorted and unique")
    for m in members:
        if m not in g.adjacency:
            raise BackboneError(f"member {m!r} is not a node of the network")
    if bb.root not in group:
        raise BackboneError(f"root {bb.root!r} is not a member")
    uncovered = set(g.node_ids).difference(
        group, *(g.adjacency[m] for m in group))
    if uncovered:
        raise BackboneError(f"node {min(uncovered)!r} is not dominated")
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
    if len(bb.depth) != len(members):
        raise BackboneError("parent links contain a cycle")


def greedy_cds(g: NetworkGraph) -> Backbone:
    """``_greedy_cds(g)``, built once per graph."""
    return kept(g, "_greedy_cds", None, _greedy_cds, g)


def _greedy_cds(g: NetworkGraph) -> Backbone:
    """Grow a connected dominating set by repeated best-coverage picks.

    Starts from the node covering the most nodes (itself plus neighbors:
    the highest degree, as adjacency lists hold no self-loops or repeats) and
    repeatedly blackens either one covered non-member or a covered/uncovered
    adjacent pair, whichever newly covers the most uncovered nodes.  Ties
    prefer the single pick, then smaller ids.  The chosen set stays connected
    throughout, and its size is within a (2 + ln(max_degree)) factor of the
    minimum for symmetric networks.  Two colour sets, ``white`` (uncovered)
    and ``black`` (members), hold the state: Guha and Khuller's third colour,
    a covered non-member, is in neither.

    Picks are found by lazy evaluation (Minoux's accelerated greedy): the
    candidates of each node sit in a heap from the moment it is covered,
    and a pick stays a candidate while its first node is not black.  Each
    key is one int, ``((2n - gain) * 2 + kind) * n**2 + i(v) * n + i(w)``,
    with kind 0 for a single pick (v,) and 1 for a pair (v, w), i the rank
    by id (``node_index``) and i(w) = 0 for a single pick.  It orders
    exactly as the tuple ``(-gain, kind, pick)`` would, as the pick part is
    below n**2, and 2n exceeds every gain and pair bound, so no key is
    negative.  One ``divmod`` by n**2 splits a popped key into gain and
    kind (the quotient) and the pick.

    ``wdeg[u]`` counts u's white neighbors; it drops by one over a node's
    neighbors when that node leaves white, O(edges) in all, so a single
    pick's gain is its count.  A pair (v, w) is pushed with the upper
    bound ``wdeg[v] + wdeg[w]`` and recounted exactly when popped.
    Gains only fall as white nodes vanish, so every stored key is at least
    as good as the true one, and a popped key that survives recomputation
    unchanged (gain, kind and pick) is the very pick a full rescan would
    make, ties included.  The connectivity test behind it is cached on the
    graph, and it raises ModelError on a one-way link.

    The heap is never empty while a node is white: on a connected graph some
    white x has a non-white neighbor v, which is not black, as blackening
    takes all white neighbors out of white.  v's single pick was pushed when
    v was covered (x white then too), and every stale pop pushes it back
    until v turns black or wdeg[v], which counts x, reaches 0.
    """
    if not is_strongly_connected(g):
        raise DisconnectedError("greedy_cds needs a connected network")
    ids = g.node_ids
    index = g.node_index
    adj = g.adjacency
    n = len(ids)
    span = n * n  # the pick's share of a key: index(v) * n + index(w)
    step = 2 * span  # one unit of gain
    top_gain = 2 * n  # above any pair bound wdeg[v] + wdeg[w]
    white = set(ids)
    black: set = set()
    wdeg = {u: len(adj[u]) for u in ids}
    heap: list = []

    def leave_white(u) -> None:
        white.discard(u)
        for x in adj[u]:
            wdeg[x] -= 1

    def blacken(u) -> list:
        """Blacken u and return the white neighbors it covered."""
        if u in white:
            leave_white(u)
        black.add(u)
        fresh = [v for v in adj[u] if v in white]
        for v in fresh:
            leave_white(v)
        return fresh

    def push_candidates(v) -> None:
        iv = index[v] * n
        if wdeg[v]:
            heapq.heappush(heap, (top_gain - wdeg[v]) * step + iv)
        for w in adj[v]:
            if w in white:
                heapq.heappush(heap, (top_gain - wdeg[v] - wdeg[w]) * step
                               + span + iv + index[w])

    first = min(ids, key=lambda u: (-len(adj[u]), u))
    for v in blacken(first):
        push_candidates(v)

    while white:
        while True:  # re-key stale picks until the top one is exact
            top = heapq.heappop(heap)
            rank, pick = divmod(top, span)
            v, w = ids[pick // n], ids[pick % n]
            if v in black:
                now = None
            elif not rank & 1:
                now = (top_gain - wdeg[v]) * step + pick if wdeg[v] else None
            elif w in white:
                # w is white and adjacent to v, so it is among v's neighbors
                gain = len(white.intersection((*adj[v], *adj[w])))
                now = (top_gain - gain) * step + span + pick
            else:
                now = None
            if now == top:
                break
            if now is not None:
                heapq.heappush(heap, now)
        fresh = blacken(v)
        if rank & 1:
            fresh += blacken(w)
        for v in fresh:
            if v not in black:
                push_candidates(v)

    members = tuple(sorted(black))
    root = members[0]
    return Backbone(members=members, root=root,
                    parent=build_arborescence(g, members, root))


def brute_force_mcds(g: NetworkGraph) -> Backbone:
    """``_brute_force_mcds(g)``, searched once per graph."""
    return kept(g, "_brute_force_mcds", None, _brute_force_mcds, g)


def _brute_force_mcds(g: NetworkGraph) -> Backbone:
    """Exact minimum connected dominating set by exhaustive search.

    Checks candidate sets in increasing size and lexicographic order, so the
    result is the lexicographically smallest optimum.  Limited to networks
    of at most BRUTE_FORCE_NODE_LIMIT nodes, symmetric, connected and not
    empty.  When no smaller set passes, the whole node set, a connected
    dominating set of every connected graph, is the answer.
    """
    ids = g.node_ids
    n = len(ids)
    if n > BRUTE_FORCE_NODE_LIMIT:
        raise ModelError(
            f"brute_force_mcds is capped at {BRUTE_FORCE_NODE_LIMIT} nodes, "
            f"got {n}")
    if not (ids and is_strongly_connected(g)):
        raise DisconnectedError("brute_force_mcds needs a connected network")
    full = (1 << n) - 1
    cover = {u: 1 << g.node_index[u] | g.reach[u] for u in ids}
    for size in range(1, n):
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
    return Backbone(members=ids, root=ids[0],
                    parent=_member_walk(g, g.adjacency, ids[0]))


def dfs_cluster(g: NetworkGraph, members: Sequence) -> ClusterAssignment:
    """Band backbone members by depth-first tree depth in diameter-sized slabs.

    Runs an iterative DFS over the member-induced subgraph from the smallest
    member id, visiting neighbors in ascending order.  A member first reached
    at tree depth h lands in band h // diameter(network); each band's leader
    is its smallest member.
    """
    # checked first, or a one-way link could fail the DFS's connectivity test
    if not g.symmetric:
        raise ModelError("dfs_cluster requires a symmetric network")
    group = set(members)
    if not group:
        raise BackboneError("cannot cluster an empty member set")
    root = min(group)
    depth_of = {root: 0}
    stack = [root]
    while stack:
        u = stack.pop()
        for v in reversed([w for w in g.adjacency[u] if w in group]):
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
    back to the smallest base member, which roots the result; that is the
    base's own root only when the base is rooted at its smallest member, as
    greedy and oracle bases are.  The result keeps every base member, is
    still a connected dominating set, and has at most 3x the base size; its
    induced diameter is bounded by a small multiple of the network diameter
    because every member sits within one band of a leader wired straight to
    the root.

    All those paths come from one breadth-first tree of the whole network
    from the root.  A FIFO walk over sorted neighbor tuples visits each
    level in the lexicographic order of its nodes' smallest shortest paths,
    so a node's first discoverer is its predecessor on that path; climbing
    the tree's parent links from a leader reads the path backwards.
    """
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
