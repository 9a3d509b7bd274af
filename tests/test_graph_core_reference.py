"""The compute-once graph core against the plain algorithms it replaced.

``greedy_cds`` evaluates its candidate gains lazily from a heap, and
``pick_sources`` streams one BFS map at a time; the full-rescan greedy loop
and the all-pairs source pick below are the reference versions, and both
must give the same results, on unit-disk graphs, on general symmetric
graphs and on named graphs where many picks tie.  ``bfs_distances`` counts
levels instead of reading each parent's depth and must give the same map,
keys in the same order.  ``diameter`` on a symmetric graph prunes its BFS
passes and is checked against one BFS from every node.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumorcast.backbone import (Backbone, BackboneError, build_arborescence,
                                greedy_cds, validate_backbone)
from rumorcast.fixtures import pick_sources
from rumorcast.model import (NetworkGraph, NodeSpec, bfs_distances,
                             build_network, diameter, is_strongly_connected)


def reference_greedy_cds(g: NetworkGraph) -> Backbone:
    """Greedy CDS that rescans every candidate before each pick."""
    ids = list(g.node_ids)
    if len(ids) == 1:
        return Backbone(members=(ids[0],), root=ids[0],
                        parent={ids[0]: None})
    white, black, gray = set(ids), set(), set()

    def blacken(u):
        white.discard(u)
        gray.discard(u)
        black.add(u)
        for v in g.adjacency[u]:
            if v in white:
                white.remove(v)
                gray.add(v)

    blacken(min(ids, key=lambda u: (-len({u} | set(g.adjacency[u])), u)))
    while white:
        candidates = []
        for v in sorted(gray):
            single = sum(1 for w in g.adjacency[v] if w in white)
            if single:
                candidates.append((-single, 0, (v,)))
            for w in g.adjacency[v]:
                if w not in white:
                    continue
                covered = {w}
                covered.update(x for x in g.adjacency[v] if x in white)
                covered.update(x for x in g.adjacency[w] if x in white)
                candidates.append((-len(covered), 1, (v, w)))
        for u in min(candidates)[2]:
            blacken(u)
    members = tuple(sorted(black))
    return Backbone(members=members, root=members[0],
                    parent=build_arborescence(g, members, members[0]))


def reference_pick_sources(g: NetworkGraph, count: int) -> list:
    """Source pick over the full all-pairs distance table."""
    ids = list(g.node_ids)
    dist = {u: bfs_distances(g, u) for u in ids}
    best = None
    for u in ids:
        for v, d in dist[u].items():
            if best is None or d > best[0]:
                best = (d, u, v)
    chosen = [best[1]]
    while len(chosen) < count:
        candidates = sorted(
            (u for u in ids if u not in chosen),
            key=lambda u: (-min(dist[c].get(u, 0) for c in chosen), str(u)))
        chosen.append(candidates[0])
    return chosen


def all_pairs_diameter(g: NetworkGraph) -> int:
    return max(max(bfs_distances(g, u).values()) for u in g.node_ids)


def jittered_udg(side: int, seed: int) -> NetworkGraph:
    """One uniform point per cell of a side x side grid, ~12 neighbours."""
    rng = random.Random(seed)
    n = side * side
    radius = math.sqrt(12 / (math.pi * n))
    nodes = [NodeSpec(i * side + j, (i + rng.random()) / side,
                      (j + rng.random()) / side, radius ** 2)
             for i in range(side) for j in range(side)]
    return build_network(nodes)


def connect_components(g: NetworkGraph) -> NetworkGraph:
    """g itself if connected, else g with each component chained to the
    next."""
    if is_strongly_connected(g):
        return g
    adj = {u: set(g.adjacency[u]) for u in g.node_ids}
    seen: set = set()
    prev = None
    for u in g.node_ids:
        if u in seen:
            continue
        seen.update(bfs_distances(g, u))
        if prev is not None:
            adj[prev].add(u)
            adj[u].add(prev)
        prev = u
    return NetworkGraph.from_adjacency(adj)


@st.composite
def connected_udgs(draw):
    n = draw(st.integers(min_value=1, max_value=90))
    radius = draw(st.floats(min_value=0.15, max_value=0.6))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    nodes = [NodeSpec(i, rng.random(), rng.random(), radius ** 2)
             for i in range(n)]
    # keep a disconnected sample: chain each component to the next
    return connect_components(build_network(nodes))


@given(connected_udgs())
@settings(max_examples=120, deadline=None)
def test_lazy_greedy_matches_full_rescan(g):
    got, want = greedy_cds(g), reference_greedy_cds(g)
    assert got.members == want.members
    assert got.root == want.root
    assert dict(got.parent) == dict(want.parent)


def test_lazy_greedy_and_diameter_on_a_729_node_udg():
    g = jittered_udg(27, seed=5)
    assert is_strongly_connected(g)
    got, want = greedy_cds(g), reference_greedy_cds(g)
    assert (got.members, got.root) == (want.members, want.root)
    assert dict(got.parent) == dict(want.parent)
    validate_backbone(g, got)
    assert diameter(g) == all_pairs_diameter(g)


def grid(rows: int, cols: int) -> dict:
    """Cell (i, j) is node i * cols + j."""
    return {i * cols + j: [(i + di) * cols + j + dj
                           for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1))
                           if 0 <= i + di < rows and 0 <= j + dj < cols]
            for i in range(rows) for j in range(cols)}


def cycle(n: int) -> dict:
    return {i: [(i - 1) % n, (i + 1) % n] for i in range(n)}


def wheel(spokes: int) -> dict:
    """Hub 0 joined to every node of a cycle on 1..spokes."""
    adj = {i + 1: [(i - 1) % spokes + 1, (i + 1) % spokes + 1, 0]
           for i in range(spokes)}
    adj[0] = list(range(1, spokes + 1))
    return adj


def complete_bipartite(a: int, b: int) -> dict:
    """K_{a,b}; K_{1,b} is a star with hub 0."""
    left, right = range(a), range(a, a + b)
    return {**{u: list(right) for u in left},
            **{v: list(left) for v in right}}


TIE_HEAVY = {
    **{f"grid-{r}x{c}": grid(r, c)
       for r, c in [(1, 2), (1, 9), (2, 2), (3, 3), (4, 6), (5, 5), (8, 9),
                    (12, 12)]},
    **{f"cycle-{n}": cycle(n) for n in (3, 4, 5, 6, 7, 12, 31, 64)},
    **{f"wheel-{n}": wheel(n) for n in (3, 4, 5, 8, 17, 40)},
    **{f"k{a},{b}": complete_bipartite(a, b)
       for a, b in [(2, 2), (2, 5), (3, 3), (3, 7), (6, 6)]},
    **{f"star-{n}": complete_bipartite(1, n) for n in (1, 2, 3, 10, 50)},
}


def assert_same_backbone(g: NetworkGraph) -> None:
    got, want = greedy_cds(g), reference_greedy_cds(g)
    assert got.members == want.members
    assert got.root == want.root
    assert dict(got.parent) == dict(want.parent)


@pytest.mark.parametrize("name", sorted(TIE_HEAVY))
def test_lazy_greedy_matches_full_rescan_where_picks_tie(name):
    adj = TIE_HEAVY[name]
    assert_same_backbone(NetworkGraph.from_adjacency(adj))
    # string ids order differently ("10" < "9"), so the tie breaks move
    assert_same_backbone(NetworkGraph.from_adjacency(
        {str(u): [str(v) for v in vs] for u, vs in adj.items()}))


def reference_bfs_distances(g: NetworkGraph, src) -> dict:
    """Frontier BFS that reads each depth off the parent's entry."""
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.adjacency[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


@st.composite
def any_graphs(draw, max_nodes=12, symmetric=None):
    """Symmetric or directed, connected or not, int or str ids."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1),
                                   st.integers(0, n - 1)), max_size=3 * n))
    if symmetric is None:
        symmetric = draw(st.booleans())
    name = str if draw(st.booleans()) else int
    adj = {name(u): set() for u in range(n)}
    for u, v in edges:
        if u != v:
            adj[name(u)].add(name(v))
            if symmetric:
                adj[name(v)].add(name(u))
    return NetworkGraph.from_adjacency(adj)


@given(any_graphs(max_nodes=40, symmetric=True).map(connect_components))
@settings(max_examples=200, deadline=None)
def test_lazy_greedy_matches_full_rescan_on_general_graphs(g):
    assert_same_backbone(g)


@given(any_graphs(max_nodes=30))
@settings(max_examples=200, deadline=None)
def test_bfs_distances_match_the_reference_in_key_order(g):
    for src in g.node_ids:
        got, want = bfs_distances(g, src), reference_bfs_distances(g, src)
        assert got == want
        assert list(got) == list(want)


@given(any_graphs(symmetric=True).map(connect_components),
       st.integers(min_value=1, max_value=12))
@settings(max_examples=200, deadline=None)
def test_pick_sources_matches_all_pairs_pick(g, count):
    count = min(count, len(g.node_ids))
    assert pick_sources(g, count) == reference_pick_sources(g, count)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pick_sources_matches_all_pairs_pick_on_udgs(seed):
    g = jittered_udg(12, seed)
    assert pick_sources(g, 8) == reference_pick_sources(g, 8)


def test_graph_facts_are_computed_once(monkeypatch):
    g = jittered_udg(10, seed=3)
    want = all_pairs_diameter(g)
    assert diameter(g) == want and is_strongly_connected(g)

    def no_more_bfs(*args):
        raise AssertionError("a cached graph fact ran another BFS")

    monkeypatch.setattr("rumorcast.model.bfs_distances", no_more_bfs)
    assert diameter(g) == want and is_strongly_connected(g)


def test_validate_backbone_catches_a_parent_cycle():
    g = NetworkGraph.from_adjacency(
        {0: [1], 1: [0, 2], 2: [1, 3], 3: [2, 4], 4: [3]})
    bb = Backbone(members=(0, 1, 2, 3, 4), root=0,
                  parent={0: None, 1: 2, 2: 1, 3: 2, 4: 3})
    with pytest.raises(BackboneError, match="parent links contain a cycle"):
        validate_backbone(g, bb)


def test_validate_backbone_accepts_a_deep_chain():
    n = 3000
    g = NetworkGraph.from_adjacency(
        {i: [j for j in (i - 1, i + 1) if 0 <= j < n] for i in range(n)})
    parent = {i: (i + 1 if i + 1 < n else None) for i in range(n)}
    validate_backbone(g, Backbone(members=tuple(range(n)), root=n - 1,
                                  parent=parent))
