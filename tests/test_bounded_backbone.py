"""The bounded-diameter backbone against a reference copy of its earlier
construction, which found each band leader's path to the root with two
full-graph BFS runs and a neighbour scan per hop.

The library reads every one of those paths off one breadth-first tree from
the root; both must give the same members, root and parent links.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumorcast import backbone, model
from rumorcast.backbone import (
    Backbone,
    BackboneError,
    bounded_diameter_cds,
    brute_force_mcds,
    build_arborescence,
    dfs_cluster,
    greedy_cds,
)
from rumorcast.fixtures import gen_random_udg
from rumorcast.model import (
    DisconnectedError,
    NetworkGraph,
    NodeSpec,
    bfs_distances,
    build_network,
    diameter,
    is_strongly_connected,
)


def ref_lex_shortest_path(g, src, dst):
    """Lexicographically smallest shortest path, as a node list src..dst."""
    dist_src = bfs_distances(g, src)
    dist_dst = bfs_distances(g, dst)
    if dst not in dist_src:
        raise DisconnectedError(f"no path {src!r} -> {dst!r}")
    path = [src]
    cur = src
    while cur != dst:
        step = min(v for v in g.adjacency[cur]
                   if dist_src.get(v) == dist_src[cur] + 1
                   and dist_dst.get(v) == dist_dst[cur] - 1)
        path.append(step)
        cur = step
    return path


def ref_bounded_diameter_cds(g, base=None):
    if base is None:
        base = greedy_cds(g)
    clusters = dfs_cluster(g, base.members)
    root = min(base.members)
    members = set(base.members)
    for j in sorted(clusters.leaders):
        members.update(ref_lex_shortest_path(g, root, clusters.leaders[j]))
    out = tuple(sorted(members))
    return Backbone(members=out, root=root,
                    parent=build_arborescence(g, out, root))


def assert_same(g, base=None):
    got = bounded_diameter_cds(g, base)
    want = ref_bounded_diameter_cds(g, base)
    assert got.members == want.members
    assert got.root == want.root
    assert dict(got.parent) == dict(want.parent)


def _dominates_connected(g, group):
    if not group:
        return False
    covered = set(group).union(*(g.adjacency[m] for m in group))
    if len(covered) != len(g.node_ids):
        return False
    start = min(group)
    seen = {start}
    todo = [start]
    while todo:
        u = todo.pop()
        for v in g.adjacency[u]:
            if v in group and v not in seen:
                seen.add(v)
                todo.append(v)
    return len(seen) == len(group)


def _backbone_of(g, members):
    members = tuple(sorted(members))
    return Backbone(members=members, root=members[0],
                    parent=build_arborescence(g, members, members[0]))


@st.composite
def bounded_cases(draw):
    """A connected graph (a random tree plus sparse or dense chords) over
    shuffled int or string ids, and a base backbone: none, the greedy one,
    the exact one (up to 10 nodes, else every node), every node, or every
    node pruned in a random order."""
    n = draw(st.integers(1, 30))
    if draw(st.booleans()):
        labels = [7 * i + 3 for i in range(n)]
    else:
        labels = [f"n{i}" for i in range(n)]  # "n10" sorts before "n2"
    ids = draw(st.permutations(labels))
    adj = {u: set() for u in ids}
    for i in range(1, n):
        p = ids[draw(st.integers(0, i - 1))]
        adj[p].add(ids[i])
        adj[ids[i]].add(p)
    chord_p = draw(st.sampled_from([0.0, 0.05, 0.3, 0.8]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    for a in ids:
        for b in ids:
            if a != b and rng.random() < chord_p:
                adj[a].add(b)
                adj[b].add(a)
    g = NetworkGraph.from_adjacency(adj)
    kind = draw(st.sampled_from(["none", "greedy", "exact", "all", "pruned"]))
    if kind == "none":
        base = None
    elif kind == "greedy":
        base = greedy_cds(g)
    elif kind == "exact" and n <= 10:
        base = brute_force_mcds(g)
    elif kind == "pruned":
        group = set(ids)
        for u in draw(st.permutations(ids)):
            if _dominates_connected(g, group - {u}):
                group.discard(u)
        base = _backbone_of(g, group)
    else:
        base = _backbone_of(g, ids)
    return g, base


@given(bounded_cases())
@settings(max_examples=300, deadline=None)
def test_tree_paths_match_the_lexicographic_path_search(case):
    g, base = case
    assert_same(g, base)


def _all_nodes_too(g):
    """The default base, and every node as the base: the DFS over every
    node runs deeper than the network's diameter, so leaders other than
    the root have paths to splice."""
    assert_same(g)
    every = _backbone_of(g, g.node_ids)
    assert len(dfs_cluster(g, every.members).leaders) > 1
    assert_same(g, every)


def test_matches_reference_on_a_2000_node_udg():
    _all_nodes_too(gen_random_udg(2000, 0.044, seed=1))


def test_matches_reference_on_a_400_node_strip():
    # 400 nodes in a 50 x 0.5 strip with radius 1, ids in x order, as in
    # the strip-nocd benchmark workload: a backbone about as deep as the
    # network is wide
    rng = random.Random(3)
    while True:
        pts = sorted((rng.uniform(0, 50.0), rng.uniform(0, 0.5))
                     for _ in range(400))
        g = build_network([NodeSpec(i, x, y, 1.0)
                           for i, (x, y) in enumerate(pts)])
        if is_strongly_connected(g):
            break
    _all_nodes_too(g)


def test_no_bfs_distances_call_once_the_diameter_is_cached(monkeypatch):
    g = gen_random_udg(300, 0.12, seed=2)
    base = greedy_cds(g)
    diameter(g)
    calls = []

    def counted(*args, **kw):
        calls.append(args[1:])
        return bfs_distances(*args, **kw)

    monkeypatch.setattr(model, "bfs_distances", counted)
    monkeypatch.setattr(backbone, "bfs_distances", counted)
    bb = bounded_diameter_cds(g, base)
    assert calls == []
    assert set(base.members) <= set(bb.members)


def _two_paths():
    """Two components: the path 0-1-2 and the path 3-4."""
    return NetworkGraph.from_adjacency(
        {0: [1], 1: [0, 2], 2: [1], 3: [4], 4: [3]})


def test_dfs_cluster_members_across_components_raise_backbone_error():
    # the member check comes before the diameter, which would raise
    # DisconnectedError on this graph
    with pytest.raises(BackboneError, match="connected subgraph"):
        dfs_cluster(_two_paths(), [1, 3])


def test_dfs_cluster_connected_members_of_a_split_graph_raise_disconnected():
    with pytest.raises(DisconnectedError):
        dfs_cluster(_two_paths(), [0, 1, 2])
