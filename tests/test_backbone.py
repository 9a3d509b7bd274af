"""Connected dominating set construction and validation tests."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rumorcast.model import (
    DisconnectedError,
    ModelError,
    NetworkGraph,
    diameter,
)
from rumorcast.backbone import (
    Backbone,
    BackboneError,
    bounded_diameter_cds,
    brute_force_mcds,
    build_arborescence,
    dfs_cluster,
    greedy_cds,
    validate_backbone,
)


def path_graph(ids):
    adj = {u: [] for u in ids}
    for a, b in zip(ids, ids[1:]):
        adj[a].append(b)
        adj[b].append(a)
    return NetworkGraph.from_adjacency(adj)


def cycle_graph(n):
    adj = {i: [(i - 1) % n, (i + 1) % n] for i in range(n)}
    return NetworkGraph.from_adjacency(adj)


# --- greedy growth ---------------------------------------------------------

def test_greedy_cds_on_five_node_path():
    g = path_graph(["a", "b", "c", "d", "e"])
    bb = greedy_cds(g)
    assert bb.members == ("b", "c", "d")
    validate_backbone(g, bb)


def test_greedy_cds_on_four_node_path_is_optimal():
    g = path_graph(["a", "b", "c", "d"])
    assert greedy_cds(g).members == ("b", "c")


def test_greedy_cds_on_six_cycle():
    g = cycle_graph(6)
    bb = greedy_cds(g)
    assert bb.members == (0, 1, 2, 3)
    validate_backbone(g, bb)


def test_greedy_cds_single_node():
    g = NetworkGraph.from_adjacency({"a": []})
    bb = greedy_cds(g)
    assert bb.members == ("a",)
    assert bb.root == "a"
    assert bb.parent == {"a": None}


def test_greedy_cds_is_cached_on_its_graph():
    g = path_graph(list(range(6)))
    bb = greedy_cds(g)
    assert greedy_cds(g) is bb
    # an equal graph is another graph, with its own (equal) backbone
    twin = path_graph(list(range(6)))
    assert greedy_cds(twin) is not bb and greedy_cds(twin) == bb


def test_greedy_cds_two_nodes():
    g = path_graph(["a", "b"])
    assert greedy_cds(g).members == ("a",)


def test_greedy_cds_rejects_asymmetric_and_disconnected():
    with pytest.raises(ModelError):
        greedy_cds(NetworkGraph.from_adjacency({"a": ["b"], "b": []}))
    with pytest.raises(DisconnectedError):
        greedy_cds(NetworkGraph.from_adjacency({"a": [], "b": []}))


# --- exhaustive minimum ----------------------------------------------------

def test_brute_force_mcds_on_six_cycle():
    bb = brute_force_mcds(cycle_graph(6))
    assert bb.members == (0, 1, 2, 3)
    assert bb.size == 4


def test_brute_force_mcds_on_four_node_path():
    assert brute_force_mcds(path_graph(["a", "b", "c", "d"])).members == ("b", "c")


def test_brute_force_mcds_prefers_lexicographically_smallest():
    # star: every single hub works, and "c" is the hub; singletons {a},{b},...
    # only dominate via adjacency, so the hub is the unique size-1 answer
    g = NetworkGraph.from_adjacency(
        {"a": ["c"], "b": ["c"], "c": ["a", "b", "d"], "d": ["c"]})
    assert brute_force_mcds(g).members == ("c",)


def test_brute_force_mcds_size_guard():
    g = cycle_graph(17)
    with pytest.raises(ModelError):
        brute_force_mcds(g)
    # the cap raises on every call and keeps nothing on the graph
    with pytest.raises(ModelError, match="capped at 16 nodes, got 17"):
        brute_force_mcds(g)
    assert "_brute_force_mcds" not in vars(g)


def test_brute_force_mcds_rejects_a_disconnected_graph():
    g = NetworkGraph.from_adjacency({0: [1], 1: [0], 2: [3], 3: [2]})
    with pytest.raises(DisconnectedError, match="needs a connected network"):
        brute_force_mcds(g)


def test_brute_force_mcds_rejects_an_empty_graph():
    # no root exists, so an empty graph has no connected dominating set
    with pytest.raises(DisconnectedError, match="needs a connected network"):
        brute_force_mcds(NetworkGraph.from_adjacency({}))


@st.composite
def connected_graphs(draw, max_nodes=9):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    adj = {i: set() for i in range(n)}
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        adj[u].add(v)
        adj[v].add(u)
    extra = draw(st.sets(st.tuples(st.integers(0, n - 1),
                                   st.integers(0, n - 1)), max_size=12))
    for a, b in extra:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    return NetworkGraph.from_adjacency(adj)


@given(connected_graphs())
@settings(max_examples=60, deadline=None)
def test_greedy_is_valid_and_within_guarantee_of_optimal(g):
    greedy = greedy_cds(g)
    exact = brute_force_mcds(g)
    validate_backbone(g, greedy)
    validate_backbone(g, exact)
    assert exact.size <= greedy.size
    harmonic = sum(1.0 / i for i in range(1, max(2, g.max_degree + 1)))
    assert greedy.size <= (2.0 + harmonic) * exact.size


# --- arborescence ----------------------------------------------------------

def test_build_arborescence_on_four_cycle():
    g = cycle_graph(4)
    parent = build_arborescence(g, [0, 1, 2, 3], 0)
    assert parent == {0: None, 1: 0, 3: 0, 2: 1}
    bb = Backbone(members=(0, 1, 2, 3), root=0, parent=parent)
    assert bb.depth[2] == 2
    assert bb.max_depth == 2
    assert bb.children[0] == (1, 3)


def test_build_arborescence_rejects_detached_members():
    g = path_graph([0, 1, 2, 3])
    with pytest.raises(BackboneError):
        build_arborescence(g, [0, 1, 3], 0)  # 3 unreachable inside {0,1,3}
    with pytest.raises(BackboneError):
        build_arborescence(g, [0, 1], 2)


# --- validation ------------------------------------------------------------

def test_validate_backbone_catches_missing_coverage():
    g = path_graph([0, 1, 2, 3, 4])
    bb = Backbone(members=(0, 1), root=0, parent={0: None, 1: 0})
    with pytest.raises(BackboneError, match="dominated"):
        validate_backbone(g, bb)


def test_validate_backbone_catches_disconnected_members():
    g = path_graph([0, 1, 2, 3, 4])
    bb = Backbone(members=(1, 3), root=1, parent={1: None, 3: 1})
    with pytest.raises(BackboneError):
        validate_backbone(g, bb)


def test_validate_backbone_catches_bad_parent_link():
    g = path_graph([0, 1, 2, 3])
    bb = Backbone(members=(1, 2), root=1, parent={1: None, 2: 1})
    validate_backbone(g, bb)  # fine
    bad = Backbone(members=(1, 2), root=1, parent={1: None, 2: 2})
    with pytest.raises(BackboneError):
        validate_backbone(g, bad)


def test_validate_backbone_requires_sorted_unique_members():
    g = path_graph([0, 1, 2])
    bb = Backbone(members=(1, 0), root=1, parent={0: 1, 1: None})
    with pytest.raises(BackboneError):
        validate_backbone(g, bb)


# --- clustering and bounded-diameter variant -------------------------------

def test_dfs_cluster_on_a_path_uses_diameter_slabs():
    g = path_graph(list(range(7)))  # diameter 6
    clusters = dfs_cluster(g, list(range(7)))
    assert clusters.cluster_of == {0: 0, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 1}
    assert clusters.leaders == {0: 0, 1: 6}


def test_dfs_cluster_on_star_members():
    g = NetworkGraph.from_adjacency(
        {"a": ["c"], "b": ["c"], "c": ["a", "b", "d"], "d": ["c"]})
    clusters = dfs_cluster(g, ["a", "b", "c", "d"])
    # diameter 2; depth-first from "a": a=0, c=1, then b and d at 2
    assert clusters.cluster_of == {"a": 0, "c": 0, "b": 1, "d": 1}
    assert clusters.leaders == {0: "a", 1: "b"}


def test_bounded_diameter_keeps_base_and_stays_small():
    g = cycle_graph(6)
    base = greedy_cds(g)
    bb = bounded_diameter_cds(g, base)
    assert set(base.members) <= set(bb.members)
    assert bb.size <= 3 * base.size
    assert bb.root == min(base.members)
    validate_backbone(g, bb)


def test_bounded_diameter_default_base_is_greedy():
    g = path_graph(list(range(12)))
    bb = bounded_diameter_cds(g)
    base = greedy_cds(g)
    assert set(base.members) <= set(bb.members)
    assert bb.size <= 3 * base.size
    validate_backbone(g, bb)


@given(connected_graphs())
@settings(max_examples=60, deadline=None)
def test_bounded_diameter_properties(g):
    base = greedy_cds(g)
    bb = bounded_diameter_cds(g, base)
    validate_backbone(g, bb)
    assert set(base.members) <= set(bb.members)
    assert bb.size <= 3 * base.size
    # induced member-to-member distance stays within 4x the network diameter
    d = diameter(g)
    for m in bb.members:
        for m2 in bb.members:
            induced = _induced_distance(g, set(bb.members), m, m2)
            assert induced is not None
            assert induced <= 4 * d


def _induced_distance(g, members, src, dst):
    if src == dst:
        return 0
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.adjacency[u]:
                if v in members and v not in dist:
                    dist[v] = dist[u] + 1
                    if v == dst:
                        return dist[v]
                    nxt.append(v)
        frontier = nxt
    return None


def test_cluster_rejects_disconnected_member_set():
    g = path_graph([0, 1, 2, 3, 4])
    with pytest.raises(BackboneError):
        dfs_cluster(g, [0, 4])


def test_cluster_rejects_an_empty_member_set():
    with pytest.raises(BackboneError, match="empty member set"):
        dfs_cluster(path_graph([0, 1, 2]), [])


@pytest.mark.parametrize("members, root, parent, message", [
    ((), 0, {}, "no members"),
    ((1, 9), 1, {1: None, 9: 1}, "member 9 is not a node"),
    ((1, 2), 0, {1: None, 2: 1}, "root 0 is not a member"),
    ((1, 2), 1, {1: None}, "cover exactly the members"),
    ((1, 2), 1, {1: None, 2: 1, 3: 2}, "cover exactly the members"),
    ((1, 2), 1, {1: None, 2: 0}, "parent of 2 is not a member"),
], ids=["empty", "unknown-member", "outside-root", "parent-missing",
        "parent-extra", "outside-parent"])
def test_validate_backbone_names_each_structural_error(members, root, parent,
                                                       message):
    g = path_graph([0, 1, 2, 3])
    with pytest.raises(BackboneError, match=message):
        validate_backbone(g, Backbone(members=members, root=root,
                                      parent=parent))


def reference_validate_backbone(g, bb):
    """The validator with its own walk of the member subgraph, kept as the
    reference for which backbones ``validate_backbone`` must reject."""
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
    reached = [bb.root]
    for u in reached:
        reached += [v for v in g.adjacency[u]
                    if v in group and v not in reached]
    if len(reached) != len(group):
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
    if len(bb.depth) != len(members):
        raise BackboneError("parent links contain a cycle")


@st.composite
def proposed_backbones(draw, max_nodes=7):
    """A small symmetric or directed graph and a backbone proposed for it.

    Members are a random set of nodes and the root one of them.  Parent
    links come from a breadth-first walk over the members, which puts the
    members it cannot reach on random member parents, or from random
    member parents throughout, joined by an edge where one can be; they
    give parent cycles, non-edge links and disconnected member sets, as
    well as valid arborescences.  Then at most one flaw is drawn:
    no members, unsorted or repeated members, an unknown member, a root
    outside the members, or a parent key dropped, added or redrawn (id n
    is never a node).
    """
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    symmetric = draw(st.booleans())
    # a random tree out of node 0, so that many member sets are connected,
    # plus random links
    links = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    links += draw(st.lists(st.tuples(st.integers(0, n - 1),
                                     st.integers(0, n - 1)), max_size=12))
    adj = {u: set() for u in range(n)}
    for a, b in links:
        if a != b:
            adj[a].add(b)
            if symmetric:
                adj[b].add(a)
    g = NetworkGraph.from_adjacency(adj)
    ids = st.integers(0, n)
    members = sorted(set(range(n)).difference(
        draw(st.sets(st.integers(0, n - 1), max_size=n - 1))))
    root = draw(st.sampled_from(members))
    parent = {root: None}
    tie = draw(st.sampled_from(["walk", "edges", "any"]))
    if tie == "walk":
        order = [root]
        for u in order:
            for v in g.adjacency[u]:
                if v in members and v not in parent:
                    parent[v] = u
                    order.append(v)
    for m in members:
        if m not in parent:
            linked = [p for p in members if m in g.adjacency[p]]
            parent[m] = draw(st.sampled_from(
                linked if tie == "edges" and linked else members))
    flaw = draw(st.sampled_from(["none", "empty", "unsorted", "unknown",
                                 "outside-root", "drop", "add", "redraw"]))
    if flaw == "empty":
        members = []
    elif flaw == "unsorted":
        members = members[::-1] + members[:1]
    elif flaw == "unknown":
        members.append(n)
    elif flaw == "outside-root":
        root = draw(ids.filter(lambda v: v not in members))
    elif flaw == "drop":
        del parent[draw(st.sampled_from(members))]
    elif flaw == "add":
        parent[draw(ids)] = draw(st.one_of(st.none(), ids))
    elif flaw == "redraw":
        parent[draw(st.sampled_from(members))] = draw(
            st.one_of(st.none(), ids))
    return g, Backbone(members=tuple(members), root=root, parent=parent)


def rejects(validate, g, bb) -> bool:
    try:
        validate(g, bb)
    except BackboneError:
        return True
    return False


@given(proposed_backbones())
@example((path_graph([0, 1, 2]),
          Backbone(members=(1,), root=1, parent={1: None})))
@example((path_graph([0, 1, 2, 3, 4]),
          Backbone(members=(1, 3), root=1, parent={1: None, 3: 1})))
@settings(max_examples=400, deadline=None)
def test_validate_backbone_rejects_what_the_member_walk_rejects(case):
    g, bb = case
    assert rejects(validate_backbone, g, bb) == rejects(
        reference_validate_backbone, g, bb)
