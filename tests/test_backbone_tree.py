"""The backbone tree facts (children, depths) against parent-walk references."""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumorcast.backbone import (
    Backbone,
    BackboneError,
    greedy_cds,
    validate_backbone,
)
from rumorcast.central import plan_multibroadcast
from rumorcast.distributed import _collection_stages, _distribution_stages
from rumorcast.model import NetworkGraph


def ref_depth(bb: Backbone, m) -> int:
    depth = 0
    cur = bb.parent[m]
    while cur is not None:
        depth += 1
        cur = bb.parent[cur]
    return depth


def ref_children(bb: Backbone, m) -> tuple:
    return tuple(sorted(u for u in bb.members if bb.parent[u] == m))


@st.composite
def trees_with_chords(draw):
    """A random recursive tree (not a BFS tree) over shuffled ids, rooted at
    a random node, inside a graph that adds random chords to its edges."""
    n = draw(st.integers(1, 14))
    ids = draw(st.permutations([7 * i + 3 for i in range(n)]))
    parent = {ids[0]: None}
    adj = {u: set() for u in ids}
    for i in range(1, n):
        p = ids[draw(st.integers(0, i - 1))]
        parent[ids[i]] = p
        adj[p].add(ids[i])
        adj[ids[i]].add(p)
    for _ in range(draw(st.integers(0, n))):
        a, b = draw(st.sampled_from(ids)), draw(st.sampled_from(ids))
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    bb = Backbone(members=tuple(sorted(ids)), root=ids[0], parent=parent)
    return NetworkGraph.from_adjacency(adj), bb


def check_tree_facts(bb: Backbone) -> None:
    for m in bb.members:
        assert bb.depth[m] == ref_depth(bb, m)
        assert bb.children[m] == ref_children(bb, m)
    assert bb.max_depth == max(ref_depth(bb, m) for m in bb.members)
    assert -1 not in bb.children
    # root-first: the root leads and depths never decrease
    keys = list(bb.depth)
    assert keys[0] == bb.root and sorted(keys) == list(bb.members)
    values = list(bb.depth.values())
    assert values == sorted(values)


@given(trees_with_chords())
@settings(max_examples=150, deadline=None)
def test_tree_facts_match_parent_walk_on_explicit_trees(case):
    g, bb = case
    validate_backbone(g, bb)
    check_tree_facts(bb)


@given(trees_with_chords())
@settings(max_examples=60, deadline=None)
def test_tree_facts_match_parent_walk_on_greedy_backbones(case):
    g, _ = case
    bb = greedy_cds(g)
    validate_backbone(g, bb)
    check_tree_facts(bb)


@given(trees_with_chords(), st.data())
@settings(max_examples=60, deadline=None)
def test_stage_bands_are_the_depth_levels(case, data):
    g, bb = case
    sources = data.draw(st.lists(st.sampled_from(bb.members), min_size=1,
                                 max_size=4, unique=True))
    plan = plan_multibroadcast(g, bb, sources, 1)
    levels: dict = {}
    for m in bb.members:
        levels.setdefault(ref_depth(bb, m), set()).add(m)
    want = [{u for u in band if plan.load[u]}
            for d, band in sorted(levels.items(), reverse=True) if d > 0]
    got = [{u for u, _, _ in stage} for stage in _collection_stages(plan)]
    assert got == [band for band in want if band]
    for stage in _distribution_stages(g, plan):
        depths = {ref_depth(bb, m) for m, _, _ in stage}
        assert len(depths) == 1
        assert {m for m, _, _ in stage} <= set().union(*plan.distribution)


@given(trees_with_chords(), st.booleans(), st.data())
@settings(max_examples=100, deadline=None)
def test_distribution_bands_are_a_minimal_covering_sender_tree(case, greedy,
                                                              data):
    g, bb = case
    if greedy:
        bb = greedy_cds(g)
    sources = data.draw(st.lists(st.sampled_from(bb.members), min_size=1,
                                 max_size=4, unique=True))
    plan = plan_multibroadcast(g, bb, sources, 1)
    bands = plan.distribution
    assert bands[0] == (bb.root,)
    for d, band in enumerate(bands):
        for m in band:
            assert ref_depth(bb, m) == d
            assert d == 0 or bb.parent[m] in bands[d - 1]
    senders = set().union(*bands)
    assert [m for band in bands for m in band] == \
        [m for m in bb.depth if m in senders]

    def covered_by(nodes):
        return set(nodes).union(*(g.adjacency[m] for m in nodes))

    assert covered_by(senders) == set(g.node_ids)
    for m in senders - {bb.root}:
        if not any(bb.parent[s] == m for s in senders):
            assert covered_by(senders - {m}) != set(g.node_ids)


def _finishes(call):
    """The value or exception of ``call``, failing the test if it hangs."""
    out = []

    def target():
        try:
            out.append(call())
        except Exception as exc:  # returned for the caller to inspect
            out.append(exc)

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(5)
    assert not worker.is_alive(), "call did not return"
    return out[0]


def test_cycle_off_the_root_returns_or_raises():
    bb = Backbone(members=(0, 1, 2), root=0, parent={0: None, 1: 2, 2: 1})
    assert isinstance(_finishes(lambda: bb.depth[1]), KeyError)
    assert _finishes(lambda: bb.depth[0]) == 0
    assert _finishes(lambda: bb.max_depth) == 0
    assert _finishes(lambda: bb.children[1]) == (2,)
    assert _finishes(lambda: bb.children[2]) == (1,)
    g = NetworkGraph.from_adjacency({0: [1], 1: [0, 2], 2: [1]})
    with pytest.raises(BackboneError, match="^parent links contain a cycle$"):
        validate_backbone(g, bb)


def test_root_with_a_parent_returns_or_raises():
    bb = Backbone(members=(0, 1, 2), root=0, parent={0: 2, 1: 0, 2: 1})
    assert _finishes(lambda: bb.depth[2]) == 2
    assert _finishes(lambda: bb.max_depth) == 2
    assert _finishes(lambda: bb.children[2]) == (0,)
    g = NetworkGraph.from_adjacency({0: [1, 2], 1: [0, 2], 2: [0, 1]})
    with pytest.raises(BackboneError, match="^root must have no parent$"):
        validate_backbone(g, bb)


def test_plan_on_a_3000_member_path_backbone():
    n = 3000
    g = NetworkGraph.from_adjacency(
        {i: [j for j in (i - 1, i + 1) if 0 <= j < n] for i in range(n)})
    parent = {i: (i - 1 if i else None) for i in range(n)}
    bb = Backbone(members=tuple(range(n)), root=0, parent=parent)
    validate_backbone(g, bb)
    plan = plan_multibroadcast(g, bb, [n - 1, n // 2], 2)
    assert list(bb.depth) == list(range(n))
    assert bb.depth[n - 1] == n - 1 == bb.max_depth
    assert len(plan.load[0]) == 2 and len(plan.load[n // 2]) == 2
    assert len(plan.load[n // 2 + 1]) == 1
    # only the far end is redundant: its neighbour covers it
    assert set().union(*plan.distribution) == set(range(n - 1))
    assert len(_collection_stages(plan)) == n - 1
    assert len(_distribution_stages(g, plan)) == n - 1
