"""The centralized collection timing against a round-by-round reference.

``multibroadcast_schedule`` times the collection one unit at a time,
children before parents.  The reference below re-simulates every unit in
every round, the way the planner used to; both must give the same schedule.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumorcast.backbone import Backbone, greedy_cds, validate_backbone
from rumorcast.central import (
    Batch,
    Transmission,
    _rounds_from_map,
    broadcast_schedule,
    multibroadcast_schedule,
    plan_multibroadcast,
    schedule_to_dict,
)
from rumorcast.model import NetworkGraph

from test_golden import BACKBONES, FIXTURES


def _batch(rumors):
    return Batch(tuple(sorted(set(rumors))))


def ref_multibroadcast_schedule(g, bb, sources, c):
    """Collection scanned round by round over all units, then distribution."""
    if len(sources) == 1:
        return broadcast_schedule(g, bb, sources[0])
    validate_backbone(g, bb)
    plan = plan_multibroadcast(g, bb, sources, c)
    units = sorted(plan.own)
    root = bb.root
    need = {u: len(plan.load[u]) for u in units}
    unsent = {u: list(plan.own[u]) for u in units}
    received = {u: len(plan.own[u]) for u in units}
    by_round: dict = {}
    t = 0
    while any(u != root and (unsent[u] or received[u] < need[u])
              for u in units):
        t += 1
        arrivals: dict = {}
        for u in units:
            if u == root:
                continue
            backlog = unsent[u]
            complete = received[u] == need[u]
            if len(backlog) >= c or (complete and backlog):
                batch, unsent[u] = backlog[:c], backlog[c:]
                by_round.setdefault(t, []).append(
                    Transmission(u, _batch(batch)))
                arrivals.setdefault(plan.parent[u], []).extend(batch)
        for p, got in arrivals.items():
            unsent[p] = sorted(unsent[p] + got)
            received[p] += len(got)
    for m in set().union(*plan.distribution):
        for j, chunk in enumerate(plan.chunks, start=1):
            by_round.setdefault(t + j + bb.depth[m], []).append(
                Transmission(m, chunk))
    return _rounds_from_map(by_round)


@st.composite
def backbone_cases(draw):
    """A random recursive member tree (not a BFS tree) with chords, plus
    non-member nodes that each hear one to three members."""
    n = draw(st.integers(1, 10))
    extra = draw(st.integers(0, 6))
    ids = draw(st.permutations([5 * i + 2 for i in range(n + extra)]))
    members, outsiders = ids[:n], ids[n:]
    parent = {members[0]: None}
    adj = {u: set() for u in ids}

    def link(a, b):
        if a != b:
            adj[a].add(b)
            adj[b].add(a)

    for i in range(1, n):
        parent[members[i]] = members[draw(st.integers(0, i - 1))]
        link(parent[members[i]], members[i])
    for u in outsiders:
        for m in draw(st.lists(st.sampled_from(members), min_size=1,
                               max_size=3)):
            link(u, m)
    for _ in range(draw(st.integers(0, n + extra))):
        link(draw(st.sampled_from(ids)), draw(st.sampled_from(ids)))
    g = NetworkGraph.from_adjacency(adj)
    bb = Backbone(members=tuple(sorted(members)), root=members[0],
                  parent=parent)
    if draw(st.booleans()):
        bb = greedy_cds(g)
    sources = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=8))
    c = draw(st.integers(1, len(sources)))
    return g, bb, sources, c


@given(backbone_cases())
@settings(max_examples=250, deadline=None)
def test_collection_matches_round_by_round_reference(case):
    g, bb, sources, c = case
    validate_backbone(g, bb)
    got = schedule_to_dict(multibroadcast_schedule(g, bb, sources, c))
    want = schedule_to_dict(ref_multibroadcast_schedule(g, bb, sources, c))
    assert got == want


def check_collection_bands(plan, bb):
    """``plan.collection``: the sorted non-member sources first, then one
    band per member depth, depths strictly decreasing; every unit but the
    root exactly once."""
    bands = list(plan.collection)
    outsiders = sorted(set(plan.own) - set(bb.members))
    if outsiders:
        assert bands.pop(0) == tuple(outsiders)

    def depth(m):  # parent links walked up, not the cached ``bb.depth``
        hops = 0
        while bb.parent[m] is not None:
            m, hops = bb.parent[m], hops + 1
        return hops

    levels = []
    for band in bands:
        assert band and len({depth(m) for m in band}) == 1
        levels.append(depth(band[0]))
    assert levels == sorted(set(levels), reverse=True)
    units = [u for band in plan.collection for u in band]
    assert bb.root not in units
    assert sorted(units) == sorted(set(plan.parent) - {bb.root})


@given(backbone_cases())
@settings(max_examples=100, deadline=None)
def test_collection_bands_have_their_documented_shape(case):
    g, bb, sources, c = case
    validate_backbone(g, bb)
    check_collection_bands(plan_multibroadcast(g, bb, sources, c), bb)


@pytest.mark.parametrize("backbone", sorted(BACKBONES))
@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_collection_bands_on_the_golden_fixtures(fixture, backbone):
    g, sources = FIXTURES[fixture]()
    bb = BACKBONES[backbone](g)
    plan = plan_multibroadcast(g, bb, sources, 1)
    check_collection_bands(plan, bb)


@pytest.mark.parametrize("sources", [[0, 0], [3, 3, 0], [4, 1, 4, 2]])
@pytest.mark.parametrize("c", [1, 2, 3])
def test_collection_matches_reference_on_a_path(sources, c):
    g = NetworkGraph.from_adjacency(
        {i: [j for j in (i - 1, i + 1) if 0 <= j < 5] for i in range(5)})
    bb = Backbone(members=tuple(range(5)), root=0,
                  parent={i: i - 1 if i else None for i in range(5)})
    c = min(c, len(sources))
    got = multibroadcast_schedule(g, bb, sources, c)
    assert (schedule_to_dict(got)
            == schedule_to_dict(ref_multibroadcast_schedule(g, bb,
                                                            sources, c)))
