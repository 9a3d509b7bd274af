"""Exhaustive-search behaviour frozen on hand-checkable instances."""

import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rumorcast.backbone import brute_force_mcds
from rumorcast.bounds import message_lower_bound
from rumorcast.central import Rumor, simulate_schedule
from rumorcast.fixtures import gen_star_path
from rumorcast.model import NetworkGraph, bfs_distances, is_strongly_connected

from oracles import (SearchError, gen_internal_source_path,
                     gen_leaf_source_path, gen_set_cover_reduction,
                     min_makespan_schedule, min_message_schedule,
                     time_lower_bound_star_path)
from reception_reference import delivery_times


def delivered_everywhere(g, sched, rumors):
    metrics = simulate_schedule(g, sched, interference=False)
    delivery = delivery_times(g, sched, interference=False)
    nodes = frozenset(g.node_ids)
    reached = all(delivery.get(r, {}).keys() == nodes for r in rumors)
    assert metrics.holds_all(rumors) == reached
    return reached


def test_rejects_malformed_instances():
    g = NetworkGraph.from_adjacency({0: [1], 1: [0]})
    with pytest.raises(SearchError, match="compression"):
        min_message_schedule(g, [Rumor(0)], 0)
    with pytest.raises(SearchError, match="no rumors"):
        min_message_schedule(g, [], 1)
    with pytest.raises(SearchError, match="duplicate"):
        min_message_schedule(g, [Rumor(0), Rumor(0)], 1)
    with pytest.raises(SearchError, match="unknown"):
        min_message_schedule(g, [Rumor(9)], 1)
    with pytest.raises(SearchError, match="rumors exceed"):
        min_makespan_schedule(g, [Rumor(0, i) for i in range(7)], 7)
    path13 = NetworkGraph.from_adjacency(
        {i: [j for j in (i - 1, i + 1) if 0 <= j < 13] for i in range(13)})
    with pytest.raises(SearchError, match="nodes exceed"):
        min_makespan_schedule(path13, [Rumor(0)], 1)


def test_trivial_and_infeasible_instances():
    lone = NetworkGraph.from_adjacency({"a": []})
    done = min_message_schedule(lone, [Rumor("a")], 1)
    assert done.message_count == 0 and done.makespan == 0
    assert min_makespan_schedule(lone, [Rumor("a")], 1).makespan == 0
    split = NetworkGraph.from_adjacency({"a": [], "b": []})
    with pytest.raises(SearchError, match="deliver"):
        min_message_schedule(split, [Rumor("a")], 1)
    with pytest.raises(SearchError, match="deliver"):
        min_makespan_schedule(split, [Rumor("a")], 1)


def test_single_edge_pipelining():
    # 5 rumors held at one end of an edge, 2 to a message: 3 sends, and
    # nothing the receiver does can help, so 3 rounds as well.
    g = NetworkGraph.from_adjacency({"a": ["b"], "b": ["a"]})
    rumors = [Rumor("a", i) for i in range(5)]
    best_time = min_makespan_schedule(g, rumors, 2)
    assert best_time.makespan == 3 == time_lower_bound_star_path(5, 2, 1)
    assert delivered_everywhere(g, best_time, rumors)
    best_msgs = min_message_schedule(g, rumors, 2)
    assert best_msgs.message_count == 3
    assert delivered_everywhere(g, best_msgs, rumors)


def test_path_broadcast_optimum_tracks_backbone_size():
    g, leaf = gen_leaf_source_path()
    base = brute_force_mcds(g)
    best = min_message_schedule(g, [Rumor(leaf)], 1)
    assert best.message_count == base.size + 1 == 3
    g2, inner = gen_internal_source_path()
    best2 = min_message_schedule(g2, [Rumor(inner)], 1)
    assert best2.message_count == base.size == 2


STAR_PATH_CASES = sorted({(k, d, c) for k in (1, 2, 3, 4) for d in (1, 2)
                          for c in (1, 2, k) if c <= k})


@pytest.mark.parametrize("k,d,c", STAR_PATH_CASES)
def test_star_path_round_optimum_matches_closed_form(k, d, c):
    g, sources = gen_star_path(k, d)
    rumors = [Rumor(s) for s in sources]
    best = min_makespan_schedule(g, rumors, c)
    diam = d + 1
    assert best.makespan == math.ceil(k / c) + diam - 1
    assert best.makespan == time_lower_bound_star_path(k, c, diam)
    assert delivered_everywhere(g, best, rumors)


def test_star_path_example_table():
    g, sources = gen_star_path(4, 2)
    rumors = [Rumor(s) for s in sources]
    for c, want in [(1, 6), (2, 4), (3, 4), (4, 3)]:
        assert min_makespan_schedule(g, rumors, c).makespan == want


FIG2_UNIVERSE = frozenset({0, 1, 2})
FIG2_SUBSETS = (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2}))


def min_cover_size(universe, subsets):
    for size in range(1, len(subsets) + 1):
        for pick in itertools.combinations(subsets, size):
            if frozenset().union(*pick) >= universe:
                return size
    raise AssertionError("subsets do not cover the universe")


def test_three_set_broadcast_needs_cover_plus_source():
    g, sources = gen_set_cover_reduction(FIG2_UNIVERSE, FIG2_SUBSETS)
    (src,) = sources
    best = min_message_schedule(g, [Rumor(src)], 1)
    assert min_cover_size(FIG2_UNIVERSE, FIG2_SUBSETS) == 2
    assert best.message_count == 1 + 2
    assert delivered_everywhere(g, best, [Rumor(src)])
    # the witness is one source send plus a minimum cover of the elements
    senders = {tx.sender for rnd in best.rounds for tx in rnd}
    elems = {v for v in g.node_ids if str(v).startswith("elem")}
    chosen = senders - {src}
    assert len(chosen) == 2
    covered = set()
    for s in chosen:
        covered.update(v for v in g.adjacency[s] if v in elems)
    assert covered == elems


def test_single_set_broadcast_needs_two_messages():
    g, sources = gen_set_cover_reduction({0, 1}, [{0, 1}])
    best = min_message_schedule(g, [Rumor(sources[0])], 1)
    assert best.message_count == 2


def test_three_set_gossip_floor():
    g, sources = gen_set_cover_reduction(FIG2_UNIVERSE, FIG2_SUBSETS,
                                         gossip_k=3)
    rumors = [Rumor(s) for s in sources]
    best = min_message_schedule(g, rumors, 3)
    k, cover = 3, 2
    assert best.message_count >= k * math.ceil(k / 3) + cover
    assert best.message_count == 5
    assert delivered_everywhere(g, best, rumors)


@st.composite
def connected_symmetric_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    adj = {i: set() for i in range(n)}
    for u, v in itertools.combinations(range(n), 2):
        if draw(st.booleans()):
            adj[u].add(v)
            adj[v].add(u)
    g = NetworkGraph.from_adjacency({u: sorted(vs) for u, vs in adj.items()})
    assume(is_strongly_connected(g))
    return g


@given(connected_symmetric_graphs(), st.data())
@settings(deadline=None, max_examples=60)
def test_optima_respect_closed_form_floors(g, data):
    c = data.draw(st.sampled_from([1, 2]))
    srcs = data.draw(st.permutations(list(g.node_ids)))[:2]
    rumors = [Rumor(s) for s in srcs]
    fewest_msgs = min_message_schedule(g, rumors, c)
    fewest_rounds = min_makespan_schedule(g, rumors, c)
    base = brute_force_mcds(g)
    assert fewest_msgs.message_count >= message_lower_bound(
        len(rumors), c, base.size)
    assert fewest_msgs.message_count >= fewest_rounds.makespan
    worst_ecc = max(max(bfs_distances(g, s).values()) for s in srcs)
    assert fewest_rounds.makespan >= worst_ecc
    assert delivered_everywhere(g, fewest_msgs, rumors)
    assert delivered_everywhere(g, fewest_rounds, rumors)
