"""How much work the graph core does, and that doing less changes nothing.

``diameter`` skips every fringe BFS that the eccentricity bounds of the
passes already taken prove useless; these tests count its BFS passes
through ``model.bfs_distances`` and check its value against one BFS from
every node, on unit-disk graphs, grids, strips and one hand-built graph
whose only diametral pair sits exactly at a bound.  ``greedy_cds`` keys its
heap with one int per pick; it must make the full rescan's picks where
two hubs share most of their leaves and string ids sort out of numeric
order.
"""

from __future__ import annotations

import heapq
import math
import random

import pytest
from hypothesis import given, settings

from rumorcast import model
from rumorcast.backbone import greedy_cds
from rumorcast.fixtures import gen_random_udg
from rumorcast.model import (NetworkGraph, NodeSpec, build_network, diameter,
                             is_strongly_connected)
from test_graph_core_reference import (all_pairs_diameter, connected_udgs,
                                       grid, jittered_udg,
                                       reference_greedy_cds)


def diameter_passes(g: NetworkGraph, monkeypatch) -> tuple[int, int]:
    """``diameter(g)`` and the BFS passes it ran, connectivity apart."""
    assert is_strongly_connected(g)
    calls = []
    bfs = model.bfs_distances

    def counting(graph, src):
        calls.append(src)
        return bfs(graph, src)

    monkeypatch.setattr(model, "bfs_distances", counting)
    return diameter(g), len(calls)


def jittered_strip(cols: int, seed: int) -> NetworkGraph:
    """One uniform point per cell of a cols x 2 grid of 0.25-wide cells
    (a cols/4 x 0.5 strip), radius 1: always connected, and deep."""
    rng = random.Random(seed)
    nodes = [NodeSpec(i * 2 + j, (i + rng.random()) / 4,
                      (j + rng.random()) / 4, 1.0)
             for i in range(cols) for j in range(2)]
    return build_network(nodes)


def test_the_baseline_udg_takes_13_passes(monkeypatch):
    # 25 passes without the eccentricity bounds
    n = 1000
    g = gen_random_udg(n, math.sqrt(12 / (math.pi * n)), seed=1)
    assert diameter_passes(g, monkeypatch) == (30, 13)


def test_the_729_node_udg_takes_the_2_sweep_and_the_midpoint(monkeypatch):
    # the midpoint's levels stop the walk before any fringe BFS
    assert diameter_passes(jittered_udg(27, seed=5), monkeypatch) == (24, 3)


def test_a_bound_that_equals_the_diameter_prunes_nothing(monkeypatch):
    # 0-1-5-6-3-0 is a 5-cycle with the triangle 0-2-3 and the pendant 4
    # on 2; 4 and 5 are the only pair 4 hops apart.  The 2-sweep runs from
    # the max-degree node 0 (eccentricity 2) to 6, whose BFS ends at 4
    # (lower bound 3); the midpoint is 2, and its deepest level is {5},
    # next to 6.  ub[5] = ecc(0) + d(0, 5) = 2 + 2 is the diameter itself,
    # so 5 must get its BFS, which finds 4.  One less and the bound would
    # skip it and answer 3.
    g = NetworkGraph.from_adjacency({0: [1, 2, 3], 1: [0, 5], 2: [0, 3, 4],
                                     3: [0, 2, 6], 4: [2], 5: [1, 6],
                                     6: [3, 5]})
    assert all_pairs_diameter(g) == 4
    assert diameter_passes(g, monkeypatch) == (4, 4)


@given(connected_udgs())
@settings(max_examples=150, deadline=None)
def test_diameter_matches_all_pairs_on_udgs(g):
    assert diameter(g) == all_pairs_diameter(g)


@pytest.mark.parametrize("rows, cols", [(1, 1), (1, 7), (2, 9), (5, 5),
                                        (6, 13), (17, 4), (20, 20)])
def test_diameter_matches_all_pairs_on_grids(rows, cols):
    g = NetworkGraph.from_adjacency(grid(rows, cols))
    assert diameter(g) == all_pairs_diameter(g) == rows + cols - 2


@pytest.mark.parametrize("cols", [3, 40, 200])
@pytest.mark.parametrize("seed", range(4))
def test_diameter_matches_all_pairs_on_strips(cols, seed):
    g = jittered_strip(cols, seed)
    assert diameter(g) == all_pairs_diameter(g)


def two_hubs(degree: int, name) -> NetworkGraph:
    """Hubs 0, 1 and 2 of ``degree`` links each, each id i named
    ``name(i)``: 0 reaches 1 and leaves of its own, 1 reaches 2, and 2
    shares all its leaves but one with 1."""
    own = range(3, degree + 2)
    shared = range(degree + 2, 2 * degree)
    adj = {0: [1, *own], 1: [0, 2, *shared], 2: [1, *shared, 2 * degree],
           2 * degree: [2]}
    adj.update({u: [0] for u in own})
    adj.update({u: [1, 2] for u in shared})
    return NetworkGraph.from_adjacency(
        {name(u): [name(v) for v in vs] for u, vs in adj.items()})


@pytest.mark.parametrize("degree", [3, 9, 40])
@pytest.mark.parametrize("name", [int, "n{}".format], ids=["int", "str"])
def test_greedy_picks_two_hubs_as_the_full_rescan_does(degree, name,
                                                       monkeypatch):
    # "n10" < "n9", so string ids rank out of numeric order.  Hub 0 wins
    # the degree tie by id and is the first pick; then the pair (1, 2) is
    # pushed with the bound wdeg[1] + wdeg[2] = 2 * degree - 2, n - 3.  No
    # pair bound reaches n - 1: the first pick and its max_degree
    # neighbours never turn white again, and two adjacent nodes share at
    # most max_degree - 1 neighbours
    g = two_hubs(degree, name)
    n = len(g.node_ids)
    pushed = []
    push = heapq.heappush

    def recording(heap, key):
        pushed.append(key)
        push(heap, key)

    monkeypatch.setattr(heapq, "heappush", recording)
    got = greedy_cds(g)
    monkeypatch.undo()
    want = reference_greedy_cds(g)
    assert (got.members, got.root) == (want.members, want.root)
    assert dict(got.parent) == dict(want.parent)
    assert set(got.members) == {name(0), name(1), name(2)}
    # a key's quotient by n**2 is (2n - gain) * 2 + kind
    pair_bounds = [2 * n - k // (n * n) // 2 for k in pushed
                   if k // (n * n) & 1]
    assert max(pair_bounds) == 2 * degree - 2 == n - 3
