"""Loading a network: ``NetworkGraph.symmetric`` against a set-based
reference, and ``build_network``'s obstacle test, which runs only when the
placement has obstacles and never changes the links when none is in the
way."""

from __future__ import annotations

import random

from hypothesis import event, given, settings
from hypothesis import strategies as st

import rumorcast.model as model
from rumorcast.model import NetworkGraph, NodeSpec, Obstacle, build_network


def reference_symmetric(g: NetworkGraph) -> bool:
    """Every link u -> v has its reverse, looked up in a set."""
    adj = g.adjacency
    return all(u in set(adj[v]) for u, outs in adj.items() for v in outs)


@st.composite
def dense_graphs(draw):
    """G(n, p) with p up to 1, an optional hub linked to every node, an
    optional one-way cycle, and some one-way links; keys in shuffled order,
    integer or string ids.  The cycle replaces every link among its nodes,
    so each node keeps as many in-links as out-links."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(min_value=1, max_value=70))
    p = draw(st.sampled_from([0.3, 0.7, 0.95, 1.0]))
    adj = {u: set() for u in range(n)}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].add(v)
                adj[v].add(u)
    if draw(st.booleans()):
        hub = rng.randrange(n)
        for v in range(n):
            if v != hub:
                adj[hub].add(v)
                adj[v].add(hub)
    if n >= 3 and draw(st.booleans()):
        cycle = rng.sample(range(n), rng.randint(3, n))
        for u in cycle:
            adj[u].difference_update(cycle)
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            adj[u].add(v)
    for _ in range(draw(st.integers(0, 3))):  # drop one direction of a link
        u = rng.randrange(n)
        if adj[u]:
            adj[u].discard(rng.choice(sorted(adj[u])))
    name = str if draw(st.booleans()) else int
    keys = list(adj)
    rng.shuffle(keys)
    return NetworkGraph.from_adjacency(
        {name(u): [name(v) for v in adj[u]] for u in keys})


@given(dense_graphs())
@settings(max_examples=150, deadline=None)
def test_symmetric_matches_a_set_reference_on_dense_graphs(g):
    want = reference_symmetric(g)
    assert g.symmetric == want
    event("symmetric" if want else "one-way")


def test_one_way_cycles_with_balanced_degrees_are_not_symmetric():
    triangle = NetworkGraph.from_adjacency({0: [1], 1: [2], 2: [0]})
    # a path a - b both ways, then b -> c -> d -> b one way
    tail = NetworkGraph.from_adjacency(
        {"a": ["b"], "b": ["a", "c"], "c": ["d"], "d": ["b"]})
    assert not reference_symmetric(triangle) and not triangle.symmetric
    assert not reference_symmetric(tail) and not tail.symmetric


@st.composite
def placements(draw, walls=True):
    """Up to 60 nodes in a unit square, with unequal powers, and up to
    three obstacles when ``walls``."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(min_value=0, max_value=60))
    radius = draw(st.floats(min_value=0.05, max_value=0.6))
    unequal = draw(st.booleans())
    nodes = [NodeSpec(i, rng.random(), rng.random(),
                      (radius * (rng.uniform(0.4, 1.0) if unequal else 1.0))
                      ** 2)
             for i in range(n)]
    count = draw(st.integers(0, 3)) if walls else 0
    obstacles = [Obstacle(*(rng.random() for _ in range(4)))
                 for _ in range(count)]
    return nodes, obstacles


@given(placements())
@settings(max_examples=150, deadline=None)
def test_symmetric_matches_a_set_reference_on_placements(case):
    nodes, obstacles = case
    g = build_network(nodes, obstacles)
    want = reference_symmetric(g)
    assert g.symmetric == want
    event("symmetric" if want else "one-way")


def _count_obstacle_tests(monkeypatch) -> list:
    calls = []
    real = model._link_blocked

    def counting(a, b, obstacles):
        calls.append((a.id, b.id))
        return real(a, b, obstacles)

    monkeypatch.setattr(model, "_link_blocked", counting)
    return calls


def _grid_nodes(side: int) -> list[NodeSpec]:
    """A side x side lattice of unit spacing, radius 1.5: diagonals link."""
    return [NodeSpec(i * side + j, float(i), float(j), 2.25)
            for i in range(side) for j in range(side)]


def test_build_without_obstacles_makes_no_obstacle_test(monkeypatch):
    calls = _count_obstacle_tests(monkeypatch)
    g = build_network(_grid_nodes(8), ())
    assert sum(map(len, g.adjacency.values())) > 0
    assert calls == []


def test_build_with_an_obstacle_tests_every_link_in_range(monkeypatch):
    calls = _count_obstacle_tests(monkeypatch)
    g = build_network(_grid_nodes(8), [Obstacle(100.0, 100.0, 101.0, 101.0)])
    assert len(calls) == sum(map(len, g.adjacency.values()))


@given(placements(walls=False), st.sampled_from(["left", "right", "below",
                                                  "above"]))
@settings(max_examples=100, deadline=None)
def test_an_obstacle_outside_the_placement_changes_no_link(case, side):
    nodes, _ = case
    wall = {"left": Obstacle(-2.0, -1.0, -1.0, 2.0),
            "right": Obstacle(2.0, -1.0, 3.0, 2.0),
            "below": Obstacle(-1.0, -2.0, 2.0, -1.0),
            "above": Obstacle(-1.0, 2.0, 2.0, 3.0)}[side]
    assert (build_network(nodes, [wall]).adjacency
            == build_network(nodes, ()).adjacency)
