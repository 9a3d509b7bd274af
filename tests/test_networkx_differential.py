"""Graph queries checked against networkx on generated graphs.

networkx is not a dependency of the package; these tests are skipped
where it is not installed.  On a graph with a one-way link both
``diameter`` and ``is_strongly_connected`` raise ``ModelError``.  Each
symmetric graph is checked three ways: ``diameter`` equals ``nx.diameter``
or raises ``DisconnectedError`` exactly when the graph is not connected,
``is_strongly_connected`` agrees with ``nx.is_connected``, and on
connected graphs the greedy backbone dominates the graph and induces a
connected subgraph.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

nx = pytest.importorskip("networkx")

from rumorcast.backbone import greedy_cds  # noqa: E402
from rumorcast.model import (DisconnectedError, ModelError,  # noqa: E402
                             NetworkGraph, NodeSpec, build_network, diameter,
                             is_strongly_connected)


def to_networkx(g: NetworkGraph):
    out = nx.Graph()
    out.add_nodes_from(g.node_ids)
    out.add_edges_from((u, v) for u in g.node_ids for v in g.adjacency[u])
    return out


def check_against_networkx(g: NetworkGraph) -> None:
    if not g.symmetric:
        with pytest.raises(ModelError, match="symmetric"):
            is_strongly_connected(g)
        with pytest.raises(ModelError, match="symmetric"):
            diameter(g)
        return
    ref = to_networkx(g)
    connected = nx.is_connected(ref)
    assert is_strongly_connected(g) == connected
    if connected:
        assert diameter(g) == nx.diameter(ref)
    else:
        with pytest.raises(DisconnectedError):
            diameter(g)
    if connected:
        members = greedy_cds(g).members
        assert nx.is_dominating_set(ref, members)
        assert nx.is_connected(ref.subgraph(members))


@st.composite
def adjacency_graphs(draw, max_nodes=14):
    """Any small graph: symmetric or directed, connected or not."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1),
                                   st.integers(0, n - 1)),
                         max_size=3 * n))
    symmetric = draw(st.booleans())
    adj = {u: set() for u in range(n)}
    for u, v in edges:
        if u != v:
            adj[u].add(v)
            if symmetric:
                adj[v].add(u)
    return NetworkGraph.from_adjacency(adj)


@st.composite
def sparse_graphs(draw, max_nodes=14):
    """A random tree plus a few chords: where a 2-sweep can fall short."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    adj = {u: set() for u in range(n)}
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        adj[u].add(v)
        adj[v].add(u)
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=3)):
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return NetworkGraph.from_adjacency(adj)


@st.composite
def unit_disk_graphs(draw):
    """Random unit-disk placements of up to 120 nodes, often disconnected."""
    n = draw(st.integers(min_value=1, max_value=120))
    radius = draw(st.floats(min_value=0.08, max_value=0.5))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    nodes = [NodeSpec(i, rng.random(), rng.random(), radius ** 2)
             for i in range(n)]
    return build_network(nodes)


@given(adjacency_graphs())
@settings(max_examples=200, deadline=None)
def test_small_graphs_match_networkx(g):
    check_against_networkx(g)


@given(sparse_graphs())
@settings(max_examples=300, deadline=None)
def test_sparse_graphs_match_networkx(g):
    check_against_networkx(g)


@given(unit_disk_graphs())
@settings(max_examples=80, deadline=None)
def test_unit_disk_graphs_match_networkx(g):
    check_against_networkx(g)


def path(n: int) -> NetworkGraph:
    return NetworkGraph.from_adjacency(
        {i: [j for j in (i - 1, i + 1) if 0 <= j < n] for i in range(n)})


@pytest.mark.parametrize("g", [
    NetworkGraph.from_adjacency({0: []}),
    path(2),
    path(301),
    NetworkGraph.from_adjacency({0: [1], 1: [0], 2: [3], 3: [2]}),
    # the 2-sweep finds 3 and the fringe scan must find the pair 4 apart
    NetworkGraph.from_adjacency({0: [1, 4], 1: [0, 2, 5], 2: [1, 3, 6],
                                 3: [2, 7], 4: [0, 5], 5: [1, 4, 7], 6: [2],
                                 7: [3, 5]}),
    NetworkGraph.from_adjacency({0: [1], 1: [2], 2: [0]}),
    NetworkGraph.from_adjacency({0: [1], 1: [2], 2: []}),
], ids=["single", "edge", "path301", "two-components", "sweep-short",
        "directed-cycle", "directed-path"])
def test_named_graphs_match_networkx(g):
    check_against_networkx(g)
