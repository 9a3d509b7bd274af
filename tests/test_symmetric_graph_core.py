"""Graph queries on the networks every backbone accepts: symmetric ones.

``diameter`` and ``is_strongly_connected`` raise ``ModelError`` on a graph
with a one-way link, and so does every backbone builder and the source
pick that asks them.  On symmetric graphs, connected or not, ``diameter``
is checked against one BFS from every node: its value, or the pair its
``DisconnectedError`` names.  Connectivity costs one BFS per graph.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from rumorcast.backbone import (Backbone, bounded_diameter_cds,
                                brute_force_mcds, dfs_cluster, greedy_cds)
from rumorcast.fixtures import pick_sources
from rumorcast.model import (DisconnectedError, ModelError, NetworkGraph,
                             bfs_distances, diameter, is_strongly_connected)
from test_graph_core_reference import (all_pairs_diameter, any_graphs,
                                       jittered_udg)


def reference_diameter(g: NetworkGraph) -> int:
    """One BFS per node in id order; the first BFS that misses a node
    names it, the smallest one, in a ``DisconnectedError``."""
    ids = g.node_ids
    best = 0
    for u in ids:
        dist = bfs_distances(g, u)
        if len(dist) != len(ids):
            missing = next(v for v in ids if v not in dist)
            raise DisconnectedError(
                f"graph is not strongly connected: no path {u!r} -> {missing!r}")
        best = max(best, max(dist.values()))
    return best


ONE_WAY = {
    # strongly connected, so only the one-way links can be refused
    "directed-cycle": {0: [1], 1: [2], 2: [0]},
    # the member DFS from 0 reaches nothing along its out-links
    "sink-first": {0: [], 1: [0]},
    "one-way-tail": {"a": ["b"], "b": ["a", "c"], "c": []},
}


def whole_backbone(g: NetworkGraph) -> Backbone:
    """Every node a member; ``dfs_cluster`` reads only the members."""
    ids = g.node_ids
    return Backbone(members=ids, root=ids[0],
                    parent={u: None for u in ids})


@pytest.mark.parametrize("query", [
    diameter,
    is_strongly_connected,
    greedy_cds,
    brute_force_mcds,
    lambda g: dfs_cluster(g, g.node_ids),
    bounded_diameter_cds,
    lambda g: bounded_diameter_cds(g, whole_backbone(g)),
    lambda g: pick_sources(g, 1),
], ids=["diameter", "is_strongly_connected", "greedy_cds",
        "brute_force_mcds", "dfs_cluster", "bounded_diameter_cds",
        "bounded_diameter_cds-with-base", "pick_sources"])
@pytest.mark.parametrize("name", sorted(ONE_WAY))
def test_a_one_way_link_is_refused(query, name):
    g = NetworkGraph.from_adjacency(ONE_WAY[name])
    with pytest.raises(ModelError, match="symmetric") as err:
        query(g)
    assert type(err.value) is ModelError


def test_pick_sources_refuses_a_disconnected_graph():
    g = NetworkGraph.from_adjacency({0: [1], 1: [0], 2: [3], 3: [2]})
    with pytest.raises(DisconnectedError, match=r"no path 0 -> 2"):
        pick_sources(g, 1)


@given(any_graphs(max_nodes=14, symmetric=True))
@settings(max_examples=300, deadline=None)
def test_diameter_matches_one_bfs_per_node(g):
    try:
        want = reference_diameter(g)
    except DisconnectedError as exc:
        with pytest.raises(DisconnectedError) as err:
            diameter(g)
        assert str(err.value) == str(exc)
        assert not is_strongly_connected(g)
    else:
        assert diameter(g) == want == all_pairs_diameter(g)
        assert is_strongly_connected(g)


@pytest.mark.parametrize("g", [
    jittered_udg(10, seed=3),
    NetworkGraph.from_adjacency({0: [1], 1: [0], 2: [3], 3: [2]}),
    NetworkGraph.from_adjacency({"b": ["a", "c"], "a": ["b"], "c": ["b"]}),
    NetworkGraph.from_adjacency({"z": []}),
], ids=["udg", "two-components", "str-path", "single"])
def test_connectivity_costs_one_bfs(g, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[1])
        return bfs_distances(*args)

    monkeypatch.setattr("rumorcast.model.bfs_distances", counted)
    first = is_strongly_connected(g)
    assert is_strongly_connected(g) == first
    assert calls == [g.node_ids[0]]
