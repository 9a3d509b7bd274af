"""Geometry and reachability tests for the network model."""

import json
import math

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from rumorcast.model import (
    DisconnectedError,
    ModelError,
    NetworkGraph,
    NodeSpec,
    Obstacle,
    bfs_distances,
    build_network,
    diameter,
    is_strongly_connected,
    load_network,
    network_from_dict,
    network_to_dict,
    segments_properly_cross,
)


def floyd_warshall(adj):
    """Independent all-pairs hop-count oracle."""
    ids = sorted(adj)
    inf = math.inf
    dist = {u: {v: (0 if u == v else inf) for v in ids} for u in ids}
    for u in ids:
        for v in adj[u]:
            dist[u][v] = 1
    for k in ids:
        for i in ids:
            dik = dist[i][k]
            if dik is inf:
                continue
            for j in ids:
                alt = dik + dist[k][j]
                if alt < dist[i][j]:
                    dist[i][j] = alt
    return dist


# --- edge rule -------------------------------------------------------------

def test_edge_at_exact_radius_is_included_by_default():
    nodes = [NodeSpec("a", 0.0, 0.0, 1.0), NodeSpec("b", 1.0, 0.0, 1.0)]
    g = build_network(nodes, alpha=2.0)
    assert g.adjacency == {"a": ("b",), "b": ("a",)}


def test_strict_mode_excludes_the_boundary():
    nodes = [NodeSpec("a", 0.0, 0.0, 1.0), NodeSpec("b", 1.0, 0.0, 1.0)]
    g = build_network(nodes, alpha=2.0, strict=True)
    assert g.adjacency == {"a": (), "b": ()}


def test_radius_grows_with_alpha_for_power_above_one():
    # power 4: radius 2 at alpha=2, radius sqrt(2) at alpha=4
    n = NodeSpec("a", 0.0, 0.0, 4.0)
    assert n.radius(2.0) == pytest.approx(2.0)
    assert n.radius(4.0) == pytest.approx(math.sqrt(2.0))
    far = NodeSpec("b", 1.7, 0.0, 4.0)
    assert build_network([n, far], alpha=2.0).adjacency["a"] == ("b",)
    assert build_network([n, far], alpha=4.0).adjacency["a"] == ()


def test_unequal_powers_give_a_one_way_link():
    strong = NodeSpec("a", 0.0, 0.0, 4.0)
    weak = NodeSpec("b", 1.5, 0.0, 1.0)
    g = build_network([strong, weak], alpha=2.0)
    assert g.adjacency == {"a": ("b",), "b": ()}
    assert not g.symmetric
    assert len({n.power for n in g.nodes}) == 2


def test_uniform_power_graph_is_symmetric():
    rng_nodes = [NodeSpec(i, (i * 37 % 11) / 10.0, (i * 53 % 7) / 10.0, 0.3)
                 for i in range(8)]
    g = build_network(rng_nodes, alpha=2.0)
    assert {n.power for n in g.nodes} == {0.3}
    assert g.symmetric


def test_alpha_outside_supported_range_is_rejected():
    nodes = [NodeSpec("a", 0.0, 0.0, 1.0)]
    with pytest.raises(ModelError):
        build_network(nodes, alpha=1.9)
    with pytest.raises(ModelError):
        build_network(nodes, alpha=4.1)


def test_duplicate_ids_and_bad_power_are_rejected():
    with pytest.raises(ModelError):
        build_network([NodeSpec("a", 0, 0, 1.0), NodeSpec("a", 1, 0, 1.0)])
    with pytest.raises(ModelError):
        build_network([NodeSpec("a", 0, 0, 0.0)])


# --- obstacles -------------------------------------------------------------

def test_wall_across_the_segment_blocks_both_directions():
    nodes = [NodeSpec("a", 0.0, 0.0, 9.0), NodeSpec("b", 2.0, 0.0, 9.0)]
    wall = Obstacle(1.0, -1.0, 1.0, 1.0)
    g = build_network(nodes, [wall], alpha=2.0)
    assert g.adjacency == {"a": (), "b": ()}


def test_wall_touching_only_at_an_endpoint_does_not_block():
    nodes = [NodeSpec("a", 0.0, 0.0, 9.0), NodeSpec("b", 2.0, 0.0, 9.0)]
    touching = Obstacle(1.0, 0.0, 1.0, 1.0)  # tip rests on the link
    g = build_network(nodes, [touching], alpha=2.0)
    assert g.adjacency == {"a": ("b",), "b": ("a",)}


def test_collinear_wall_along_the_segment_does_not_block():
    nodes = [NodeSpec("a", 0.0, 0.0, 9.0), NodeSpec("b", 2.0, 0.0, 9.0)]
    overlap = Obstacle(0.5, 0.0, 1.5, 0.0)
    g = build_network(nodes, [overlap], alpha=2.0)
    assert g.adjacency == {"a": ("b",), "b": ("a",)}


def test_wall_elsewhere_is_ignored():
    nodes = [NodeSpec("a", 0.0, 0.0, 9.0), NodeSpec("b", 2.0, 0.0, 9.0)]
    g = build_network(nodes, [Obstacle(0.0, 1.0, 2.0, 1.0)], alpha=2.0)
    assert g.adjacency["a"] == ("b",)


def test_segment_crossing_predicate_direct_cases():
    assert segments_properly_cross(0, 0, 2, 0, 1, -1, 1, 1)
    assert not segments_properly_cross(0, 0, 2, 0, 1, 0, 1, 1)
    assert not segments_properly_cross(0, 0, 2, 0, 3, -1, 3, 1)
    assert not segments_properly_cross(0, 0, 2, 0, 0.5, 0, 1.5, 0)


# --- distances -------------------------------------------------------------

def _chain(n):
    nodes = [NodeSpec(i, float(i), 0.0, 1.0) for i in range(n)]
    return build_network(nodes, alpha=2.0)


def test_hop_distance_on_a_chain():
    g = _chain(5)
    assert bfs_distances(g, 0).get(4) == 4
    assert bfs_distances(g, 2).get(2) == 0
    assert diameter(g) == 4


def test_hop_distance_unreachable_returns_none():
    g = NetworkGraph.from_adjacency({"a": ["b"], "b": [], "c": []})
    assert bfs_distances(g, "a").get("c") is None
    assert bfs_distances(g, "b").get("a") is None


def test_diameter_raises_and_names_a_disconnected_pair():
    g = NetworkGraph.from_adjacency({"a": ["b"], "b": ["a"], "z": []})
    assert not is_strongly_connected(g)
    with pytest.raises(DisconnectedError) as err:
        diameter(g)
    assert "'z'" in str(err.value)


@st.composite
def random_digraphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1),
                                   st.integers(0, n - 1))))
    adj = {i: set() for i in range(n)}
    for u, v in edges:
        if u != v:
            adj[u].add(v)
    return NetworkGraph.from_adjacency(adj)


@given(random_digraphs())
@settings(max_examples=150)
def test_bfs_distances_match_floyd_warshall(g):
    oracle = floyd_warshall(g.adjacency)
    for src in g.node_ids:
        got = bfs_distances(g, src)
        for dst in g.node_ids:
            expect = oracle[src][dst]
            if expect is math.inf:
                assert dst not in got
            else:
                assert got[dst] == expect


@st.composite
def random_geometric(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    coords = draw(st.lists(
        st.tuples(st.floats(0, 1, allow_nan=False),
                  st.floats(0, 1, allow_nan=False),
                  st.floats(0.05, 1, allow_nan=False)),
        min_size=n, max_size=n))
    nodes = [NodeSpec(i, x, y, p) for i, (x, y, p) in enumerate(coords)]
    alpha = draw(st.sampled_from([2.0, 3.0, 4.0]))
    return build_network(nodes, alpha=alpha)


@given(random_geometric())
@settings(max_examples=100)
def test_adjacency_matches_pairwise_distance_check(g):
    for u in g.nodes:
        reach = u.power ** (1.0 / g.alpha)
        for v in g.nodes:
            if u.id == v.id:
                continue
            d = math.hypot(u.x - v.x, u.y - v.y)
            if d <= reach - 1e-6:
                assert v.id in g.adjacency[u.id]
            elif d > reach + 1e-6:
                assert v.id not in g.adjacency[u.id]


# --- serialization ---------------------------------------------------------

def test_network_json_round_trip(tmp_path):
    nodes = [NodeSpec("a", 0.0, 0.0, 2.0), NodeSpec("b", 1.0, 0.5, 1.0)]
    g = build_network(nodes, [Obstacle(5, 5, 6, 6)], alpha=3.0)
    path = tmp_path / "net.json"
    path.write_text(json.dumps(network_to_dict(g)))
    g2 = load_network(str(path))
    assert g2.adjacency == g.adjacency
    assert g2.alpha == g.alpha
    assert g2.nodes == g.nodes
    assert g2.obstacles == g.obstacles
    # the file itself is plain JSON
    raw = json.loads(path.read_text())
    assert {"alpha", "nodes", "obstacles", "strict"} <= set(raw)


def test_malformed_network_dict_is_reported():
    with pytest.raises(ModelError):
        network_from_dict({"nodes": [{"id": "a"}]})


def test_combinatorial_network_round_trips_by_adjacency(tmp_path):
    g = NetworkGraph.from_adjacency({"a": ["b"], "b": ["a", "c"],
                                     "c": ["b"]})
    assert g.combinatorial
    d = network_to_dict(g)
    assert "adjacency" in d and "nodes" not in d
    assert network_from_dict(d).adjacency == g.adjacency
    path = tmp_path / "comb.json"
    path.write_text(json.dumps(network_to_dict(g)))
    assert load_network(str(path)).adjacency == g.adjacency
    geo = build_network([NodeSpec("a", 0.0, 0.0, 1.0)])
    assert not geo.combinatorial
    with pytest.raises(ModelError):
        network_from_dict({"adjacency": [["a", ["b"]]], "nodes": []})
    with pytest.raises(ModelError):
        network_from_dict({"adjacency": [["a"]]})


def test_network_to_dict_matches_schema():
    g = build_network([NodeSpec(1, 0.0, 0.0, 1.0)])
    d = network_to_dict(g)
    assert d["nodes"] == [{"id": 1, "x": 0.0, "y": 0.0, "power": 1.0}]
    assert d["obstacles"] == []


def clique(n, missing=None):
    adj = {u: {v for v in range(n) if v != u} for u in range(n)}
    if missing:
        u, v = missing
        adj[u].discard(v)
        adj[v].discard(u)
    return NetworkGraph.from_adjacency(adj)


@pytest.mark.parametrize("g, want", [
    *[(clique(n), 1) for n in (2, 3, 50, 300)],
    *[(clique(n, missing), 2) for n in (3, 50, 300)
      for missing in ((0, 1), (n - 2, n - 1), (1, n - 1))],
])
def test_diameter_of_a_dense_graph_takes_at_most_four_bfs(monkeypatch, g,
                                                          want):
    """A midpoint that reaches every node in one hop settles the diameter;
    the count includes the connectivity BFS."""
    calls = []

    def counting(graph, src):
        calls.append(src)
        return bfs_distances(graph, src)

    monkeypatch.setattr("rumorcast.model.bfs_distances", counting)
    assert diameter(g) == want
    assert len(calls) <= 4


@st.composite
def graphs_with_a_hub(draw):
    """A hub linked both ways to 103 or more nodes, plus random links; when
    ``one_way``, some links lack their reverse, hub links among them."""
    n = draw(st.integers(min_value=104, max_value=140))
    name = str if draw(st.booleans()) else int
    one_way = draw(st.booleans())
    adj = {u: set(range(1, n)) if u == 0 else {0} for u in range(n)}
    for u, v in draw(st.sets(st.tuples(st.integers(0, n - 1),
                                       st.integers(0, n - 1)), max_size=60)):
        if u != v:
            adj[u].add(v)
            if not (one_way and draw(st.booleans())):
                adj[v].add(u)
    if one_way:
        for u, v in draw(st.sets(st.tuples(st.integers(0, n - 1),
                                           st.integers(0, n - 1)),
                                 max_size=3)):
            adj[u].discard(v)
    return NetworkGraph.from_adjacency(
        {name(u): [name(v) for v in vs] for u, vs in adj.items()})


@given(graphs_with_a_hub())
@settings(max_examples=150, deadline=None)
def test_symmetric_matches_a_set_of_links(g):
    links = {(u, v) for u, outs in g.adjacency.items() for v in outs}
    want = all((v, u) in links for u, v in links)
    assert g.symmetric == want
    event("symmetric" if want else "one-way")


def test_adjacency_graphs_hold_no_node_records():
    # an adjacency graph keeps only its neighbor lists; its JSON form and
    # that of a geometric graph of no nodes are the adjacency pairs
    g = NetworkGraph.from_adjacency({"b": ["a"], "a": ["c", "b"],
                                     "c": ["a"]})
    assert g.nodes == () and g.combinatorial
    d = network_to_dict(g)
    assert d == {"alpha": 2.0, "adjacency": [["a", ["b", "c"]], ["b", ["a"]],
                                             ["c", ["a"]]]}
    assert network_to_dict(network_from_dict(d)) == d
    assert network_to_dict(build_network([])) == {"alpha": 2.0,
                                                  "adjacency": []}


def test_diameter_of_an_empty_graph_is_refused():
    with pytest.raises(ModelError, match="empty graph"):
        diameter(NetworkGraph.from_adjacency({}))


def walled_pair():
    """Two nodes in range of each other, with a wall between them."""
    return {"alpha": 2.0,
            "nodes": [{"id": 0, "x": 0.0, "y": 0.0, "power": 1.0},
                      {"id": 1, "x": 0.5, "y": 0.0, "power": 1.0}],
            "obstacles": [{"x1": 0.25, "y1": -1.0, "x2": 0.25, "y2": 1.0}]}


def test_a_network_key_its_form_does_not_take_is_refused():
    data = walled_pair()
    assert network_from_dict(data).adjacency == {0: (), 1: ()}
    # a misspelt walls key would load the pair linked, with no wall
    data["obstcles"] = data.pop("obstacles")
    with pytest.raises(ModelError,
                       match=r"unknown network keys \['obstcles'\]"):
        network_from_dict(data)
    data.update(power=1, alpha=2.0)
    with pytest.raises(ModelError, match=r"\['obstcles', 'power'\]"):
        network_from_dict(data)
    adjacency = {"adjacency": [[0, [1]], [1, [0]]], "alpha": 2.0}
    assert network_from_dict(adjacency).adjacency == {0: (1,), 1: (0,)}
    # strict cuts links at the radius, which an adjacency network has not
    with pytest.raises(ModelError, match=r"unknown adjacency network keys "
                                         r"\['strict'\]"):
        network_from_dict({**adjacency, "strict": True})


def test_network_to_dict_writes_only_the_keys_its_form_takes():
    geometric = network_from_dict(walled_pair())
    combinatorial = NetworkGraph.from_adjacency({0: [1], 1: [0]})
    for g, keys in ((geometric, {"nodes", "obstacles", "alpha", "strict"}),
                    (combinatorial, {"adjacency", "alpha"})):
        d = network_to_dict(g)
        assert set(d) == keys
        assert network_to_dict(network_from_dict(d)) == d
