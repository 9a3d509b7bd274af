"""Generator contracts: exact shapes, determinism, forced structures."""

import math

import pytest

from rumorcast.backbone import (
    Backbone,
    bounded_diameter_cds,
    brute_force_mcds,
    build_arborescence,
    validate_backbone,
)
from rumorcast.fixtures import (
    FixtureError,
    gen_random_udg,
    gen_ring_fixture,
    gen_star_path,
    pick_sources,
)
from rumorcast.model import (
    bfs_distances,
    diameter,
    is_strongly_connected,
    network_to_dict,
)

from oracles import (
    gen_internal_source_path,
    gen_leaf_source_path,
    gen_set_cover_reduction,
)


def induced_member_diameter(g, members):
    allowed = set(members)
    worst = 0
    for src in members:
        seen = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in g.adjacency[u]:
                    if v in allowed and v not in seen:
                        seen[v] = seen[u] + 1
                        nxt.append(v)
            frontier = nxt
        assert set(seen) == allowed
        worst = max(worst, max(seen.values()))
    return worst


def test_random_udg_single_node():
    g = gen_random_udg(1, radius=0.2)
    assert g.node_ids == (0,)
    assert diameter(g) == 0


def test_random_udg_huge_radius_is_complete():
    g = gen_random_udg(10, radius=math.sqrt(2) + 0.01, seed=4)
    for u in g.node_ids:
        assert len(g.adjacency[u]) == 9


def test_random_udg_deterministic_and_connected():
    a = gen_random_udg(12, radius=0.45, seed=99)
    b = gen_random_udg(12, radius=0.45, seed=99)
    assert network_to_dict(a) == network_to_dict(b)
    assert is_strongly_connected(a)
    assert len({n.power for n in a.nodes}) == 1 and a.symmetric
    assert a.nodes[3].id == 3
    assert a.nodes[3].power == pytest.approx(0.45 ** 2)


def test_random_udg_gives_up_with_advice():
    with pytest.raises(FixtureError, match="radius"):
        gen_random_udg(30, radius=0.01, connect_retry=3, seed=0)
    with pytest.raises(FixtureError):
        gen_random_udg(0, radius=0.3)


@pytest.mark.parametrize("retry", [0, -5])
def test_random_udg_refuses_fewer_than_one_try(retry):
    # a radius that connects 5 nodes on the first try, so a placement
    # made anyway would succeed and hide the bad count
    with pytest.raises(FixtureError, match=f"connect_retry .*{retry}"):
        gen_random_udg(5, radius=math.sqrt(2) + 0.01, connect_retry=retry)


@pytest.mark.parametrize("ring_size", [6, 9, 17])
def test_ring_diameter_is_always_four(ring_size):
    g = gen_ring_fixture(ring_size)
    assert diameter(g) == 4
    assert g.symmetric
    assert len(g.node_ids) == 2 * ring_size + 1


def test_ring_rejects_small_rings():
    with pytest.raises(FixtureError):
        gen_ring_fixture(5)


def test_ring_exact_adjacency_small():
    g = gen_ring_fixture(6)
    assert set(g.adjacency["hub"]) == {f"o{i}" for i in range(6)}
    assert set(g.adjacency["o0"]) == {"hub", "o1", "o5", "t0"}
    assert g.adjacency["t2"] == ("o2",)


def test_ring_smallest_backbone_is_the_outer_cycle():
    # each tip's closed neighborhood {t_i, o_i} is disjoint from the others,
    # so any dominating set needs ring_size nodes; the outer cycle achieves
    # it, and the 13-node instance confirms by enumeration
    g = gen_ring_fixture(6)
    oracle = brute_force_mcds(g)
    assert oracle.members == tuple(f"o{i}" for i in range(6))

    g9 = gen_ring_fixture(9)
    tips = [f"t{i}" for i in range(9)]
    hoods = [frozenset({t} | set(g9.adjacency[t])) for t in tips]
    for i, a in enumerate(hoods):
        for b in hoods[i + 1:]:
            assert not (a & b)
    outers = [f"o{i}" for i in range(9)]
    ring_bb = Backbone(members=tuple(sorted(outers)), root="o0",
                       parent=build_arborescence(g9, outers, "o0"))
    validate_backbone(g9, ring_bb)
    assert induced_member_diameter(g9, outers) >= 9 // 2 - 1


@pytest.mark.parametrize("ring_size", [9, 17])
def test_ring_bounded_diameter_backbone(ring_size):
    g = gen_ring_fixture(ring_size)
    outers = [f"o{i}" for i in range(ring_size)]
    base = Backbone(members=tuple(sorted(outers)), root="o0",
                    parent=build_arborescence(g, outers, "o0"))
    wide = bounded_diameter_cds(g, base)
    validate_backbone(g, wide)
    assert induced_member_diameter(g, wide.members) <= 4 * diameter(g)
    assert wide.size <= 3 * base.size


def test_star_path_smallest_is_three_node_path():
    g, sources = gen_star_path(1, 1)
    assert sources == ["p1"]
    assert set(g.node_ids) == {"c", "p1", "r"}
    assert diameter(g) == 2
    assert set(g.adjacency["c"]) == {"p1", "r"}


def test_star_path_shape_and_diameter():
    g, sources = gen_star_path(4, 3)
    assert len(g.node_ids) == 8
    assert sources == ["p1", "p2", "p3", "p4"]
    assert diameter(g) == 4
    assert bfs_distances(g, "p1").get("r") == 4
    assert g.adjacency["r"] == ("t2",)
    assert set(g.adjacency["c"]) == {"p1", "p2", "p3", "p4", "t1"}
    with pytest.raises(FixtureError):
        gen_star_path(0, 2)


def test_set_cover_membership_wiring():
    g, sources = gen_set_cover_reduction({1, 2, 3}, [{1, 2}, {2, 3}, {3}])
    assert sources == ["src0"]
    assert set(g.adjacency["src0"]) == {"set0", "set1", "set2"}
    # middle tier reaches peers and exactly its members below
    assert set(g.adjacency["set0"]) == {"set1", "set2", "elem0", "elem1"}
    assert set(g.adjacency["set1"]) == {"set0", "set2", "elem1", "elem2"}
    assert set(g.adjacency["set2"]) == {"set0", "set1", "elem2"}
    # bottom tier is mute, and nobody reaches back up to the source
    for i in range(3):
        assert g.adjacency[f"elem{i}"] == ()
    for j in range(3):
        assert "src0" not in g.adjacency[f"set{j}"]


def test_set_cover_single_set_and_errors():
    g, _ = gen_set_cover_reduction({1, 2}, [{1, 2}])
    assert set(g.adjacency["set0"]) == {"elem0", "elem1"}
    with pytest.raises(FixtureError, match="cover"):
        gen_set_cover_reduction({1, 2, 3}, [{1}, {2}])
    with pytest.raises(FixtureError):
        gen_set_cover_reduction({1}, [{1, 9}])
    with pytest.raises(FixtureError):
        gen_set_cover_reduction(set(), [])
    with pytest.raises(FixtureError):
        gen_set_cover_reduction({1}, [{1}], gossip_k=0)


def test_set_cover_gossip_variant_builds_source_clique():
    g, sources = gen_set_cover_reduction({1, 2}, [{1}, {2}], gossip_k=3)
    assert sources == ["src0", "src1", "src2"]
    for s in sources:
        peers = set(g.adjacency[s])
        assert {"set0", "set1"} <= peers
        assert (set(sources) - {s}) <= peers
        assert not any(e.startswith("elem") for e in peers)


def test_figure_one_paths():
    g, leaf = gen_leaf_source_path()
    assert leaf == "a"
    assert brute_force_mcds(g).members == ("b", "c")
    g2, internal = gen_internal_source_path()
    assert internal == "b"
    assert network_to_dict(g) == network_to_dict(g2)


def test_pick_sources_prefers_diametral_endpoint():
    g, _ = gen_leaf_source_path()
    assert pick_sources(g, 1) == ["a"]
    assert pick_sources(g, 2) == ["a", "d"]
    ring = gen_ring_fixture(6)
    picked = pick_sources(ring, 3)
    assert len(set(picked)) == 3
    ecc = max(bfs_distances(ring, picked[0]).values())
    assert ecc == diameter(ring)
    with pytest.raises(FixtureError):
        pick_sources(g, 9)
