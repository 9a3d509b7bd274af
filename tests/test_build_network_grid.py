"""``build_network`` tests candidate pairs from a grid; the all-pairs loop
below is the reference it must match, link for link."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumorcast.model import GEOM_EPS, NodeSpec, Obstacle, build_network
from rumorcast.model import segments_properly_cross


def reference_adjacency(nodes, obstacles, alpha, strict):
    """Every ordered pair gets the distance and obstacle tests."""
    adj = {}
    for u in nodes:
        reach = u.radius(alpha)
        outs = []
        for v in nodes:
            if v.id == u.id:
                continue
            dist = math.hypot(v.x - u.x, v.y - u.y)
            if strict:
                in_range = dist < reach - GEOM_EPS
            else:
                in_range = dist <= reach + GEOM_EPS
            blocked = any(segments_properly_cross(u.x, u.y, v.x, v.y,
                                                  o.x1, o.y1, o.x2, o.y2)
                          for o in obstacles)
            if in_range and not blocked:
                outs.append(v.id)
        adj[u.id] = tuple(sorted(outs))
    return adj


@st.composite
def placements(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(min_value=0, max_value=60))
    side = draw(st.sampled_from([1.0, 10.0, 1000.0]))
    offset = draw(st.sampled_from([0.0, -0.5, 1e6]))
    radius = side * draw(st.floats(min_value=0.02, max_value=0.7))
    unequal = draw(st.booleans())
    nodes = [NodeSpec(i, offset + rng.uniform(0, side),
                      offset + rng.uniform(0, side),
                      (radius * (rng.uniform(0.3, 1.0) if unequal else 1.0))
                      ** 2)
             for i in range(n)]
    obstacles = [Obstacle(*(offset + rng.uniform(0, side) for _ in range(4)))
                 for _ in range(draw(st.integers(0, 4)))]
    return nodes, obstacles, draw(st.booleans())


@given(placements())
@settings(max_examples=150, deadline=None)
def test_grid_build_matches_all_pairs(case):
    nodes, obstacles, strict = case
    g = build_network(nodes, obstacles, 2.0, strict=strict)
    assert dict(g.adjacency) == reference_adjacency(nodes, obstacles, 2.0,
                                                    strict)


CELL = 0.5 + GEOM_EPS  # nominal cell side for radius 0.5


@pytest.mark.parametrize("x0", [k * CELL + d for k in (-3, 0, 1, 250_000)
                                for d in (-0.5 - GEOM_EPS, -GEOM_EPS / 4,
                                          0.0, GEOM_EPS / 4)])
@pytest.mark.parametrize("strict", [False, True])
def test_link_at_the_inclusive_boundary_across_cells(x0, strict):
    radius = 0.5
    gap = radius + GEOM_EPS / 2
    nodes = [NodeSpec("a", x0, x0, radius ** 2),
             NodeSpec("b", x0 + gap, x0, radius ** 2),
             NodeSpec("c", x0, x0 - gap, radius ** 2),
             NodeSpec("d", x0 + gap / math.sqrt(2), x0 + gap / math.sqrt(2),
                      radius ** 2)]
    g = build_network(nodes, strict=strict)
    assert dict(g.adjacency) == reference_adjacency(nodes, [], 2.0, strict)
    if not strict:
        assert {"b", "c", "d"} <= set(g.adjacency["a"])
    else:
        assert g.adjacency["a"] == ()


def test_non_finite_coordinates_build_like_all_pairs():
    nodes = [NodeSpec(0, 0.0, 0.0, 1.0), NodeSpec(1, 0.5, 0.0, 1.0),
             NodeSpec(2, math.inf, 0.0, 1.0), NodeSpec(3, math.nan, 1.0, 1.0)]
    g = build_network(nodes)
    assert dict(g.adjacency) == reference_adjacency(nodes, [], 2.0, False)


DIRECTIONS = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
              if (dx, dy) != (0, 0)]


@pytest.mark.parametrize("direction", DIRECTIONS)
@pytest.mark.parametrize("offset", [-1e-12, 1e-12, GEOM_EPS - 1e-12,
                                    GEOM_EPS + 1e-12])
@pytest.mark.parametrize("strict", [False, True])
def test_pair_across_each_cell_border(direction, offset, strict):
    """Two nodes on opposite sides of a border, toward each of the eight
    neighbour cells, so the pair is met from whichever cell walks the
    other as a forward neighbour."""
    radius, margin = 0.5, 0.1
    dx, dy = direction
    half = CELL / 2
    ax, ay = half + dx * (half - margin), half + dy * (half - margin)
    dist = radius + offset
    norm = math.hypot(dx, dy)
    bx, by = ax + dist * dx / norm, ay + dist * dy / norm
    assert (math.floor(bx / CELL) - math.floor(ax / CELL),
            math.floor(by / CELL) - math.floor(ay / CELL)) == direction
    nodes = [NodeSpec("a", ax, ay, radius ** 2),
             NodeSpec("b", bx, by, radius ** 2)]
    g = build_network(nodes, strict=strict)
    assert dict(g.adjacency) == reference_adjacency(nodes, [], 2.0, strict)
    linked = not strict and offset < GEOM_EPS
    assert g.adjacency == {"a": ("b",) if linked else (),
                           "b": ("a",) if linked else ()}


@pytest.mark.parametrize("strict, gap", [(False, 0.25), (False, 2 * GEOM_EPS),
                                         (True, 0.25), (True, -GEOM_EPS / 2)])
@pytest.mark.parametrize("ux", [0.1, 0.9])
@pytest.mark.parametrize("u_first", [False, True])
def test_one_distance_gives_a_one_way_link(strict, gap, ux, u_first):
    """u (radius 1) reaches v (radius 0.5) at distance 0.5 + gap, and v
    does not reach u; in one cell (ux = 0.1) or across a border."""
    u = NodeSpec("u", ux, 0.5, 1.0)
    v = NodeSpec("v", ux + 0.5 + gap, 0.5, 0.25)
    nodes = [u, v] if u_first else [v, u]
    g = build_network(nodes, strict=strict)
    assert dict(g.adjacency) == reference_adjacency(nodes, [], 2.0, strict)
    assert g.adjacency == {"u": ("v",), "v": ()}


@pytest.mark.parametrize("sx, sy", [(1, 0), (-1, 0), (0, 1), (0, -1)])
@pytest.mark.parametrize("strict", [False, True])
def test_distance_equal_to_the_limit(sx, sy, strict):
    """d == r + eps is a link, d == r - eps is none in strict mode: the
    distance is the limit itself, so rounding cannot decide the case."""
    radius = 0.5
    limit = radius - GEOM_EPS if strict else radius + GEOM_EPS
    nodes = [NodeSpec("a", 0.0, 0.0, radius ** 2),
             NodeSpec("b", sx * limit, sy * limit, radius ** 2)]
    assert math.hypot(nodes[1].x, nodes[1].y) == limit
    g = build_network(nodes, strict=strict)
    assert dict(g.adjacency) == reference_adjacency(nodes, [], 2.0, strict)
    assert g.adjacency["a"] == (() if strict else ("b",))
