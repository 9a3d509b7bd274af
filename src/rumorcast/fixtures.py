"""Named test networks: random unit-disk graphs, the hub-and-ring stress
case and the star-with-tail timing case, plus the spread source pick.

All generators are deterministic: equal inputs give equal graphs.
"""

from __future__ import annotations

import math
import random

from .model import (
    NetworkGraph,
    NodeSpec,
    bfs_distances,
    build_network,
    diameter,
    is_strongly_connected,
)


class FixtureError(ValueError):
    """A generator could not produce the requested network."""


def gen_random_udg(n: int, radius: float, seed: int = 0,
                   connect_retry: int = 50) -> NetworkGraph:
    """Uniform points in the unit square with one shared radio radius.

    Resamples up to connect_retry times until the graph is connected.
    Equal power makes every link symmetric.  A square of side A with
    radius r is this square with radius r / A, and the path-loss
    exponent cancels out of a shared radius, so neither is a parameter.
    The radius must be positive and its power, the radius squared, finite,
    so that a scenario file can hold it.
    """
    if n < 1:
        raise FixtureError(f"need at least one node, got {n}")
    # false for nan too; the product is inf where the power would overflow
    if not (radius > 0 and radius * radius < math.inf):
        raise FixtureError(f"radius must be positive with a finite square, "
                           f"got {radius}")
    rng = random.Random(seed)
    power = radius ** 2.0
    for _ in range(max(1, connect_retry)):
        nodes = [NodeSpec(i, rng.uniform(0, 1.0), rng.uniform(0, 1.0), power)
                 for i in range(n)]
        g = build_network(nodes)
        if is_strongly_connected(g):
            return g
    raise FixtureError(
        f"no connected placement of {n} nodes in {connect_retry} tries; "
        f"increase radius (currently {radius})")


def gen_ring_fixture(ring_size: int) -> NetworkGraph:
    """Hub-and-ring network whose diameter is always 4.

    ring_size outer nodes form a cycle, each with a pendant tip, and a hub
    touches every outer node. The tips force every outer node into any
    connected dominating set, so the smallest one is the full outer cycle,
    whose own hop-diameter grows with ring_size while the graph's stays 4.
    Built as explicit adjacency; the layout is structural, not geometric.
    """
    if ring_size < 6:
        raise FixtureError(f"ring_size must be >= 6, got {ring_size}")
    adj: dict = {"hub": [f"o{i}" for i in range(ring_size)]}
    for i in range(ring_size):
        adj[f"o{i}"] = ["hub", f"o{(i - 1) % ring_size}",
                        f"o{(i + 1) % ring_size}", f"t{i}"]
        adj[f"t{i}"] = [f"o{i}"]
    return NetworkGraph.from_adjacency(adj)


def gen_star_path(k: int, d: int) -> tuple[NetworkGraph, list]:
    """Star of k source leaves plus a tail of d hops from the center.

    The tail's far end is named "r"; the graph's diameter is d + 1 and the
    best possible gossip makespan is ceil(k/c) + d.
    """
    if k < 1 or d < 1:
        raise FixtureError("k and d must be >= 1")
    tail = [f"t{i}" for i in range(1, d)] + ["r"]
    sources = [f"p{i}" for i in range(1, k + 1)]
    adj: dict = {"c": sources + [tail[0]]}
    for name in sources:
        adj[name] = ["c"]
    chain = ["c"] + tail
    for idx, cur in enumerate(tail, start=1):
        adj[cur] = [chain[idx - 1]]
        if idx + 1 < len(chain):
            adj[cur].append(chain[idx + 1])
    return NetworkGraph.from_adjacency(adj), sources


def pick_sources(g: NetworkGraph, count: int) -> list:
    """Deterministic well-spread source pick, diametral endpoint first.

    Starting from an endpoint of a longest shortest path keeps the graph
    diameter a valid floor on any gossip makespan; the rest are chosen by
    farthest-point insertion with id tie-breaks.  The first pick is the
    smallest id whose BFS reaches farthest; the scan holds one BFS map at
    a time.  On a connected symmetric graph it stops at the first node
    whose eccentricity equals the diameter and skips nodes whose
    eccentricity bound from earlier passes is below it.  Insertion keeps
    each node's distance to its nearest pick, so memory stays linear in
    the node count.
    """
    ids = g.node_ids
    if not 1 <= count <= len(ids):
        raise FixtureError(f"need 1..{len(ids)} sources, got {count}")
    target = diameter(g) if g.symmetric and is_strongly_connected(g) else None
    # there ecc(v) <= d(v, u) + ecc(u), so a node whose bound falls below
    # the diameter cannot be the first pick and needs no BFS
    bound: dict = {}
    reach, first, from_first = -1, None, {}
    for u in ids:
        if target is not None and bound.get(u, target) < target:
            continue
        dist = bfs_distances(g, u)
        far = max(dist.values())
        if far > reach:
            reach, first, from_first = far, u, dist
            if far == target:
                break
        if target is not None:
            for v, d in dist.items():
                bound[v] = min(bound.get(v, target), d + far)
    chosen, taken = [first], {first}
    gap = {u: from_first.get(u, 0) for u in ids}
    while len(chosen) < count:
        pick = min((u for u in ids if u not in taken),
                   key=lambda u: (-gap[u], str(u)))
        chosen.append(pick)
        taken.add(pick)
        dist = bfs_distances(g, pick)
        for u in ids:
            gap[u] = min(gap[u], dist.get(u, 0))
    return chosen
