"""Radio network model: nodes with transmit power, obstacles, directed reach.

A node u reaches node v when the Euclidean distance d(u, v) is at most
u's transmission radius power**(1/alpha) and the open segment between them
does not properly cross any obstacle segment.  Reach is directed: unequal
powers give asymmetric links.  When every node has the same power the graph
is symmetric (a unit-disk graph scaled to that radius).

A graph is fully described by its out-neighbor lists.  Reception is decided
in one place, ``jammed``: in a slot or round, a listener hears every talker
that reaches it, and it receives cleanly only when it hears exactly one.
``jammed`` gives, as one node mask (bit i for ``node_ids[i]``), the
listeners that hear two or more, from the reach masks cached on the graph;
the centralized simulator and the slot protocols both read it.

Every backbone needs two-way links, so connectivity and the diameter are
defined on symmetric graphs only and raise ModelError on a one-way link.
``bfs_distances`` and reception follow links in their own direction and
take any graph.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Sequence

GEOM_EPS = 1e-9

ALPHA_MIN = 2.0
ALPHA_MAX = 4.0


class ModelError(ValueError):
    """Invalid model input (bad exponent, duplicate ids, unknown node...)."""


class DisconnectedError(ModelError):
    """Raised when an operation needs a connected graph and gets none."""


@dataclass(frozen=True)
class NodeSpec:
    """A radio node: identifier, planar position, transmit power."""

    id: int | str
    x: float
    y: float
    power: float

    def radius(self, alpha: float) -> float:
        """Transmission radius under path-loss exponent alpha."""
        return self.power ** (1.0 / alpha)


@dataclass(frozen=True)
class Obstacle:
    """An opaque wall segment from (x1, y1) to (x2, y2)."""

    x1: float
    y1: float
    x2: float
    y2: float


def _orient_sign(ax: float, ay: float, bx: float, by: float,
                 cx: float, cy: float) -> int:
    """Sign of the cross product (b - a) x (c - a), 0 within GEOM_EPS."""
    cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    if cross > GEOM_EPS:
        return 1
    if cross < -GEOM_EPS:
        return -1
    return 0


def segments_properly_cross(px1: float, py1: float, px2: float, py2: float,
                            qx1: float, qy1: float, qx2: float, qy2: float) -> bool:
    """True when two segments cross at a single interior point of both.

    Touching at an endpoint or overlapping collinearly does not count: only
    a strict straddle in both directions blocks a radio link.
    """
    o1 = _orient_sign(px1, py1, px2, py2, qx1, qy1)
    o2 = _orient_sign(px1, py1, px2, py2, qx2, qy2)
    if o1 * o2 >= 0:
        return False
    o3 = _orient_sign(qx1, qy1, qx2, qy2, px1, py1)
    o4 = _orient_sign(qx1, qy1, qx2, qy2, px2, py2)
    return o3 * o4 < 0


def _link_blocked(a: NodeSpec, b: NodeSpec, obstacles: Sequence[Obstacle]) -> bool:
    for ob in obstacles:
        if segments_properly_cross(a.x, a.y, b.x, b.y,
                                   ob.x1, ob.y1, ob.x2, ob.y2):
            return True
    return False


@dataclass(frozen=True)
class NetworkGraph:
    """A reachability graph over radio nodes; links may be one-way.

    ``adjacency`` maps each node id to its out-neighbors sorted by id, and
    ``node_ids`` is the ids sorted: node order is id order throughout.
    ``nodes`` is empty for a graph built ``from_adjacency``.
    ``symmetric`` reports whether every link is bidirectional, which holds
    automatically when all powers are equal.  One transposition of the
    adjacency, O(m), gives each node its sorted in-list, and the graph is
    symmetric when every in-list equals the node's out-tuple.

    A graph is immutable after construction: ``node_ids``, ``symmetric``,
    ``max_degree``, the reach masks, connectivity and the diameter
    are computed at most once per graph and cached on it, as are the
    greedy and the oracle backbones (``backbone.greedy_cds`` and
    ``brute_force_mcds``) and the latest distributed run's checked plan and
    stages (``distributed._prepare``).
    """

    nodes: tuple[NodeSpec, ...]
    obstacles: tuple[Obstacle, ...]
    alpha: float
    adjacency: Mapping[int | str, tuple[int | str, ...]]
    strict: bool = False

    @cached_property
    def node_ids(self) -> tuple[int | str, ...]:
        return tuple(sorted(self.adjacency))

    @cached_property
    def node_index(self) -> Mapping[int | str, int]:
        """Node id -> its bit position in node masks: its rank by id."""
        return {u: i for i, u in enumerate(self.node_ids)}

    @cached_property
    def reach(self) -> Mapping[int | str, int]:
        """Node id -> the node mask of its out-neighbors, built on first
        lookup, so only nodes that talk pay for one."""
        return _ReachMasks(self)

    @property
    def combinatorial(self) -> bool:
        """True for graphs without node records, as ``from_adjacency``
        builds them; a geometric graph of no nodes is one too."""
        return not self.nodes

    @cached_property
    def symmetric(self) -> bool:
        adj = self.adjacency
        ins: dict[int | str, list] = {u: [] for u in adj}
        for u in self.node_ids:  # ascending, so every in-list comes out sorted
            for v in adj[u]:
                ins[v].append(u)
        return all(tuple(ins[u]) == outs for u, outs in adj.items())

    @cached_property
    def max_degree(self) -> int:
        return max((len(v) for v in self.adjacency.values()), default=0)

    @cached_property
    def _strongly_connected(self) -> bool:
        if not self.symmetric:
            raise ModelError("connectivity and diameter need a symmetric "
                             "network (two-way links)")
        ids = self.node_ids
        return not ids or len(bfs_distances(self, ids[0])) == len(ids)

    @cached_property
    def _diameter(self) -> int:
        ids = self.node_ids
        if not ids:
            raise ModelError("diameter of an empty graph")
        if not is_strongly_connected(self):
            reached = bfs_distances(self, ids[0])
            missing = next(v for v in ids if v not in reached)
            raise DisconnectedError(f"graph is not strongly connected: "
                                    f"no path {ids[0]!r} -> {missing!r}")
        return _ifub_diameter(self)

    @classmethod
    def from_adjacency(cls, adjacency: Mapping[int | str, Iterable[int | str]],
                       *, alpha: float = 2.0) -> "NetworkGraph":
        """Build a graph directly from an explicit adjacency mapping, with
        no geometry and no node records.

        Every referenced neighbor must itself be a key, and ``alpha`` must
        lie in [2, 4] as for ``build_network``.
        """
        _check_alpha(alpha)
        adj: dict[int | str, tuple[int | str, ...]] = {}
        for u, outs in adjacency.items():
            outs = tuple(sorted(set(outs)))
            for v in outs:
                if v not in adjacency:
                    raise ModelError(f"neighbor {v!r} of {u!r} is not a node")
                if v == u:
                    raise ModelError(f"self-loop on {u!r}")
            adj[u] = outs
        return cls(nodes=(), obstacles=(), alpha=alpha, adjacency=adj)


class _ReachMasks(dict):
    """A lazily filled ``NetworkGraph.reach``; an unknown id raises
    KeyError, as a plain dict would."""

    def __init__(self, g: NetworkGraph):
        super().__init__()
        self._adjacency = g.adjacency
        self._index = g.node_index

    def __missing__(self, u: int | str) -> int:
        bits = [self._index[v] for v in self._adjacency[u]]
        low = min(bits, default=0)
        mask = 0
        for i in bits:  # shift within the neighbors' span, then once
            mask |= 1 << (i - low)
        self[u] = mask = mask << low
        return mask


def _check_alpha(alpha: float) -> None:
    """Both network forms take a path-loss exponent in [2, 4] only."""
    if not ALPHA_MIN <= alpha <= ALPHA_MAX:  # NaN fails too
        raise ModelError(f"alpha must lie in [{ALPHA_MIN}, {ALPHA_MAX}], "
                         f"got {alpha}")


def build_network(nodes: Sequence[NodeSpec],
                  obstacles: Sequence[Obstacle] = (),
                  alpha: float = 2.0,
                  *, strict: bool = False) -> NetworkGraph:
    """Construct the directed reachability graph for a node placement.

    An edge (u, v) exists when d(u, v) <= u.radius(alpha) and no obstacle
    properly crosses the segment u-v.  By default the boundary is inclusive
    up to GEOM_EPS; with ``strict=True`` links exactly at the radius are
    excluded instead.

    Each unordered pair in the same or adjacent grid cells is measured
    once, and that one ``hypot`` is exact for both directions (IEEE 754
    gives a - b == -(b - a)), each tested against its sender's own limit.
    Obstacles are tested per ordered link, sender first: the crossing
    test's GEOM_EPS tolerance need not be symmetric in its endpoints.
    A placement without obstacles makes no obstacle test.

    Raises ModelError for alpha outside [2, 4], duplicate ids, or
    non-positive powers.
    """
    _check_alpha(alpha)
    seen: set[int | str] = set()
    for n in nodes:
        if n.id in seen:
            raise ModelError(f"duplicate node id {n.id!r}")
        seen.add(n.id)
        if n.power <= 0:
            raise ModelError(f"node {n.id!r} has non-positive power {n.power}")

    obstacles = tuple(obstacles)
    radii = [n.radius(alpha) for n in nodes]
    # d < r - eps is d <= the float just below r - eps, so both modes test <=
    limits = ([math.nextafter(r - GEOM_EPS, -math.inf) for r in radii]
              if strict else [r + GEOM_EPS for r in radii])
    cells = _grid([(n.id, n.x, n.y, lim, n) for n, lim in zip(nodes, limits)],
                  max(radii, default=0.0))
    outs: dict[int | str, list] = {n.id: [] for n in nodes}
    hypot = math.hypot
    for (cx, cy), cell in cells.items():
        # each pair of adjacent cells meets once, from its left or lower one
        near = [b for dx, dy in ((1, -1), (1, 0), (1, 1), (0, 1))
                for b in cells.get((cx + dx, cy + dy), ())]
        for i, (u, ux, uy, lu, un) in enumerate(cell):
            for v, vx, vy, lv, vn in chain(cell[i + 1:], near):
                d = hypot(vx - ux, vy - uy)
                if d <= lu and not (obstacles
                                    and _link_blocked(un, vn, obstacles)):
                    outs[u].append(v)
                if d <= lv and not (obstacles
                                    and _link_blocked(vn, un, obstacles)):
                    outs[v].append(u)
    adj = {u: tuple(sorted(vs)) for u, vs in outs.items()}
    return NetworkGraph(nodes=tuple(nodes), obstacles=obstacles, alpha=alpha,
                        adjacency=adj, strict=strict)


def _grid(records: Sequence[tuple], max_reach: float) -> dict:
    """Bucket records (id, x, y, ...) into cells a bit wider than a link.

    The cell side is ``max_reach + GEOM_EPS`` plus a rounding allowance
    relative to the coordinates, so the two ends of any link, even one at
    the inclusive boundary, sit in the same or in adjacent cells.
    Returns the records of each occupied cell, in input order;
    non-finite coordinates put every node in one cell.
    """
    span = max((abs(c) for r in records for c in r[1:3]), default=0.0)
    side = max_reach + GEOM_EPS + 1e-12 * (max_reach + span)
    try:
        keys = [(math.floor(r[1] / side), math.floor(r[2] / side))
                for r in records]
    except (ValueError, OverflowError):
        keys = [(0, 0)] * len(records)
    cells: dict[tuple[int, int], list[tuple]] = {}
    for key, r in zip(keys, records):
        cells.setdefault(key, []).append(r)
    return cells


def bfs_distances(g: NetworkGraph, src: int | str) -> dict[int | str, int]:
    """Hop counts from src to every node it reaches, following each link
    in its own direction, keyed in visit order."""
    adj = g.adjacency
    dist = {src: 0}
    frontier = [src]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = depth
                    nxt.append(v)
        frontier = nxt
    return dist


def diameter(g: NetworkGraph) -> int:
    """Largest hop distance over all node pairs of a symmetric graph.

    Raises ModelError on a one-way link or an empty graph, and
    DisconnectedError, naming the smallest id and the smallest id its BFS
    misses, on a disconnected one.  A single-node graph has diameter 0.
    The result is cached on the graph.

    iFUB (Crescenzi, Grossi, Habib, Lanzi, Marino, TCS 2013): a 2-sweep
    from the max-degree node gives a lower bound and a path whose midpoint
    roots one more BFS; the eccentricities of that BFS's deepest levels
    are then taken, level by level, until the lower bound reaches twice
    the next level's depth, an upper bound on every pair left.
    When the midpoint reaches every node in one hop the diameter is 1 on a
    clique and 2 otherwise, with no further BFS.

    The walk skips a node whose eccentricity is already known to be at
    most the lower bound (Takes and Kosters, CIKM 2011).  Every node x it
    may visit (2 d(mid, x) above the lower bound) holds an upper bound
    ``ub[x]``, the least ``ecc(v) + d(v, x)`` over the BFS maps taken so
    far: the 2-sweep's two and the walk's own.  On a symmetric graph
    d(x, y) <= d(x, v) + d(v, y) <= d(v, x) + ecc(v) for every y, so
    ecc(x) <= ub[x], and a BFS from x with ``ub[x] <= lower`` cannot raise
    the lower bound.  A map only updates ``ub`` when ecc(v) is below the
    lower bound: otherwise ecc(v) + d(v, x) exceeds it for every x but v
    itself, and only a later rise of the bound could let it prune.  So
    at a lower bound of 2 only a node adjacent to all others can prune,
    and a dense graph of diameter 2 costs what it did without the bounds,
    as its maps skip the update they could not use.  The bounds take
    O(fringe) memory, and no distance map is kept past its own update.
    On unit-disk graphs of about 12 neighbours per node the pruning
    halves the passes: from 25 to 13 at 1000 nodes and from 12 to 7 at
    4000, while at 16000 nodes the level test alone stops after 4.
    """
    return g._diameter


def _eccentricity(dist: Mapping[int | str, int]) -> tuple[int | str, int]:
    """The last node a BFS map reached and its hop distance."""
    far = next(reversed(dist))
    return far, dist[far]


def _ifub_diameter(g: NetworkGraph) -> int:
    adj = g.adjacency
    start = max(g.node_ids, key=lambda u: len(adj[u]))
    from_start = bfs_distances(g, start)
    a, _ = _eccentricity(from_start)
    from_a = bfs_distances(g, a)
    mid, lower = _eccentricity(from_a)
    for _ in range(lower // 2):
        mid = next(v for v in adj[mid] if from_a[v] == from_a[mid] - 1)
    from_mid = bfs_distances(g, mid)
    if _eccentricity(from_mid)[1] == 1:  # then no pair is 3 hops apart
        return 1 if all(len(o) == len(adj) - 1 for o in adj.values()) else 2
    levels: list[list] = [[] for _ in range(_eccentricity(from_mid)[1] + 1)]
    for v, d in from_mid.items():
        levels[d].append(v)
    lower = max(lower, len(levels) - 1)
    # ub[x] >= ecc(x) for each fringe node x, the only ones the walk visits
    ub = {x: len(adj) for x, d in from_mid.items() if 2 * d > lower}

    def bound(dist: Mapping[int | str, int]) -> None:
        far = _eccentricity(dist)[1]
        if far < lower:  # else far + dist[x] > lower for every x but one
            for x in ub:
                ub[x] = min(ub[x], far + dist[x])

    bound(from_start)
    bound(from_a)
    del from_start, from_a, from_mid
    for depth in range(len(levels) - 1, 0, -1):
        # pairs not yet measured lie within ``depth`` hops of mid
        for v in levels[depth]:
            if lower >= 2 * depth:
                return lower
            if ub[v] > lower:
                dist = bfs_distances(g, v)
                lower = max(lower, _eccentricity(dist)[1])
                bound(dist)
    return lower


def is_strongly_connected(g: NetworkGraph) -> bool:
    """True when every node reaches every other one (an empty graph too).

    Raises ModelError on a one-way link.  One BFS from the smallest id
    decides it, and the answer is cached on the graph.
    """
    return g._strongly_connected


def jammed(g: NetworkGraph, talkers: Iterable[int | str]) -> int:
    """The mask of listeners that two or more talkers reach.

    The reception rule: a listener in the mask is jammed, one reached but
    not in it hears exactly one talker and receives cleanly.  One ``|=``
    and one ``&`` of reach masks per talker.
    """
    reach = g.reach
    once = twice = 0
    for u in talkers:
        m = reach[u]
        twice |= once & m
        once |= m
    return twice


# --- serialization ---------------------------------------------------------

def network_to_dict(g: NetworkGraph) -> dict:
    """JSON form: geometric (nodes/obstacles) or explicit adjacency.

    Combinatorial graphs have no meaningful geometry, so they serialize
    as ``adjacency`` pairs instead; ``network_from_dict`` accepts either
    shape.
    """
    if g.combinatorial:
        return {"alpha": g.alpha,
                "adjacency": [[u, list(g.adjacency[u])]
                              for u in g.node_ids]}
    return {
        "alpha": g.alpha,
        "strict": g.strict,
        "nodes": [{"id": n.id, "x": n.x, "y": n.y, "power": n.power}
                  for n in g.nodes],
        "obstacles": [{"x1": o.x1, "y1": o.y1, "x2": o.x2, "y2": o.y2}
                      for o in g.obstacles],
    }


def _check_ids(ids: Sequence) -> None:
    """Node ids must be JSON integers or strings, all of one kind."""
    kinds = set(map(type, ids))
    if not kinds <= {int, str}:
        bad = next(u for u in ids if type(u) not in (int, str))
        raise ModelError(
            f"node id {bad!r} is neither an integer nor a string")
    if len(kinds) > 1:
        raise ModelError("node ids mix integers and strings")


def _number(value, key: str, error: type = ModelError) -> int | float:
    """``value`` when it is a finite JSON number, else ``error``: float()
    and int() would load true and false as 1 and 0, and a string such as
    "1_0" as 10, and Python's json reads NaN and Infinity as floats."""
    if isinstance(value, bool):
        raise error(f"{key} must not be a boolean, got {value!r}")
    if not isinstance(value, (int, float)):
        raise error(f"{key} must be a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise error(f"{key} must be finite, got {value!r}")
    return value


def _float(data: Mapping, key: str) -> float:
    """``data[key]``, a finite JSON number, as a float; a finite float
    passes without further checks, the common case."""
    value = data[key]
    if type(value) is float and math.isfinite(value):
        return value
    return float(_number(value, key))


def network_from_dict(data: Mapping) -> NetworkGraph:
    if not isinstance(data, Mapping):
        raise ModelError("network description must be an object")
    if "adjacency" in data:
        if "nodes" in data or "obstacles" in data:
            raise ModelError(
                "explicit adjacency excludes nodes and obstacles")
        rows = data["adjacency"]
        if not isinstance(rows, (list, tuple)):
            raise ModelError(
                "adjacency must be a list of [id, [neighbors...]] pairs")
        adj: dict = {}
        try:
            for row in rows:
                if not (isinstance(row, (list, tuple)) and len(row) == 2):
                    raise ModelError(f"adjacency row {row!r} is not an "
                                     f"[id, [neighbors...]] pair")
                u, outs = row
                if not isinstance(outs, (list, tuple)):
                    raise ModelError(
                        f"neighbors of {u!r} must be a list, got {outs!r}")
                _check_ids((u,))  # before True can pass for a duplicate 1
                if u in adj:
                    raise ModelError(f"duplicate node id {u!r}")
                adj[u] = set(outs)
            alpha = float(_number(data.get("alpha", 2.0), "alpha"))
        except ModelError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise ModelError(
                f"malformed network description: {exc}") from exc
        _check_ids([*adj, *chain.from_iterable(adj.values())])
        return NetworkGraph.from_adjacency(adj, alpha=alpha)
    try:
        nodes = [NodeSpec(n["id"], _float(n, "x"), _float(n, "y"),
                          _float(n, "power"))
                 for n in data["nodes"]]
        _check_ids([n.id for n in nodes])
        obstacles = [Obstacle(_float(o, "x1"), _float(o, "y1"),
                              _float(o, "x2"), _float(o, "y2"))
                     for o in data.get("obstacles", [])]
        alpha = float(_number(data.get("alpha", 2.0), "alpha"))
        strict = data.get("strict", False)
        if not isinstance(strict, bool):
            raise ModelError(f"strict must be true or false, got {strict!r}")
        return build_network(nodes, obstacles, alpha, strict=strict)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ModelError(f"malformed network description: {exc}") from exc


def _read_json(path: str, error: type[ValueError]):
    """The JSON value in the file at ``path``; nesting too deep for the
    parser's recursion raises ``error``, as other malformed input does."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError as exc:
            raise error(f"{path}: JSON nested too deeply") from exc


def load_network(path: str) -> NetworkGraph:
    return network_from_dict(_read_json(path, ModelError))
