"""Test oracles: exhaustive schedule search, the covering-reduction and
path fixtures, and two closed-form bounds that only tests compare against.

None of this is on the pipeline's path (no CLI verb, script or benchmark
calls it), so it lives with the tests that use it.

Exhaustive schedule search for desk-scale instances
----------------------------------------------------

Both searches run breadth-first over global holding states in the same
abstract full-duplex model the simulator uses without interference: a
transmission carries at most ``compression`` rumors, every out-neighbor
of the sender receives it, and simultaneous receptions all succeed.

Optimality survives two aggressive prunings.  First, only *maximal*
batches are expanded: growing a batch up to the compression cap only
grows what receivers learn, and holdings never shrink, so any schedule
can be rewritten move for move into one the restricted search visits
without getting longer.  Second, only *useful* batches are expanded
(some receiver still lacks part of the batch); a useless transmission
changes nothing.  For the round search the same monotonicity argument
shows that silence is dominated too, so every node that owns a useful
batch sends one each round and the per-round branching is the product
of per-node batch choices.

Costs still explode with node and rumor counts, so both entry points
enforce small-instance guards and a visited-state budget.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence

from rumorcast.central import Batch, Rumor, Schedule, Transmission, rumors_in
from rumorcast.fixtures import FixtureError
from rumorcast.model import NetworkGraph, NodeSpec, Obstacle, build_network

MAX_SEARCH_NODES = 12
MAX_SEARCH_RUMORS = 6
DEFAULT_STATE_BUDGET = 2_000_000
JOINT_BRANCH_CAP = 50_000


class SearchError(ValueError):
    """The instance is too large, malformed, or has no feasible schedule."""


def _prepare(g: NetworkGraph, rumors: Sequence[Rumor], compression: int):
    """Validate inputs and compile them to bitmask form.

    Returns node ids in canonical order, the sorted rumor list (bit i of a
    holding mask is rumor i), per-node out-neighbor index tuples, the
    initial state, and the all-rumors mask.
    """
    if compression < 1:
        raise SearchError(f"compression must be >= 1, got {compression}")
    ids = g.node_ids
    if len(ids) > MAX_SEARCH_NODES:
        raise SearchError(
            f"{len(ids)} nodes exceed the search limit {MAX_SEARCH_NODES}")
    rlist = sorted(set(rumors))
    if not rlist:
        raise SearchError("no rumors to schedule")
    if len(rlist) != len(rumors):
        raise SearchError("duplicate rumors in placement")
    if len(rlist) > MAX_SEARCH_RUMORS:
        raise SearchError(
            f"{len(rlist)} rumors exceed the search limit {MAX_SEARCH_RUMORS}")
    index = {nid: i for i, nid in enumerate(ids)}
    for r in rlist:
        if r.source not in index:
            raise SearchError(f"unknown rumor source {r.source!r}")
    out_idx = tuple(tuple(index[v] for v in g.adjacency[nid]) for nid in ids)
    start = [0] * len(ids)
    for bit, r in enumerate(rlist):
        start[index[r.source]] |= 1 << bit
    full = (1 << len(rlist)) - 1
    return ids, rlist, out_idx, tuple(start), full


def _maximal_batches(mask: int, cap: int) -> tuple[int, ...]:
    """All batch masks of maximal size a holder of ``mask`` can send."""
    if mask.bit_count() <= cap:
        return (mask,)
    bits = [b for b in range(mask.bit_length()) if mask >> b & 1]
    out = []
    for combo in itertools.combinations(bits, cap):
        m = 0
        for b in combo:
            m |= 1 << b
        out.append(m)
    return tuple(out)


def _search(g: NetworkGraph, rumors: Sequence[Rumor], compression: int,
            state_budget: int, what: str, moves) -> Schedule:
    """Breadth-first search over holding states for a full delivery.

    ``moves(state, out_idx, compression)`` yields each move out of a
    state as a tuple of simultaneous ``(sender index, batch mask)``
    sends; the witness spends one round per move.  ``what`` names the
    search in its budget error.
    """
    ids, rlist, out_idx, start, full = _prepare(g, rumors, compression)
    if all(m == full for m in start):
        return Schedule(rounds=())
    parent: dict = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for st in frontier:
            for sends in moves(st, out_idx, compression):
                new = list(st)
                for u, bm in sends:
                    for v in out_idx[u]:
                        new[v] |= bm
                tnew = tuple(new)
                if tnew in parent:
                    continue
                parent[tnew] = (st, sends)
                if len(parent) > state_budget:
                    raise SearchError(f"{what} search exceeded its "
                                      f"state budget {state_budget}")
                if all(m == full for m in tnew):
                    return _witness(parent, tnew, ids, rlist)
                nxt.append(tnew)
        frontier = nxt
    raise SearchError("no schedule can deliver every rumor to every node")


def _witness(parent: dict, state, ids, rlist) -> Schedule:
    # rlist is sorted and unique, so a decoded Batch's invariant holds for free
    rounds = []
    while parent[state] is not None:
        state, sends = parent[state]
        rounds.append(tuple(
            Transmission(ids[u], Batch(tuple(rumors_in(rlist, bm))))
            for u, bm in sends))
    rounds.reverse()
    return Schedule(rounds=tuple(rounds))


def _useful_batches(st: tuple, out_idx, compression: int):
    """Each sender index with its maximal batches that teach some
    out-neighbor something, for senders that have any."""
    for u, outs in enumerate(out_idx):
        useful = [bm for bm in _maximal_batches(st[u], compression)
                  if any(bm & ~st[v] for v in outs)]
        if useful:
            yield u, useful


def _single_sends(st: tuple, out_idx, compression: int):
    for u, useful in _useful_batches(st, out_idx, compression):
        for bm in useful:
            yield ((u, bm),)


def _joint_sends(st: tuple, out_idx, compression: int):
    options = list(_useful_batches(st, out_idx, compression))
    if not options:
        return
    width = math.prod(len(choices) for _, choices in options)
    if width > JOINT_BRANCH_CAP:
        raise SearchError(
            f"round branching {width} exceeds cap {JOINT_BRANCH_CAP}")
    senders = tuple(u for u, _ in options)
    for combo in itertools.product(*(c for _, c in options)):
        yield tuple(zip(senders, combo))


def min_message_schedule(g: NetworkGraph, rumors: Sequence[Rumor],
                         compression: int, *,
                         state_budget: int = DEFAULT_STATE_BUDGET) -> Schedule:
    """A schedule delivering every rumor to every node with fewest messages.

    Transmissions are serialized one per round; only the total count is
    optimal, callers must not read timing out of the witness.  Raises
    SearchError when some node can never receive some rumor.
    """
    return _search(g, rumors, compression, state_budget, "message",
                   _single_sends)


def min_makespan_schedule(g: NetworkGraph, rumors: Sequence[Rumor],
                          compression: int, *,
                          state_budget: int = DEFAULT_STATE_BUDGET) -> Schedule:
    """A schedule delivering every rumor to every node in fewest rounds.

    Message count in the witness is incidental: every node that can still
    teach a neighbor something transmits every round.
    """
    return _search(g, rumors, compression, state_budget, "round",
                   _joint_sends)


# --- fixtures ---------------------------------------------------------------

def gen_set_cover_reduction(universe, subsets: Sequence,
                            gossip_k: int = 1) -> tuple[NetworkGraph, list]:
    """Three-tier covering network realized with powers and obstacles.

    Sources sit far above with just enough power to reach every middle-tier
    node and nothing below; middle-tier nodes share a large power that
    reaches each other and the whole bottom tier; bottom-tier nodes are
    mute. A short wall across each non-member (middle, bottom) segment
    removes exactly the links outside the membership relation, so message
    flow is sources -> middle tier -> covered elements.
    """
    universe = set(universe)
    if not universe:
        raise FixtureError("universe must be non-empty")
    if gossip_k < 1:
        raise FixtureError("gossip_k must be >= 1")
    covered = set()
    for s in subsets:
        extra = set(s) - universe
        if extra:
            raise FixtureError(f"subset values outside universe: {sorted(map(str, extra))}")
        covered |= set(s)
    if covered != universe:
        raise FixtureError(
            f"subsets do not cover the universe; missing {sorted(map(str, universe - covered))}")
    elems = sorted(universe, key=str)
    if len(elems) > 99:
        raise FixtureError("at most 99 distinct elements supported")
    spacing = 100.0
    m = len(subsets)
    ground_span = spacing * (m - 1) + len(elems) + 2
    half_span = spacing * (m - 1) / 2 + gossip_k + 1
    height = (half_span + ground_span) ** 2 + 1

    nodes = [NodeSpec(f"elem{i}", float(i), 0.0, 0.5 ** 2)
             for i in range(len(elems))]
    nodes += [NodeSpec(f"set{j}", spacing * j, 1.0, ground_span ** 2)
              for j in range(m)]
    reach = math.hypot(half_span, height - 1) + 0.001
    sources = [f"src{t}" for t in range(gossip_k)]
    nodes += [NodeSpec(name, spacing * (m - 1) / 2 + t, height, reach ** 2)
              for t, name in enumerate(sources)]

    index_of = {v: i for i, v in enumerate(elems)}
    walls = []
    for j, s in enumerate(subsets):
        members = {index_of[v] for v in set(s)}
        for i in range(len(elems)):
            if i not in members:
                center = (spacing * j + i) / 2
                walls.append(Obstacle(center - 0.2, 0.5, center + 0.2, 0.5))
    return build_network(nodes, walls, alpha=2.0), sources


def gen_leaf_source_path() -> tuple[NetworkGraph, str]:
    """Four-node path with the rumor starting at an end node.

    The smallest backbone is the two middle nodes, and broadcasting from
    the leaf costs one extra hand-off message.
    """
    g = NetworkGraph.from_adjacency(
        {"a": ["b"], "b": ["a", "c"], "c": ["b", "d"], "d": ["c"]})
    return g, "a"


def gen_internal_source_path() -> tuple[NetworkGraph, str]:
    """Same path, rumor starting on a backbone node: no hand-off needed."""
    g, _ = gen_leaf_source_path()
    return g, "b"


# --- closed-form bounds ------------------------------------------------------

def message_lower_bound_raw(rumor_count: int, compression: int,
                            mcds_size: int) -> float:
    """The fractional form of message_lower_bound, for ratio denominators."""
    if compression < 1:
        raise ValueError(f"compression must be >= 1, got {compression}")
    return max(float(rumor_count),
               rumor_count * (mcds_size - 1) / compression)


def time_lower_bound_star_path(rumor_count: int, compression: int,
                               diam: int) -> int:
    """Exact optimum round count for the hub-and-tail family.

    With all rumors at peripheral nodes of a hub that feeds a tail of
    diameter ``diam``, the hub must relay ceil(k/c) batches and the last
    batch still has to walk the tail: ceil(k/c) + diam - 1 rounds.
    General graphs get diameter(g) as the universal floor instead.
    """
    if rumor_count < 1 or diam < 1:
        raise ValueError("rumor count and diameter must be >= 1")
    if compression < 1:
        raise ValueError(f"compression must be >= 1, got {compression}")
    return -(-rumor_count // compression) + diam - 1
