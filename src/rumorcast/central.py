"""Centralized rumor scheduling over a backbone, and round simulation.

Schedules are explicit: a tuple of rounds, each round a tuple of
transmissions (sender plus a batch of rumors).  A batch counts as one
message regardless of how many rumors it carries, up to the compression
factor.  The model is an abstract broadcast medium: every out-neighbor of a
sender hears the batch, a node may send and receive in the same round, and
two senders sharing an out-neighbor interfere at that common receiver.
Interference is tested bit-parallel: the graph caches one reach mask per
node (its out-neighbors, one bit per node), ``model.jammed`` folds a
round's reach masks into the mask of listeners reached twice, and
``make_collision_free`` keeps each sub-round's listeners as one mask.

Multi-broadcast is planned once by ``plan_multibroadcast``: the collection
tree and its bands, subtree loads, the pruned distribution bands and fixed
chunks.  ``multibroadcast_schedule`` times that ``Plan``'s collection unit
by unit, band by band, and pipelines its chunks down the distribution
bands; the distributed simulator runs the same ``Plan`` with slotted
rounds.

A ``Rumor`` is a named tuple, so the planner and the collection heap sort
and compare rumors directly.  ``simulate_schedule`` holds a schedule's
outcome transposed: one node mask per rumor of the nodes that received it
cleanly, and one of the nodes that heard it only through a jam, so a
clean transmission is at most c big-int ORs whatever the sender's degree.
``Metrics`` keeps the clean masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain, groupby
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

from .backbone import Backbone, build_arborescence, validate_backbone
from .model import ModelError, NetworkGraph, jammed


class ScheduleError(ValueError):
    """A schedule is structurally invalid or violates causality."""


class Rumor(NamedTuple):
    """One rumor, identified by its source node and a sequence number.

    Rumors order, compare and hash as their ``(source, seq)`` pairs.
    """

    source: int | str
    seq: int = 0


@dataclass(frozen=True)
class Batch:
    """A compressed bundle of rumors sent as a single message."""

    rumors: tuple[Rumor, ...]

    def __post_init__(self):
        if not self.rumors:
            raise ScheduleError("empty batch")
        if list(self.rumors) != sorted(set(self.rumors)):
            raise ScheduleError("batch rumors must be sorted and unique")

    def __len__(self) -> int:
        return len(self.rumors)


@dataclass(frozen=True)
class Transmission:
    sender: int | str
    batch: Batch


@dataclass(frozen=True)
class Schedule:
    """Rounds of simultaneous transmissions, in execution order."""

    rounds: tuple[tuple[Transmission, ...], ...]

    @property
    def makespan(self) -> int:
        return len(self.rounds)

    @property
    def message_count(self) -> int:
        return sum(len(r) for r in self.rounds)

    def rumors(self) -> frozenset[Rumor]:
        return frozenset(r for rnd in self.rounds
                         for tx in rnd for r in tx.batch.rumors)


def rumors_in(rumors: Sequence, mask: int) -> list:
    """The items of ``rumors`` whose bits are set in ``mask``, lowest bit
    first: the rumors of a rumor mask, or the nodes of a node mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(rumors[low.bit_length() - 1])
        mask ^= low
    return out


@dataclass(frozen=True)
class Metrics:
    """Outcome of simulating a schedule.

    ``rumors`` are the schedule's rumors in order of first appearance, and
    ``node_ids`` the graph's nodes in mask bit order.  ``holders[i]`` is
    the node mask of ``rumors[i]``'s holders at the end: its source and
    every node that received it cleanly at least once.
    """

    messages: int
    makespan: int
    collisions: int
    rumors: tuple[Rumor, ...]
    holders: tuple[int, ...]
    node_ids: tuple[int | str, ...]

    def holds_all(self, rumors: Iterable[Rumor]) -> bool:
        """Whether every node holds each of ``rumors``; a rumor that the
        schedule never carries is held by no one."""
        everyone = (1 << len(self.node_ids)) - 1
        held = dict(zip(self.rumors, self.holders))
        return all(r in held and held[r] == everyone for r in rumors)


def _rounds_from_map(by_round: Mapping[int, list[Transmission]]) -> Schedule:
    """Assemble rounds in index order; unused indexes leave no round."""
    rounds = []
    for t in sorted(by_round):
        rounds.append(tuple(sorted(by_round[t], key=lambda tx: tx.sender)))
    return Schedule(rounds=tuple(rounds))


def _attach_member(g: NetworkGraph, members: set,
                   node: int | str) -> int | str:
    if node in members:
        return node
    hooks = [v for v in g.adjacency[node] if v in members]
    if not hooks:
        raise ScheduleError(
            f"source {node!r} has no backbone member in its reach")
    return min(hooks)


def broadcast_schedule(g: NetworkGraph, bb: Backbone,
                       source: int | str) -> Schedule:
    """Deliver one rumor from ``source`` to every node via the backbone.

    The rumor hops to the smallest reachable member if the source is not
    one, then floods member to member in breadth-first waves from that
    entry: every member transmits exactly once, one round after the
    members a hop nearer the entry, which covers all dominated nodes.
    """
    validate_backbone(g, bb)
    if source not in g.adjacency:
        raise ModelError(f"unknown source {source!r}")
    batch = Batch((Rumor(source, 0),))
    by_round: dict[int, list[Transmission]] = {}
    t0 = 0
    entry = _attach_member(g, set(bb.members), source)
    if entry != source:
        by_round[1] = [Transmission(source, batch)]
        t0 = 1
    depth: dict = {}  # the arborescence lists parents before children
    for u, p in build_arborescence(g, bb.members, entry).items():
        depth[u] = 0 if p is None else depth[p] + 1
        by_round.setdefault(t0 + depth[u] + 1, []).append(
            Transmission(u, batch))
    return _rounds_from_map(by_round)


@dataclass(frozen=True)
class Plan:
    """The multi-broadcast plan that both transports execute.

    Units are the backbone members plus every non-member source, which
    hangs off its smallest member neighbor.  ``parent`` links each unit to
    the unit it hands rumors to (None for the root); ``own`` and ``load``
    hold each unit's own rumors and its whole subtree's rumors, sorted.
    ``collection`` lists the units that hand their loads up, in bands,
    children before parents: the sorted non-member sources, if any, then
    the member depth bands, deepest first, no root.  ``distribution`` lists
    the members left to send after pruning, in depth bands, root first:
    band d holds the senders at backbone depth d, in ``Backbone.depth``'s
    root-first key order.  Pruning removes only leaves, so a sender's depth
    in the pruned tree is its backbone depth, and only the deepest bands
    can empty; they are left out.
    ``chunks`` are the fixed batches of at most ``compression`` rumors
    that the root pushes back down.
    """

    compression: int
    rumors: tuple[Rumor, ...]
    parent: Mapping
    own: Mapping[int | str, tuple[Rumor, ...]]
    load: Mapping[int | str, tuple[Rumor, ...]]
    collection: tuple[tuple, ...]
    distribution: tuple[tuple, ...]
    chunks: tuple[Batch, ...]


def plan_multibroadcast(g: NetworkGraph, bb: Backbone,
                        sources: Sequence[int | str],
                        compression: int) -> Plan:
    """Build the collection and distribution trees for one rumor per source.

    Source i carries ``Rumor(sources[i], i)``.  Subtree loads accumulate
    along the collection bands, which read the backbone's root-first
    ``depth`` order backwards, so the depth is not limited by recursion.
    Distribution pruning repeatedly drops the largest-id leaf of the sender
    tree whose removal leaves every node covered by a sender or a sender's
    neighbor; the senders left keep their places in the same depth bands.
    The caller validates the backbone, the sources and the compression
    factor.
    """
    members = set(bb.members)
    rumors = tuple(Rumor(s, i) for i, s in enumerate(sources))
    parent: dict = dict(bb.parent)
    own: dict = {u: [] for u in members}
    for r in rumors:
        if r.source not in own:
            own[r.source] = []
            parent[r.source] = _attach_member(g, members, r.source)
        own[r.source].append(r)

    outsiders = tuple(sorted(u for u in own if u not in members))
    bands = [tuple(band) for _, band in groupby(bb.depth, bb.depth.get)]
    collection = tuple(band for band in (outsiders, *bands[:0:-1]) if band)
    load = {u: list(rs) for u, rs in own.items()}
    for u in chain.from_iterable(collection):
        load[parent[u]].extend(load[u])

    # cover[v]: senders that are v or have v as an out-neighbor
    cover = dict.fromkeys(g.adjacency, 0)
    for m in members:
        for v in (m, *g.adjacency[m]):
            cover[v] += 1
    live_kids = {m: len(bb.children[m]) for m in members}
    senders = set(members)

    def prunable(m) -> bool:
        return (m in senders and m != bb.root and not live_kids[m]
                and all(cover[v] > 1 for v in (m, *g.adjacency[m])))

    descending = sorted(members, reverse=True)
    while (m := next(filter(prunable, descending), None)) is not None:
        senders.remove(m)
        for v in (m, *g.adjacency[m]):
            cover[v] -= 1
        live_kids[bb.parent[m]] -= 1

    distribution = (tuple(m for m in band if m in senders) for band in bands)
    load = {u: tuple(sorted(rs)) for u, rs in load.items()}
    root_load = load[bb.root]
    # a unit's own rumors share its id and were appended by seq: sorted
    return Plan(compression=compression, rumors=rumors, parent=parent,
                own={u: tuple(rs) for u, rs in own.items()},
                load=load, collection=collection,
                distribution=tuple(filter(None, distribution)),
                chunks=tuple(Batch(root_load[i:i + compression])
                             for i in range(0, len(root_load), compression)))


def multibroadcast_schedule(g: NetworkGraph, bb: Backbone,
                            sources: Sequence[int | str],
                            compression: int) -> Schedule:
    """Deliver one rumor per source to every node, batching rumors.

    At most ``compression`` rumors ride in one message.  Collection: rumors
    climb the plan's collection tree, timed unit by unit, children before
    parents; a relay forwards its smallest c rumors as soon as it holds c
    and drains the rest once its whole subtree has arrived, so a relay with
    s subtree rumors sends exactly ceil(s/c) messages.  Distribution: the
    plan's fixed chunks ripple down the pruned sender tree in a pipeline,
    one chunk per relay per round.  A single source delegates to
    broadcast_schedule, with an identical message count.
    """
    c = compression
    if c < 1:
        raise ScheduleError(f"compression factor must be >= 1, got {c}")
    if not sources:
        raise ScheduleError("no sources given")
    for s in sources:
        if s not in g.adjacency:
            raise ModelError(f"unknown source {s!r}")
    if len(sources) == 1:
        return broadcast_schedule(g, bb, sources[0])
    validate_backbone(g, bb)
    plan = plan_multibroadcast(g, bb, sources, c)

    # collection, leaves first: inbox[u] holds (ready round, rumor) pairs;
    # own rumors are ready at round 0 and each child batch at the round it
    # was sent
    inbox = {u: [(0, r) for r in rs] for u, rs in plan.own.items()}
    by_round: dict[int, list[Transmission]] = {}
    for u in chain.from_iterable(plan.collection):
        arrivals = sorted(inbox.pop(u), key=itemgetter(0))
        backlog: list[Rumor] = []
        i, now = 0, 1
        while i < len(arrivals) or backlog:
            while i < len(arrivals) and arrivals[i][0] < now:
                heappush(backlog, arrivals[i][1])
                i += 1
            if len(backlog) >= c or (i == len(arrivals) and backlog):
                batch = [heappop(backlog)
                         for _ in range(min(c, len(backlog)))]
                by_round.setdefault(now, []).append(
                    Transmission(u, Batch(tuple(batch))))
                inbox[plan.parent[u]].extend((now, r) for r in batch)
                now += 1
            else:  # nothing to send until the next arrival is usable
                now = arrivals[i][0] + 1
    t = max(by_round, default=0)

    # distribution: chunk j leaves a sender at depth d in round t + j + d
    for d, band in enumerate(plan.distribution):
        for j, chunk in enumerate(plan.chunks, start=1):
            by_round.setdefault(t + j + d, []).extend(
                Transmission(m, chunk) for m in band)
    return _rounds_from_map(by_round)


def make_collision_free(g: NetworkGraph, sched: Schedule) -> Schedule:
    """Split each round so no two simultaneous senders share a receiver.

    Greedy coloring in ascending sender order: a transmission goes into the
    earliest sub-round where it shares no out-neighbor with any sender
    already placed there.  Message multiset and per-sender order are
    preserved; the round count grows by at most the largest interference
    set size (and never shrinks a conflict-free schedule).
    """
    reach = g.reach
    out_rounds: list[tuple[Transmission, ...]] = []
    for rnd in sched.rounds:
        groups: list[list[Transmission]] = []
        covers: list[int] = []  # node mask of each group's listeners
        for tx in sorted(rnd, key=lambda tx: tx.sender):
            m = reach[tx.sender]
            for i, cover in enumerate(covers):
                if not cover & m:
                    groups[i].append(tx)
                    covers[i] = cover | m
                    break
            else:
                groups.append([tx])
                covers.append(m)
        out_rounds.extend(tuple(grp) for grp in groups)
    return Schedule(rounds=tuple(out_rounds))


def simulate_schedule(g: NetworkGraph, sched: Schedule,
                      *, interference: bool = False) -> Metrics:
    """Execute a schedule round by round and measure it.

    Causality is checked against interference-free holdings: every sender
    must already hold each rumor it sends, where holdings grow as if all
    receptions succeed.  With ``interference=True`` a reception is jammed
    when the receiver hears more than one sender of the round; each jammed
    reception counts as one collision (losses are counted, not propagated).
    A rumor's source holds it at round 0.  Unknown rumor sources are
    reported first, in order of first appearance; then each round checks,
    transmission by transmission, for an unknown sender, a sender sending
    twice and the first rumor of the batch that the sender lacks, all
    before the round's receptions.

    Rumor i keeps two node masks: ``holders[i]``, its clean receptions,
    and ``lost[i]``, its jammed ones; a sender plans to hold the rumor when
    its bit is set in either.  Each distinct batch maps once to the tuple
    of its rumors' indexes; the distribution chunks are shared batches, so
    most transmissions find theirs cached.  A round's jammed listeners are
    one node mask (``model.jammed``), and a transmission ORs the sender's
    reach minus that mask into each of its rumors' ``holders`` and the
    jammed part into their ``lost``.
    """
    bit: dict[Rumor, int] = {}
    bits_of: dict[tuple[Rumor, ...], tuple[int, ...]] = {}
    rows = []
    for rnd in sched.rounds:
        row = []
        for tx in rnd:
            key = tx.batch.rumors
            bits = bits_of.get(key)
            if bits is None:
                bits = bits_of[key] = tuple(bit.setdefault(r, len(bit))
                                            for r in key)
            row.append(bits)
        rows.append(row)
    rumors = tuple(bit)
    index = g.node_index
    for r in rumors:
        if r.source not in index:
            raise ScheduleError(f"rumor source {r.source!r} unknown")
    holders = [1 << index[r.source] for r in rumors]
    lost = [0] * len(rumors)

    reach = g.reach
    collisions = 0
    for t, (rnd, row) in enumerate(zip(sched.rounds, rows), start=1):
        seen = set()
        for tx, bits in zip(rnd, row):
            s = tx.sender
            if s not in index:
                raise ScheduleError(f"round {t}: unknown sender {s!r}")
            if s in seen:
                raise ScheduleError(f"round {t}: sender {s!r} transmits twice")
            seen.add(s)
            at = index[s]
            for i in bits:
                if not (holders[i] >> at & 1 or lost[i] >> at & 1):
                    raise ScheduleError(
                        f"round {t}: sender {s!r} does not hold {rumors[i]}")
        jam = jammed(g, seen) if interference else 0
        for tx, bits in zip(rnd, row):
            clean = reach[tx.sender]
            hit = clean & jam
            if hit:
                collisions += hit.bit_count()
                clean ^= hit
                for i in bits:
                    lost[i] |= hit
            for i in bits:
                holders[i] |= clean
    return Metrics(messages=sched.message_count, makespan=sched.makespan,
                   collisions=collisions, rumors=rumors,
                   holders=tuple(holders), node_ids=g.node_ids)


# --- serialization ---------------------------------------------------------

def schedule_to_dict(sched: Schedule) -> dict:
    return {"rounds": [[{"sender": tx.sender,
                         "rumors": [{"source": r.source, "seq": r.seq}
                                    for r in tx.batch.rumors]}
                        for tx in rnd]
                       for rnd in sched.rounds]}
