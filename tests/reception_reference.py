"""Earlier forms of the reception rule and the centralized simulator,
kept as references for tests.

``hearing`` is the library's earlier per-listener rule, unchanged: the
slot protocols and the centralized simulator now read ``model.jammed``
over reach masks, and the reference tests compare them against it.

``arrival_simulate`` and ``ArrivalMetrics`` are the earlier
``simulate_schedule`` and ``Metrics``, renamed: one rumor mask per node
and a log of the receptions that brought something new, from which
``ArrivalMetrics.delivery_time`` gives the round each node first held
each rumor.  The library now keeps one node mask per rumor and no arrival
log; ``delivery_times`` replays the log for tests that read delivery
rounds, ``holder_sets`` reads the library's masks as node sets, and
``transposed_holders`` turns the earlier per-node masks into the
library's per-rumor ones.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from rumorcast.central import Rumor, Schedule, ScheduleError, rumors_in
from rumorcast.model import NetworkGraph, jammed


def hearing(g: NetworkGraph, talkers: Iterable[int | str]) -> dict:
    """Listener -> the talkers that reach it, in talker order.

    The reception rule, of which ``jammed`` is the mask form: a listener
    receives cleanly only when it hears exactly one talker.  Built from the
    talkers' out-neighbor lists in O(sum of their out-degrees).  Talkers
    appear as listeners too; callers whose talkers are deaf drop them.
    """
    heard: dict = {}
    for u in talkers:
        for v in g.adjacency[u]:
            heard.setdefault(v, []).append(u)
    return heard


@dataclass(frozen=True)
class ArrivalMetrics:
    """Outcome of ``arrival_simulate``.

    Holdings are int bitmasks over ``rumors``, the schedule's rumors in
    order of first appearance: bit i of ``held[v]`` is set when node v
    actually holds ``rumors[i]`` at the end.  ``arrivals`` logs, in
    execution order, each ``(round, node, mask)`` reception that brought
    the node at least one rumor, the sources at round 0 first; the mask is
    the whole received batch's, one int object shared by every entry of
    that transmission, so it may hold rumors the node already had.
    ``delivery_time`` maps each rumor to its actual holders and the round
    each first held it; it is rebuilt on first use by replaying
    ``arrivals`` against a running mask per node, and then cached.
    """

    messages: int
    makespan: int
    collisions: int
    rumors: tuple[Rumor, ...]
    held: Mapping[int | str, int]
    arrivals: tuple[tuple[int, int | str, int], ...]

    @cached_property
    def delivery_time(self) -> Mapping[Rumor, Mapping[int | str, int]]:
        delivery: dict[Rumor, dict] = {r: {} for r in self.rumors}
        have: dict = {}
        for t, v, mask in self.arrivals:
            h = have.get(v, 0)
            have[v] = h | mask
            for r in rumors_in(self.rumors, mask & ~h):
                delivery[r][v] = t
        return delivery

    def nodes_holding(self, rumor: Rumor) -> frozenset:
        return frozenset(self.delivery_time.get(rumor, {}))

    def holds_all(self, rumors: Iterable[Rumor]) -> bool:
        """Whether every node holds each of ``rumors``; a rumor that the
        schedule never carries is held by no one."""
        index = {r: i for i, r in enumerate(self.rumors)}
        want = 0
        for r in rumors:
            if r not in index:
                return False
            want |= 1 << index[r]
        return all(mask & want == want for mask in self.held.values())


def arrival_simulate(g: NetworkGraph, sched: Schedule,
                     *, interference: bool = False) -> ArrivalMetrics:
    """Execute a schedule round by round and measure it.

    The checks and counts of ``simulate_schedule``.  Each rumor gets a
    dense index and each transmission's batch one mask.  A node's actual
    holdings are one int bitmask, and ``lost`` keeps the rumors only
    jammed receptions brought it, so its planned holdings are
    ``held | lost``.  A round's jammed listeners are one node mask
    (``model.jammed``); only a sender whose reach meets it tests its
    listeners one by one.  A clean reception that brings something new
    logs the batch's mask.
    """
    index: dict = {}  # rumor -> its bit, in order of first appearance
    masks = [[sum(1 << index.setdefault(r, len(index))
                  for r in tx.batch.rumors) for tx in rnd]
             for rnd in sched.rounds]
    rumors = tuple(index)
    held = dict.fromkeys(g.node_ids, 0)
    arrivals = []
    for i, r in enumerate(rumors):
        if r.source not in g.adjacency:
            raise ScheduleError(f"rumor source {r.source!r} unknown")
        held[r.source] |= 1 << i
        arrivals.append((0, r.source, 1 << i))
    lost: dict = {}

    adjacency = g.adjacency
    collisions = 0
    for t, (rnd, row) in enumerate(zip(sched.rounds, masks), start=1):
        seen = set()
        for tx, b in zip(rnd, row):
            s = tx.sender
            if s not in adjacency:
                raise ScheduleError(f"round {t}: unknown sender {s!r}")
            if s in seen:
                raise ScheduleError(f"round {t}: sender {s!r} transmits twice")
            seen.add(s)
            lacking = b & ~(held[s] | lost.get(s, 0))
            if lacking:
                missing = next(r for r in tx.batch.rumors
                               if lacking >> index[r] & 1)
                raise ScheduleError(
                    f"round {t}: sender {s!r} does not hold {missing}")
        jam = jammed(g, (tx.sender for tx in rnd)) if interference else 0
        for tx, b in zip(rnd, row):
            listeners = adjacency[tx.sender]
            if jam and g.reach[tx.sender] & jam:
                clean = []
                for v in listeners:
                    if jam >> g.node_index[v] & 1:
                        collisions += 1
                        lost[v] = lost.get(v, 0) | b
                    else:
                        clean.append(v)
                listeners = clean
            for v in listeners:
                h = held[v]
                got = h | b
                if got != h:
                    held[v] = got
                    arrivals.append((t, v, b))
    return ArrivalMetrics(messages=sched.message_count,
                          makespan=sched.makespan, collisions=collisions,
                          rumors=rumors, held=held, arrivals=tuple(arrivals))


def delivery_times(g: NetworkGraph, sched: Schedule, *,
                   interference: bool = False) -> Mapping[Rumor, Mapping]:
    """Rumor -> {node: the round it first held the rumor}, for every rumor
    the schedule carries: its source at round 0, every other node at its
    first clean reception.  Raises the ``ScheduleError`` that
    ``simulate_schedule`` raises."""
    return arrival_simulate(g, sched, interference=interference).delivery_time


def transposed_holders(g: NetworkGraph,
                       ref: ArrivalMetrics) -> tuple[int, ...]:
    """The node mask of each of ``ref.rumors``' holders, in the bit order
    of ``g.node_index``, read off ``ref.held``'s rumor mask per node."""
    holders = [0] * len(ref.rumors)
    for v, mask in ref.held.items():
        node = 1 << g.node_index[v]
        while mask:
            low = mask & -mask
            holders[low.bit_length() - 1] |= node
            mask ^= low
    return tuple(holders)


def holder_sets(metrics) -> dict:
    """Rumor -> the frozenset of nodes whose bit is set in its holder mask
    of a ``simulate_schedule`` result."""
    ids = metrics.node_ids
    return {r: frozenset(v for j, v in enumerate(ids) if mask >> j & 1)
            for r, mask in zip(metrics.rumors, metrics.holders)}
