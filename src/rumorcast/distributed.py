"""Slot-based distributed transmission: randomized rounds with and without
collision detection.

A round spans 2m slots where m = ceil(slot_factor * max_degree).  Data goes
out in the first half on a uniformly random slot per sender.  In the
collision-detecting mode, listeners that heard garbage echo an error in the
matching second-half slot and a sender only declares victory over a silent
second half.  In the acknowledgement mode, every listener that received
data cleanly, addressed or not, picks a random second-half slot and acks;
an ack counts only at senders that address the acker, and addressed
listeners whose ack did not land stay on the sender's list for the next
round.

Full runs execute the centralized module's multi-broadcast ``Plan`` stage
by stage: non-member sources hand off, member depth bands forward their
subtree loads to the root, then each chunk ripples down the plan's
distribution bands.  The rounds inside each stage are randomized.

Every node owns an independent deterministic random stream derived from
(seed, node id), so runs replay bit-for-bit; a stream is seeded on the
node's first draw, so nodes that only listen or echo never seed one.  A
slot is drawn as ``randint(1, half)`` would draw it from that stream,
through ``getrandbits`` directly (see ``_draws``); once seeded, a node's
state holds the stream's ``getrandbits``, and the draw loop calls it
without going through ``rng_stream``.  A node transmits in at most one
slot per round: data senders never echo, and ackers never send data.

The slot layer knows rumors only as int masks: a node holds a rumor
mask and queues the masks of the batches it must send, so a clean
reception is one ``|=`` of the sender's front mask.  A full run numbers
the plan's rumors once, bit i for ``plan.rumors[i]``, and turns rumors
into masks and back only at its edges.  Its checks, plan and stage
masks are built once per (graph, backbone, sources, c) and kept on the
graph through ``model.kept``, so the seeds of an experiment share them;
the slot count is kept the same way for the latest ``cfg``, so a run's
rounds compute it once.  A round keeps the raw slot and ack data it
already computed and builds its ``SlotRecord``s only when they are read,
which untraced runs never do.

Reception in a slot follows ``model.jammed`` over the talkers' reach
masks: a listener reached by two or more talkers is jammed, one reached by
exactly one takes the data, and a transmitting node is deaf for that slot.
A round pays only for the contention that happens, and a CD round
without echoers does no error-slot fold: ``_slot``, ``_data_half``,
``_ackers`` and the round routines state, beside their code, the
shortcuts they take and why each gives what the general rule gives.
Only the units a stage arms get a batch queue, and only in NoCD, whose
rounds alone read it, an address set.
"""

from __future__ import annotations

import json
import math
import random
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import IO, Iterable, Mapping, NamedTuple, Sequence

from .backbone import Backbone, validate_backbone
from .central import Plan, plan_multibroadcast, rumors_in
from .model import ModelError, NetworkGraph, jammed, kept

_EMPTY: Mapping = MappingProxyType({})  # a CD round's acks and verdicts


class DistributedError(ValueError):
    """Invalid simulator configuration or node state."""


@dataclass(frozen=True)
class SimConfig:
    """Knobs for the slot-based simulator.

    ``slot_factor`` scales the per-half slot count (slots = ceil(slot_factor
    * max degree)).  ``supplied_max_degree`` is the degree bound the nodes
    size their slots by; None means they know the true maximum degree.
    """

    slot_factor: float
    mode: str = "cd"
    seed: int = 0
    max_rounds: int = 10_000
    supplied_max_degree: int | None = None

    def __post_init__(self):
        if not 0 < self.slot_factor < math.inf:  # NaN fails too
            raise DistributedError("slot_factor must be finite and positive")
        if self.mode not in ("cd", "nocd"):
            raise DistributedError(f"unknown mode {self.mode!r}")
        if self.max_rounds < 1:
            raise DistributedError("max_rounds must be >= 1")
        if (self.supplied_max_degree is not None
                and self.supplied_max_degree < 1):
            raise DistributedError("supplied_max_degree must be >= 1")


def node_rng(seed: int, node_id: int | str) -> random.Random:
    """Deterministic per-node stream; string seeding is process-stable."""
    return random.Random(f"{seed}:{node_id}")


def slots_per_half(slot_factor: float, max_degree: int) -> int:
    """Slots per half-round: ceil(slot_factor * max_degree), at least 1."""
    if not slot_factor > 0:  # NaN fails too
        raise DistributedError(
            f"slot_factor must be positive, got {slot_factor}")
    try:
        return max(1, math.ceil(slot_factor * max_degree))
    except (OverflowError, ValueError):  # an inf, NaN or too large product
        raise DistributedError(f"slot_factor {slot_factor} times the max "
                               f"degree overflows the slot count") from None


def slot_count(g: NetworkGraph, cfg: SimConfig) -> int:
    """``slots_per_half`` of the supplied degree bound, or of the true
    maximum degree when none is supplied; kept on the graph for the latest
    ``cfg``, so the rounds of a run compute it once."""
    return kept(g, "_slot_count", cfg, slots_per_half, cfg.slot_factor,
                cfg.supplied_max_degree or g.max_degree)


class NodeState:
    """Mutable per-node simulator state.

    ``held`` is the mask of the rumors the node holds, ``pending`` queues
    the masks of the batches still to send, and ``awaiting_ack`` the
    listeners that must still confirm the front one.  Both start empty
    and read-only; a run gives the units it arms a deque, and in NoCD a
    set; a CD run leaves every ``awaiting_ack`` the shared empty one.
    ``rng_stream`` is ``node_rng(seed, node)``, built on the node's first
    draw, and ``_getrandbits`` is that stream's own bound ``getrandbits``,
    None until then: the stream's method, not the state's, so a state
    holds no reference cycle and is freed without the cyclic collector.
    """

    __slots__ = ("held", "pending", "awaiting_ack", "_seed", "_node", "_rng",
                 "_getrandbits")

    def __init__(self, seed: int, node: int | str):
        self.held = 0
        self.pending: deque | tuple = ()
        self.awaiting_ack: set | frozenset = frozenset()
        self._seed = seed
        self._node = node
        self._rng: random.Random | None = None
        self._getrandbits = None

    @property
    def rng_stream(self) -> random.Random:
        if self._rng is None:
            self._rng = node_rng(self._seed, self._node)
            self._getrandbits = self._rng.getrandbits
        return self._rng


def init_states(g: NetworkGraph, cfg: SimConfig) -> dict:
    """A fresh state per node."""
    return {u: NodeState(cfg.seed, u) for u in g.node_ids}


class SlotRecord(NamedTuple):
    """One transmission event, for JSONL traces."""

    round: int
    slot: int
    transmitter: int | str
    kind: str  # data | error | ack
    receivers_ok: tuple
    receivers_collided: tuple

    def to_json(self) -> str:
        """One JSON object, its keys in sorted order."""
        return json.dumps({
            "kind": self.kind, "receivers_collided": self.receivers_collided,
            "receivers_ok": self.receivers_ok, "round": self.round,
            "slot": self.slot, "transmitter": self.transmitter})


@dataclass
class RoundLog:
    """What one simulated round did.

    ``slots`` holds ``(kind, slot, talkers, jam)`` for each data or error
    slot in trace order, with ``_slot``'s jam mask; talkers are deaf.
    ``acks`` maps each acker to its ack slot, in trace order, and
    ``verdicts`` maps an addressed acker to the sorted senders its ack
    reached and the sorted senders where it was jammed; an acker missing
    from it reached and was jammed at none.  A CD round has neither.
    ``records``, the round's ``SlotRecord``s, is built from them on first
    read and then cached, so a run that never reads it builds none.
    """

    succeeded: frozenset
    data_messages: int
    control_messages: int
    collisions_heard: int
    graph: NetworkGraph = field(repr=False)
    round_index: int
    slots: tuple
    acks: Mapping
    verdicts: Mapping

    @cached_property
    def records(self) -> tuple[SlotRecord, ...]:
        t = self.round_index
        index = self.graph.node_index
        records = []
        for kind, s, talking, jam in self.slots:
            for u in talking:
                reached = [v for v in self.graph.adjacency[u]
                           if v not in talking]
                ok, bad = reached, []
                if jam and jam & self.graph.reach[u]:  # a neighbor is jammed
                    ok = []
                    for v in reached:
                        (bad if jam >> index[v] & 1 else ok).append(v)
                records.append(SlotRecord(t, s, u, kind, tuple(ok),
                                          tuple(bad)))
        for v, s in self.acks.items():
            ok, bad = self.verdicts.get(v, ((), ()))
            records.append(SlotRecord(t, s, v, "ack", tuple(ok), tuple(bad)))
        return tuple(records)


@dataclass(frozen=True)
class DistMetrics:
    """Aggregate outcome of a distributed run.

    ``retransmissions_per_node`` lists every unit of every stage the run
    armed: a failed round counts against a sender only when another
    round follows it.  A run that hits ``max_rounds`` stops at a stage it
    has armed, so when a stage ends at the cap, the next stage's units
    are listed too, with 0.
    """

    rounds: int
    data_messages: int
    control_messages: int
    retransmissions_per_node: Mapping[int | str, int]
    undelivered: frozenset
    collisions_heard: int = 0

    @property
    def delivered_everything(self) -> bool:
        return not self.undelivered

    def to_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "data_messages": self.data_messages,
            "control_messages": self.control_messages,
            "retransmissions_per_node": {
                str(k): v for k, v in
                sorted(self.retransmissions_per_node.items(), key=str)},
            "undelivered": [[node, {"source": r.source, "seq": r.seq}]
                            for node, r in sorted(self.undelivered, key=str)],
            "collisions_heard": self.collisions_heard,
        }


def _slot(g: NetworkGraph, talking: list) -> tuple[int, int]:
    """The talkers' node mask and the listeners two or more of them reach.

    Talkers are deaf, so they are never jammed: a reached node outside
    both masks hears exactly one talker.  One talker jams nobody, so a
    lone talker skips the fold.
    """
    index = g.node_index
    if len(talking) == 1:
        return 1 << index[talking[0]], 0
    deaf = 0
    for u in talking:
        deaf |= 1 << index[u]
    return deaf, jammed(g, talking) & ~deaf


def _by_slot(slot_of: Mapping) -> dict[int, list]:
    """Each used slot -> its talkers sorted, keyed in slot order."""
    talkers: dict = {}
    for s, u in sorted(zip(slot_of.values(), slot_of)):
        talkers.setdefault(s, []).append(u)
    return talkers


def _draws(states: Mapping, nodes: Iterable, half: int,
           first: int = 1) -> dict:
    """Each node's slot in ``first .. first + half - 1``, drawn from its
    own stream as ``first - 1 + randint(1, half)``, in node order.

    This is the method ``random.Random.randint`` itself uses, without its
    argument handling: ``getrandbits(k)`` for k the bit length of ``half``
    until the draw is below ``half``.  Every stream advances exactly as
    ``randint`` would advance it.  A seeded stream's ``getrandbits`` is
    called straight off its state; only a node's first draw goes through
    ``rng_stream``, which seeds the stream.
    """
    k = half.bit_length()
    drawn = {}
    for u in nodes:
        state = states[u]
        bits = state._getrandbits or state.rng_stream.getrandbits
        r = bits(k)
        while r >= half:
            r = bits(k)
        drawn[u] = first + r
    return drawn


def _data_half(g: NetworkGraph, states: Mapping, slot_of: Mapping,
               front: Mapping, slots: list) -> tuple[dict, int]:
    """First half-round: every sender sends its front batch in its slot.

    A listener that exactly one talker reaches takes the batch.  A talker
    whose reach meets no jammed or deaf node hands its batch to every
    neighbor in one plain pass; only the others test each listener.
    Appends each slot's ``("data", slot, talkers, jam)`` to ``slots``.
    Returns each listener's first collision slot and the collisions heard.
    """
    index = g.node_index
    reach = g.reach
    first_collision: dict = {}
    collisions_heard = 0
    for s, talking in _by_slot(slot_of).items():
        deaf, jam = _slot(g, talking)
        blocked = jam | deaf
        for u in talking:
            sent = front[u]
            if not reach[u] & blocked:
                for v in g.adjacency[u]:
                    states[v].held |= sent
                continue
            for v in g.adjacency[u]:
                bit = 1 << index[v]
                if bit & jam:
                    first_collision.setdefault(v, s)
                elif not bit & deaf:
                    states[v].held |= sent
        collisions_heard += jam.bit_count()
        slots.append(("data", s, talking, jam))
    return first_collision, collisions_heard


def _ackers(g: NetworkGraph, slots: list, slot_of: Mapping) -> Sequence:
    """The listeners that took a batch in the data ``slots`` and sent none,
    in id order, from id lists, since walking the n-bit node mask costs
    O(n): a lone sender's neighbors, listed in that order already, or else
    each talker's unjammed neighbors, all of them when it reaches no
    jammed node."""
    if len(slot_of) == 1:
        return g.adjacency[next(iter(slot_of))]
    index = g.node_index
    reach = g.reach
    got: list = []
    for _, _, talking, jam in slots:
        for u in talking:
            got += ([v for v in g.adjacency[u] if not jam >> index[v] & 1]
                    if reach[u] & jam else g.adjacency[u])
    return sorted(set(got).difference(slot_of))


def _open_round(g: NetworkGraph, states: Mapping, transmitters: Iterable,
                cfg: SimConfig, mode: str) -> tuple[list, int, dict, dict]:
    """Check a round's transmitters, then draw each one's data slot.

    Every transmitter must be a known node with a batch to send and, in
    NoCD, neighbors to address; all checks run before the first draw, so
    a rejected round advances no stream.  Returns the sorted senders, the
    slots per half-round, each sender's first-half slot, drawn in sender
    order, and its front batch's mask.
    """
    if cfg.mode != mode:
        raise DistributedError(f"run_round_{mode} needs cfg.mode == '{mode}'")
    senders = sorted(set(transmitters))
    front = {}
    for u in senders:
        if u not in g.adjacency:
            raise ModelError(f"unknown transmitter {u!r}")
        state = states[u]
        if not state.pending:
            raise DistributedError(f"transmitter {u!r} has no batch to send")
        if mode == "nocd":
            if not state.awaiting_ack:
                raise DistributedError(
                    f"transmitter {u!r} has nobody to address")
            extra = state.awaiting_ack.difference(g.adjacency[u])
            if extra:
                raise DistributedError(
                    f"transmitter {u!r} addresses non-neighbors "
                    f"{sorted(extra, key=str)}")
        front[u] = state.pending[0]
    half = slot_count(g, cfg)
    return senders, half, _draws(states, senders, half), front


def run_round_cd(g: NetworkGraph, states: Mapping, transmitters: Iterable,
                 cfg: SimConfig, *, round_index: int = 1) -> RoundLog:
    """One collision-detecting round.

    Each transmitter sends the front batch of its pending queue in a random
    first-half slot.  A listener that two or more senders reach in one
    slot notes a collision and, unless it transmitted data itself this
    round, echoes an error in the matching second-half slot (for the first
    collision it heard).  A sender declares success only if its entire
    second half was silent; successful senders pop their batch.  When a
    sender declares success, every neighbor that was listening during its
    slot has received the batch.
    """
    senders, half, slot_of, front = _open_round(g, states, transmitters,
                                                cfg, "cd")
    slots: list = []
    first_jam, collisions_heard = _data_half(g, states, slot_of, front, slots)

    echoers = {v: half + s for v, s in first_jam.items() if v not in slot_of}
    succeeded = senders  # a quiet round: nobody echoes, every sender wins
    if echoers:
        for s, yelling in _by_slot(echoers).items():
            _, jam = _slot(g, yelling)
            collisions_heard += jam.bit_count()
            slots.append(("error", s, yelling, jam))
        # a sender that heard no error slot declares success; senders never
        # echo, so a sender heard one exactly when it neighbors an echoer
        noisy = {v for y in echoers for v in g.adjacency[y]}
        succeeded = [u for u in senders if u not in noisy]
    for u in succeeded:
        states[u].pending.popleft()
    return RoundLog(succeeded=frozenset(succeeded),
                    data_messages=len(senders),
                    control_messages=len(echoers),
                    collisions_heard=collisions_heard, graph=g,
                    round_index=round_index, slots=tuple(slots),
                    acks=_EMPTY, verdicts=_EMPTY)


def run_round_nocd(g: NetworkGraph, states: Mapping, transmitters: Iterable,
                   cfg: SimConfig, *, round_index: int = 1) -> RoundLog:
    """One acknowledgement round.

    Each transmitter sends its front batch addressed to its awaiting_ack
    list.  Any listener with a clean reception takes the data; listeners
    that received something this round ack once in a random second-half
    slot.  An ack lands at a sender when the slot is free of the acker's
    neighborhood and of the sender's other in-neighbors, and the acker
    provably holds the whole batch; such listeners leave the list.  A
    transmitter whose list empties pops its batch.
    """
    senders, half, slot_of, front = _open_round(g, states, transmitters,
                                                cfg, "nocd")
    slots: list = []
    _, collisions_heard = _data_half(g, states, slot_of, front, slots)

    # every listener that received data acks once, in id order; ackers
    # never send data, so one slot each suffices
    ackers = _ackers(g, slots, slot_of)
    ack_slot = _draws(states, ackers, half, half + 1)
    sharing: dict = {}
    for v, s in ack_slot.items():
        sharing.setdefault(s, []).append(v)
    # sender by sender, so each acker's verdict lists come out sorted; the
    # walk copies the list, as an acked listener leaves it at once.  A rival
    # is another sharer that neighbors the acker or reaches the sender
    verdicts: dict = {}  # addressed acker -> (senders reached, jammed)
    adjacency = g.adjacency
    for u in senders:
        waiting = states[u].awaiting_ack
        for v in [v for v in waiting if v in ack_slot]:
            near = adjacency[v]
            for z in sharing[ack_slot[v]]:
                if z != v and (z in near or u in adjacency[z]):
                    side = 1
                    collisions_heard += 1
                    break
            else:
                if front[u] & ~states[v].held:
                    continue
                side = 0
                waiting.discard(v)
            if v not in verdicts:
                verdicts[v] = ([], [])
            verdicts[v][side].append(u)

    succeeded = [u for u in senders if not states[u].awaiting_ack]
    for u in succeeded:
        states[u].pending.popleft()
    return RoundLog(succeeded=frozenset(succeeded),
                    data_messages=len(senders),
                    control_messages=len(ackers),
                    collisions_heard=collisions_heard, graph=g,
                    round_index=round_index, slots=tuple(slots),
                    acks=ack_slot, verdicts=verdicts)


def _mask_of(plan: Plan):
    """Rumors -> the mask of them, bit i standing for ``plan.rumors[i]``."""
    bit = {r: 1 << i for i, r in enumerate(plan.rumors)}.__getitem__
    return lambda rumors: sum(map(bit, rumors))


def _collection_stages(plan: Plan):
    """Stages of (unit, batch masks, audience) triples, one per band of
    ``plan.collection`` with a loaded unit.

    Non-member sources first hand their rumors to their attach members,
    then each member depth band, deepest first, forwards whole subtree
    loads to parents.  Within a stage all units contend; a unit's audience
    is the single node that must confirm reception.
    """
    mask, c = _mask_of(plan), plan.compression

    def cut(load):  # into batch masks of at most c rumors
        return [mask(load[i:i + c]) for i in range(0, len(load), c)]

    stages = [[(u, cut(plan.load[u]), {plan.parent[u]})
               for u in band if plan.load[u]] for band in plan.collection]
    return [stage for stage in stages if stage]


def _distribution_stages(g: NetworkGraph, plan: Plan):
    """Stages of (unit, batch masks, audience): one per (chunk, band of
    ``plan.distribution``), each chunk's mask computed once.

    An audience excludes senders in the same or an earlier band, since
    those provably hold the chunk already (they relayed or are relaying
    it); a sender left with no audience sits the stage out.
    """
    bands = []
    holders: set = set()
    for level in plan.distribution:
        holders.update(level)
        band = [(m, {v for v in g.adjacency[m] if v not in holders})
                for m in level]
        bands.append([(m, audience) for m, audience in band if audience])
    mask = _mask_of(plan)
    return [[(m, [chunk], audience) for m, audience in band]
            for chunk in [mask(b.rumors) for b in plan.chunks]
            for band in bands if band]


def _prepare(g: NetworkGraph, bb: Backbone, sources: Sequence[int | str],
             compression: int) -> tuple[Plan, list]:
    """A run's checked plan and stages, kept on the graph (``model.kept``)
    for the latest (backbone, sources, compression factor), so the seeds
    of one experiment check and plan once.  Another backbone, other
    sources or another factor check and plan afresh and replace the entry;
    a failed check keeps nothing and leaves the previous entry in place.
    """
    sources = tuple(sources)
    return kept(g, "_distributed_prep", (bb, sources, compression),
                _checked_plan, g, bb, sources, compression)


def _checked_plan(g: NetworkGraph, bb: Backbone, sources: tuple,
                  compression: int) -> tuple[Plan, list]:
    """Check a run's inputs, then build its plan and its stages."""
    if compression < 1:
        raise DistributedError(
            f"compression factor must be >= 1, got {compression}")
    if not sources:
        raise DistributedError("no sources given")
    if not g.symmetric:
        raise DistributedError(
            "the distributed simulator needs a symmetric network")
    validate_backbone(g, bb)
    for s in sources:
        if s not in g.adjacency:
            raise ModelError(f"unknown source {s!r}")
    plan = plan_multibroadcast(g, bb, sources, compression)
    return plan, _collection_stages(plan) + _distribution_stages(g, plan)


def run_distributed_multibroadcast(g: NetworkGraph, bb: Backbone,
                                   sources: Sequence[int | str],
                                   compression: int, cfg: SimConfig,
                                   trace: IO | None = None) -> DistMetrics:
    """Gather all rumors to the backbone root and push them back out,
    driving every hop with the configured slot-based round routine.

    Stages run one at a time (no cross-stage pipelining): first non-member
    sources hand off to the backbone, then each depth band forwards subtree
    loads upward, then every repacked chunk ripples down band by band.
    Contention inside a stage is resolved by the randomized rounds.  When
    max_rounds runs out the metrics report whatever is still undelivered.
    With ``trace``, each round's slot records are written as JSONL lines.
    The checks, the plan and the stages come from ``_prepare``, so repeated
    seeds on one graph, backbone, source list and factor share them.
    """
    plan, stages = _prepare(g, bb, sources, compression)
    states = init_states(g, cfg)
    for i, r in enumerate(plan.rumors):  # bit i is plan.rumors[i]
        states[r.source].held |= 1 << i

    nocd = cfg.mode == "nocd"  # only NoCD rounds read the address sets
    run_round = run_round_nocd if nocd else run_round_cd
    rounds = data_messages = control_messages = collisions_heard = 0
    retx: dict = {}
    for stage in stages:
        active = {}  # each armed unit -> its audience
        for u, batches, audience in stage:
            states[u].pending = deque(batches)
            if nocd:
                states[u].awaiting_ack = set(audience)
            active[u] = audience
            retx.setdefault(u, 0)
        while active and rounds < cfg.max_rounds:
            rounds += 1
            log = run_round(g, states, active, cfg, round_index=rounds)
            if trace is not None:
                trace.writelines(rec.to_json() + "\n" for rec in log.records)
            data_messages += log.data_messages
            control_messages += log.control_messages
            collisions_heard += log.collisions_heard
            if rounds < cfg.max_rounds:  # a failed sender sends again
                for u in active:
                    if u not in log.succeeded:
                        retx[u] += 1
            for u in log.succeeded:
                if not states[u].pending:
                    del active[u]
                elif nocd:
                    states[u].awaiting_ack = set(active[u])
        if active:  # the round cap cut this stage short
            break

    everything = (1 << len(plan.rumors)) - 1
    undelivered = frozenset(
        (node, r) for node in g.node_ids
        for r in rumors_in(plan.rumors, everything & ~states[node].held))
    return DistMetrics(rounds=rounds, data_messages=data_messages,
                       control_messages=control_messages,
                       retransmissions_per_node=retx,
                       undelivered=undelivered,
                       collisions_heard=collisions_heard)
