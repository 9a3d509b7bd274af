"""Bitmask slot rounds against the set-based rounds they replaced.

The reference below is the earlier ``run_round_cd``/``run_round_nocd``
with their helpers: each node holds a set of rumors and a random stream
seeded up front, and every round builds its slot records as it goes.  On
random symmetric graphs with random pending batches (some batches shared
between senders), address lists and prior holdings, both run several
consecutive rounds and must agree on the records, the outcome counts,
every node's holdings, queue and address list, and the next draw of every
node's stream.  The reference holds ``Rumor`` sets and ``Batch`` queues,
the library rumor masks, bit i of a mask standing for ``pool[i]``.  The
same check runs on random directed graphs, where one-way links make a
listener's talkers differ from the nodes it reaches, and on one fixed
NoCD round in which three senders address one acker and a rival acker
jams only the middle sender's ack, and on fixed slots that send talkers
down both paths of the data half: the plain pass of a talker that reaches
no jammed or deaf node, and the per-listener test of the others.  The
``test_shortcut_`` tests pick talkers for the round shapes that need
little work (lone talkers, CD rounds without echoers, CD rounds whose
senders hear only the echoers they neighbor, single NoCD senders, lone
and shared slots together, NoCD senders with shared listeners whose
ackers share a slot, NoCD acks that share their slot with non-rivals),
count the jam folds a round makes and the slot sorts a CD round makes,
and check that a NoCD run never walks the n-bit node mask for its
ackers.  The last tests pin the draws that come straight off each node's
stream, and that a node state holds no bound method of its own.
"""

import gc
import io
import json
import random
from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from rumorcast import distributed
from rumorcast.backbone import greedy_cds
from rumorcast.central import Batch, Rumor
from rumorcast.distributed import (DistributedError, NodeState, SimConfig,
                                   SlotRecord, _ackers, _data_half, _draws,
                                   init_states, node_rng, run_round_cd,
                                   run_round_nocd, slot_count)
from rumorcast.fixtures import gen_ring_fixture
from rumorcast.model import ModelError, NetworkGraph, jammed

from reception_reference import hearing


# --- the set-based reference -----------------------------------------------

@dataclass
class RefState:
    held_rumors: set
    rng_stream: object
    pending: deque = field(default_factory=deque)
    awaiting_ack: set = field(default_factory=set)


@dataclass(frozen=True)
class RefLog:
    records: tuple
    succeeded: frozenset
    data_messages: int
    control_messages: int
    collisions_heard: int


def ref_states(g, cfg):
    return {u: RefState(set(), node_rng(cfg.seed, u)) for u in g.node_ids}


def ref_audible(g, talking):
    audible = hearing(g, talking)
    for u in talking:
        audible.pop(u, None)
    return audible


def ref_log_slot(g, records, round_index, slot, kind, talking, audible):
    for u in talking:
        reached = [v for v in g.adjacency[u] if v in audible]
        ok = tuple(sorted(v for v in reached if len(audible[v]) == 1))
        bad = tuple(sorted(v for v in reached if len(audible[v]) > 1))
        records.append(SlotRecord(round_index, slot, u, kind, ok, bad))


def ref_by_slot(slot_of):
    talkers = {}
    for u in sorted(slot_of):
        talkers.setdefault(slot_of[u], []).append(u)
    return dict(sorted(talkers.items()))


def ref_data_half(g, states, slot_of, records, round_index):
    got_data = set()
    first_collision = {}
    collisions_heard = 0
    for s, talking in ref_by_slot(slot_of).items():
        audible = ref_audible(g, talking)
        for v, heard in audible.items():
            if len(heard) == 1:
                states[v].held_rumors.update(states[heard[0]].pending[0].rumors)
                got_data.add(v)
            else:
                collisions_heard += 1
                first_collision.setdefault(v, s)
        ref_log_slot(g, records, round_index, s, "data", talking, audible)
    return got_data, first_collision, collisions_heard


def ref_open_round(g, states, transmitters, cfg, mode):
    if cfg.mode != mode:
        raise DistributedError(f"run_round_{mode} needs cfg.mode == '{mode}'")
    senders = sorted(set(transmitters))
    for u in senders:
        if u not in g.adjacency:
            raise ModelError(f"unknown transmitter {u!r}")
        if not states[u].pending:
            raise DistributedError(f"transmitter {u!r} has no batch to send")
    half = slot_count(g, cfg)
    return senders, half, {u: states[u].rng_stream.randint(1, half)
                           for u in senders}


def ref_round_cd(g, states, transmitters, cfg, *, round_index=1):
    senders, half, slot_of = ref_open_round(g, states, transmitters, cfg,
                                            "cd")
    records = []
    _, first_collision, collisions_heard = ref_data_half(
        g, states, slot_of, records, round_index)

    echoers = {v: half + first_collision[v] for v in first_collision
               if v not in slot_of}
    noisy = set()
    for s, yelling in ref_by_slot(echoers).items():
        audible = ref_audible(g, yelling)
        collisions_heard += sum(1 for heard in audible.values()
                                if len(heard) > 1)
        noisy.update(audible)
        ref_log_slot(g, records, round_index, s, "error", yelling, audible)

    succeeded = set()
    for u in senders:
        if u not in noisy:
            succeeded.add(u)
            states[u].pending.popleft()
    return RefLog(records=tuple(records), succeeded=frozenset(succeeded),
                  data_messages=len(senders), control_messages=len(echoers),
                  collisions_heard=collisions_heard)


def ref_round_nocd(g, states, transmitters, cfg, *, round_index=1):
    senders, half, slot_of = ref_open_round(g, states, transmitters, cfg,
                                            "nocd")
    for u in senders:
        if not states[u].awaiting_ack:
            raise DistributedError(f"transmitter {u!r} has nobody to address")
        extra = states[u].awaiting_ack - set(g.adjacency[u])
        if extra:
            raise DistributedError(
                f"transmitter {u!r} addresses non-neighbors "
                f"{sorted(extra, key=str)}")
    records = []
    got_data, _, collisions_heard = ref_data_half(
        g, states, slot_of, records, round_index)

    ackers = sorted(v for v in got_data if v not in slot_of)
    ack_slot = {v: half + states[v].rng_stream.randint(1, half)
                for v in ackers}
    listed_by = {v: [u for u in senders if v in states[u].awaiting_ack]
                 for v in ackers}
    sharing = ref_by_slot(ack_slot)
    for v in ackers:
        ok = []
        bad = []
        for u in listed_by[v]:
            rivals = [z for z in sharing[ack_slot[v]]
                      if z != v
                      and (z in g.adjacency[v] or u in g.adjacency[z])]
            if rivals:
                bad.append(u)
                collisions_heard += 1
            elif set(states[u].pending[0].rumors) <= states[v].held_rumors:
                ok.append(u)
                states[u].awaiting_ack.discard(v)
        records.append(SlotRecord(round_index, ack_slot[v], v, "ack",
                                  tuple(sorted(ok)), tuple(sorted(bad))))

    succeeded = set()
    for u in senders:
        if not states[u].awaiting_ack:
            succeeded.add(u)
            states[u].pending.popleft()
    return RefLog(records=tuple(records), succeeded=frozenset(succeeded),
                  data_messages=len(senders), control_messages=len(ackers),
                  collisions_heard=collisions_heard)


# --- random instances ------------------------------------------------------

@st.composite
def instances(draw, directed=False, mode=None, named=False, min_nodes=2):
    """A random graph on ``min_nodes`` to 8 nodes with a rumor pool,
    batches and a config; ``mode`` fixes the mode, and ``named`` gives the
    nodes string ids, whose set iteration order depends on the hash seed."""
    n = draw(st.integers(min_value=min_nodes, max_value=8))
    ids = [f"n{u}" for u in range(n)] if named else list(range(n))
    adj = {u: set() for u in ids}
    for i, u in enumerate(ids):
        for v in ids[i + 1:]:
            if directed:
                if draw(st.booleans()):
                    adj[u].add(v)
                if draw(st.booleans()):
                    adj[v].add(u)
            elif draw(st.booleans()):
                adj[u].add(v)
                adj[v].add(u)
    g = NetworkGraph.from_adjacency({u: sorted(vs) for u, vs in adj.items()})
    pool = [Rumor(u, seq) for u in ids for seq in range(2)]
    batches = [Batch(tuple(sorted(draw(st.sets(st.sampled_from(pool),
                                               min_size=1, max_size=4)))))
               for _ in range(draw(st.integers(1, 4)))]
    cfg = SimConfig(slot_factor=draw(st.sampled_from([0.5, 1.0, 1.5, 3.0])),
                    mode=mode or draw(st.sampled_from(["cd", "nocd"])),
                    seed=draw(st.integers(0, 2 ** 30)))
    return g, pool, batches, cfg


def mask_of(pool, rumors):
    """The mask of ``rumors``, bit i standing for ``pool[i]``."""
    return sum(1 << pool.index(r) for r in rumors)


def load(draw, g, pool, batches, cfg, ref, new):
    """Give both state maps the same random queues, lists and holdings."""
    for u in g.node_ids:
        if draw(st.integers(0, 3)) == 0:
            held = draw(st.sets(st.sampled_from(pool)))
            ref[u].held_rumors = set(held)
            new[u].held = mask_of(pool, held)
        if not ref[u].pending and draw(st.booleans()):
            queue = draw(st.lists(st.sampled_from(batches), min_size=1,
                                  max_size=3))
            ref[u].pending = deque(queue)
            new[u].pending = deque(mask_of(pool, b.rumors) for b in queue)
        if (cfg.mode == "nocd" and ref[u].pending and g.adjacency[u]
                and (not ref[u].awaiting_ack or draw(st.booleans()))):
            audience = draw(st.sets(st.sampled_from(g.adjacency[u]),
                                    min_size=1))
            ref[u].awaiting_ack = set(audience)
            new[u].awaiting_ack = set(audience)


def same_nodes(g, pool, ref, new):
    for u in g.node_ids:
        assert new[u].held == mask_of(pool, ref[u].held_rumors), u
        assert list(new[u].pending) == [mask_of(pool, b.rumors)
                                        for b in ref[u].pending], u
        assert new[u].awaiting_ack == ref[u].awaiting_ack, u


@settings(max_examples=250, deadline=None)
@given(instances(), st.data())
def test_rounds_match_the_set_based_reference(instance, data):
    check_rounds(instance, data)


@settings(max_examples=250, deadline=None)
@given(instances(directed=True), st.data())
def test_rounds_match_the_set_based_reference_on_one_way_links(instance,
                                                               data):
    check_rounds(instance, data)


def any_talkers(draw, g, ref, eligible, half):
    return draw(st.sets(st.sampled_from(eligible), min_size=1))


def check_rounds(instance, data, pick=any_talkers):
    """Run both sides for up to six rounds on the talkers ``pick`` draws
    from the eligible nodes (None skips the round); returns the logs of
    the rounds run."""
    g, pool, batches, cfg = instance
    ref = ref_states(g, cfg)
    new = init_states(g, cfg)
    run_ref = ref_round_cd if cfg.mode == "cd" else ref_round_nocd
    run_new = run_round_cd if cfg.mode == "cd" else run_round_nocd
    logs = []
    for t in range(1, data.draw(st.integers(1, 6)) + 1):
        load(data.draw, g, pool, batches, cfg, ref, new)
        eligible = [u for u in g.node_ids if ref[u].pending
                    and (cfg.mode == "cd" or ref[u].awaiting_ack)]
        if not eligible:
            continue
        talkers = pick(data.draw, g, ref, eligible, slot_count(g, cfg))
        if talkers is None:
            continue
        want = run_ref(g, ref, talkers, cfg, round_index=t)
        got = run_new(g, new, talkers, cfg, round_index=t)
        assert ([r.to_json() for r in got.records]
                == [r.to_json() for r in want.records])
        assert got.succeeded == want.succeeded
        assert got.data_messages == want.data_messages
        assert got.control_messages == want.control_messages
        assert got.collisions_heard == want.collisions_heard
        same_nodes(g, pool, ref, new)
        logs.append(got)
    for u in g.node_ids:
        assert new[u].rng_stream.random() == ref[u].rng_stream.random(), u
    return logs


def test_ack_verdicts_keep_sender_order():
    # "a", "b" and "c" each send one batch to "v" in their own data slot;
    # "b" also addresses "z", its only neighbor.  Seed 0 puts the acks of
    # "v" and "z" in one slot, which jams "b" (a neighbor of "z") but not
    # "a" or "c", so the acker's verdicts split around the middle sender.
    g = NetworkGraph.from_adjacency({"v": ["a", "b", "c"], "a": ["v"],
                                     "b": ["v", "z"], "c": ["v"],
                                     "z": ["b"]})
    cfg = SimConfig(slot_factor=1.0, mode="nocd", seed=0)
    ref = ref_states(g, cfg)
    new = init_states(g, cfg)
    pool = [Rumor(u, 0) for u in "abc"]
    for u, rumor in zip("abc", pool):
        ref[u].pending = deque([Batch((rumor,))])
        new[u].pending = deque([mask_of(pool, [rumor])])
        for states in (ref, new):
            states[u].awaiting_ack = {"v", "z"} & set(g.adjacency[u])
    want = ref_round_nocd(g, ref, "cba", cfg)
    got = run_round_nocd(g, new, "cba", cfg)
    assert ([r.to_json() for r in got.records]
            == [r.to_json() for r in want.records])
    acks = {r.transmitter: r for r in got.records if r.kind == "ack"}
    assert acks["v"].slot == acks["z"].slot
    assert acks["v"].receivers_ok == ("a", "c")
    assert acks["v"].receivers_collided == ("b",)
    assert acks["z"].receivers_collided == ("b",)
    assert got.succeeded == want.succeeded == {"a", "c"}
    assert got.collisions_heard == want.collisions_heard
    same_nodes(g, pool, ref, new)


# In slot 1 "A" reaches its co-talker "B", "J", which "B" jams, and "K";
# "D" reaches only "L" and "M", which no other talker reaches.  In slot 2
# "E" and "F" jam "J" again and "P" for the first time, while "K" and "N"
# hear one of them
BOTH_PATHS = {"A": ["B", "J", "K"], "B": ["A", "J"], "D": ["L", "M"],
              "E": ["J", "K", "P"], "F": ["J", "N", "P"],
              "J": ["A", "B", "E", "F"], "K": ["A", "E"], "L": ["D"],
              "M": ["D"], "N": ["F"], "P": ["E", "F"]}
BOTH_PATHS_ACKS = {"A": {"K"}, "B": {"J"}, "D": {"L", "M"}, "E": {"P"},
                   "F": {"N"}}


def both_paths_states(mode):
    g = NetworkGraph.from_adjacency(BOTH_PATHS)
    # one slot per half-round: every sender talks in slot 1
    cfg = SimConfig(slot_factor=0.25, mode=mode, seed=3)
    assert slot_count(g, cfg) == 1
    pool = [Rumor(u, 0) for u in sorted(BOTH_PATHS_ACKS)]
    ref = ref_states(g, cfg)
    new = init_states(g, cfg)
    for u, rumor in zip(sorted(BOTH_PATHS_ACKS), pool):
        ref[u].pending = deque([Batch((rumor,))])
        new[u].pending = deque([mask_of(pool, [rumor])])
        ref[u].awaiting_ack = set(BOTH_PATHS_ACKS[u])
        new[u].awaiting_ack = set(BOTH_PATHS_ACKS[u])
    return g, cfg, pool, ref, new


def test_data_half_takes_both_paths_as_the_reference_does():
    g, _, pool, ref, new = both_paths_states("cd")
    slot_of = {"A": 1, "B": 1, "D": 1, "E": 2, "F": 2}
    want_got, want_first, want_heard = ref_data_half(g, ref, slot_of, [], 1)
    slots = []
    first, heard = _data_half(
        g, new, slot_of, {u: new[u].pending[0] for u in slot_of}, slots)
    got = _ackers(g, slots, slot_of)
    assert first == want_first == {"J": 1, "P": 2}
    # the listeners that got data and sent none, as ids
    assert set(got).difference(slot_of) == want_got - set(slot_of)
    assert want_got == {"K", "L", "M", "N"}
    assert heard == want_heard
    same_nodes(g, pool, ref, new)


@pytest.mark.parametrize("mode", ["cd", "nocd"])
def test_rounds_with_both_data_paths_match_the_reference(mode):
    g, cfg, pool, ref, new = both_paths_states(mode)
    run_ref = ref_round_cd if mode == "cd" else ref_round_nocd
    run_new = run_round_cd if mode == "cd" else run_round_nocd
    want = run_ref(g, ref, BOTH_PATHS_ACKS, cfg)
    got = run_new(g, new, BOTH_PATHS_ACKS, cfg)
    assert ([r.to_json() for r in got.records]
            == [r.to_json() for r in want.records])
    by_kind = {}
    for r in got.records:
        by_kind.setdefault(r.kind, []).append(r.transmitter)
    if mode == "cd":  # each jammed listener echoes in slot 1 + 1
        assert by_kind["error"] == ["J", "K", "P"]
        assert {r.slot for r in got.records if r.kind == "error"} == {2}
    else:  # the clean listeners ack, in sorted order
        assert by_kind["ack"] == ["L", "M", "N"]
    assert got.succeeded == want.succeeded
    assert got.collisions_heard == want.collisions_heard
    same_nodes(g, pool, ref, new)


# --- the shortcuts against the reference -----------------------------------
#
# A round skips work that cannot change its outcome: a slot with one
# talker skips the jam fold, a CD round without echoers has no error
# slot, and a NoCD round with one sender takes its ackers from the
# sender's neighbor list.  Each test below picks talkers so that the round
# has one of these shapes, and checks it against the reference.
# The nodes have string ids, whose set order follows the hash seed, so
# the tests are worth running under more than one.

def next_slot(state, half):
    """The data slot ``state``'s stream draws next; the stream is left as
    it is."""
    rng = random.Random()
    rng.setstate(state.rng_stream.getstate())
    return rng.randint(1, half)


def anyone_jammed(g, slot_of):
    """Whether a listener hears two talkers of one slot, by the reference
    rule."""
    return any(len(heard) > 1
               for talking in ref_by_slot(slot_of).values()
               for heard in ref_audible(g, talking).values())


def distinct_slots(draw, g, ref, eligible, half):
    # the drawn nodes, keeping the first of each slot
    talkers = {}
    for u in draw(st.lists(st.sampled_from(eligible), min_size=1)):
        talkers.setdefault(next_slot(ref[u], half), u)
    return set(talkers.values())


def nobody_jammed(draw, g, ref, eligible, half):
    # the drawn nodes, each kept unless it jams a listener
    slot_of = {}
    for u in draw(st.lists(st.sampled_from(eligible), min_size=1)):
        trial = {**slot_of, u: next_slot(ref[u], half)}
        if not anyone_jammed(g, trial):
            slot_of = trial
    return set(slot_of) or None


def one_sender(draw, g, ref, eligible, half):
    return {draw(st.sampled_from(eligible))}


def lone_and_shared_slots(draw, g, ref, eligible, half):
    # two or more nodes of one slot, and one node each of other slots
    by_slot = {}
    for u in eligible:
        by_slot.setdefault(next_slot(ref[u], half), []).append(u)
    shared = [s for s in sorted(by_slot) if len(by_slot[s]) > 1]
    others = [s for s in sorted(by_slot) if s not in shared[:1]]
    if not shared or not others:
        return None
    talkers = set(draw(st.sets(st.sampled_from(by_slot[shared[0]]),
                               min_size=2)))
    for s in draw(st.sets(st.sampled_from(others), min_size=1)):
        talkers.add(draw(st.sampled_from(by_slot[s])))
    return talkers


def data_slots(log):
    return [(talking, jam) for kind, _, talking, jam in log.slots
            if kind == "data"]


@settings(max_examples=100, deadline=None)
@given(instances(named=True), st.data())
def test_shortcut_rounds_of_lone_talkers_match_the_reference(instance, data):
    for log in check_rounds(instance, data, distinct_slots):
        assert all(len(talking) == 1 and jam == 0
                   for talking, jam in data_slots(log))


@settings(max_examples=100, deadline=None)
@given(instances(mode="cd", named=True), st.data())
def test_shortcut_quiet_cd_rounds_match_the_reference(instance, data):
    for log in check_rounds(instance, data, nobody_jammed):
        assert log.succeeded == frozenset(
            u for talking, _ in data_slots(log) for u in talking)
        assert log.control_messages == log.collisions_heard == 0
        assert all(kind == "data" for kind, *_ in log.slots)


@settings(max_examples=100, deadline=None)
@given(instances(mode="nocd", named=True), st.data())
def test_shortcut_single_sender_nocd_rounds_match_the_reference(instance,
                                                                data):
    g = instance[0]
    for log in check_rounds(instance, data, one_sender):
        [([u], jam)] = data_slots(log)
        assert jam == 0
        assert list(log.acks) == list(g.adjacency[u])


@settings(max_examples=100, deadline=None)
@given(instances(named=True), st.data())
def test_shortcut_rounds_of_lone_and_shared_slots_match_the_reference(
        instance, data):
    logs = check_rounds(instance, data, lone_and_shared_slots)
    assume(logs)
    for log in logs:
        sizes = [len(talking) for talking, _ in data_slots(log)]
        assert 1 in sizes and max(sizes) > 1


@pytest.mark.parametrize("mode", ["cd", "nocd"])
def test_shortcut_lone_data_slots_never_call_jammed(monkeypatch, mode):
    # the BOTH_PATHS senders with two slots per half-round, on the first
    # seed whose draws give one slot to a lone sender and the other to
    # several: every slot with two or more talkers, data or error, folds
    # their reach masks, and no other slot does
    g = NetworkGraph.from_adjacency(BOTH_PATHS)
    senders = sorted(BOTH_PATHS_ACKS)
    seed = next(seed for seed in range(100)
                if sorted(Counter(node_rng(seed, u).randint(1, 2)
                                  for u in senders).values()) == [1, 4])
    cfg = SimConfig(slot_factor=0.5, mode=mode, seed=seed)
    assert slot_count(g, cfg) == 2
    states = init_states(g, cfg)
    for i, u in enumerate(senders):
        states[u].pending = deque([1 << i])
        states[u].awaiting_ack = set(BOTH_PATHS_ACKS[u])
    folded = []

    def counting(g, talkers):
        folded.append(list(talkers))
        return jammed(g, talkers)

    monkeypatch.setattr(distributed, "jammed", counting)
    run_round = run_round_cd if mode == "cd" else run_round_nocd
    log = run_round(g, states, senders, cfg)
    assert sorted(len(talking) for talking, _ in data_slots(log)) == [1, 4]
    assert folded == [talking for _, _, talking, _ in log.slots
                      if len(talking) > 1]
    assert any(len(talking) == 4 for talking in folded)


def senders_sharing_listeners(draw, g, ref, eligible, half):
    # two or more senders with a listener in common, and two listeners that
    # hear a sender cleanly and would draw one ack slot: a sender's stream
    # tells its data slot in advance, and a listener that sends nothing
    # draws its ack slot next.  The talkers are drawn among the sets of
    # eligible nodes that give such a round, so a round is thrown away only
    # when no set does
    slot = {u: next_slot(ref[u], half) for u in g.node_ids}

    def fits(talkers):
        heard = Counter(v for u in talkers for v in g.adjacency[u]
                        if v not in talkers)
        if max(heard.values(), default=0) < 2:
            return False
        by_slot = ref_by_slot({u: slot[u] for u in talkers})
        clean = {v for talking in by_slot.values()
                 for v, senders in ref_audible(g, talking).items()
                 if len(senders) == 1 and v not in talkers}
        return max(Counter(slot[v] for v in clean).values(), default=0) > 1

    sets = [set(c) for size in range(2, len(eligible) + 1)
            for c in combinations(eligible, size) if fits(c)]
    return draw(st.sampled_from(sets)) if sets else None


@settings(max_examples=100, deadline=None)
@given(instances(mode="nocd", named=True, min_nodes=4), st.data())
def test_shortcut_multi_sender_nocd_rounds_match_the_reference(instance,
                                                               data):
    # the ackers come from the senders' neighbor lists, and only ackers
    # that share a slot scan for rivals.  Two senders and two ackers need
    # four nodes, so smaller graphs could only be thrown away
    logs = check_rounds(instance, data, senders_sharing_listeners)
    assume(any(len(set(log.acks.values())) < len(log.acks) for log in logs))
    for log in logs:
        assert sum(len(talking) for talking, _ in data_slots(log)) > 1


def test_shortcut_nocd_runs_never_walk_the_node_mask(monkeypatch):
    # the ring's eight tips are sources that hand off to the backbone
    # together, so the run has rounds with several senders
    g = gen_ring_fixture(8)
    tips = [f"t{i}" for i in range(8)]
    walked = []

    def counting(rumors, mask):
        walked.append(rumors is g.node_ids)
        return rumors_in(rumors, mask)

    rumors_in = distributed.rumors_in
    monkeypatch.setattr(distributed, "rumors_in", counting)
    buf = io.StringIO()
    cfg = SimConfig(slot_factor=1.0, mode="nocd", seed=4)
    metrics = distributed.run_distributed_multibroadcast(
        g, greedy_cds(g), tips, 2, cfg, trace=buf)
    assert metrics.delivered_everything
    talkers = Counter(r["round"] for r in map(json.loads,
                                              buf.getvalue().splitlines())
                      if r["kind"] == "data")
    assert max(talkers.values()) > 1
    assert walked and not any(walked)


def test_shortcut_cd_senders_hear_only_the_echoers_they_neighbor():
    # one slot per half-round, so every sender talks in slot 1: "a", "b"
    # and "d" jam "x", which echoes to its neighbors "a" and "b" only ("d"
    # reaches "x" one way); "c" reaches only "y", which hears it alone.  A
    # sender fails exactly when it is a neighbor of an echoer
    g = NetworkGraph.from_adjacency({"a": ["x"], "b": ["x"], "c": ["y"],
                                     "d": ["x"], "x": ["a", "b"],
                                     "y": ["c"]})
    cfg = SimConfig(slot_factor=0.25, mode="cd", seed=5)
    assert slot_count(g, cfg) == 1
    pool = [Rumor(u, 0) for u in "abcd"]
    ref = ref_states(g, cfg)
    new = init_states(g, cfg)
    for u, rumor in zip("abcd", pool):
        ref[u].pending = deque([Batch((rumor,))])
        new[u].pending = deque([mask_of(pool, [rumor])])
    want = ref_round_cd(g, ref, "dcba", cfg)
    got = run_round_cd(g, new, "dcba", cfg)
    assert ([r.to_json() for r in got.records]
            == [r.to_json() for r in want.records])
    [error] = [r for r in got.records if r.kind == "error"]
    assert (error.transmitter, error.receivers_ok) == ("x", ("a", "b"))
    assert got.succeeded == want.succeeded == {"c", "d"}
    assert got.collisions_heard == want.collisions_heard == 1
    same_nodes(g, pool, ref, new)


def test_shortcut_quiet_cd_rounds_never_enter_the_error_fold(monkeypatch):
    # the BOTH_PATHS senders with four slots per half-round, round after
    # round until every batch is out, on several seeds: a round sorts its
    # talkers by slot once for the data half and once more only for its
    # error slots, so a round without echoers sorts once, and every round
    # matches the reference
    g = NetworkGraph.from_adjacency(BOTH_PATHS)
    senders = sorted(BOTH_PATHS_ACKS)
    pool = [Rumor(u, 0) for u in senders]
    sorts = []
    by_slot = distributed._by_slot

    def counting(slot_of):
        sorts.append(dict(slot_of))
        return by_slot(slot_of)

    monkeypatch.setattr(distributed, "_by_slot", counting)
    echoed = Counter()
    for seed in range(8):
        cfg = SimConfig(slot_factor=1.0, mode="cd", seed=seed)
        assert slot_count(g, cfg) == 4
        ref = ref_states(g, cfg)
        new = init_states(g, cfg)
        for u, rumor in zip(senders, pool):
            ref[u].pending = deque([Batch((rumor,))])
            new[u].pending = deque([mask_of(pool, [rumor])])
        for t in range(1, 200):
            talkers = [u for u in senders if ref[u].pending]
            if not talkers:
                break
            sorts.clear()
            want = ref_round_cd(g, ref, talkers, cfg, round_index=t)
            got = run_round_cd(g, new, talkers, cfg, round_index=t)
            assert ([r.to_json() for r in got.records]
                    == [r.to_json() for r in want.records])
            assert got.succeeded == want.succeeded
            assert got.control_messages == want.control_messages
            assert got.collisions_heard == want.collisions_heard
            same_nodes(g, pool, ref, new)
            loud = got.control_messages > 0
            assert len(sorts) == 1 + loud
            assert all(s > 4 for error_slots in sorts[1:]
                       for s in error_slots.values())
            echoed[loud] += 1
        assert not any(new[u].pending for u in senders)
    assert echoed[True] and echoed[False]


def someone_echoes(draw, g, ref, eligible, half):
    # two or more talkers that jam a listener which sends no data, so it
    # echoes
    if len(eligible) < 2:
        return None
    talkers = draw(st.sets(st.sampled_from(eligible), min_size=2))
    slot_of = {u: next_slot(ref[u], half) for u in talkers}
    if not any(len(heard) > 1 and v not in talkers
               for talking in ref_by_slot(slot_of).values()
               for v, heard in ref_audible(g, talking).items()):
        return None
    return talkers


@settings(max_examples=100, deadline=None)
@given(instances(mode="cd", named=True), st.data())
def test_shortcut_cd_rounds_with_echoers_match_the_reference(instance, data):
    # the senders that hear an error slot are the echoers' neighbors, a set
    # of string ids
    logs = check_rounds(instance, data, someone_echoes)
    assume(logs)
    for log in logs:
        assert log.control_messages > 0


def fixed_nocd_round(adjacency, addressed):
    """One NoCD round of one slot per half-round, so every sender talks in
    slot 1 and every acker acks in slot 2; each sender sends its own
    rumor to its ``addressed`` list.  Checked against the reference."""
    g = NetworkGraph.from_adjacency(adjacency)
    cfg = SimConfig(slot_factor=0.25, mode="nocd", seed=2)
    assert slot_count(g, cfg) == 1
    pool = [Rumor(u, 0) for u in sorted(addressed)]
    ref = ref_states(g, cfg)
    new = init_states(g, cfg)
    for u, rumor in zip(sorted(addressed), pool):
        ref[u].pending = deque([Batch((rumor,))])
        new[u].pending = deque([mask_of(pool, [rumor])])
        ref[u].awaiting_ack = set(addressed[u])
        new[u].awaiting_ack = set(addressed[u])
    want = ref_round_nocd(g, ref, addressed, cfg)
    got = run_round_nocd(g, new, addressed, cfg)
    assert ([r.to_json() for r in got.records]
            == [r.to_json() for r in want.records])
    assert got.succeeded == want.succeeded
    assert got.collisions_heard == want.collisions_heard
    same_nodes(g, pool, ref, new)
    assert len(set(got.acks.values())) == 1
    return got, {r.transmitter: r for r in got.records if r.kind == "ack"}


def test_shortcut_nocd_acker_passes_a_non_rival_before_its_rival():
    # "s" addresses "v" and "t" addresses "n"; "n", "r" and "v" all ack in
    # slot 2, in that order.  For "v" at "s", "n" is no rival (it neither
    # neighbors "v" nor reaches "s") and "r" is one (it reaches "s"), so
    # the scan must pass "n" and go on to "r"; "n" lands at "t"
    log, acks = fixed_nocd_round(
        {"n": ["t"], "r": ["s"], "s": ["r", "v"], "t": ["n"], "v": ["s"]},
        {"s": {"v"}, "t": {"n"}})
    assert list(acks) == ["n", "r", "v"]
    assert (acks["v"].receivers_ok, acks["v"].receivers_collided) == (
        (), ("s",))
    assert (acks["n"].receivers_ok, acks["n"].receivers_collided) == (
        ("t",), ())
    assert log.succeeded == {"t"}
    assert log.collisions_heard == 1


def test_shortcut_nocd_acks_shared_only_with_non_rivals_land():
    # three sender-listener pairs far apart: all three acks share slot 2,
    # but no sharer neighbors another acker or reaches its sender
    log, acks = fixed_nocd_round(
        {"m": ["w"], "n": ["t"], "s": ["v"], "t": ["n"], "v": ["s"],
         "w": ["m"]},
        {"s": {"v"}, "t": {"n"}, "w": {"m"}})
    assert {v: r.receivers_ok for v, r in acks.items()} == {
        "m": ("w",), "n": ("t",), "v": ("s",)}
    assert log.succeeded == {"s", "t", "w"}
    assert log.collisions_heard == 0


@pytest.mark.parametrize("seeded_first", [False, True])
def test_draws_come_straight_off_each_node_stream(seeded_first):
    # with the stream seeded by the first draw, or by an earlier read of
    # rng_stream that drew nothing
    nodes = ["a", "hub", 3, 41]
    states = {u: NodeState(9, u) for u in nodes}
    if seeded_first:
        for u in nodes:
            assert states[u].rng_stream is states[u].rng_stream
    refs = {u: node_rng(9, u) for u in nodes}
    for half in (1, 2, 3, 8, 13, 100):
        assert _draws(states, nodes, half) == {
            u: refs[u].randint(1, half) for u in nodes}
    for u in nodes:
        assert states[u].rng_stream.random() == refs[u].random()


def test_node_states_hold_no_bound_method_of_their_own():
    # a state that held one of its own bound methods would be a reference
    # cycle, left to the cyclic collector
    state = NodeState(0, "a")
    _draws({"a": state}, ["a"], 5)
    held = gc.get_referents(state)
    assert state.rng_stream in held
    assert not any(getattr(r, "__self__", None) is state for r in held)
