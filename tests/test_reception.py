"""One reception rule: ``model.jammed`` against the rules it replaced.

The references below keep the older formulations: a per-listener scan of
in-neighbour lists for who hears whom, and a pairwise scan over the other
senders of a round for jamming.  Both are checked on directed graphs with
asymmetric links, against the slot protocols' deaf and jam masks and the
centralized simulator.  A graph made with the public ``NetworkGraph``
constructor must behave exactly like the ``from_adjacency`` one.
"""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from rumorcast.central import Batch, Rumor, Schedule, Transmission, rumors_in, simulate_schedule
from rumorcast.distributed import (
    SimConfig,
    _slot,
    init_states,
    run_round_cd,
    run_round_nocd,
)
from rumorcast.model import NetworkGraph

from reception_reference import delivery_times, hearing, holder_sets


@st.composite
def digraphs(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1),
                                   st.integers(0, n - 1)), max_size=40))
    return NetworkGraph.from_adjacency(
        {u: {v for a, v in edges if a == u and v != u} for u in range(n)})


def in_lists(g):
    return {v: [u for u in g.node_ids if v in g.adjacency[u]]
            for v in g.node_ids}


def scan_hearing(g, talkers, *, deaf):
    """Per-listener scan: each node checks every talker against its
    in-neighbours; with ``deaf`` the talkers themselves hear nothing."""
    inn = in_lists(g)
    heard = {}
    for v in g.node_ids:
        if deaf and v in talkers:
            continue
        got = [u for u in talkers if u in inn[v]]
        if got:
            heard[v] = got
    return heard


def pairwise_receptions(g, sched):
    """Collisions and delivery times under the pairwise jam rule: a
    reception is jammed when any other sender of the round reaches v."""
    hold = {u: set() for u in g.node_ids}
    delivery = {}
    for rnd in sched.rounds:
        for tx in rnd:
            for r in tx.batch.rumors:
                hold[r.source].add(r)
                delivery.setdefault(r, {})[r.source] = 0
    collisions = 0
    for t, rnd in enumerate(sched.rounds, start=1):
        for tx in rnd:
            for v in g.adjacency[tx.sender]:
                if any(other is not tx and v in g.adjacency[other.sender]
                       for other in rnd):
                    collisions += 1
                    continue
                for r in tx.batch.rumors:
                    if r not in hold[v]:
                        hold[v].add(r)
                        delivery.setdefault(r, {})[v] = t
    return collisions, delivery


def causal_schedule(data, g):
    """Random rounds of several senders, each sending rumors it holds if
    every planned reception succeeds."""
    ids = list(g.node_ids)
    plan = {u: {Rumor(u, 0)} for u in ids}
    rounds = []
    for _ in range(data.draw(st.integers(1, 5))):
        senders = data.draw(st.lists(st.sampled_from(ids), min_size=1,
                                     unique=True))
        rnd = tuple(
            Transmission(u, Batch(tuple(sorted(data.draw(
                st.sets(st.sampled_from(sorted(plan[u])), min_size=1))))))
            for u in sorted(senders))
        for tx in rnd:
            for v in g.adjacency[tx.sender]:
                plan[v].update(tx.batch.rumors)
        rounds.append(rnd)
    return Schedule(rounds=tuple(rounds))


@given(digraphs(), st.data())
@settings(max_examples=200)
def test_hearing_matches_in_neighbour_scan(g, data):
    talkers = data.draw(st.lists(st.sampled_from(list(g.node_ids)),
                                 unique=True))
    assert hearing(g, talkers) == scan_hearing(g, talkers, deaf=False)
    heard = scan_hearing(g, talkers, deaf=True)
    deaf, jam = _slot(g, talkers)
    for i, v in enumerate(g.node_ids):
        assert bool(deaf >> i & 1) == (v in talkers)
        assert bool(jam >> i & 1) == (len(heard.get(v, ())) > 1)
    assert (deaf | jam) >> len(g.node_ids) == 0


@given(digraphs(), st.data())
@settings(max_examples=200)
def test_jam_rule_matches_pairwise_scan(g, data):
    sched = causal_schedule(data, g)
    got = simulate_schedule(g, sched, interference=True)
    collisions, delivery = pairwise_receptions(g, sched)
    assert got.collisions == collisions
    assert delivery_times(g, sched, interference=True) == delivery
    assert holder_sets(got) == {r: frozenset(d) for r, d in delivery.items()}


# --- graphs from the public constructor ------------------------------------

def public_copy(g):
    return NetworkGraph(nodes=g.nodes, obstacles=g.obstacles, alpha=g.alpha,
                        adjacency=dict(g.adjacency))


def arm(states, senders):
    """Queue one batch per sender, its own rumor: bit i is sender i's.
    Returns the rumors in bit order."""
    for i, u in enumerate(senders):
        states[u].pending = deque([1 << i])
    return [Rumor(u, 0) for u in senders]


def one_round(g, mode, senders):
    cfg = SimConfig(slot_factor=1.0, mode=mode, seed=3)
    states = init_states(g, cfg)
    rumors = arm(states, senders)
    for u in senders:
        states[u].awaiting_ack = set(g.adjacency[u])
    run_round = run_round_cd if mode == "cd" else run_round_nocd
    log = run_round(g, states, senders, cfg)
    held = {v: (sorted(rumors_in(rumors, s.held)), len(s.pending),
                sorted(s.awaiting_ack))
            for v, s in states.items()}
    return log, held


EDGE = NetworkGraph.from_adjacency({0: [1], 1: [0]})
PATH = NetworkGraph.from_adjacency({"a": ["b"], "b": ["a", "c"], "c": ["b"]})


@pytest.mark.parametrize("mode", ["cd", "nocd"])
@pytest.mark.parametrize("g, senders", [
    (EDGE, [0]), (PATH, ["a"]), (PATH, ["b"]), (PATH, ["a", "c"])])
def test_public_constructor_graph_receives_like_from_adjacency(g, senders,
                                                                mode):
    public = public_copy(g)
    assert one_round(public, mode, senders) == one_round(g, mode, senders)


def test_public_constructor_edge_delivers():
    log, held = one_round(public_copy(EDGE), "cd", [0])
    assert log.succeeded == {0}
    assert log.records[0].receivers_ok == (1,)
    assert held[1][0] == [Rumor(0, 0)]


# --- one-way links in the slot protocols -----------------------------------

def test_cd_error_reaches_sender_over_one_way_link():
    # a and b collide at e; e's error reaches u, which reaches nobody
    g = NetworkGraph.from_adjacency(
        {"a": ["e"], "b": ["e"], "e": ["u"], "u": []})
    collided = 0
    for seed in range(12):
        cfg = SimConfig(slot_factor=2.0, mode="cd", seed=seed)
        states = init_states(g, cfg)
        arm(states, "abu")
        log = run_round_cd(g, states, "abu", cfg)
        errors = [r for r in log.records if r.kind == "error"]
        collided += bool(errors)
        assert ("u" in log.succeeded) == (not errors)
        assert {"a", "b"} <= log.succeeded
    assert 0 < collided < 12


def test_nocd_ack_jammed_by_acker_that_reaches_the_sender():
    # z reaches u but u does not reach z: z's ack jams v's ack at u only
    g = NetworkGraph.from_adjacency(
        {"u": ["v"], "v": ["u"], "w": ["z"], "z": ["w", "u"]})
    shared = 0
    for seed in range(12):
        cfg = SimConfig(slot_factor=1.0, mode="nocd", seed=seed)
        states = init_states(g, cfg)
        arm(states, "uw")
        for u, v in (("u", "v"), ("w", "z")):
            states[u].awaiting_ack = {v}
        log = run_round_nocd(g, states, ["u", "w"], cfg)
        acks = {r.transmitter: r for r in log.records if r.kind == "ack"}
        same = acks["v"].slot == acks["z"].slot
        shared += same
        assert acks["v"].receivers_collided == (("u",) if same else ())
        assert acks["z"].receivers_ok == ("w",)
    assert 0 < shared < 12
