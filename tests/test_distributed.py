"""Slot-level simulator: round semantics, Monte-Carlo rates, determinism."""

import io
import json
import math
import tracemalloc
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from rumorcast.backbone import brute_force_mcds, greedy_cds
from rumorcast.central import Rumor
from rumorcast.distributed import (
    _draws,
    DistMetrics,
    DistributedError,
    NodeState,
    SimConfig,
    SlotRecord,
    init_states,
    node_rng,
    run_distributed_multibroadcast,
    run_round_cd,
    run_round_nocd,
    slot_count,
)
from rumorcast.fixtures import gen_random_udg
from rumorcast.model import ModelError, NetworkGraph


def sym(adjacency):
    return NetworkGraph.from_adjacency(adjacency)


def edge():
    return sym({0: [1], 1: [0]})


def triangle():
    return sym({"a": ["b", "c"], "b": ["a", "c"], "c": ["a", "b"]})


def star(leaves):
    names = [f"l{i}" for i in range(leaves)]
    adj = {"hub": names}
    adj.update({n: ["hub"] for n in names})
    return sym(adj)


def clique(n):
    ids = list(range(n))
    return sym({u: [v for v in ids if v != u] for u in ids})


def armed(g, cfg, batches):
    """States with the given node -> batch mask front-loaded."""
    states = init_states(g, cfg)
    for u, batch in batches.items():
        states[u].pending = deque([batch])
    return states


def test_config_validation():
    with pytest.raises(DistributedError):
        SimConfig(slot_factor=0)
    with pytest.raises(DistributedError):
        SimConfig(slot_factor=1, mode="duplex")
    with pytest.raises(DistributedError):
        SimConfig(slot_factor=1, max_rounds=0)
    with pytest.raises(DistributedError, match="supplied_max_degree"):
        SimConfig(slot_factor=1, supplied_max_degree=0)
    SimConfig(slot_factor=1, supplied_max_degree=9)


def test_slot_count_exact_and_supplied():
    g = sym({0: [1, 2, 3], 1: [0], 2: [0], 3: [0]})
    assert slot_count(g, SimConfig(slot_factor=1.0)) == 3
    assert slot_count(g, SimConfig(slot_factor=1.5)) == 5
    assert slot_count(g, SimConfig(slot_factor=2.0,
                                   supplied_max_degree=10)) == 20
    assert slot_count(edge(), SimConfig(slot_factor=0.25)) == 1


def test_node_rng_is_process_stable():
    a = node_rng(7, "x").randint(1, 10 ** 6)
    b = node_rng(7, "x").randint(1, 10 ** 6)
    assert a == b
    draws = [[rng.random() for _ in range(8)]
             for rng in (node_rng(7, "x"), node_rng(8, "x"))]
    assert draws[0] != draws[1]


SLOT_HALVES = [*range(1, 71), 127, 128, 129, 1023, 1024, 1025, 10 ** 6,
               2 ** 40 + 3]


@pytest.mark.parametrize("seed", [0, 7, 2 ** 31 + 5])
def test_slot_draws_are_randint_draws(seed):
    # the slot draw must consume each stream exactly as randint(1, half):
    # same value, and the same value from the stream's next random()
    nodes = [0, 3, 41, "a", "hub"]

    def fresh():
        return {u: NodeState(seed, u) for u in nodes}

    kept = fresh()
    kept_ref = {u: node_rng(seed, u) for u in nodes}
    for half in SLOT_HALVES:
        # streams not yet seeded, then streams that drew every smaller half
        unseeded = (fresh(), {u: node_rng(seed, u) for u in nodes})
        for states, refs in (unseeded, (kept, kept_ref)):
            assert _draws(states, nodes, half) == {
                u: refs[u].randint(1, half) for u in nodes}
            assert _draws(states, nodes, half, half + 1) == {
                u: half + refs[u].randint(1, half) for u in nodes}
            for u in nodes:
                assert states[u].rng_stream.random() == refs[u].random()


def test_cd_single_transmitter_succeeds_in_one_round():
    g = edge()
    cfg = SimConfig(slot_factor=1.0, seed=3)
    batch = 1  # the mask of Rumor(0, 0)
    states = armed(g, cfg, {0: batch})
    log = run_round_cd(g, states, {0}, cfg)
    assert log.succeeded == frozenset({0})
    assert log.data_messages == 1
    assert log.control_messages == 0
    assert log.collisions_heard == 0
    assert states[1].held & batch
    assert not states[0].pending


def test_cd_forced_mutual_collision_fails_both():
    # slot_factor 0.5 on a triangle gives a single first-half slot, so the
    # two senders always collide and the witness must echo
    g = triangle()
    cfg = SimConfig(slot_factor=0.5, seed=1)
    states = armed(g, cfg, {"a": 0b01, "b": 0b10})
    log = run_round_cd(g, states, {"a", "b"}, cfg)
    assert log.succeeded == frozenset()
    assert log.control_messages == 1
    assert log.collisions_heard >= 1
    assert states["a"].pending and states["b"].pending
    assert not states["c"].held
    kinds = {(r.kind, r.transmitter) for r in log.records}
    assert ("error", "c") in kinds


def test_cd_star_collision_punishes_even_clean_senders():
    # one shared slot: the hub hears garbage and its echo reaches every leaf
    g = star(3)
    cfg = SimConfig(slot_factor=1 / 3, seed=2)
    states = armed(g, cfg, {f"l{i}": 1 << i for i in range(3)})
    log = run_round_cd(g, states, {"l0", "l1", "l2"}, cfg)
    assert log.succeeded == frozenset()
    assert log.control_messages == 1


def test_cd_error_slot_lists_its_echoers_in_id_order():
    # one data slot: 5 and 9 hear 1 and 2 before 3 hears 4 and 6, yet the
    # shared error slot records its echoers sorted by id
    g = sym({1: [5, 9], 2: [5, 9], 4: [3], 6: [3],
             3: [4, 6], 5: [1, 2], 9: [1, 2]})
    cfg = SimConfig(slot_factor=0.5, seed=0)
    states = armed(g, cfg, {u: 1 << u for u in (1, 2, 4, 6)})
    log = run_round_cd(g, states, {1, 2, 4, 6}, cfg)
    errors = [r for r in log.records if r.kind == "error"]
    assert [r.transmitter for r in errors] == [3, 5, 9]
    assert {r.slot for r in errors} == {2}


def test_cd_round_rejects_bad_transmitters():
    g = edge()
    cfg = SimConfig(slot_factor=1.0)
    states = init_states(g, cfg)
    with pytest.raises(DistributedError):
        run_round_cd(g, states, {0}, cfg)  # nothing queued
    with pytest.raises(ModelError):
        run_round_cd(g, armed(g, cfg, {0: 1}), {9}, cfg)
    with pytest.raises(DistributedError):
        run_round_cd(g, states, set(), SimConfig(slot_factor=1, mode="nocd"))


def test_cd_clique_delivery_rate_matches_slot_uniqueness():
    # K4: a fixed sender's batch reaches everyone iff its slot is unshared,
    # which happens with probability (1 - 1/m)^3
    g = clique(4)
    cfg = SimConfig(slot_factor=1.0, seed=11)
    m = slot_count(g, cfg)
    assert m == 3
    expected = (1 - 1 / m) ** 3
    states = init_states(g, cfg)
    trials = 10_000
    wins = 0
    batches = {u: 1 << u for u in g.node_ids}  # u's own rumor
    for _ in range(trials):
        for u in g.node_ids:
            states[u].pending = deque([batches[u]])
            states[u].held = 0
        run_round_cd(g, states, set(g.node_ids), cfg)
        if all(states[v].held & batches[0] for v in (1, 2, 3)):
            wins += 1
    rate = wins / trials
    se = math.sqrt(expected * (1 - expected) / trials)
    assert abs(rate - expected) <= 3 * se


@st.composite
def symmetric_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    adj = {u: set() for u in range(n)}
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                adj[u].add(v)
                adj[v].add(u)
    return sym({u: sorted(vs) for u, vs in adj.items()})


@settings(max_examples=120, deadline=None)
@given(symmetric_graphs(), st.data())
def test_cd_success_implies_every_listener_received(g, data):
    senders = data.draw(st.sets(st.sampled_from(sorted(g.node_ids)),
                                min_size=1))
    cfg = SimConfig(slot_factor=1.0, seed=data.draw(st.integers(0, 10 ** 6)))
    batches = {u: 1 << u for u in senders}  # u's own rumor
    states = armed(g, cfg, batches)
    log = run_round_cd(g, states, senders, cfg)
    for u in log.succeeded:
        for v in g.adjacency[u]:
            if v not in senders:
                assert states[v].held & batches[u]
    # a node transmits in at most one slot per round
    by_node = {}
    for rec in log.records:
        by_node.setdefault(rec.transmitter, []).append(rec.slot)
    for slots in by_node.values():
        assert len(slots) == 1


def test_nocd_single_listener_clears_in_one_round():
    g = edge()
    cfg = SimConfig(slot_factor=1.0, mode="nocd", seed=5)
    states = armed(g, cfg, {0: 1})  # the mask of Rumor(0, 0)
    states[0].awaiting_ack = {1}
    log = run_round_nocd(g, states, {0}, cfg)
    assert log.succeeded == frozenset({0})
    assert log.data_messages == 1
    assert log.control_messages == 1
    assert states[1].held & 1
    assert not states[0].pending


def test_nocd_round_rejects_bad_state():
    g = edge()
    cfg = SimConfig(slot_factor=1.0, mode="nocd")
    states = armed(g, cfg, {0: 1})
    with pytest.raises(DistributedError):
        run_round_nocd(g, states, {0}, cfg)  # empty address list
    states[0].awaiting_ack = {0, 1}
    with pytest.raises(DistributedError):
        run_round_nocd(g, states, {0}, cfg)  # 0 is not its own neighbor
    with pytest.raises(DistributedError):
        run_round_nocd(g, states, set(), SimConfig(slot_factor=1.0))


@pytest.mark.parametrize("bad, message", [
    (set(), "transmitter 2 has nobody to address"),
    ({0, 1}, r"transmitter 2 addresses non-neighbors \[0\]")])
def test_rejected_nocd_round_draws_no_stream(bad, message):
    # "2" has a bad address list and "0" a good one: the round is refused
    # before either draws its slot, so no stream is seeded or advanced
    g = sym({0: [1], 1: [0, 2], 2: [1]})
    cfg = SimConfig(slot_factor=1.0, mode="nocd")
    states = armed(g, cfg, {0: 1, 2: 2})
    states[0].awaiting_ack = {1}
    states[2].awaiting_ack = bad
    with pytest.raises(DistributedError, match=message):
        run_round_nocd(g, states, {0, 2}, cfg)
    assert all(state._rng is None for state in states.values())


@pytest.mark.parametrize("mode", ["cd", "nocd"])
def test_a_never_armed_state_is_empty_and_has_nothing_to_send(mode):
    g = edge()
    cfg = SimConfig(slot_factor=1.0, mode=mode)
    states = init_states(g, cfg)
    assert len(states[0].pending) == 0
    assert not states[0].awaiting_ack
    run_round = run_round_cd if mode == "cd" else run_round_nocd
    with pytest.raises(DistributedError,
                       match="transmitter 0 has no batch to send"):
        run_round(g, states, {0}, cfg)
    assert states[0]._rng is None


def test_init_states_builds_no_queue_per_node():
    # a node gets a queue and an address set only when a run arms it as a
    # unit, so fresh states on a 20,000-node path stay small per node
    n = 20_000
    g = sym({u: [v for v in (u - 1, u + 1) if 0 <= v < n]
             for u in range(n)})
    assert len(g.node_ids) == n  # cached on the graph before tracing
    cfg = SimConfig(slot_factor=1.0)
    tracemalloc.start()
    try:
        states = init_states(g, cfg)
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(states) == n
    assert traced / n < 400


@settings(max_examples=120, deadline=None)
@given(symmetric_graphs(), st.data())
def test_nocd_departures_really_hold_the_batch(g, data):
    candidates = [u for u in sorted(g.node_ids) if g.adjacency[u]]
    if not candidates:
        return
    u = data.draw(st.sampled_from(candidates))
    audience = data.draw(st.sets(st.sampled_from(sorted(g.adjacency[u])),
                                 min_size=1))
    cfg = SimConfig(slot_factor=1.0, mode="nocd",
                    seed=data.draw(st.integers(0, 10 ** 6)))
    batch = 0b11  # Rumor(u, 0) and Rumor(u, 1)
    states = armed(g, cfg, {u: batch})
    states[u].awaiting_ack = set(audience)
    run_round_nocd(g, states, {u}, cfg)
    for w in audience - states[u].awaiting_ack:
        assert not batch & ~states[w].held


def test_nocd_star_drain_statistics():
    # one hub pushing a batch to 4 leaves, slot_factor 2: total acks stay
    # under e^(2/2)*4*1.2 and the mean round count sits within a factor of
    # two of the drain estimate (smallest j with 4*(1-e^-1)^j < 1, i.e. 4)
    g = star(4)
    trials = 400
    total_acks = 0
    total_rounds = 0
    for seed in range(trials):
        cfg = SimConfig(slot_factor=2.0, mode="nocd", seed=seed)
        states = armed(g, cfg, {"hub": 1})
        states["hub"].awaiting_ack = set(g.adjacency["hub"])
        rounds = 0
        while states["hub"].pending:
            rounds += 1
            assert rounds <= 60
            log = run_round_nocd(g, states, {"hub"}, cfg, round_index=rounds)
            total_acks += log.control_messages
        total_rounds += rounds
    mean_acks = total_acks / trials
    mean_rounds = total_rounds / trials
    assert mean_acks <= math.exp(1.0) * 4 * 1.2
    drain = 4
    assert drain / 2 <= mean_rounds <= drain * 2


def test_multibroadcast_single_rumor_over_one_edge():
    g = edge()
    bb = brute_force_mcds(g)
    assert bb.members == (0,)
    cfg = SimConfig(slot_factor=1.0, seed=0)
    metrics = run_distributed_multibroadcast(g, bb, [0], 1, cfg)
    assert metrics.rounds == 1
    assert metrics.data_messages == 1
    assert metrics.control_messages == 0
    assert metrics.undelivered == frozenset()
    assert metrics.delivered_everything


def test_multibroadcast_star_mean_retransmissions():
    g = star(3)
    bb = greedy_cds(g)
    assert bb.members == ("hub",)
    sources = ["l0", "l1", "l2"]
    total = 0.0
    seeds = 1000
    for seed in range(seeds):
        cfg = SimConfig(slot_factor=3.0, seed=seed)
        metrics = run_distributed_multibroadcast(g, bb, sources, 3, cfg)
        assert metrics.delivered_everything
        retx = metrics.retransmissions_per_node
        total += sum(retx.values()) / len(retx)
    assert total / seeds <= math.exp(2.0)


def test_multibroadcast_is_deterministic_per_seed():
    g = star(3)
    bb = greedy_cds(g)
    cfg = SimConfig(slot_factor=1.0, seed=42)
    tr1, tr2 = io.StringIO(), io.StringIO()
    m1 = run_distributed_multibroadcast(g, bb, ["l0", "l1", "l2"], 1, cfg,
                                        trace=tr1)
    m2 = run_distributed_multibroadcast(g, bb, ["l0", "l1", "l2"], 1, cfg,
                                        trace=tr2)
    assert m1.to_dict() == m2.to_dict()
    assert tr1.getvalue() == tr2.getvalue()
    assert tr1.getvalue()


def test_multibroadcast_trace_is_wellformed_jsonl():
    g = triangle()
    bb = greedy_cds(g)
    cfg = SimConfig(slot_factor=2.0, seed=9, mode="nocd")
    buf = io.StringIO()
    metrics = run_distributed_multibroadcast(g, bb, ["a", "b"], 1, cfg,
                                             trace=buf)
    assert metrics.delivered_everything
    per_round_transmitters = {}
    for line in buf.getvalue().splitlines():
        rec = json.loads(line)
        assert set(rec) == {"round", "slot", "transmitter", "kind",
                            "receivers_ok", "receivers_collided"}
        assert rec["kind"] in ("data", "error", "ack")
        seen = per_round_transmitters.setdefault(rec["round"], set())
        assert rec["transmitter"] not in seen
        seen.add(rec["transmitter"])


def test_multibroadcast_respects_max_rounds_without_raising():
    g = sym({"a": ["b"], "b": ["a", "c"], "c": ["b", "d"], "d": ["c"]})
    bb = brute_force_mcds(g)
    cfg = SimConfig(slot_factor=1.0, seed=0, max_rounds=1)
    metrics = run_distributed_multibroadcast(g, bb, ["a", "d"], 1, cfg)
    assert metrics.rounds == 1
    assert metrics.undelivered
    assert not metrics.delivered_everything


# mode -> seed -> retransmissions_per_node at caps 1, 2 and 3 on the path
# a-f: stage 1 arms a and f, then e forwards to d, then d to c
_AFE = {"a": 0, "f": 0, "e": 0}
_AFED = {**_AFE, "d": 0}
_AFEDC = {**_AFED, "c": 0}
CAPPED_RETX = {
    "cd": [(_AFE, _AFED, _AFEDC)] * 5,
    "nocd": [(_AFE, _AFED, _AFEDC), (_AFE, _AFED, _AFED),
             (_AFE, _AFED, _AFEDC), (_AFE, _AFE, {**_AFE, "e": 1}),
             (_AFE, _AFE, {**_AFE, "e": 1, "d": 0})],
}


@pytest.mark.parametrize("mode", ["cd", "nocd"])
def test_undelivered_at_the_round_cap_names_each_missing_rumor(mode):
    # path a-b-c-d-e-f, backbone b-c-d-e rooted at b.  Round 1 hands a's
    # rumor to b and f's to e, round 2 sends f's rumor from e to d and f.
    # Each listener hears one talker per slot, so no draw changes who holds
    # what.  The sources are unsorted: bit 0 is Rumor("f", 0), which sorts
    # after bit 1's Rumor("a", 1).
    names = "abcdef"
    g = sym({u: [names[j] for j in (i - 1, i + 1) if 0 <= j < len(names)]
             for i, u in enumerate(names)})
    bb = brute_force_mcds(g)
    assert bb.root == "b"
    from_a, from_f = Rumor("a", 1), Rumor("f", 0)
    for seed in range(5):
        cfg = SimConfig(slot_factor=1.0, mode=mode, seed=seed, max_rounds=2)
        dm = run_distributed_multibroadcast(g, bb, ["f", "a"], 1, cfg)
        assert dm.rounds == 2
        assert dm.undelivered == {
            ("a", from_f), ("b", from_f), ("c", from_f),
            ("c", from_a), ("d", from_a), ("e", from_a), ("f", from_a)}
        # a cap at a stage boundary still lists the units of the stage it
        # armed but gave no round, with 0
        for cap, want in zip((1, 2, 3), CAPPED_RETX[mode][seed]):
            cfg = SimConfig(slot_factor=1.0, mode=mode, seed=seed,
                            max_rounds=cap)
            dm = run_distributed_multibroadcast(g, bb, ["f", "a"], 1, cfg)
            assert dm.retransmissions_per_node == want, (seed, cap)


@pytest.mark.parametrize("mode", ["cd", "nocd"])
@pytest.mark.parametrize("max_rounds", [1, 2, 5])
def test_retransmissions_at_the_round_cap(mode, max_rounds):
    # one slot per half-round: the three leaves always collide at the hub,
    # so every round fails for each of them, and only a round that follows
    # a failure counts as its retransmission
    g = star(3)
    leaves = ["l0", "l1", "l2"]
    bb = greedy_cds(g)
    assert bb.members == ("hub",)
    cfg = SimConfig(slot_factor=0.1, mode=mode, max_rounds=max_rounds)
    assert slot_count(g, cfg) == 1
    dm = run_distributed_multibroadcast(g, bb, leaves, 1, cfg)
    assert dm.rounds == max_rounds
    assert dm.retransmissions_per_node == {u: max_rounds - 1 for u in leaves}
    assert dm.data_messages == 3 * max_rounds
    assert len(dm.undelivered) == 9  # each rumor misses the other 3 nodes


def test_multibroadcast_input_validation():
    g = edge()
    bb = brute_force_mcds(g)
    cfg = SimConfig(slot_factor=1.0)
    with pytest.raises(DistributedError):
        run_distributed_multibroadcast(g, bb, [0], 0, cfg)
    with pytest.raises(DistributedError):
        run_distributed_multibroadcast(g, bb, [], 1, cfg)
    with pytest.raises(ModelError):
        run_distributed_multibroadcast(g, bb, ["nope"], 1, cfg)
    lopsided = NetworkGraph.from_adjacency({0: [1], 1: []})
    with pytest.raises(DistributedError):
        run_distributed_multibroadcast(
            lopsided, bb, [0], 1, cfg)


def test_multibroadcast_nocd_end_to_end():
    g = star(4)
    bb = greedy_cds(g)
    cfg = SimConfig(slot_factor=2.0, mode="nocd", seed=13)
    metrics = run_distributed_multibroadcast(g, bb, ["l0", "l3"], 1, cfg)
    assert metrics.delivered_everything
    assert metrics.control_messages > 0


def test_dist_metrics_exports():
    metrics = DistMetrics(rounds=4, data_messages=6, control_messages=2,
                          retransmissions_per_node={"a": 1, "b": 0},
                          undelivered=frozenset({("c", Rumor("a", 0))}),
                          collisions_heard=3)
    as_dict = metrics.to_dict()
    json.dumps(as_dict)
    assert as_dict["undelivered"] == [["c", {"source": "a", "seq": 0}]]


def udg_instance():
    g = gen_random_udg(40, 0.3, seed=4)
    return g, greedy_cds(g), sorted(g.node_ids)[:5]


@pytest.mark.parametrize("mode", ["cd", "nocd"])
def test_untraced_run_builds_no_slot_record(monkeypatch, mode):
    import rumorcast.distributed as distributed

    def refuse(*args, **kwargs):
        raise AssertionError("SlotRecord built without a trace")

    g, bb, sources = udg_instance()
    cfg = SimConfig(slot_factor=0.3, mode=mode, seed=3)
    want = run_distributed_multibroadcast(g, bb, sources, 2, cfg)
    monkeypatch.setattr(distributed, "SlotRecord", refuse)
    got = run_distributed_multibroadcast(g, bb, sources, 2, cfg)
    assert got.to_dict() == want.to_dict()
    assert got.collisions_heard > 0
    with pytest.raises(AssertionError, match="without a trace"):
        run_distributed_multibroadcast(g, bb, sources, 2, cfg,
                                       trace=io.StringIO())


@pytest.mark.parametrize("mode", ["cd", "nocd"])
def test_streams_are_seeded_only_for_nodes_that_draw(monkeypatch, mode):
    import rumorcast.distributed as distributed

    seeded = []

    def counting(seed, node_id):
        seeded.append(node_id)
        return node_rng(seed, node_id)

    monkeypatch.setattr(distributed, "node_rng", counting)
    # "hub" relays everything and "l3" is no source: under CD it only
    # listens, under NoCD it acks the hub
    g = star(4)
    bb = greedy_cds(g)
    buf = io.StringIO()
    cfg = SimConfig(slot_factor=1.0, mode=mode, seed=8)
    metrics = run_distributed_multibroadcast(g, bb, ["l0", "l1", "l2"], 1,
                                             cfg, trace=buf)
    assert metrics.delivered_everything
    records = [json.loads(line) for line in buf.getvalue().splitlines()]
    drew = {r["transmitter"] for r in records if r["kind"] in ("data", "ack")}
    assert sorted(seeded) == sorted(drew)
    assert ("l3" in seeded) == (mode == "nocd")


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("mode", ["cd", "nocd"])
def test_each_round_calls_the_module_round_routine_once(monkeypatch, mode,
                                                        traced):
    # a span recorder times rounds by rebinding run_round_cd and
    # run_round_nocd on the module, so a run must look them up there and
    # call its mode's routine once per round, shortcut or not
    import rumorcast.distributed as distributed

    logs = []
    real = getattr(distributed, f"run_round_{mode}")

    def counting(*args, **kwargs):
        logs.append(real(*args, **kwargs))
        return logs[-1]

    def refuse(*args, **kwargs):
        raise AssertionError("the other mode's round routine ran")

    other = "nocd" if mode == "cd" else "cd"
    monkeypatch.setattr(distributed, f"run_round_{mode}", counting)
    monkeypatch.setattr(distributed, f"run_round_{other}", refuse)
    g, bb, sources = udg_instance()
    cfg = SimConfig(slot_factor=0.3, mode=mode, seed=3)
    trace = io.StringIO() if traced else None
    metrics = run_distributed_multibroadcast(g, bb, sources, 2, cfg, trace)
    assert len(logs) == metrics.rounds > 0
    assert sum(log.data_messages for log in logs) == metrics.data_messages
    senders = {log.data_messages for log in logs}
    assert 1 in senders and max(senders) > 1


@pytest.mark.parametrize("u, ok, bad", [(3, (1, 4), (5,)),
                                        ("t", ("a", "b"), ("z",)),
                                        (0, (), ())])
def test_slot_record_json_keys_come_sorted(u, ok, bad):
    rec = SlotRecord(7, 2, u, "data", ok, bad)
    assert rec.to_json() == json.dumps(
        {"round": 7, "slot": 2, "transmitter": u, "kind": "data",
         "receivers_ok": list(ok), "receivers_collided": list(bad)},
        sort_keys=True)


def test_dist_metrics_export_retransmissions_by_id():
    metrics = DistMetrics(rounds=1, data_messages=3, control_messages=0,
                          retransmissions_per_node={"b": 2, "a": 0, "c": 1},
                          undelivered=frozenset())
    assert list(metrics.to_dict()["retransmissions_per_node"]) == [
        "a", "b", "c"]
