"""Centralized scheduling, collision removal, and simulation tests."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumorcast.model import ModelError, NetworkGraph
from rumorcast.backbone import Backbone, brute_force_mcds, greedy_cds
from rumorcast.central import (
    Batch,
    Metrics,
    Rumor,
    Schedule,
    ScheduleError,
    Transmission,
    broadcast_schedule,
    make_collision_free,
    multibroadcast_schedule,
    plan_multibroadcast,
    simulate_schedule,
)
from rumorcast.distributed import _collection_stages

from reception_reference import (arrival_simulate, delivery_times,
                                 transposed_holders)


def path4():
    g = NetworkGraph.from_adjacency(
        {"a": ["b"], "b": ["a", "c"], "c": ["b", "d"], "d": ["c"]})
    bb = brute_force_mcds(g)
    assert bb.members == ("b", "c")
    return g, bb


def star(leaves=3):
    names = [f"l{i}" for i in range(leaves)]
    adj = {"hub": names}
    adj.update({n: ["hub"] for n in names})
    g = NetworkGraph.from_adjacency(adj)
    bb = Backbone(members=("hub",), root="hub", parent={"hub": None})
    return g, bb


def tx_senders(sched):
    return [[tx.sender for tx in rnd] for rnd in sched.rounds]


def rivals(g, u):
    """Every other node that reaches one of u's out-neighbours, read off
    the in-neighbour lists."""
    inn = {v: [w for w in g.node_ids if v in g.adjacency[w]]
           for v in g.adjacency[u]}
    return {w for v in g.adjacency[u] for w in inn[v] if w != u}


# --- single-rumor broadcast ------------------------------------------------

def test_broadcast_from_a_leaf_costs_membercount_plus_one():
    g, bb = path4()
    sched = broadcast_schedule(g, bb, "a")
    assert tx_senders(sched) == [["a"], ["b"], ["c"]]
    assert sched.message_count == 3
    assert simulate_schedule(g, sched).holds_all([Rumor("a", 0)])
    delivery = delivery_times(g, sched)[Rumor("a", 0)]
    assert delivery.keys() == {"a", "b", "c", "d"}
    assert delivery == {"a": 0, "b": 1, "c": 2, "d": 3}


def test_broadcast_from_a_member_skips_the_hop():
    g, bb = path4()
    sched = broadcast_schedule(g, bb, "b")
    assert tx_senders(sched) == [["b"], ["c"]]
    assert sched.message_count == 2
    assert delivery_times(g, sched)[Rumor("b", 0)].keys() == \
        {"a", "b", "c", "d"}


def test_broadcast_waves_share_rounds():
    # hub-rooted star: both leaves are informed in one wave
    g, bb = star(2)
    sched = broadcast_schedule(g, bb, "l0")
    assert tx_senders(sched) == [["l0"], ["hub"]]


# --- multi-rumor scheduling ------------------------------------------------

def test_star_gather_and_one_chunk_down():
    g, bb = star(3)
    sched = multibroadcast_schedule(g, bb, ["l0", "l1", "l2"], compression=3)
    assert sched.message_count == 4  # three up, one combined chunk down
    assert sched.makespan == 2
    assert tx_senders(sched) == [["l0", "l1", "l2"], ["hub"]]
    delivery = delivery_times(g, sched)
    for r in sched.rumors():
        assert delivery[r].keys() == set(g.node_ids)


def test_single_source_delegates_to_broadcast():
    g, bb = path4()
    assert multibroadcast_schedule(g, bb, ["a"], compression=2) == \
        broadcast_schedule(g, bb, "a")


def test_relay_sends_exactly_ceil_of_subtree_over_c():
    g, bb = path4()
    sources = ["a", "a", "d", "d", "d"]
    sched = multibroadcast_schedule(g, bb, sources, compression=2)
    ups = {}
    k = len(sources)
    chunk_rounds = 0
    for rnd in sched.rounds:
        for tx in rnd:
            ups[tx.sender] = ups.get(tx.sender, 0) + 1
    # a: 2 rumors -> 1 batch; d: 3 -> 2; relay c: subtree 3 -> 2 up, then
    # 3 chunks down; root b: 3 chunks only
    assert ups == {"a": 1, "d": 2, "c": 2 + 3, "b": 3}
    assert sched.message_count == 11
    metrics = simulate_schedule(g, sched)
    assert metrics.collisions == 0
    delivery = delivery_times(g, sched)
    for r in sched.rumors():
        assert delivery[r].keys() == set(g.node_ids)
    assert len(sched.rumors()) == k


def test_plan_holds_tree_loads_depths_and_pruned_senders():
    g, bb = path4()
    plan = plan_multibroadcast(g, bb, ["a", "a", "d", "d", "d"], 2)
    assert plan.parent == {"b": None, "c": "b", "a": "b", "d": "c"}
    assert plan.own["d"] == (Rumor("d", 2), Rumor("d", 3), Rumor("d", 4))
    assert plan.load["c"] == plan.own["d"]
    assert plan.load["b"] == tuple(sorted(plan.rumors))
    assert [{bb.depth[m] for m in band} for band in plan.distribution] == \
        [{0}, {1}]
    assert set().union(*plan.distribution) == {"b", "c"}  # only c reaches d
    assert [len(b) for b in plan.chunks] == [2, 2, 1]
    assert [mask.bit_count() for stage in _collection_stages(plan)
            for u, masks, _ in stage if u == "c" for mask in masks] == [2, 1]

    g, _ = star()
    bb = Backbone(members=("hub", "l0"), root="hub",
                  parent={"hub": None, "l0": "hub"})
    plan = plan_multibroadcast(g, bb, ["l1", "l2"], 1)
    assert set().union(*plan.distribution) == {"hub"}


def test_batches_never_exceed_compression_factor():
    g, bb = path4()
    for c in (1, 2, 3):
        sched = multibroadcast_schedule(g, bb, ["a", "d", "b", "a"], compression=c)
        assert max(len(tx.batch) for rnd in sched.rounds for tx in rnd) <= c


def test_compression_factor_must_be_positive():
    g, bb = path4()
    with pytest.raises(ScheduleError):
        multibroadcast_schedule(g, bb, ["a", "d"], compression=0)


def test_unreachable_source_is_rejected():
    g = NetworkGraph.from_adjacency(
        {"a": ["b"], "b": ["a", "c"], "c": ["b", "d"], "d": ["c"]})
    bb = Backbone(members=("b", "c"), root="b",
                  parent={"b": None, "c": "b"})
    with pytest.raises(Exception):
        multibroadcast_schedule(g, bb, ["a", "zz"], compression=1)


def test_broadcast_from_an_unknown_source_is_rejected():
    g, bb = path4()
    with pytest.raises(ModelError, match="unknown source 'zz'"):
        broadcast_schedule(g, bb, "zz")


def test_source_with_no_member_in_its_reach_is_rejected():
    # a one-way graph: 2 hears the member 0 but reaches nobody
    g = NetworkGraph.from_adjacency({0: [1, 2], 1: [0], 2: []})
    bb = Backbone(members=(0,), root=0, parent={0: None})
    with pytest.raises(ScheduleError,
                       match="source 2 has no backbone member in its reach"):
        multibroadcast_schedule(g, bb, [1, 2], compression=1)


# --- collision removal -----------------------------------------------------

def test_make_collision_free_serializes_contending_leaves():
    g, bb = star(3)
    sched = multibroadcast_schedule(g, bb, ["l0", "l1", "l2"], compression=3)
    before = simulate_schedule(g, sched, interference=True)
    assert before.collisions == 3  # every upward send jams the hub
    safe = make_collision_free(g, sched)
    after = simulate_schedule(g, safe, interference=True)
    assert after.collisions == 0
    assert tx_senders(safe) == [["l0"], ["l1"], ["l2"], ["hub"]]
    # message multiset preserved
    assert sorted((tx.sender, tx.batch.rumors)
                  for rnd in sched.rounds for tx in rnd) == \
        sorted((tx.sender, tx.batch.rumors)
               for rnd in safe.rounds for tx in rnd)


def test_make_collision_free_keeps_clean_schedules_intact():
    g, bb = path4()
    sched = broadcast_schedule(g, bb, "a")
    assert make_collision_free(g, sched) == sched


def test_make_collision_free_round_growth_is_bounded():
    g, bb = path4()
    sched = multibroadcast_schedule(g, bb, ["a", "d", "a", "d"], compression=2)
    safe = make_collision_free(g, sched)
    worst = max((len(rivals(g, tx.sender))
                 for rnd in sched.rounds for tx in rnd), default=0)
    assert safe.makespan <= max(1, worst) * sched.makespan


# --- simulation ------------------------------------------------------------

def test_sender_must_hold_what_it_sends():
    g, _ = path4()
    bogus = Schedule(rounds=(
        (Transmission("b", Batch((Rumor("a", 0),))),),
    ))
    with pytest.raises(ScheduleError) as err:
        simulate_schedule(g, bogus)
    assert "round 1" in str(err.value)
    assert "'b'" in str(err.value)


def test_forwarding_after_reception_is_causal():
    g, _ = path4()
    ok = Schedule(rounds=(
        (Transmission("a", Batch((Rumor("a", 0),))),),
        (Transmission("b", Batch((Rumor("a", 0),))),),
    ))
    simulate_schedule(g, ok)
    assert delivery_times(g, ok)[Rumor("a", 0)]["c"] == 2


def test_duplicate_sender_in_a_round_is_rejected():
    g, _ = path4()
    r = Rumor("a", 0)
    bad = Schedule(rounds=(
        (Transmission("a", Batch((r,))), Transmission("a", Batch((r,)))),
    ))
    with pytest.raises(ScheduleError):
        simulate_schedule(g, bad)


def test_empty_batches_cannot_be_built():
    with pytest.raises(ScheduleError):
        Batch(())


@pytest.mark.parametrize("rumors", [
    (Rumor("b"), Rumor("a")),
    (Rumor("a"), Rumor("a")),
    (Rumor("a", 1), Rumor("b"), Rumor("a", 0)),
])
def test_batches_must_be_sorted_and_unique(rumors):
    with pytest.raises(ScheduleError, match="sorted and unique"):
        Batch(rumors)


def test_rumor_orders_and_compares_as_its_pair():
    pairs = [("b", 0), ("a", 2), ("a", 0), ("c", 1), ("a", 1)]
    rumors = sorted(Rumor(*p) for p in pairs)
    assert [(r.source, r.seq) for r in rumors] == sorted(pairs)
    assert Rumor("a") == Rumor("a", 0)
    assert Rumor("a") != Rumor("a", 1)
    assert len({Rumor("a"), Rumor("a", 0)}) == 1
    r = Rumor("a")
    with pytest.raises(AttributeError):
        r.seq = 1
    with pytest.raises(AttributeError):
        r.source = "b"
    assert repr(r) == "Rumor(source='a', seq=0)"


def test_interference_counts_losses_without_propagating_them():
    # a and c both talk to b in round 1; both transmissions are lost at b
    # but the schedule stays causally valid and later rounds still count
    g, _ = path4()
    ra, rc = Rumor("a", 0), Rumor("c", 0)
    sched = Schedule(rounds=(
        (Transmission("a", Batch((ra,))), Transmission("c", Batch((rc,)))),
    ))
    quiet = simulate_schedule(g, sched)
    assert quiet.collisions == 0
    assert delivery_times(g, sched)[ra].keys() == {"a", "b"}
    noisy = simulate_schedule(g, sched, interference=True)
    # b loses both; c -> d is clean since d hears only c
    assert noisy.collisions == 2
    noisy_delivery = delivery_times(g, sched, interference=True)
    assert noisy_delivery[ra].keys() == {"a"}
    assert noisy_delivery[rc].keys() == {"c", "d"}


def test_makespan_and_message_count_come_from_the_schedule():
    g, bb = path4()
    sched = multibroadcast_schedule(g, bb, ["a", "d"], compression=1)
    metrics = simulate_schedule(g, sched)
    assert metrics.makespan == sched.makespan == len(sched.rounds)
    assert metrics.messages == sched.message_count


# --- properties on random networks -----------------------------------------

@st.composite
def connected_graphs(draw, max_nodes=8):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    adj = {i: set() for i in range(n)}
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        adj[u].add(v)
        adj[v].add(u)
    extra = draw(st.sets(st.tuples(st.integers(0, n - 1),
                                   st.integers(0, n - 1)), max_size=10))
    for a, b in extra:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    return NetworkGraph.from_adjacency(adj)


@st.composite
def multibroadcast_cases(draw):
    g = draw(connected_graphs())
    ids = sorted(g.node_ids)
    k = draw(st.integers(min_value=2, max_value=4))
    sources = [draw(st.sampled_from(ids)) for _ in range(k)]
    c = draw(st.integers(min_value=1, max_value=4))
    return g, sources, c


@given(multibroadcast_cases())
@settings(max_examples=80, deadline=None)
def test_multibroadcast_delivers_everything_within_message_budget(case):
    g, sources, c = case
    bb = greedy_cds(g)
    sched = multibroadcast_schedule(g, bb, sources, c)
    metrics = simulate_schedule(g, sched)
    rumors = sched.rumors()
    assert len(rumors) == len(sources)
    delivery = delivery_times(g, sched)
    for r in rumors:
        assert delivery[r].keys() == set(g.node_ids)
    k = len(sources)
    chunks = math.ceil(k / c)
    assert metrics.messages <= 2 * bb.size * chunks + k * (1 + 1.0 / c)
    assert max(len(tx.batch) for rnd in sched.rounds for tx in rnd) <= c


@given(multibroadcast_cases())
@settings(max_examples=60, deadline=None)
def test_collision_removal_is_complete_and_bounded(case):
    g, sources, c = case
    bb = greedy_cds(g)
    sched = multibroadcast_schedule(g, bb, sources, c)
    safe = make_collision_free(g, sched)
    assert simulate_schedule(g, safe, interference=True).collisions == 0
    multiset = lambda s: sorted((tx.sender, tx.batch.rumors)
                                for rnd in s.rounds for tx in rnd)
    assert multiset(safe) == multiset(sched)
    # greedy coloring puts each sender within (its conflict count)+1 groups;
    # the +1 is real: two star leaves sharing a hub have conflict size 1 but
    # need two rounds
    worst = max((len(rivals(g, tx.sender))
                 for rnd in sched.rounds for tx in rnd), default=0)
    assert safe.makespan <= (worst + 1) * sched.makespan
    # per-sender transmission order is preserved
    for sender in {tx.sender for rnd in sched.rounds for tx in rnd}:
        seq = lambda s: [tx.batch.rumors for rnd in s.rounds
                         for tx in rnd if tx.sender == sender]
        assert seq(safe) == seq(sched)


@given(connected_graphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_broadcast_reaches_every_node(g, data):
    bb = greedy_cds(g)
    source = data.draw(st.sampled_from(sorted(g.node_ids)))
    sched = broadcast_schedule(g, bb, source)
    metrics = simulate_schedule(g, sched)
    assert delivery_times(g, sched)[Rumor(source, 0)].keys() == \
        set(g.node_ids)
    assert metrics.messages <= bb.size + 1


def test_run_experiment_simulates_once(monkeypatch):
    from rumorcast import scenario
    from rumorcast.fixtures import gen_star_path

    seen = []

    def spy(*args, **kw):
        seen.append(simulate_schedule(*args, **kw))
        return seen[-1]

    monkeypatch.setattr(scenario, "simulate_schedule", spy)
    g, sources = gen_star_path(3, 1)
    sc = scenario.Scenario(name="sp", network=g, sources=tuple(sources),
                           compression=2)
    assert scenario.run_experiment(sc, [0, 1]).ok
    assert len(seen) == 1


def test_holds_all_reads_the_masks():
    g, _ = path4()
    ra, rb, rc = Rumor("a", 0), Rumor("b", 0), Rumor("c", 0)
    sched = Schedule(rounds=(
        (Transmission("a", Batch((ra,))),),
        (Transmission("b", Batch((ra,))),),
        (Transmission("c", Batch((ra,))), Transmission("b", Batch((rb,)))),
    ))
    metrics = simulate_schedule(g, sched)
    assert metrics.holds_all([ra])
    assert metrics.holds_all([])
    assert not metrics.holds_all([ra, rb])  # b's rumor never reaches d
    assert not metrics.holds_all([ra, rc])  # c's rumor is not scheduled
    assert not metrics.holds_all([Rumor("a", 1)])
    delivery = delivery_times(g, sched)
    assert delivery[rb].keys() == {"a", "b", "c"}
    assert delivery.get(rc, {}).keys() == frozenset()


def replay_delivery(g, sched, rumor):
    """First round each node hears ``rumor``, reading the schedule alone;
    every reception is clean, as in a collision-free schedule."""
    times = {rumor.source: 0}
    for t, rnd in enumerate(sched.rounds, start=1):
        for tx in rnd:
            if rumor in tx.batch.rumors:
                assert tx.sender in times and times[tx.sender] < t
                for v in g.adjacency[tx.sender]:
                    times.setdefault(v, t)
    return times


def test_gossip_on_a_thousand_node_udg():
    # every node a source: masks span many machine words, and the
    # transform must leave no listener hearing two senders
    from rumorcast.fixtures import gen_random_udg

    n = 1000
    g = gen_random_udg(n, math.sqrt(12 / (math.pi * n)), seed=3)
    sources = list(g.node_ids)
    sched = multibroadcast_schedule(g, greedy_cds(g), sources, 4)
    safe = make_collision_free(g, sched)
    metrics = simulate_schedule(g, safe, interference=True)
    assert metrics.collisions == 0
    assert metrics.messages == sched.message_count
    rumors = [Rumor(s, i) for i, s in enumerate(sources)]
    assert metrics.holds_all(rumors)
    reference = arrival_simulate(g, safe, interference=True)
    assert metrics.rumors == reference.rumors
    assert metrics.holders == transposed_holders(g, reference)
    for r in (rumors[0], rumors[n // 2], rumors[-1]):
        assert reference.delivery_time[r] == replay_delivery(g, safe, r)


def test_multibroadcast_schedule_needs_a_source():
    g = NetworkGraph.from_adjacency({0: [1], 1: [0, 2], 2: [1]})
    with pytest.raises(ScheduleError, match="no sources"):
        multibroadcast_schedule(g, greedy_cds(g), [], 1)
