"""Bitmask ``simulate_schedule`` against the set-based simulator it replaced.

``reference_simulate`` below is the earlier implementation: one set of
planned holdings per node and one ``{node: round}`` map per rumor.  On
random schedules with several senders per round, with interference on and
off, the two must agree on messages, makespan, collisions and each
rumor's holders, and must raise the same ``ScheduleError`` with the same
message; the test-side replay ``delivery_times`` must give its delivery
times.
"""

import pytest
from hypothesis import given, settings, strategies as st

from rumorcast.central import (Batch, Rumor, Schedule, ScheduleError,
                               Transmission, simulate_schedule)
from rumorcast.model import NetworkGraph

from reception_reference import (arrival_simulate, delivery_times, hearing,
                                 holder_sets, transposed_holders)


def reference_simulate(g, sched, *, interference=False):
    plan_hold: dict = {u: set() for u in g.node_ids}
    delivery: dict = {}
    for rnd in sched.rounds:
        for tx in rnd:
            for r in tx.batch.rumors:
                if r.source not in g.adjacency:
                    raise ScheduleError(f"rumor source {r.source!r} unknown")
                plan_hold[r.source].add(r)
                delivery.setdefault(r, {})[r.source] = 0

    collisions = 0
    for t, rnd in enumerate(sched.rounds, start=1):
        seen_senders = set()
        for tx in rnd:
            if tx.sender not in g.adjacency:
                raise ScheduleError(f"round {t}: unknown sender {tx.sender!r}")
            if tx.sender in seen_senders:
                raise ScheduleError(
                    f"round {t}: sender {tx.sender!r} transmits twice")
            seen_senders.add(tx.sender)
            missing = [r for r in tx.batch.rumors
                       if r not in plan_hold[tx.sender]]
            if missing:
                raise ScheduleError(
                    f"round {t}: sender {tx.sender!r} does not hold "
                    f"{missing[0]}")
        heard = hearing(g, [tx.sender for tx in rnd])
        for tx in rnd:
            for v in g.adjacency[tx.sender]:
                if interference and len(heard[v]) > 1:
                    collisions += 1
                else:
                    for r in tx.batch.rumors:
                        delivery[r].setdefault(v, t)
                for r in tx.batch.rumors:
                    plan_hold[v].add(r)
    return (sched.message_count, sched.makespan, collisions,
            {r: dict(times) for r, times in delivery.items()})


def outcome(simulate, g, sched, interference):
    try:
        got = simulate(g, sched, interference=interference)
    except ScheduleError as exc:
        return type(exc), str(exc)
    if isinstance(got, tuple):
        *counts, delivery = got
        return (*counts, {r: frozenset(d) for r, d in delivery.items()})
    return got.messages, got.makespan, got.collisions, holder_sets(got)


@st.composite
def digraphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1),
                                   st.integers(0, n - 1)), max_size=30))
    return NetworkGraph.from_adjacency(
        {u: {v for a, v in edges if a == u and v != u} for u in range(n)})


def random_schedule(data, g, *, faulty):
    """Rounds of several senders.  A causal schedule sends only rumors the
    sender holds if every planned reception succeeds; a faulty one may
    also send any rumor, from unknown senders, unknown sources or the same
    sender twice.  Batch objects are reused across senders and rounds."""
    ids = list(g.node_ids)
    known = [Rumor(u, s) for u in ids for s in (0, 1)]
    plan = {u: {Rumor(u, 0), Rumor(u, 1)} for u in ids}
    stranger = len(ids) + 7
    sent: list[Batch] = []
    rounds = []
    for _ in range(data.draw(st.integers(1, 6))):
        senders = data.draw(st.lists(st.sampled_from(ids), min_size=1,
                                     max_size=len(ids), unique=True))
        if faulty and data.draw(st.integers(0, 5)) == 0:
            senders.append(data.draw(st.sampled_from([*senders, stranger])))
        rnd = []
        for u in senders:
            pool = sorted(plan[u]) if u in plan else known
            if faulty and data.draw(st.booleans()):
                pool = known + [Rumor(stranger, 0)]
            if sent and data.draw(st.integers(0, 2)) == 0:
                batch = data.draw(st.sampled_from(sent))
                if not faulty and not set(batch.rumors) <= plan[u]:
                    batch = Batch((Rumor(u, 0),))
            else:
                batch = Batch(tuple(sorted(data.draw(
                    st.sets(st.sampled_from(pool), min_size=1)))))
            sent.append(batch)
            rnd.append(Transmission(u, batch))
        for tx in rnd:
            for v in g.adjacency.get(tx.sender, ()):
                plan[v].update(tx.batch.rumors)
        rounds.append(tuple(rnd))
    return Schedule(rounds=tuple(rounds))


@given(digraphs(), st.data(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_causal_schedules_match_reference(g, data, interference):
    sched = random_schedule(data, g, faulty=False)
    want = outcome(reference_simulate, g, sched, interference)
    assert isinstance(want, tuple) and len(want) == 4
    assert outcome(simulate_schedule, g, sched, interference) == want
    assert delivery_times(g, sched, interference=interference) == \
        reference_simulate(g, sched, interference=interference)[3]


@given(digraphs(), st.data(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_faulty_schedules_match_reference(g, data, interference):
    sched = random_schedule(data, g, faulty=True)
    assert (outcome(simulate_schedule, g, sched, interference)
            == outcome(reference_simulate, g, sched, interference))


# --- each ScheduleError, named -----------------------------------------------

def path4():
    return NetworkGraph.from_adjacency(
        {"a": ["b"], "b": ["a", "c"], "c": ["b", "d"], "d": ["c"]})


ra, rb, rc = Rumor("a", 0), Rumor("b", 0), Rumor("c", 0)
ERROR_CASES = {
    "unknown rumor source": (
        ((Transmission("a", Batch((ra,))),),
         (Transmission("b", Batch((ra, Rumor("z", 0)))),)),
        "rumor source 'z' unknown"),
    "unknown sender": (
        ((Transmission("a", Batch((ra,))), Transmission("q", Batch((ra,)))),),
        "round 1: unknown sender 'q'"),
    "sender twice": (
        ((Transmission("a", Batch((ra,))),),
         (Transmission("b", Batch((ra,))), Transmission("b", Batch((rb,))))),
        "round 2: sender 'b' transmits twice"),
    "first missing rumor in batch order": (
        ((Transmission("d", Batch((Rumor("d", 0),))),),
         (Transmission("c", Batch((ra, rb, rc, Rumor("d", 0)))),)),
        "round 2: sender 'c' does not hold Rumor(source='a', seq=0)"),
    "rumor heard only through a jam is still planned": (
        ((Transmission("a", Batch((ra,))), Transmission("c", Batch((rc,)))),
         (Transmission("b", Batch((ra, Rumor("d", 0)))),)),
        "round 2: sender 'b' does not hold Rumor(source='d', seq=0)"),
}


@pytest.mark.parametrize("interference", [False, True])
@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_schedule_errors_match_reference(case, interference):
    rounds, message = ERROR_CASES[case]
    g, sched = path4(), Schedule(rounds=rounds)
    want = outcome(reference_simulate, g, sched, interference)
    assert want == (ScheduleError, message)
    assert outcome(simulate_schedule, g, sched, interference) == want


def test_clean_reception_after_a_jam_delivers():
    # b loses a's rumor to the jam in round 1 but hears it cleanly in round 2
    g = path4()
    sched = Schedule(rounds=(
        (Transmission("a", Batch((ra,))), Transmission("c", Batch((rc,)))),
        (Transmission("a", Batch((ra,))),),
    ))
    got = simulate_schedule(g, sched, interference=True)
    assert got.collisions == 2
    assert delivery_times(g, sched, interference=True)[ra] == {"a": 0, "b": 2}
    assert outcome(simulate_schedule, g, sched, True) == \
        outcome(reference_simulate, g, sched, True)


# --- node masks per rumor against the per-node arrival log ------------------

def run(simulate, g, sched, interference):
    try:
        return simulate(g, sched, interference=interference)
    except ScheduleError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("faulty", [False, True])
@given(g=digraphs(), data=st.data(), interference=st.booleans())
@settings(max_examples=200, deadline=None)
def test_node_masks_match_arrival_log(faulty, g, data, interference):
    sched = random_schedule(data, g, faulty=faulty)
    want = run(arrival_simulate, g, sched, interference)
    got = run(simulate_schedule, g, sched, interference)
    if isinstance(want, tuple):
        assert got == want
        return
    assert (got.messages, got.makespan, got.collisions, got.rumors) == \
        (want.messages, want.makespan, want.collisions, want.rumors)
    assert got.holders == transposed_holders(g, want)
    probes = [[], list(want.rumors), *([r] for r in want.rumors),
              [Rumor(len(g.node_ids) + 7, 0)]]
    for rumors in probes:
        assert got.holds_all(rumors) == want.holds_all(rumors)
