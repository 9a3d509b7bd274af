"""The exhaustive searches and the single-source broadcast against
reference copies recorded before they were refactored.

The references below are the earlier, separate breadth-first loops of
``min_message_schedule`` and ``min_makespan_schedule`` with their own
witness builders, and the hand-rolled wave loop of ``broadcast_schedule``.
The library versions must give the same witnesses, the same schedules, and
the same errors (type and message).
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumorcast.backbone import Backbone, greedy_cds, validate_backbone
from rumorcast.central import (
    Batch,
    Rumor,
    Schedule,
    Transmission,
    _attach_member,
    _rounds_from_map,
    broadcast_schedule,
    schedule_to_dict,
)
from rumorcast.model import ModelError, NetworkGraph

import oracles as search
from oracles import (SearchError, _maximal_batches, _prepare,
                     min_makespan_schedule, min_message_schedule)


def _batch(rumors):
    return Batch(tuple(sorted(set(rumors))))


def ref_mask_to_batch(mask, rlist):
    return Batch(tuple(r for b, r in enumerate(rlist) if mask >> b & 1))


def ref_min_message_schedule(g, rumors, compression, *,
                             state_budget=search.DEFAULT_STATE_BUDGET):
    ids, rlist, out_idx, start, full = _prepare(g, rumors, compression)
    if all(m == full for m in start):
        return Schedule(rounds=())
    parent = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for st_ in frontier:
            for u, outs in enumerate(out_idx):
                if not st_[u] or not outs:
                    continue
                for bm in _maximal_batches(st_[u], compression):
                    if not any(bm & ~st_[v] for v in outs):
                        continue
                    new = list(st_)
                    for v in outs:
                        new[v] |= bm
                    tnew = tuple(new)
                    if tnew in parent:
                        continue
                    parent[tnew] = (st_, u, bm)
                    if len(parent) > state_budget:
                        raise SearchError("message search exceeded its "
                                          f"state budget {state_budget}")
                    if all(m == full for m in tnew):
                        moves = []
                        state = tnew
                        while parent[state] is not None:
                            state, u, bm = parent[state]
                            moves.append(Transmission(
                                ids[u], ref_mask_to_batch(bm, rlist)))
                        moves.reverse()
                        return Schedule(rounds=tuple((tx,) for tx in moves))
                    nxt.append(tnew)
        frontier = nxt
    raise SearchError("no schedule can deliver every rumor to every node")


def ref_min_makespan_schedule(g, rumors, compression, *,
                              state_budget=search.DEFAULT_STATE_BUDGET):
    ids, rlist, out_idx, start, full = _prepare(g, rumors, compression)
    if all(m == full for m in start):
        return Schedule(rounds=())
    parent = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for st_ in frontier:
            options = []
            for u, outs in enumerate(out_idx):
                if not st_[u] or not outs:
                    continue
                useful = [bm for bm in _maximal_batches(st_[u], compression)
                          if any(bm & ~st_[v] for v in outs)]
                if useful:
                    options.append((u, useful))
            if not options:
                continue
            width = 1
            for _, choices in options:
                width *= len(choices)
            if width > search.JOINT_BRANCH_CAP:
                raise SearchError(f"round branching {width} exceeds cap "
                                  f"{search.JOINT_BRANCH_CAP}")
            senders = tuple(u for u, _ in options)
            for combo in itertools.product(*(c for _, c in options)):
                new = list(st_)
                for u, bm in zip(senders, combo):
                    for v in out_idx[u]:
                        new[v] |= bm
                tnew = tuple(new)
                if tnew in parent:
                    continue
                parent[tnew] = (st_, senders, combo)
                if len(parent) > state_budget:
                    raise SearchError("round search exceeded its "
                                      f"state budget {state_budget}")
                if all(m == full for m in tnew):
                    rounds = []
                    state = tnew
                    while parent[state] is not None:
                        state, senders, combo = parent[state]
                        rounds.append(tuple(
                            Transmission(ids[u], ref_mask_to_batch(bm, rlist))
                            for u, bm in zip(senders, combo)))
                    rounds.reverse()
                    return Schedule(rounds=tuple(rounds))
                nxt.append(tnew)
        frontier = nxt
    raise SearchError("no schedule can deliver every rumor to every node")


def ref_broadcast_schedule(g, bb, source):
    validate_backbone(g, bb)
    if source not in g.adjacency:
        raise ModelError(f"unknown source {source!r}")
    rumor = Rumor(source, 0)
    members = set(bb.members)
    by_round = {}
    t0 = 0
    entry = _attach_member(g, members, source)
    if entry != source:
        by_round[1] = [Transmission(source, _batch([rumor]))]
        t0 = 1
    wave = [entry]
    seen = {entry}
    depth = 0
    while wave:
        for u in wave:
            by_round.setdefault(t0 + depth + 1, []).append(
                Transmission(u, _batch([rumor])))
        nxt = []
        for u in wave:
            for v in g.adjacency[u]:
                if v in members and v not in seen:
                    seen.add(v)
                    nxt.append(v)
        wave = sorted(nxt)
        depth += 1
    return _rounds_from_map(by_round)


def outcome(fn, *args, **kw):
    """The witness as a dict, or the raised error's type and message."""
    try:
        return schedule_to_dict(fn(*args, **kw))
    except Exception as exc:  # compared, never swallowed silently
        return type(exc).__name__, str(exc)


@st.composite
def search_cases(draw):
    """A directed graph on at most 6 nodes (possibly disconnected) with at
    most 3 rumors, some sharing a source."""
    n = draw(st.integers(1, 6))
    ids = draw(st.permutations([3 * i + 1 for i in range(n)]))
    adj = {u: [v for v in ids if v != u and draw(st.booleans())]
           for u in ids}
    srcs = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3))
    rumors = [Rumor(s, i) for i, s in enumerate(srcs)]
    c = draw(st.integers(1, 3))
    budget = draw(st.sampled_from([search.DEFAULT_STATE_BUDGET, 3, 20]))
    return NetworkGraph.from_adjacency(adj), rumors, c, budget


@given(search_cases())
@settings(max_examples=300, deadline=None)
def test_searches_match_reference(case):
    g, rumors, c, budget = case
    for new, ref in ((min_message_schedule, ref_min_message_schedule),
                     (min_makespan_schedule, ref_min_makespan_schedule)):
        want = outcome(ref, g, rumors, c, state_budget=budget)
        assert outcome(new, g, rumors, c, state_budget=budget) == want


SPLIT = NetworkGraph.from_adjacency({"a": ["b"], "b": [], "c": []})
PATH6 = NetworkGraph.from_adjacency(
    {i: [j for j in (i - 1, i + 1) if 0 <= j < 6] for i in range(6)})
PAIR = NetworkGraph.from_adjacency({0: [1], 1: [0]})


@pytest.mark.parametrize("g, rumors, c, budget, cap, says", [
    (SPLIT, [Rumor("a")], 1, 100, 100, "no schedule can deliver"),
    (PATH6, [Rumor(0), Rumor(5), Rumor(2, 1)], 1, 4, 100, "state budget 4"),
    # 3 + 3 rumors at the two ends, one per message: 9 joint choices
    (PAIR, [Rumor(i % 2, i) for i in range(6)], 1, 100, 8,
     "round branching 9 exceeds cap 8"),
], ids=["infeasible", "state-budget", "branch-cap"])
def test_search_errors_match_reference(g, rumors, c, budget, cap, says,
                                       monkeypatch):
    monkeypatch.setattr(search, "JOINT_BRANCH_CAP", cap)
    for new, ref in ((min_message_schedule, ref_min_message_schedule),
                     (min_makespan_schedule, ref_min_makespan_schedule)):
        want = outcome(ref, g, rumors, c, state_budget=budget)
        assert outcome(new, g, rumors, c, state_budget=budget) == want
    assert want[0] == "SearchError" and says in want[1]


@st.composite
def broadcast_cases(draw):
    """A random recursive member tree with chords, non-member nodes that
    each hear one to three members, and a member or non-member source."""
    n = draw(st.integers(1, 9))
    extra = draw(st.integers(0, 5))
    ids = draw(st.permutations([4 * i + 3 for i in range(n + extra)]))
    members, outsiders = ids[:n], ids[n:]
    parent = {members[0]: None}
    adj = {u: set() for u in ids}

    def link(a, b):
        if a != b:
            adj[a].add(b)
            adj[b].add(a)

    for i in range(1, n):
        parent[members[i]] = members[draw(st.integers(0, i - 1))]
        link(parent[members[i]], members[i])
    for u in outsiders:
        for m in draw(st.lists(st.sampled_from(members), min_size=1,
                               max_size=3)):
            link(u, m)
    for _ in range(draw(st.integers(0, n + extra))):
        link(draw(st.sampled_from(ids)), draw(st.sampled_from(ids)))
    g = NetworkGraph.from_adjacency(adj)
    bb = Backbone(members=tuple(sorted(members)), root=members[0],
                  parent=parent)
    if draw(st.booleans()):
        bb = greedy_cds(g)
    pool = draw(st.sampled_from([members, outsiders or members]))
    return g, bb, draw(st.sampled_from(pool))


@given(broadcast_cases())
@settings(max_examples=300, deadline=None)
def test_broadcast_matches_wave_loop_reference(case):
    g, bb, source = case
    want = outcome(ref_broadcast_schedule, g, bb, source)
    assert isinstance(want, dict)
    assert outcome(broadcast_schedule, g, bb, source) == want


@pytest.mark.parametrize("source", [0, 2, 4, 9])
def test_broadcast_matches_reference_on_a_path_with_a_leaf(source):
    # members 0..4 on a path, rooted at 2; non-member 9 hears 3 and 4
    adj = {i: [j for j in (i - 1, i + 1) if 0 <= j < 5] for i in range(5)}
    adj = {**adj, 3: [2, 4, 9], 4: [3, 9], 9: [3, 4]}
    g = NetworkGraph.from_adjacency(adj)
    bb = Backbone(members=(0, 1, 2, 3, 4), root=2,
                  parent={0: 1, 1: 2, 2: None, 3: 2, 4: 3})
    want = outcome(ref_broadcast_schedule, g, bb, source)
    assert outcome(broadcast_schedule, g, bb, source) == want
