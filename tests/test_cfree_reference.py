"""Mask-based interference against the set-based code it replaced.

``reference_make_collision_free`` below is the earlier transform, which
kept each sub-round's listeners as a set of node ids.  The library keeps
them as one node mask per sub-round; on random digraphs with asymmetric
links and int or str ids, both must give the same ``Schedule``.  The mask
jam rule ``model.jammed`` must name exactly the listeners that the
list-form ``hearing`` of ``reception_reference`` lists with two or more
talkers, and each reach mask must hold exactly the node's out-neighbors.
"""

from hypothesis import given, settings, strategies as st

from rumorcast.central import (Batch, Rumor, Schedule, Transmission,
                               make_collision_free)
from rumorcast.model import NetworkGraph, jammed

from reception_reference import hearing


def reference_make_collision_free(g, sched):
    out_rounds = []
    for rnd in sched.rounds:
        groups = []
        group_cover = []
        for tx in sorted(rnd, key=lambda tx: tx.sender):
            reach = set(g.adjacency[tx.sender])
            placed = False
            for i, cover in enumerate(group_cover):
                if not (cover & reach):
                    groups[i].append(tx)
                    cover |= reach
                    placed = True
                    break
            if not placed:
                groups.append([tx])
                group_cover.append(set(reach))
        out_rounds.extend(tuple(grp) for grp in groups)
    return Schedule(rounds=tuple(out_rounds))


@st.composite
def digraphs(draw):
    """Random digraphs, links drawn one direction at a time; ids are ints
    or strs whose text order differs from their numeric order."""
    n = draw(st.integers(min_value=1, max_value=14))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1),
                                   st.integers(0, n - 1)), max_size=60))
    name = (lambda i: f"n{i}") if draw(st.booleans()) else (lambda i: i)
    return NetworkGraph.from_adjacency(
        {name(u): {name(v) for a, v in edges if a == u and v != u}
         for u in range(n)})


def random_rounds(data, g):
    """Rounds of distinct senders in drawn order; the transform needs no
    causality, so every batch carries the sender's own rumor."""
    ids = list(g.node_ids)
    rounds = []
    for _ in range(data.draw(st.integers(0, 5))):
        senders = data.draw(st.lists(st.sampled_from(ids), min_size=1,
                                     unique=True))
        rounds.append(tuple(Transmission(u, Batch((Rumor(u, 0),)))
                            for u in senders))
    return Schedule(rounds=tuple(rounds))


@given(digraphs(), st.data())
@settings(max_examples=300, deadline=None)
def test_collision_free_matches_reference(g, data):
    sched = random_rounds(data, g)
    assert (make_collision_free(g, sched)
            == reference_make_collision_free(g, sched))


@given(digraphs(), st.data())
@settings(max_examples=300, deadline=None)
def test_jam_mask_matches_hearing(g, data):
    talkers = data.draw(st.lists(st.sampled_from(list(g.node_ids)),
                                 unique=True))
    heard = hearing(g, talkers)
    jam = jammed(g, talkers)
    ids = list(g.node_ids)
    for u in talkers:
        assert g.reach[u] == sum(1 << ids.index(v) for v in g.adjacency[u])
    for i, v in enumerate(g.node_ids):
        assert bool(jam >> i & 1) == (len(heard.get(v, ())) > 1)
    assert jam >> len(g.node_ids) == 0
