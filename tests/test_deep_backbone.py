"""A backbone deeper than the interpreter's recursion limit.

A path longer than ``sys.getrecursionlimit()`` nodes gives a greedy
backbone of about the same depth.  It must run end to end through
``run_experiment`` in the centralized and the collision-detecting mode.
A 3000-member path backbone must also go through the centralized
schedule, the collision-free transform and the simulator.
"""

from __future__ import annotations

import sys

import pytest

from rumorcast.backbone import Backbone
from rumorcast.central import (Rumor, make_collision_free,
                               multibroadcast_schedule, simulate_schedule)
from rumorcast.model import NetworkGraph
from rumorcast.scenario import Scenario, run_experiment

from reception_reference import delivery_times

PATH_NODES = 1200


def deep_path() -> NetworkGraph:
    return NetworkGraph.from_adjacency(
        {i: [j for j in (i - 1, i + 1) if 0 <= j < PATH_NODES]
         for i in range(PATH_NODES)})


@pytest.mark.parametrize("mode", ["centralized", "distributed-cd"])
def test_path_deeper_than_recursion_limit(mode):
    assert PATH_NODES > sys.getrecursionlimit()
    sc = Scenario(name="deep-path", network=deep_path(),
                  sources=(0, PATH_NODES // 2, PATH_NODES - 1),
                  compression=2, mode=mode)
    report = run_experiment(sc, [0])
    (run,) = report.outcomes
    assert report.ok, run.violations
    assert run.messages >= run.message_lb
    assert run.makespan >= run.time_lb
    if mode == "centralized":
        assert run.collisions == 0


def test_3000_member_path_backbone_delivers_everything():
    n = 3000
    g = NetworkGraph.from_adjacency(
        {i: [j for j in (i - 1, i + 1) if 0 <= j < n] for i in range(n)})
    bb = Backbone(members=tuple(range(n)), root=0,
                  parent={i: i - 1 if i else None for i in range(n)})
    sources = (0, n // 2, n - 1)
    sched = multibroadcast_schedule(g, bb, sources, 2)
    safe = make_collision_free(g, sched)
    metrics = simulate_schedule(g, safe, interference=True)
    assert metrics.collisions == 0
    everyone = frozenset(g.node_ids)
    delivery = delivery_times(g, safe, interference=True)
    for i, s in enumerate(sources):
        assert delivery[Rumor(s, i)].keys() == everyone
