"""One keeper for what a graph keeps: ``model.kept``.

Every fact another module derives from a graph and keeps on it (the
greedy and the oracle backbones, the slot count, a distributed run's
checked plan) goes through ``kept``, which serves the entry for the latest
key and replaces it on another.  These tests check that a failing build
leaves the previous entry in place and usable, that another key replaces
the entry, and that no module but ``model`` touches a graph's instance
dict.
"""

from __future__ import annotations

import ast
import math
import pathlib

import pytest

import rumorcast
from rumorcast.backbone import greedy_cds
from rumorcast.distributed import (DistributedError, SimConfig,
                                   run_distributed_multibroadcast, slot_count)
from rumorcast.fixtures import gen_random_udg
from rumorcast.model import NetworkGraph, kept
from test_distributed_prepare import count_calls

SRC = pathlib.Path(rumorcast.__file__).parent


def test_a_key_is_matched_by_identity_first_then_by_equality():
    g = NetworkGraph.from_adjacency({0: [1], 1: [0]})
    builds = []

    def build(value):
        builds.append(value)
        return value

    nan = math.nan  # nan == nan is false, so only identity matches it
    assert kept(g, "fact", nan, build, 1) == 1
    assert kept(g, "fact", nan, build, 2) == 1
    assert kept(g, "fact", float("nan"), build, 3) == 3
    assert kept(g, "fact", (1, "a"), build, 4) == 4
    assert kept(g, "fact", (1, "a"), build, 5) == 4  # equal, not identical
    assert builds == [1, 3, 4]


def test_another_key_replaces_the_entry():
    g = NetworkGraph.from_adjacency({0: [1], 1: [0]})
    assert kept(g, "fact", "a", str.upper, "x") == "X"
    assert kept(g, "fact", "b", str.upper, "y") == "Y"
    # only the latest key is kept: "a" builds afresh
    assert kept(g, "fact", "a", str.upper, "z") == "Z"
    # entries under other names stand apart
    assert kept(g, "other", "a", str.upper, "w") == "W"
    assert kept(g, "fact", "a", str.upper, "v") == "Z"


def test_a_failing_build_keeps_nothing_and_leaves_the_entry():
    g = NetworkGraph.from_adjacency({0: [1], 1: [0]})
    assert kept(g, "fact", 1, str.upper, "x") == "X"
    with pytest.raises(TypeError):
        kept(g, "fact", 2, str.upper, 3)
    with pytest.raises(TypeError):  # nothing was kept for key 2
        kept(g, "fact", 2, str.upper, 3)
    assert kept(g, "fact", 1, str.upper, "unused") == "X"


def test_an_overflowing_slot_count_leaves_the_good_one(monkeypatch):
    g = gen_random_udg(20, 0.4, seed=1)
    calls = count_calls(monkeypatch, "slots_per_half")
    good = SimConfig(slot_factor=0.5)
    want = math.ceil(0.5 * g.max_degree)
    assert slot_count(g, good) == want
    huge = SimConfig(slot_factor=1e308)
    with pytest.raises(DistributedError, match="overflows"):
        slot_count(g, huge)
    assert slot_count(g, good) == want
    # the good cfg was served from its entry
    assert calls == {"slots_per_half": 2}
    # another cfg replaces the entry, and an equal one is served from it
    assert slot_count(g, SimConfig(slot_factor=2.0)) == 2 * g.max_degree
    assert slot_count(g, SimConfig(slot_factor=2.0)) == 2 * g.max_degree
    assert slot_count(g, good) == want
    assert calls == {"slots_per_half": 4}


@pytest.mark.parametrize("mode", ["cd", "nocd"])
def test_a_refused_compression_leaves_the_kept_preparation(monkeypatch,
                                                           mode):
    g = gen_random_udg(40, 0.3, seed=4)
    bb = greedy_cds(g)
    sources = g.node_ids[::8]
    cfg = SimConfig(slot_factor=0.5, mode=mode, seed=2)
    calls = count_calls(monkeypatch, "plan_multibroadcast")
    want = run_distributed_multibroadcast(g, bb, sources, 2, cfg).to_dict()
    with pytest.raises(DistributedError, match="compression"):
        run_distributed_multibroadcast(g, bb, sources, 0, cfg)
    assert run_distributed_multibroadcast(g, bb, sources, 2,
                                          cfg).to_dict() == want
    assert calls == {"plan_multibroadcast": 1}
    # another compression factor plans afresh and replaces the entry
    run_distributed_multibroadcast(g, bb, sources, 1, cfg)
    run_distributed_multibroadcast(g, bb, sources, 2, cfg)
    assert calls == {"plan_multibroadcast": 3}


def instance_dict_uses(path: pathlib.Path) -> list[str]:
    """Each ``vars(...)`` call and ``__dict__`` attribute in a module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "vars"):
            found.append(f"{path.name}:{node.lineno} vars(")
        elif isinstance(node, ast.Attribute) and node.attr == "__dict__":
            found.append(f"{path.name}:{node.lineno} __dict__")
    return found


def test_only_model_touches_a_graphs_instance_dict():
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "model.py" in modules
    assert instance_dict_uses(SRC / "model.py")  # the keeper itself
    assert [use for p in modules if p.name != "model.py"
            for use in instance_dict_uses(p)] == []
