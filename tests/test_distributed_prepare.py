"""One preparation per experiment: the seeds of a distributed experiment
share its checks, its plan and its stage masks.

The preparation is kept on the graph for one (backbone, sources, c) at a
time.  These tests count the checks and plans an experiment makes, compare
a many-seed experiment with single-seed runs on freshly loaded scenarios,
compare warm and cold traces byte for byte, and check that a kept
preparation neither hides a failing check nor serves another run's plan.
"""

import io
import json
from dataclasses import replace

import pytest

from rumorcast import distributed
from rumorcast.backbone import Backbone, BackboneError, greedy_cds
from rumorcast.distributed import (DistributedError, SimConfig,
                                   run_distributed_multibroadcast)
from rumorcast.fixtures import gen_random_udg
from rumorcast.model import ModelError
from rumorcast.scenario import (Scenario, load_scenario, run_experiment,
                                scenario_to_dict)

MODES = ["distributed-cd", "distributed-nocd"]
KINDS = ["greedy", "bounded-diameter"]


def network():
    """A fresh 40-node UDG on every call, so nothing is kept on it yet."""
    return gen_random_udg(40, 0.3, seed=4)


def scenario(mode, kind="greedy"):
    g = network()
    return Scenario(name="udg40", network=g, sources=g.node_ids[::8],
                    compression=2, mode=mode,
                    cfg=SimConfig(slot_factor=0.5), backbone_kind=kind)


def cfg_of(mode, seed):
    return SimConfig(slot_factor=0.5, mode=mode[len("distributed-"):],
                     seed=seed)


def count_calls(monkeypatch, *names):
    """Count the calls made through these ``distributed`` attributes."""
    calls = dict.fromkeys(names, 0)

    def counted(name, inner):
        def count(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return count

    for name in names:
        monkeypatch.setattr(distributed, name,
                            counted(name, getattr(distributed, name)))
    return calls


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mode", MODES)
def test_an_experiment_checks_and_plans_once(monkeypatch, mode, kind):
    calls = count_calls(monkeypatch, "plan_multibroadcast",
                        "validate_backbone")
    assert run_experiment(scenario(mode, kind), range(6)).ok
    assert calls == {"plan_multibroadcast": 1, "validate_backbone": 1}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mode", MODES)
def test_many_seeds_equal_single_seed_runs_on_fresh_scenarios(tmp_path,
                                                              mode, kind):
    path = tmp_path / "udg40.json"
    path.write_text(json.dumps(scenario_to_dict(scenario(mode, kind))))
    together = run_experiment(load_scenario(str(path)), range(6))
    alone = [run_experiment(load_scenario(str(path)), [seed]).outcomes[0]
             for seed in range(6)]
    assert [o.to_dict() for o in together.outcomes] == [
        o.to_dict() for o in alone]
    assert len({o.makespan for o in alone}) > 1  # the seeds do differ


@pytest.mark.parametrize("mode", MODES)
def test_a_warm_trace_is_byte_identical_to_a_cold_one(mode):
    def traced(g, bb, seed):
        buf = io.StringIO()
        dm = run_distributed_multibroadcast(g, bb, g.node_ids[::8], 2,
                                            cfg_of(mode, seed), trace=buf)
        return dm.to_dict(), buf.getvalue()

    cold_g = network()
    cold = traced(cold_g, greedy_cds(cold_g), 5)
    warm_g = network()
    warm_bb = greedy_cds(warm_g)
    traced(warm_g, warm_bb, 4)
    assert traced(warm_g, warm_bb, 5) == cold
    assert cold[1]


@pytest.mark.parametrize("mode", MODES)
def test_a_kept_preparation_skips_no_check(mode):
    g = network()
    bb = greedy_cds(g)
    sources = list(g.node_ids[::8])
    cfg = cfg_of(mode, 1)
    want = run_distributed_multibroadcast(g, bb, sources, 2, cfg).to_dict()
    lone = bb.members[0]
    undominating = Backbone(members=(lone,), root=lone, parent={lone: None})
    with pytest.raises(BackboneError, match="not dominated"):
        run_distributed_multibroadcast(g, undominating, sources, 2, cfg)
    with pytest.raises(DistributedError, match="compression"):
        run_distributed_multibroadcast(g, bb, sources, 0, cfg)
    with pytest.raises(ModelError, match="unknown source"):
        run_distributed_multibroadcast(g, bb, sources + ["nope"], 2, cfg)
    assert run_distributed_multibroadcast(g, bb, sources, 2,
                                          cfg).to_dict() == want


@pytest.mark.parametrize("mode", MODES)
def test_other_sources_or_another_c_get_a_fresh_plan(mode):
    g = network()
    bb = greedy_cds(g)
    runs = [(g.node_ids[::8], 2), (g.node_ids[1::7], 2),
            (g.node_ids[::8], 1), (g.node_ids[::8], 2)]
    for seed, (sources, c) in enumerate(runs):
        cfg = cfg_of(mode, seed)
        fresh = network()
        want = run_distributed_multibroadcast(fresh, greedy_cds(fresh),
                                              sources, c, cfg)
        got = run_distributed_multibroadcast(g, bb, sources, c, cfg)
        assert got.to_dict() == want.to_dict(), (sources, c)
        assert got.delivered_everything


def test_a_scenario_override_of_mode_keeps_the_preparation(monkeypatch):
    # CD and NoCD arm the same stages, so switching the mode on one graph
    # plans nothing again
    calls = count_calls(monkeypatch, "plan_multibroadcast")
    sc = scenario("distributed-cd")
    assert run_experiment(sc, [0, 1]).ok
    assert run_experiment(replace(sc, mode="distributed-nocd"), [0, 1]).ok
    assert calls == {"plan_multibroadcast": 1}
