"""Scenario files, seeded experiment runs, and the CLI surface."""

import hashlib
import json
import math
from dataclasses import replace

import pytest

from rumorcast.cli import main
from rumorcast.distributed import SimConfig, slot_count
from rumorcast.fixtures import gen_ring_fixture, gen_star_path
from rumorcast.model import NetworkGraph, network_to_dict
from rumorcast.scenario import (RESULTS_HEADER, Scenario, ScenarioError,
                                build_backbone, experiment_csv_rows,
                                run_experiment, scenario_from_dict,
                                scenario_to_dict)


def star_scenario(mode="centralized", **kw):
    g, sources = gen_star_path(3, 1)
    fields = dict(name="sp", network=g, sources=tuple(sources),
                  compression=3, mode=mode)
    fields.update(kw)
    return Scenario(**fields)


def test_scenario_validation():
    g, sources = gen_star_path(3, 1)
    with pytest.raises(ScenarioError, match="not network nodes"):
        star_scenario(sources=("p1", "nope"))
    with pytest.raises(ScenarioError, match="duplicate"):
        star_scenario(sources=("p1", "p1"))
    with pytest.raises(ScenarioError, match="compression"):
        star_scenario(compression=0)
    with pytest.raises(ScenarioError, match="compression"):
        star_scenario(compression=4)
    with pytest.raises(ScenarioError, match="mode"):
        star_scenario(mode="telepathy")
    with pytest.raises(ScenarioError, match="backbone"):
        star_scenario(backbone_kind="psychic")
    with pytest.raises(ScenarioError, match="name"):
        star_scenario(name="")
    one_way = NetworkGraph.from_adjacency({"a": ["b"], "b": []})
    with pytest.raises(ScenarioError, match="symmetric"):
        Scenario(name="x", network=one_way, sources=("a",), compression=1,
                 mode="distributed-cd")


def test_scenario_dict_roundtrip():
    sc = star_scenario(cfg=SimConfig(slot_factor=3.0, max_rounds=500),
                       backbone_kind="oracle", mode="distributed-nocd")
    data = scenario_to_dict(sc)
    sc2 = scenario_from_dict(data)
    assert sc2.network.adjacency == sc.network.adjacency
    assert sc2.sources == sc.sources
    assert sc2.compression == 3
    assert sc2.mode == "distributed-nocd"
    assert sc2.backbone_kind == "oracle"
    assert sc2.cfg.slot_factor == 3.0
    assert sc2.cfg.max_rounds == 500
    with pytest.raises(ScenarioError, match="unknown scenario keys"):
        scenario_from_dict({**data, "surprise": 1})
    with pytest.raises(ScenarioError, match="missing keys"):
        scenario_from_dict({"name": "x"})
    with pytest.raises(ScenarioError, match="unknown cfg keys"):
        scenario_from_dict({**data, "cfg": {"nu": 2.0}})


def test_scenario_network_by_file_path(tmp_path):
    (tmp_path / "net.json").write_text(
        json.dumps(network_to_dict(gen_ring_fixture(9))))
    sc = scenario_from_dict(
        {"name": "ring", "network": "net.json", "sources": ["hub"],
         "c": 1},
        base_dir=str(tmp_path))
    assert sc.sources == ("hub",)
    assert len(sc.network.node_ids) == 19
    with pytest.raises(ScenarioError, match="object or a file path"):
        scenario_from_dict({"name": "x", "network": 7, "sources": [],
                            "c": 1})


def test_run_experiment_centralized_is_seed_invariant():
    rep = run_experiment(star_scenario(), [0, 7])
    assert rep.ok
    assert [o.seed for o in rep.outcomes] == [0, 7]
    first, second = rep.outcomes
    assert (first.messages, first.makespan) == (second.messages,
                                                second.makespan)
    assert first.collisions == 0
    assert first.messages >= first.message_lb == rep.bounds.message_lb
    assert first.makespan >= first.time_lb
    assert first.ratio == first.messages / first.message_lb
    agg = rep.aggregates()
    assert agg["messages"]["mean"] == first.messages
    assert agg["ratio"]["min"] == agg["ratio"]["max"] == first.ratio


@pytest.mark.parametrize("mode", ["distributed-cd", "distributed-nocd"])
def test_run_experiment_distributed_modes_deliver(mode):
    rep = run_experiment(star_scenario(mode=mode), range(3))
    assert rep.ok
    assert all(o.makespan >= 1 for o in rep.outcomes)
    assert all(o.messages >= o.message_lb for o in rep.outcomes)


def test_run_experiment_flags_starved_runs():
    sc = star_scenario(mode="distributed-cd",
                       cfg=SimConfig(slot_factor=2.0, max_rounds=1))
    rep = run_experiment(sc, [0])
    assert not rep.ok
    assert any("delivered" in v for v in rep.outcomes[0].violations)


def test_run_experiment_rejects_empty_seeds_and_wraps_errors():
    with pytest.raises(ScenarioError, match="no seeds"):
        run_experiment(star_scenario(), [])
    big = star_scenario(backbone_kind="oracle",
                        network=gen_ring_fixture(9),
                        sources=("hub",), compression=1)
    with pytest.raises(ScenarioError, match="scenario 'sp'"):
        run_experiment(big, [0])  # 19 nodes exceed the oracle cap


@pytest.mark.parametrize("kind, builds", [("greedy", 1),
                                          ("bounded-diameter", 1),
                                          ("oracle", 0)])
def test_run_experiment_builds_the_greedy_backbone_once_per_graph(
        monkeypatch, kind, builds):
    # above the oracle cap the greedy backbone is the run's backbone or its
    # base, and the message floor's estimate: one construction serves all
    from rumorcast import backbone

    graphs = []
    build = backbone._greedy_cds

    def spy(g):
        graphs.append(g)
        return build(g)

    monkeypatch.setattr(backbone, "_greedy_cds", spy)
    if kind == "oracle":
        sc = star_scenario(backbone_kind=kind)
    else:
        sc = star_scenario(backbone_kind=kind, network=gen_ring_fixture(9),
                           sources=("t0", "t4", "hub"), compression=2)
        assert len(sc.network.node_ids) > 16
    for mode in ("centralized", "distributed-cd"):
        assert run_experiment(replace(sc, mode=mode), [0, 1]).ok
    assert len(graphs) == builds
    assert all(g is sc.network for g in graphs)


def test_run_experiment_searches_the_oracle_once_per_graph(monkeypatch):
    # the oracle is both the run's backbone and the message floor's
    # minimum: one search serves both, every mode and every seed
    from rumorcast import backbone

    graphs = []
    search = backbone._brute_force_mcds

    def spy(g):
        graphs.append(g)
        return search(g)

    monkeypatch.setattr(backbone, "_brute_force_mcds", spy)
    sc = star_scenario(backbone_kind="oracle")
    for mode in ("centralized", "distributed-cd", "distributed-nocd"):
        assert run_experiment(replace(sc, mode=mode), [0, 1]).ok
    assert graphs == [sc.network]
    other = star_scenario(backbone_kind="oracle")
    assert run_experiment(other, [0]).ok
    assert graphs == [sc.network, other.network]


def test_build_backbone_rejects_an_unknown_kind():
    g, _ = gen_star_path(3, 1)
    with pytest.raises(ScenarioError, match="unknown backbone kind 'nope'"):
        build_backbone(g, "nope")


def test_experiment_csv_rows_shape():
    rep = run_experiment(star_scenario(), [4])
    rows = experiment_csv_rows(rep)
    assert rows[0] == RESULTS_HEADER
    assert RESULTS_HEADER == ("scenario", "seed", "messages", "makespan",
                              "collisions", "msg_lb", "time_lb", "ratio")
    row = rows[1]
    assert row[0] == "sp" and row[1] == "4"
    whole, frac = row[7].split(".")
    assert len(frac) == 6


def test_cli_gen_validate_run_byte_identical(tmp_path, capsys):
    spath = str(tmp_path / "sp.json")
    assert main(["gen", "star-path", "--k", "3", "--d", "1", "--c", "3",
                 "--name", "sp", "--out", spath]) == 0
    assert main(["validate", "--scenario", spath]) == 0
    assert "ok" in capsys.readouterr().out
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["run", "--scenario", spath, "--seeds", "2", "--format", "csv"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().startswith(",".join(RESULTS_HEADER))


def test_cli_distributed_seed_rerun_is_byte_identical(tmp_path):
    spath = str(tmp_path / "sp.json")
    assert main(["gen", "star-path", "--k", "3", "--d", "1", "--c", "2",
                 "--mode", "distributed-nocd", "--name", "nocd",
                 "--out", spath]) == 0
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["run", "--scenario", spath, "--seed", "5"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_run_json_with_overrides(tmp_path, capsys):
    spath = str(tmp_path / "sp.json")
    assert main(["gen", "star-path", "--k", "2", "--d", "2", "--c", "2",
                 "--name", "ovr", "--out", spath]) == 0
    assert main(["run", "--scenario", spath, "--mode", "distributed-cd",
                 "--mu", "3", "--backbone", "bounded-diameter",
                 "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mode"] == "distributed-cd"
    assert report["backbone"] == "bounded-diameter"
    assert report["ok"] is True
    assert [run["seed"] for run in report["runs"]] == [0]
    assert report["runs"][0]["messages"] >= report["bounds"]["message_lb"]


def test_cli_gen_udg_and_ring_run(tmp_path):
    upath = str(tmp_path / "udg.json")
    assert main(["gen", "udg", "--n", "7", "--radius", "0.7", "--seed",
                 "1", "--k", "2", "--c", "2", "--out", upath]) == 0
    assert main(["validate", "--scenario", upath]) == 0
    assert main(["run", "--scenario", upath, "--seeds", "2", "--out",
                 str(tmp_path / "udg.csv")]) == 0
    rpath = str(tmp_path / "ring.json")
    assert main(["gen", "ring", "--ring-size", "9", "--k", "2", "--c",
                 "2", "--out", rpath]) == 0
    assert main(["run", "--scenario", rpath, "--mode", "distributed-cd",
                 "--out", str(tmp_path / "ring.csv")]) == 0
    lines = (tmp_path / "udg.csv").read_text().strip().splitlines()
    assert len(lines) == 3


def test_cli_bounds_formats(tmp_path, capsys):
    spath = str(tmp_path / "sp.json")
    assert main(["gen", "star-path", "--k", "3", "--d", "1", "--c", "3",
                 "--out", spath]) == 0
    assert main(["bounds", "--scenario", spath]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["message_lb"] >= 3 and report["mcds_is_exact"] is True
    assert main(["bounds", "--scenario", spath, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("scenario,message_lb,time_lb,mcds_size")


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["validate", "--scenario",
                 str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["validate", "--scenario", str(bad)]) == 2
    assert main(["gen", "star-path", "--k", "3", "--c", "5"]) == 2
    assert main(["no-such-verb"]) == 2
    capsys.readouterr()
    spath = str(tmp_path / "starved.json")
    assert main(["gen", "star-path", "--k", "3", "--d", "1", "--c", "3",
                 "--mode", "distributed-cd", "--out", spath]) == 0
    data = json.loads((tmp_path / "starved.json").read_text())
    data["cfg"]["max_rounds"] = 1
    (tmp_path / "starved.json").write_text(json.dumps(data))
    assert main(["run", "--scenario", spath]) == 1


def test_cli_run_flags_messages_below_the_floor(tmp_path, capsys):
    # two rounds of a 19-node ring send 4 messages; the floor is 18
    spath = tmp_path / "ring.json"
    assert main(["gen", "ring", "--ring-size", "9", "--k", "2", "--c", "1",
                 "--mode", "distributed-cd", "--out", str(spath)]) == 0
    data = json.loads(spath.read_text())
    data["cfg"]["max_rounds"] = 2
    spath.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["run", "--scenario", str(spath), "--format", "json"]) == 1
    run, = json.loads(capsys.readouterr().out)["runs"]
    assert "messages 4 below floor 18" in run["violations"]


def test_cli_unexpected_exception_exits_3(tmp_path, capsys, monkeypatch):
    spath = str(tmp_path / "sp.json")
    assert main(["gen", "star-path", "--k", "3", "--d", "1", "--c", "3",
                 "--out", spath]) == 0

    def broken(sc, seeds):
        raise RuntimeError("planner fell over")

    monkeypatch.setattr("rumorcast.cli.run_experiment", broken)
    capsys.readouterr()
    assert main(["run", "--scenario", spath]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: planner fell over\n"


def _validate_exit(tmp_path, capsys, edit) -> int:
    """Exit code of ``validate`` on the star-path scenario after ``edit``."""
    spath = tmp_path / "sp.json"
    assert main(["gen", "star-path", "--k", "3", "--d", "1", "--c", "3",
                 "--out", str(spath)]) == 0
    data = json.loads(spath.read_text())
    edit(data)
    spath.write_text(json.dumps(data))
    capsys.readouterr()
    code = main(["validate", "--scenario", str(spath)])
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "internal error" not in err
    return code


def test_cli_null_compression_exits_2(tmp_path, capsys):
    assert _validate_exit(tmp_path, capsys,
                          lambda d: d.update(c=None)) == 2


def test_cli_null_mu_exits_2(tmp_path, capsys):
    assert _validate_exit(tmp_path, capsys,
                          lambda d: d.update(cfg={"mu": None})) == 2


def test_cli_list_cfg_exits_2(tmp_path, capsys):
    assert _validate_exit(tmp_path, capsys,
                          lambda d: d.update(cfg=[])) == 2


def test_cli_list_source_exits_2(tmp_path, capsys):
    assert _validate_exit(tmp_path, capsys,
                          lambda d: d.update(sources=[[0]])) == 2


def test_cli_list_geometric_node_id_exits_2(tmp_path, capsys):
    network = {"nodes": [{"id": 0, "x": 0.0, "y": 0.0, "power": 1.0},
                         {"id": [1], "x": 0.5, "y": 0.0, "power": 1.0}]}
    assert _validate_exit(
        tmp_path, capsys,
        lambda d: d.update(network=network, sources=[0], c=1)) == 2


def test_cli_infinite_mu_exits_2(tmp_path, capsys):
    assert _validate_exit(tmp_path, capsys,
                          lambda d: d.update(cfg={"mu": float("inf")})) == 2


def test_cli_nan_mu_exits_2(tmp_path, capsys):
    assert _validate_exit(tmp_path, capsys,
                          lambda d: d.update(cfg={"mu": float("nan")})) == 2


def test_cli_fractional_compression_exits_2(tmp_path, capsys):
    assert _validate_exit(tmp_path, capsys,
                          lambda d: d.update(c=1.5)) == 2


def test_cli_fractional_max_rounds_exits_2(tmp_path, capsys):
    assert _validate_exit(tmp_path, capsys,
                          lambda d: d.update(cfg={"max_rounds": 2.7})) == 2


def test_cli_fractional_supplied_max_degree_exits_2(tmp_path, capsys):
    cfg = {"supplied_max_degree": 2.5}
    assert _validate_exit(tmp_path, capsys,
                          lambda d: d.update(cfg=cfg)) == 2
    data = json.loads((tmp_path / "sp.json").read_text())
    with pytest.raises(ScenarioError, match="^supplied_max_degree must be "
                                            "an integer, got 2.5$"):
        scenario_from_dict(data)


def test_cli_integral_float_compression_loads(tmp_path, capsys):
    spath = tmp_path / "sp.json"
    assert main(["gen", "star-path", "--k", "3", "--d", "1", "--c", "3",
                 "--out", str(spath)]) == 0
    data = json.loads(spath.read_text())
    data["c"] = 2.0
    spath.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["validate", "--scenario", str(spath)]) == 0
    assert "c=2," in capsys.readouterr().out
    assert scenario_from_dict(data).compression == 2


def _validate_network(tmp_path, capsys, network, sources):
    """Exit code and stderr of ``validate`` on a scenario over ``network``."""
    spath = tmp_path / "net.json"
    spath.write_text(json.dumps({"name": "net", "network": network,
                                 "sources": sources, "c": 1}))
    capsys.readouterr()
    code = main(["validate", "--scenario", str(spath)])
    return code, capsys.readouterr().err


def test_cli_duplicate_adjacency_row_exits_2(tmp_path, capsys):
    # two rows for node 0: neither may silently replace the other
    network = {"adjacency": [[0, [1]], [0, [2]], [1, [0]], [2, [0]]]}
    code, err = _validate_network(tmp_path, capsys, network, [0])
    assert code == 2
    assert err == "error: duplicate node id 0\n"


def test_cli_adjacency_object_exits_2(tmp_path, capsys):
    # an object's keys are not [id, neighbors] pairs: "ab" is no a-b edge
    network = {"adjacency": {"ab": 0, "ba": 0}}
    code, err = _validate_network(tmp_path, capsys, network, ["a"])
    assert code == 2
    assert err == ("error: adjacency must be a list of "
                   "[id, [neighbors...]] pairs\n")


def test_cli_string_neighbor_list_exits_2(tmp_path, capsys):
    # "yz" is one malformed neighbor list, not the neighbors y and z
    network = {"adjacency": [["x", "yz"], ["y", ["x"]], ["z", ["x"]]]}
    code, err = _validate_network(tmp_path, capsys, network, ["x"])
    assert code == 2
    assert err == "error: neighbors of 'x' must be a list, got 'yz'\n"


@pytest.mark.parametrize("strict", ["false", 0, None])
def test_cli_non_boolean_strict_exits_2(tmp_path, capsys, strict):
    # the nodes sit exactly one radius apart, so only strict mode cuts them
    nodes = [{"id": i, "x": float(i), "y": 0.0, "power": 1.0} for i in (0, 1)]
    network = {"nodes": nodes, "strict": strict}
    code, err = _validate_network(tmp_path, capsys, network, [0])
    assert code == 2
    assert err.startswith("error: ") and "strict" in err
    network["strict"] = False
    assert _validate_network(tmp_path, capsys, network, [0]) == (0, "")
    assert main(["run", "--scenario", str(tmp_path / "net.json")]) == 0


@pytest.mark.parametrize("network", [
    {"adjacency": [[0, ["a"]], ["a", [0, 1]], [1, ["a"]]]},
    {"adjacency": [[None, [0]], [0, [None]]]},
    {"nodes": [{"id": 0, "x": 0.0, "y": 0.0, "power": 1.0},
               {"id": "a", "x": 0.5, "y": 0.0, "power": 1.0}]},
], ids=["mixed-adjacency", "null-id", "mixed-nodes"])
def test_cli_unorderable_node_ids_exit_2(tmp_path, capsys, network):
    # ids that cannot be sorted together are a malformed file, not a crash
    code, err = _validate_network(tmp_path, capsys, network, [0])
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert main(["run", "--scenario", str(tmp_path / "net.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _refused(tmp_path, capsys, data) -> str:
    """``validate`` and ``run`` both exit 2 on ``data`` with one error line;
    returns that line."""
    spath = tmp_path / "sc.json"
    spath.write_text(json.dumps(data))
    capsys.readouterr()
    errs = []
    for verb in ("validate", "run"):
        assert main([verb, "--scenario", str(spath)]) == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[0].startswith("error: ") and errs[0].count("\n") == 1
    return errs[0]


INT_PATH = {"adjacency": [[1, [3]], [3, [1, 5]], [5, [3]]]}


@pytest.mark.parametrize("sources", [["1", 3], [True, 3], [1.0, 3]],
                         ids=["str-and-int", "true", "float"])
def test_cli_source_not_a_node_id_exits_2(tmp_path, capsys, sources):
    # "1" sorted against 3 raised TypeError; true and 1.0 aliased node 1
    _refused(tmp_path, capsys, {"name": "p", "network": INT_PATH,
                                "sources": sources, "c": 1})


def test_supplied_max_degree_sizes_the_slots(tmp_path, capsys):
    # a supplied degree stands in for the true maximum degree, 2 here
    data = {"name": "p", "network": INT_PATH, "mode": "distributed-cd",
            "sources": [1, 5], "c": 1,
            "cfg": {"mu": 2.5, "supplied_max_degree": 1}}
    spath = tmp_path / "sc.json"
    spath.write_text(json.dumps(data))
    assert main(["validate", "--scenario", str(spath)]) == 0
    sc = scenario_from_dict(data)
    assert sc.network.max_degree == 2
    assert slot_count(sc.network, sc.cfg) == math.ceil(2.5 * 1) == 3


def test_cli_degree_knowledge_key_exits_2(tmp_path, capsys):
    # the degree bound is stated by supplied_max_degree alone
    err = _refused(tmp_path, capsys, {"name": "p", "network": INT_PATH,
                                      "sources": [1, 5], "c": 1,
                                      "cfg": {"degree_knowledge": "exact"}})
    assert err == "error: unknown cfg keys ['degree_knowledge']\n"


def test_cli_no_sources_exits_2(tmp_path, capsys):
    err = _refused(tmp_path, capsys, {"name": "p", "network": INT_PATH,
                                      "sources": [], "c": 1})
    assert err == "error: scenario needs at least one source\n"


@pytest.mark.parametrize("key", ["c", "mu", "max_rounds",
                                 "supplied_max_degree"])
def test_cli_boolean_number_exits_2(tmp_path, capsys, key):
    # true would otherwise load as 1, a valid value for every one of these
    data = {"name": "p", "network": INT_PATH, "sources": [1, 5], "c": 1,
            "cfg": {"supplied_max_degree": 2}}
    (data if key == "c" else data["cfg"])[key] = True
    err = _refused(tmp_path, capsys, data)
    assert err == f"error: {key} must not be a boolean, got True\n"


@pytest.mark.parametrize("mode, cfg", [
    ("distributed-cd", {"mu": 1e308}),
    ("distributed-nocd", {"supplied_max_degree": 10 ** 400}),
], ids=["inf-product", "degree-beyond-float"])
def test_cli_overflowing_slot_count_exits_2(tmp_path, capsys, mode, cfg):
    # the README demo; ceil() of the slot count used to raise OverflowError
    spath = tmp_path / "sc.json"
    assert main(["gen", "udg", "--n", "9", "--seed", "4", "--k", "2",
                 "--c", "2", "--out", str(spath)]) == 0
    data = {**json.loads(spath.read_text()), "mode": mode, "cfg": cfg}
    assert "overflows the slot count" in _refused(tmp_path, capsys, data)


def test_cli_one_way_link_exits_2_in_every_mode(tmp_path, capsys):
    # every backbone kind needs two-way links, centralized runs included
    for mode in ("centralized", "distributed-cd", "distributed-nocd"):
        err = _refused(tmp_path, capsys, {
            "name": "one-way", "mode": mode, "sources": [0], "c": 1,
            "network": {"adjacency": [[0, [1]], [1, []], [2, [0, 1]]]}})
        assert "two-way links" in err
    assert main(["bounds", "--scenario", str(tmp_path / "sc.json")]) == 2


def test_cli_one_node_network_meets_its_floors(tmp_path, capsys):
    spath = str(tmp_path / "one.json")
    assert main(["gen", "udg", "--n", "1", "--k", "1", "--out", spath]) == 0
    capsys.readouterr()
    for mode in ("centralized", "distributed-cd", "distributed-nocd"):
        assert main(["run", "--scenario", spath, "--mode", mode]) == 0
        header, row = capsys.readouterr().out.splitlines()
        got = dict(zip(header.split(","), row.split(",")))
        assert (got["msg_lb"], got["time_lb"]) == ("0", "0")
        # the centralized schedule still sends its one message to nobody
        want = "1" if mode == "centralized" else "0"
        assert got["messages"] == want
        assert float(got["ratio"]) == int(want)


@pytest.mark.parametrize("edit", [
    lambda d: d.update(c="1_0"),
    lambda d: d["cfg"].update(max_rounds="1_000"),
    lambda d: d["cfg"].update(mu=" 2 "),
    lambda d: d["cfg"].update(supplied_max_degree="2"),
], ids=["c", "max_rounds", "mu", "supplied_max_degree"])
def test_cli_string_number_exits_2(tmp_path, capsys, edit):
    # int() and float() would read "1_0" as 10 and " 2 " as 2.0
    data = {"name": "p", "network": INT_PATH, "sources": [1, 5], "c": 1,
            "cfg": {}}
    edit(data)
    assert "must be a number, got '" in _refused(tmp_path, capsys, data)


@pytest.mark.parametrize("name", [None, 5, ""])
def test_cli_name_not_a_nonempty_string_exits_2(tmp_path, capsys, name):
    err = _refused(tmp_path, capsys, {"name": name, "network": INT_PATH,
                                      "sources": [1], "c": 1})
    assert err == (f"error: scenario name must be a non-empty string, "
                   f"got {name!r}\n")


HUGE = 10 ** 400  # an integer JSON number beyond the float range


@pytest.mark.parametrize("data, want", [
    ({"network": INT_PATH, "sources": [1], "cfg": {"mu": HUGE}},
     "malformed scenario number mu"),
    ({"network": {**INT_PATH, "alpha": HUGE}, "sources": [1]},
     "malformed network description"),
    ({"network": {"nodes": [{"id": 0, "x": HUGE, "y": 0.0, "power": 1.0}]},
      "sources": [0]},
     "malformed network description"),
], ids=["mu", "alpha", "node-x"])
def test_cli_number_beyond_float_exits_2(tmp_path, capsys, data, want):
    # float() raised OverflowError, reported as an internal error (exit 3)
    err = _refused(tmp_path, capsys, {"name": "p", "c": 1, **data})
    assert err.startswith(f"error: {want}: ")


NODE_NET = {"nodes": [{"id": 0, "x": 0.0, "y": 0.0, "power": 1.0},
                      {"id": 1, "x": 0.5, "y": 0.0, "power": 1.0}],
            "obstacles": [{"x1": 5.0, "y1": 5.0, "x2": 6.0, "y2": 6.0}]}


def _node(net):
    return net["nodes"][1]


def _obstacle(net):
    return net["obstacles"][0]


def _top(net):
    return net


@pytest.mark.parametrize("inline", [True, False], ids=["inline", "file"])
@pytest.mark.parametrize("net, where, key, value", [
    (NODE_NET, _node, "x", "0.5"),
    (NODE_NET, _node, "y", False),
    (NODE_NET, _node, "power", "1_0"),
    (NODE_NET, _obstacle, "x1", "5"),
    (NODE_NET, _obstacle, "y1", True),
    (NODE_NET, _obstacle, "x2", " 6 "),
    (NODE_NET, _obstacle, "y2", False),
    (NODE_NET, _top, "alpha", " 2 "),
    (INT_PATH, _top, "alpha", "3"),
], ids=["x", "y", "power", "x1", "y1", "x2", "y2", "alpha-nodes",
        "alpha-adjacency"])
def test_cli_network_number_not_a_json_number_exits_2(tmp_path, capsys, net,
                                                      where, key, value,
                                                      inline):
    # float() would read " 2 " as 2.0, "1_0" as 10.0 and false as 0.0
    net = json.loads(json.dumps(net))
    where(net)[key] = value
    if not inline:
        (tmp_path / "net.json").write_text(json.dumps(net))
        net = str(tmp_path / "net.json")
    err = _refused(tmp_path, capsys, {"name": "p", "network": net,
                                      "sources": [1], "c": 1})
    kind = "not be a boolean" if isinstance(value, bool) else "be a number"
    assert err == f"error: {key} must {kind}, got {value!r}\n"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("net, where, key", [
    (NODE_NET, _node, "x"),
    (NODE_NET, _node, "y"),
    (NODE_NET, _node, "power"),
    (NODE_NET, _obstacle, "x1"),
    (NODE_NET, _obstacle, "y1"),
    (NODE_NET, _obstacle, "x2"),
    (NODE_NET, _obstacle, "y2"),
    (NODE_NET, _top, "alpha"),
    (INT_PATH, _top, "alpha"),
], ids=["x", "y", "power", "x1", "y1", "x2", "y2", "alpha-nodes",
        "alpha-adjacency"])
def test_cli_network_number_not_finite_exits_2(tmp_path, capsys, net, where,
                                               key, value):
    # Python's json reads NaN and Infinity; an infinite power used to run
    net = json.loads(json.dumps(net))
    where(net)[key] = value
    err = _refused(tmp_path, capsys, {"name": "p", "network": net,
                                      "sources": [1], "c": 1})
    assert err == f"error: {key} must be finite, got {value!r}\n"


@pytest.mark.parametrize("net", [NODE_NET, INT_PATH],
                         ids=["nodes", "adjacency"])
@pytest.mark.parametrize("alpha", [1.9, 4.1, 17])
def test_cli_alpha_outside_its_range_exits_2_in_both_forms(tmp_path, capsys,
                                                           net, alpha):
    # the adjacency form used to take any alpha
    err = _refused(tmp_path, capsys, {"name": "p", "network": {**net,
                                      "alpha": alpha}, "sources": [1], "c": 1})
    assert err == f"error: alpha must lie in [2.0, 4.0], got {float(alpha)}\n"


def test_cli_disconnected_network_exits_2_in_every_verb(tmp_path, capsys):
    # validate used to pass a network that run and bounds then refused
    two_edges = {"adjacency": [[0, [1]], [1, [0]], [2, [3]], [3, [2]]]}
    err = _refused(tmp_path, capsys, {"name": "split", "sources": [0],
                                      "c": 1, "network": two_edges})
    assert err == "error: every backbone needs a connected network\n"
    assert main(["bounds", "--scenario", str(tmp_path / "sc.json")]) == 2
    assert capsys.readouterr().err == err


def test_cli_gen_udg_scenario_digest(capsys):
    # the generated network and scenario, pinned byte for byte
    assert main(["gen", "udg", "--n", "40", "--radius", "0.3", "--seed",
                 "7", "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "6e6dcccb0e0bcb821d70a2a37e220ffd248966e4453d4b6ace674f5747e7f13e")


@pytest.mark.parametrize("radius", ["inf", "1e200", "nan"])
def test_cli_gen_udg_unusable_radius_exits_2(tmp_path, capsys, radius):
    # inf wrote "power": Infinity, which validate refused; 1e200 overflowed
    # squaring into a power; nan ran every placement before failing
    out = tmp_path / "udg.json"
    capsys.readouterr()
    assert main(["gen", "udg", "--n", "5", "--radius", radius,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_cli_gen_udg_radius_with_zero_square_names_the_radius(tmp_path,
                                                             capsys):
    # 1e-200 squared underflows to a zero power, which build_network used
    # to refuse as "node 0 has non-positive power 0.0"
    out = tmp_path / "udg.json"
    capsys.readouterr()
    assert main(["gen", "udg", "--n", "5", "--radius", "1e-200",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: radius ") and err.count("\n") == 1
    assert "1e-200" in err and "power" not in err
    assert not out.exists()


@pytest.mark.parametrize("retry", ["0", "-5"])
def test_cli_gen_udg_without_tries_exits_2(tmp_path, capsys, retry):
    # each used to try one placement anyway and then report "no connected
    # placement of 50 nodes in 0 tries"
    out = tmp_path / "udg.json"
    capsys.readouterr()
    assert main(["gen", "udg", "--n", "50", "--radius", "0.01", "--retry",
                 retry, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: connect_retry must be >= 1, got {retry}\n"
    assert not out.exists()


def test_cli_deeply_nested_scenario_exits_2(tmp_path, capsys):
    spath = tmp_path / "deep.json"
    spath.write_text("[" * 100_000)
    capsys.readouterr()
    for verb in ("validate", "run", "bounds"):
        assert main([verb, "--scenario", str(spath)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_deeply_nested_network_file_exits_2(tmp_path, capsys):
    (tmp_path / "net.json").write_text("[" * 100_000)
    spath = tmp_path / "sc.json"
    spath.write_text(json.dumps({"name": "p", "network": "net.json",
                                 "sources": [1], "c": 1}))
    capsys.readouterr()
    for verb in ("validate", "run", "bounds"):
        assert main([verb, "--scenario", str(spath)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("network, message", [
    ({"adjacency": [[0, [1, 2]], [1, [0]]]}, "neighbor 2 of 0 is not a node"),
    ({"adjacency": [[0, [0, 1]], [1, [0]]]}, "self-loop on 0"),
], ids=["unknown-neighbor", "self-loop"])
def test_cli_adjacency_naming_no_node_exits_2(tmp_path, capsys, network,
                                              message):
    code, err = _validate_network(tmp_path, capsys, network, [0])
    assert code == 2
    assert err == f"error: {message}\n"


def test_cli_run_without_seeds_exits_2(tmp_path, capsys):
    spath = str(tmp_path / "sp.json")
    assert main(["gen", "star-path", "--k", "3", "--d", "1", "--c", "3",
                 "--out", spath]) == 0
    capsys.readouterr()
    assert main(["run", "--scenario", spath, "--seeds", "0"]) == 2
    assert capsys.readouterr().err == "error: --seeds must be >= 1\n"


def test_cli_run_with_seeds_past_any_list_exits_2(tmp_path, capsys):
    # the count overflows a list's length before anything is allocated
    spath = str(tmp_path / "sp.json")
    assert main(["gen", "star-path", "--k", "3", "--d", "1", "--c", "3",
                 "--out", spath]) == 0
    capsys.readouterr()
    seeds = "100000000000000000000"
    assert main(["run", "--scenario", spath, "--seeds", seeds]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --seeds ") and err.count("\n") == 1


def test_cli_scenario_not_an_object_exits_2(tmp_path, capsys):
    err = _refused(tmp_path, capsys, [{"name": "p"}])
    assert err == "error: scenario must be an object\n"


def test_cli_network_file_not_an_object_exits_2(tmp_path, capsys):
    (tmp_path / "net.json").write_text(json.dumps([[0, [1]], [1, [0]]]))
    err = _refused(tmp_path, capsys, {"name": "p", "network": "net.json",
                                      "sources": [0], "c": 1})
    assert err == "error: network description must be an object\n"


def test_cli_gen_refuses_an_oracle_backbone_above_its_cap(tmp_path, capsys):
    # the ring fixture has 19 nodes, above the oracle's 16: gen writes no
    # scenario that run would refuse
    out = tmp_path / "ring.json"
    capsys.readouterr()
    assert main(["gen", "ring", "--backbone", "oracle", "--out",
                 str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: brute_force_mcds is capped at 16 nodes, got 19\n")
    assert not out.exists()


def test_cli_gen_oracle_backbone_at_its_cap_runs(tmp_path, capsys):
    out = str(tmp_path / "udg.json")
    assert main(["gen", "udg", "--n", "16", "--k", "2", "--c", "2",
                 "--backbone", "oracle", "--out", out]) == 0
    assert main(["run", "--scenario", out]) == 0
