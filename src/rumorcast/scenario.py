"""Scenario bundles and seeded experiment execution.

A scenario ties one network to everything needed to rerun an experiment:
rumor sources, the compression factor, the transport mode, and which
backbone construction to use.  Scenario JSON embeds the network inline
under "network" or names another JSON file by path.  ``run_experiment``
replays a scenario across seeds and checks the floor invariants on every
run: messages at or above the message floor, rounds at or above the
network diameter, every rumor delivered everywhere, and no residual
interference in centralized schedules.

Centralized runs schedule over the backbone, regroup the schedule to be
collision-free, and simulate it with interference on; they do not depend
on the seed, so every seed row repeats the same measurements.
Distributed runs reseed the slotted protocol per seed; the scenario's
``cfg`` carries the slot sizing while the mode and seed are stamped in
at run time.  The backbone is built once for all seeds, and the
distributed checks, plan and stage masks once per (graph, backbone,
sources, c), kept on the graph, so each seed only arms fresh node
states and runs the rounds, whose data slots deliver by node masks.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass, field, replace
from collections.abc import Mapping, Sequence

from .backbone import (Backbone, bounded_diameter_cds, brute_force_mcds,
                       greedy_cds)
from .bounds import BoundReport, bound_report
from .central import (Rumor, make_collision_free, multibroadcast_schedule,
                      simulate_schedule)
from .distributed import SimConfig, run_distributed_multibroadcast, slot_count
from .model import (NetworkGraph, _check_ids, _number, _read_json,
                    is_strongly_connected, load_network, network_from_dict,
                    network_to_dict)

MODES = ("centralized", "distributed-cd", "distributed-nocd")
BACKBONE_KINDS = ("greedy", "bounded-diameter", "oracle")
RESULTS_HEADER = ("scenario", "seed", "messages", "makespan", "collisions",
                  "msg_lb", "time_lb", "ratio")


class ScenarioError(ValueError):
    """A scenario is malformed or an experiment run failed inside it."""


@dataclass(frozen=True)
class Scenario:
    """One reproducible experiment setup."""

    name: str
    network: NetworkGraph
    sources: tuple
    compression: int
    mode: str = "centralized"
    cfg: SimConfig = field(default=SimConfig(slot_factor=2.0))
    backbone_kind: str = "greedy"

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ScenarioError(f"scenario name must be a non-empty string, "
                                f"got {self.name!r}")
        if self.mode not in MODES:
            raise ScenarioError(f"unknown mode {self.mode!r}, "
                                f"expected one of {MODES}")
        if self.backbone_kind not in BACKBONE_KINDS:
            raise ScenarioError(f"unknown backbone kind "
                                f"{self.backbone_kind!r}, "
                                f"expected one of {BACKBONE_KINDS}")
        srcs = tuple(self.sources)
        if not srcs:
            raise ScenarioError("scenario needs at least one source")
        if len(set(srcs)) != len(srcs):
            raise ScenarioError("duplicate sources")
        unknown = [s for s in srcs if s not in self.network.adjacency]
        if unknown:
            raise ScenarioError(f"sources {unknown!r} are not network nodes")
        object.__setattr__(self, "sources", tuple(sorted(srcs)))
        if not 1 <= self.compression <= len(self.sources):
            raise ScenarioError(
                f"compression must lie in [1, {len(self.sources)}] "
                f"(one per source), got {self.compression}")
        if not self.network.symmetric:
            raise ScenarioError("every backbone needs a symmetric network "
                                "(two-way links)")
        if not is_strongly_connected(self.network):
            raise ScenarioError("every backbone needs a connected network")
        if self.mode != "centralized":
            slot_count(self.network, self.cfg)

    @property
    def rumor_count(self) -> int:
        return len(self.sources)


def build_backbone(g: NetworkGraph, kind: str) -> Backbone:
    """The backbone of the given kind; "greedy" and "bounded-diameter",
    whose base it is, share the graph's cached ``greedy_cds(g)``."""
    if kind == "greedy":
        return greedy_cds(g)
    if kind == "bounded-diameter":
        return bounded_diameter_cds(g)
    if kind == "oracle":
        return brute_force_mcds(g)
    raise ScenarioError(f"unknown backbone kind {kind!r}")


# --- serialization ---------------------------------------------------------

_SCENARIO_KEYS = {"name", "network", "sources", "c", "mode", "backbone",
                  "cfg"}
_CFG_KEYS = {"mu", "max_rounds", "supplied_max_degree"}


def scenario_to_dict(sc: Scenario) -> dict:
    return {
        "name": sc.name,
        "network": network_to_dict(sc.network),
        "sources": list(sc.sources),
        "c": sc.compression,
        "mode": sc.mode,
        "backbone": sc.backbone_kind,
        "cfg": {
            "mu": sc.cfg.slot_factor,
            "max_rounds": sc.cfg.max_rounds,
            "supplied_max_degree": sc.cfg.supplied_max_degree,
        },
    }


def _integer(value, key: str) -> int:
    """``int(value)`` of a JSON number, refusing a truncated float."""
    value = _number(value, key, ScenarioError)
    if isinstance(value, float) and not value.is_integer():
        raise ScenarioError(f"{key} must be an integer, got {value!r}")
    return int(value)


def scenario_from_dict(data: Mapping, *, base_dir: str = ".") -> Scenario:
    """Build a scenario from its JSON form.

    ``data["network"]`` may be an inline network object or a path to a
    network JSON file, resolved against ``base_dir`` when relative.
    """
    if not isinstance(data, Mapping):
        raise ScenarioError("scenario must be an object")
    extra = set(data) - _SCENARIO_KEYS
    if extra:
        raise ScenarioError(f"unknown scenario keys {sorted(extra)}")
    missing = {"name", "network", "sources", "c"} - set(data)
    if missing:
        raise ScenarioError(f"scenario is missing keys {sorted(missing)}")
    net = data["network"]
    if isinstance(net, str):
        path = net if os.path.isabs(net) else os.path.join(base_dir, net)
        network = load_network(path)
    elif isinstance(net, Mapping):
        network = network_from_dict(net)
    else:
        raise ScenarioError("network must be an object or a file path")
    cfg_data = data.get("cfg", {})
    if not isinstance(cfg_data, Mapping):
        raise ScenarioError("cfg must be an object")
    extra = set(cfg_data) - _CFG_KEYS
    if extra:
        raise ScenarioError(f"unknown cfg keys {sorted(extra)}")
    sources = data["sources"]
    if not isinstance(sources, list) or any(
            isinstance(s, (list, dict)) for s in sources):
        raise ScenarioError("sources must be a list of node ids")
    _check_ids(sources)
    try:
        mu = float(_number(cfg_data.get("mu", 2.0), "mu", ScenarioError))
    except OverflowError as exc:  # an integer beyond the float range
        raise ScenarioError(f"malformed scenario number mu: {exc}") from exc
    supplied = cfg_data.get("supplied_max_degree")
    cfg = SimConfig(
        slot_factor=mu,
        max_rounds=_integer(cfg_data.get("max_rounds", 10_000), "max_rounds"),
        supplied_max_degree=None if supplied is None else _integer(
            supplied, "supplied_max_degree"),
    )
    return Scenario(name=data["name"], network=network,
                    sources=tuple(sources),
                    compression=_integer(data["c"], "c"),
                    mode=data.get("mode", "centralized"), cfg=cfg,
                    backbone_kind=data.get("backbone", "greedy"))


def load_scenario(path: str) -> Scenario:
    data = _read_json(path, ScenarioError)
    return scenario_from_dict(data, base_dir=os.path.dirname(path) or ".")


# --- execution -------------------------------------------------------------

@dataclass(frozen=True)
class SeedOutcome:
    """Measurements and invariant verdicts for one seeded run."""

    seed: int
    messages: int
    makespan: int
    collisions: int
    message_lb: int
    time_lb: int
    violations: tuple[str, ...] = ()

    @property
    def ratio(self) -> float:
        # the floor is 0 only on a one-node network; count messages there
        return self.messages / max(self.message_lb, 1)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {"seed": self.seed, "messages": self.messages,
                "makespan": self.makespan, "collisions": self.collisions,
                "msg_lb": self.message_lb, "time_lb": self.time_lb,
                "ratio": self.ratio, "ok": self.ok,
                "violations": list(self.violations)}


@dataclass(frozen=True)
class ExperimentReport:
    scenario: str
    mode: str
    backbone_kind: str
    outcomes: tuple[SeedOutcome, ...]
    bounds: BoundReport

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    def aggregates(self) -> dict:
        out = {}
        for metric in ("messages", "makespan", "collisions", "ratio"):
            values = [getattr(o, metric) for o in self.outcomes]
            out[metric] = {"mean": statistics.fmean(values),
                           "min": min(values), "max": max(values)}
        return out

    def to_dict(self) -> dict:
        return {"scenario": self.scenario, "mode": self.mode,
                "backbone": self.backbone_kind, "ok": self.ok,
                "bounds": self.bounds.to_dict(),
                "runs": [o.to_dict() for o in self.outcomes],
                "aggregates": self.aggregates()}


def _centralized_outcome(sc: Scenario, bb: Backbone) -> tuple:
    sched = multibroadcast_schedule(sc.network, bb, sc.sources,
                                    sc.compression)
    safe = make_collision_free(sc.network, sched)
    metrics = simulate_schedule(sc.network, safe, interference=True)
    undelivered = not metrics.holds_all(
        Rumor(s, i) for i, s in enumerate(sc.sources))
    violations = []
    if metrics.collisions:
        violations.append("interference survived the collision-free "
                          "transform")
    return (metrics.messages, metrics.makespan, metrics.collisions,
            undelivered, violations)


def _distributed_outcome(sc: Scenario, bb: Backbone, seed: int) -> tuple:
    proto = "cd" if sc.mode == "distributed-cd" else "nocd"
    cfg = replace(sc.cfg, mode=proto, seed=seed)
    dm = run_distributed_multibroadcast(sc.network, bb, sc.sources,
                                        sc.compression, cfg)
    return (dm.data_messages, dm.rounds, dm.collisions_heard,
            not dm.delivered_everything, [])


def run_experiment(scenario: Scenario,
                   seeds: Sequence[int]) -> ExperimentReport:
    """Run one scenario per seed and check the floor invariants.

    The backbone and the floors are computed once for all seeds.
    """
    seeds = list(seeds)
    if not seeds:
        raise ScenarioError("no seeds given")
    g = scenario.network
    central = None
    try:
        bb = build_backbone(g, scenario.backbone_kind)
        report = bound_report(g, scenario.rumor_count, scenario.compression)
        if scenario.mode == "centralized":
            central = _centralized_outcome(scenario, bb)
    except ValueError as err:
        raise ScenarioError(
            f"scenario {scenario.name!r}: {err}") from err

    outcomes = []
    for seed in seeds:
        if central is not None:
            messages, makespan, collisions, undelivered, extra = central
        else:
            try:
                messages, makespan, collisions, undelivered, extra = \
                    _distributed_outcome(scenario, bb, seed)
            except ValueError as err:
                raise ScenarioError(
                    f"scenario {scenario.name!r} (seed {seed}): "
                    f"{err}") from err
        violations = list(extra)
        if undelivered:
            violations.append("some rumor was not delivered everywhere")
        if messages < report.message_lb:
            violations.append(
                f"messages {messages} below floor {report.message_lb}")
        if makespan < report.time_lb:
            violations.append(
                f"makespan {makespan} below network diameter "
                f"{report.time_lb}")
        outcomes.append(SeedOutcome(
            seed=seed, messages=messages, makespan=makespan,
            collisions=collisions, message_lb=report.message_lb,
            time_lb=report.time_lb, violations=tuple(violations)))
    return ExperimentReport(scenario=scenario.name, mode=scenario.mode,
                            backbone_kind=scenario.backbone_kind,
                            outcomes=tuple(outcomes), bounds=report)


def experiment_csv_rows(report: ExperimentReport) -> list[tuple[str, ...]]:
    rows = [RESULTS_HEADER]
    for o in report.outcomes:
        rows.append((report.scenario, str(o.seed), str(o.messages),
                     str(o.makespan), str(o.collisions),
                     str(o.message_lb), str(o.time_lb), f"{o.ratio:.6f}"))
    return rows
