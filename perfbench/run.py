"""rumorcast benchmark: one workload, one seed, one closed-loop caller.

Run from the repository root:

    python3 perfbench/run.py --workload udg-central --seed 1 \
        --seconds 28 --trace 0

The benchmark generates the workload's scenario JSON files from ``--seed``,
then drives the real ``scenario.load_scenario`` -> ``scenario.run_experiment``
path from a single thread, one experiment at a time, the way ``rumorcast
run`` uses it.  With ``--trace 0`` it reports the end-to-end metrics,
untraced; with ``--trace 1`` it alternates untraced and traced repetitions
and reports the per-layer metrics (see ``perfbench/spans.py``).  Details go
to standard error; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every check passed.

A repetition loads and runs every instance of the workload once.  An
operation is one seeded run inside ``run_experiment``.  It fails when its
``SeedOutcome`` carries a violation, when a centralized run reports a
collision, or when the experiment raises; an exception fails every seed of
that experiment and is reported by type.  Count outputs must repeat exactly
across repetitions and between traced and untraced runs.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from spans import TIMED, Tracer
from workloads import WORKLOADS, Inputs, Workload, placement, write_inputs

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
WORK_DIR = REPO / ".bench_build" / "perfbench"
MIN_REPS = 3
CALIBRATION = Workload("calibration", "square", 1024, 1, 1, "centralized",
                       "greedy", 1)


def import_library():
    """Import ``rumorcast.scenario`` from this checkout's ``src`` only."""
    if not (SRC / "rumorcast" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no rumorcast package under {SRC}")
    sys.path.insert(0, str(SRC))
    scenario = importlib.import_module("rumorcast.scenario")
    if Path(scenario.__file__).resolve().parent != SRC / "rumorcast":
        raise SystemExit(f"perfbench: imported rumorcast from "
                         f"{scenario.__file__}, not from {SRC}")
    return scenario


class Ledger:
    """Counts operations and collects every failed correctness check."""

    def __init__(self, centralized: bool):
        self.centralized = centralized
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()
        self.problems: list[str] = []
        self.outputs: dict[str, tuple] = {}

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def problem(self, text: str) -> None:
        if text not in self.problems:
            self.problems.append(text)

    def raised(self, inputs: Inputs, err: Exception) -> None:
        self.attempted += len(inputs.run_seeds)
        self.failed += len(inputs.run_seeds)
        self.errors[type(err).__name__] += 1
        self.problem(f"{inputs.stem}: run_experiment raised "
                     f"{type(err).__name__}: {err}")

    def check(self, inputs: Inputs, report) -> None:
        seeds = inputs.run_seeds
        self.attempted += len(seeds)
        got = tuple(o.seed for o in report.outcomes)
        if got != seeds:
            self.problem(f"{inputs.stem}: outcomes for seeds {got}, "
                         f"expected {seeds}")
        for o in report.outcomes:
            bad = list(o.violations)
            if self.centralized and o.collisions:
                bad.append(f"{o.collisions} collisions")
            if bad:
                self.failed += 1
                self.problem(f"{inputs.stem} seed {o.seed}: "
                             f"{'; '.join(bad)}")
        outputs = tuple((o.seed, o.messages, o.makespan, o.collisions,
                         o.message_lb, o.time_lb) for o in report.outcomes)
        if self.outputs.setdefault(inputs.stem, outputs) != outputs:
            self.problem(f"{inputs.stem}: seeded outputs differ between "
                         f"repetitions")

    def outcome_mean(self, field: int) -> float:
        values = [o[field] for outs in self.outputs.values() for o in outs]
        return statistics.fmean(values) if values else 0.0


class Speed:
    """Tracks the host's speed with a fixed pure-Python kernel.

    On a shared 2-vCPU virtual machine the host's speed can change by
    30-45% for minutes at a time, which no in-run median removes.  The
    kernel, one BFS from every 32nd node of a fixed 1024-node graph, runs
    before and after each timed step.  ``rescale`` turns a step's seconds
    into seconds at the speed where the kernel takes ``REFERENCE_S``, using
    the mean of the two kernel times around the step.
    """

    REFERENCE_S = 0.020

    def __init__(self):
        self.graph = placement(CALIBRATION, 0, 0)[2]
        self.samples: list[float] = []
        self.last = 0.0

    def sample(self) -> float:
        graph = self.graph
        start = perf_counter()
        for src in range(0, len(graph), 32):
            dist = {src: 0}
            frontier = [src]
            while frontier:
                nxt = []
                for u in frontier:
                    for v in graph[u]:
                        if v not in dist:
                            dist[v] = dist[u] + 1
                            nxt.append(v)
                frontier = nxt
        elapsed = perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def start(self) -> None:
        self.last = self.sample()

    def rescale(self, elapsed: float) -> float:
        """Seconds at reference speed for a step that just ended."""
        after = self.sample()
        scaled = elapsed * self.REFERENCE_S / ((self.last + after) / 2)
        self.last = after
        return scaled


class Bench:
    """The instances of one workload and the checks around each call."""

    def __init__(self, scenario, w: Workload, instances: list[Inputs]):
        self.scenario = scenario
        self.w = w
        self.instances = instances
        self.ledger = Ledger(w.mode == "centralized")
        self.speed = Speed()
        self.networks_checked = False

    def load(self):
        """Load every instance: (seconds, rescaled seconds, scenarios)."""
        gc.collect()
        self.speed.start()
        start = perf_counter()
        scs = [self.scenario.load_scenario(i.path) for i in self.instances]
        elapsed = perf_counter() - start
        norm = self.speed.rescale(elapsed)
        if not self.networks_checked:
            for inputs, sc in zip(self.instances, scs):
                self.check_network(inputs, sc)
            self.networks_checked = True
        return elapsed, norm, scs

    def check_network(self, inputs: Inputs, sc) -> None:
        adjacency = {u: tuple(v) for u, v in sc.network.adjacency.items()}
        if adjacency != inputs.adjacency:
            self.ledger.problem(f"{inputs.stem}: loaded network differs "
                                f"from the grid reference adjacency")

    def run(self, scs):
        """One experiment per instance: (seconds, rescaled seconds, reports).

        Reports is None when an experiment raised.  The time covers the
        experiments only; the checks run after it.
        """
        gc.collect()
        self.speed.start()
        reports = []
        raw = norm = 0.0
        for inputs, sc in zip(self.instances, scs):
            start = perf_counter()
            try:
                report = self.scenario.run_experiment(sc, inputs.run_seeds)
            except Exception as err:  # a failed operation, not a crash
                elapsed = perf_counter() - start
                self.ledger.raised(inputs, err)
                norm += self.speed.rescale(elapsed)
                return raw + elapsed, norm, None
            elapsed = perf_counter() - start
            raw += elapsed
            norm += self.speed.rescale(elapsed)
            self.ledger.check(inputs, report)
            reports.append(report)
        return raw, norm, reports


def keep_going(times: list, deadline: float) -> bool:
    """Too few repetitions yet, or one more fits before the deadline."""
    if len(times) < MIN_REPS:
        return True
    return perf_counter() + statistics.median(times) <= deadline


def measure(bench: Bench, seconds: float) -> dict:
    """End-to-end metrics, untraced.

    Each repetition loads the scenarios and runs the experiments, so set-up
    and run times are both sampled across the whole measuring window.
    Times are medians of the rescaled repetitions (see ``Speed``).
    """
    deadline = perf_counter() + seconds
    _, _, scs = bench.load()  # warm-up, not timed
    bench.run(scs)
    raw: list[tuple[float, float]] = []
    setup_times: list[float] = []
    times: list[float] = []
    while keep_going([a + b for a, b in raw], deadline):
        load_raw, load_s, scs = bench.load()
        run_raw, run_s, reports = bench.run(scs)
        raw.append((load_raw, run_raw))
        setup_times.append(load_s)
        times.append(run_s)
        if reports is None:
            break
    print(f"perfbench: raw setup/run seconds "
          f"{[(round(a, 4), round(b, 4)) for a, b in raw]}, calibration "
          f"median {statistics.median(bench.speed.samples):.4f} s",
          file=sys.stderr)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "run_s": (statistics.median(times), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "messages": (bench.ledger.outcome_mean(1), "count"),
        "makespan": (bench.ledger.outcome_mean(2), "rounds"),
    }


def layer_metrics(tracer: Tracer, experiment: str, load: dict,
                  scs: list, reports: list) -> dict:
    """Per-layer metrics of one traced repetition: name -> (value, unit).

    Times are summed over every call (``*_s`` of a function is its span,
    children included; ``<layer>.self_s`` excludes child spans), counts
    over every instance and seed.
    """
    t = tracer.totals(experiment)

    def calls(name):
        return t.get(name, (0, 0.0, 0.0))[0]

    def span_s(name):
        return t.get(name, (0, 0.0, 0.0))[1]

    def own_s(name):
        return t.get(name, (0, 0.0, 0.0))[2]

    layer_self = {layer: sum((v[2] for k, v in t.items()
                              if k.split(".")[0] == layer), 0.0)
                  for layer in TIMED}
    kept = tracer.results
    backbones = kept.get("scenario.build_backbone", [])
    planned = sum(s.makespan for s in
                  kept.get("central.multibroadcast_schedule", []))
    regrouped = sum(s.makespan for s in
                    kept.get("central.make_collision_free", []))
    dist = kept.get("distributed.run_distributed_multibroadcast", [])
    rounds = sum(d.rounds for d in dist)
    slot_count = sys.modules["rumorcast.distributed"].slot_count
    per_instance = len(dist) // len(scs)
    slots = sum(d.rounds * 2 * slot_count(sc.network, sc.cfg)
                for i, sc in enumerate(scs)
                for d in dist[i * per_instance:(i + 1) * per_instance])
    round_s = (span_s("distributed.run_round_cd")
               + span_s("distributed.run_round_nocd"))
    succeeded, attempts = tracer.round_counts
    return {
        "model.build_network_s": (load["model.build_network"][1], "s"),
        "model.nodes": (sum(len(sc.network.adjacency) for sc in scs),
                        "count"),
        "model.edges": (sum(len(v) for sc in scs
                            for v in sc.network.adjacency.values()),
                        "count"),
        "model.bfs_calls": (calls("model.bfs_distances"), "count"),
        "model.bfs_s": (span_s("model.bfs_distances"), "s"),
        "model.connectivity_calls": (calls("model.is_strongly_connected"),
                                     "count"),
        "model.diameter_calls": (calls("model.diameter"), "count"),
        "model.diameter_s": (span_s("model.diameter"), "s"),
        "model.self_s": (layer_self["model"], "s"),
        "backbone.greedy_calls": (calls("backbone.greedy_cds"), "count"),
        "backbone.greedy_s": (span_s("backbone.greedy_cds"), "s"),
        "backbone.bounded_s": (span_s("backbone.bounded_diameter_cds"), "s"),
        "backbone.validate_calls": (calls("backbone.validate_backbone"),
                                    "count"),
        "backbone.validate_s": (span_s("backbone.validate_backbone"), "s"),
        "backbone.size": (sum(b.size for b in backbones), "count"),
        "backbone.depth": (sum(b.max_depth for b in backbones), "count"),
        "backbone.self_s": (layer_self["backbone"], "s"),
        "bounds.report_s": (span_s("bounds.bound_report"), "s"),
        "bounds.mcds_size": (sum(r.bounds.mcds_size for r in reports),
                             "count"),
        "bounds.self_s": (layer_self["bounds"], "s"),
        "central.schedule_s": (span_s("central.multibroadcast_schedule"),
                               "s"),
        "central.cfree_s": (span_s("central.make_collision_free"), "s"),
        "central.simulate_s": (span_s("central.simulate_schedule"), "s"),
        "central.planned_rounds": (planned, "count"),
        "central.cfree_inflation": (regrouped / planned if planned else 0.0,
                                    "ratio"),
        "central.self_s": (layer_self["central"], "s"),
        "distributed.run_s": (
            span_s("distributed.run_distributed_multibroadcast"), "s"),
        "distributed.round_s": (round_s, "s"),
        "distributed.plan_s": (
            own_s("distributed.run_distributed_multibroadcast"), "s"),
        "distributed.us_per_round": (1e6 * round_s / rounds if rounds
                                     else 0.0, "us"),
        "distributed.rounds": (rounds, "count"),
        "distributed.slots": (slots, "count"),
        "distributed.data_messages": (sum(d.data_messages for d in dist),
                                      "count"),
        "distributed.control_messages": (
            sum(d.control_messages for d in dist), "count"),
        "distributed.collisions_heard": (
            sum(d.collisions_heard for d in dist), "count"),
        "distributed.retransmissions": (
            sum(sum(d.retransmissions_per_node.values()) for d in dist),
            "count"),
        "distributed.success_ratio": (succeeded / attempts if attempts
                                      else 0.0, "ratio"),
        "distributed.self_s": (layer_self["distributed"], "s"),
        "scenario.load_s": (load["scenario.load_scenario"][1], "s"),
        "scenario.self_s": (layer_self["scenario"], "s"),
        "trace.run_s": (span_s("scenario.run_experiment"), "s"),
    }


def measure_traced(bench: Bench, seconds: float) -> dict:
    """Per-layer metrics: medians over traced repetitions, each paired
    with an untraced one for the tracing overhead."""
    tracer = Tracer()
    deadline = perf_counter() + seconds
    _, _, scs = bench.load()  # warm-up, not timed
    bench.run(scs)
    with tracer.installed("load"):
        _, _, scs = bench.load()
    load = tracer.totals("load")
    pairs: list[float] = []
    plain: list[float] = []
    reps: list[dict] = []
    while keep_going(pairs, deadline):
        elapsed, _, reports = bench.run(scs)
        experiment = f"{bench.instances[0].stem}/rep{len(reps)}"
        with tracer.installed(experiment):
            traced_elapsed, _, traced = bench.run(scs)
        if reports is None or traced is None:
            break
        pairs.append(elapsed + traced_elapsed)
        plain.append(elapsed)
        reps.append(layer_metrics(tracer, experiment, load, scs, traced))
    tracer.write(str(Path(bench.instances[0].path)
                     .with_suffix(".spans.jsonl")))
    if not reps:
        return {}
    metrics = {}
    for name, (_, unit) in reps[0].items():
        values = [r[name][0] for r in reps]
        if unit in ("s", "us"):
            metrics[name] = (statistics.median(values), unit)
            continue
        if len(set(values)) > 1:
            bench.ledger.problem(f"{name} differs between traced runs: "
                                 f"{values}")
        metrics[name] = (values[0], unit)
    overhead = (metrics["trace.run_s"][0] / statistics.median(plain)
                - 1.0)
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    metrics["bench.run_raw_s"] = (statistics.median(plain), "s")
    metrics["bench.calibration_s"] = (statistics.median(bench.speed.samples),
                                      "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    scenario = import_library()
    w = WORKLOADS[args.workload]
    instances = write_inputs(w, args.seed, str(WORK_DIR))
    for inputs in instances:
        print(f"perfbench: {inputs.stem}: {inputs.nodes} nodes, "
              f"{inputs.links} links, run seeds {list(inputs.run_seeds)}, "
              f"scenario sha256 {inputs.sha256}", file=sys.stderr)
    bench = Bench(scenario, w, instances)
    if args.trace:
        metrics = measure_traced(bench, args.seconds)
    else:
        metrics = measure(bench, args.seconds)
    ledger = bench.ledger
    for text in ledger.problems:
        print(f"perfbench: FAILED: {text}", file=sys.stderr)
    if ledger.errors:
        print(f"perfbench: exceptions by type: {dict(ledger.errors)}",
              file=sys.stderr)
    correct = ledger.correct and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
