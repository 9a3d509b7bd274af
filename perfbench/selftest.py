"""Self-test of the benchmark at tiny sizes (about 40 nodes per workload).

Run from the repository root:

    python3 perfbench/selftest.py

It checks that every metric named in BENCHMARK.json is emitted with its
unit, that the tracer rebinds every imported copy of a timed function and
restores it, that self times are non-negative and sum to the root span,
that traced and untraced experiments give identical reports, and that an
exception inside an experiment is counted as failed operations instead of
crashing the run.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import types

import run
from spans import Tracer
from workloads import WORKLOADS, write_inputs

TINY_WORK_DIR = str(run.WORK_DIR / "selftest")
# Imported copies of timed functions that must all be rebound.
COPIES = {
    "greedy_cds": ("scenario", "bounds", "backbone"),
    "diameter": ("bounds", "backbone", "model"),
    "bfs_distances": ("model", "backbone"),
    "validate_backbone": ("central", "distributed", "backbone"),
    "run_round_cd": ("distributed",),
    "run_round_nocd": ("distributed",),
    "build_network": ("model",),
}


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest: FAILED: {what}")


def tiny(w):
    n = 40 if w.shape == "strip" else 36
    return dataclasses.replace(w, n=n, seeds=min(w.seeds, 2),
                               instances=min(w.instances, 2))


def check_names(metrics: dict, declared: list, what: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: unit for name, (_, unit) in metrics.items()}
    check(got == want, f"{what}: emitted {got}, declared {want}")
    for name, (value, _) in metrics.items():
        check(isinstance(value, (int, float)) and math.isfinite(value),
              f"{what}: {name} = {value!r}")


def check_rebinding(tracer: Tracer) -> None:
    mods = {name: sys.modules[f"rumorcast.{name}"] for name in
            ("model", "backbone", "bounds", "central", "distributed",
             "scenario")}
    originals = {(m, f): getattr(mods[m], f)
                 for f, ms in COPIES.items() for m in ms}
    with tracer.installed("rebind"):
        for (m, f), orig in originals.items():
            now = getattr(mods[m], f)
            check(now is not orig and now.__wrapped__ is orig,
                  f"{m}.{f} is not wrapped while tracing")
    for (m, f), orig in originals.items():
        check(getattr(mods[m], f) is orig, f"{m}.{f} not restored")


def check_spans(bench: run.Bench) -> None:
    """Self times add up, and tracing leaves the outputs unchanged."""
    scenario = bench.scenario
    inputs = bench.instances[0]
    sc = scenario.load_scenario(inputs.path)
    plain = scenario.run_experiment(sc, inputs.run_seeds)
    tracer = Tracer()
    with tracer.installed("x"):
        traced = scenario.run_experiment(sc, inputs.run_seeds)
    check(plain.to_dict() == traced.to_dict(),
          f"{bench.w.name}: traced report differs from untraced")
    totals = tracer.totals("x")
    root = [s for s in tracer.spans if s.parent is None]
    check(len(root) == 1 and root[0].name == "scenario.run_experiment",
          f"{bench.w.name}: expected one root span, got {root}")
    own = sum(v[2] for v in totals.values())
    check(abs(own - root[0].duration) <= 1e-9 * max(1.0, own),
          f"{bench.w.name}: self times sum to {own}, root is "
          f"{root[0].duration}")
    for name, (calls, span_s, own_s) in totals.items():
        check(calls > 0 and span_s >= 0 and own_s >= -1e-9,
              f"{bench.w.name}: {name} calls={calls} span={span_s} "
              f"self={own_s}")


def check_exception_counted(bench: run.Bench) -> None:
    def deep(sc, seeds):
        raise RecursionError("maximum recursion depth exceeded")

    fake = types.SimpleNamespace(load_scenario=bench.scenario.load_scenario,
                                 run_experiment=deep)
    broken = run.Bench(fake, bench.w, bench.instances)
    metrics = run.measure(broken, 0.0)
    seeds = len(bench.instances[0].run_seeds)
    ledger = broken.ledger
    check(not ledger.correct and ledger.failed == ledger.attempted
          and ledger.attempted == 2 * seeds
          and ledger.errors == {"RecursionError": 2},
          f"exception accounting: attempted={ledger.attempted} "
          f"failed={ledger.failed} errors={dict(ledger.errors)}")
    check(set(metrics) == {"setup_s", "run_s", "peak_rss_mb", "messages",
                           "makespan"}, "metrics missing after a failure")


def main() -> int:
    with open(run.REPO / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json workloads differ from perfbench/workloads.py")
    scenario = run.import_library()
    check_rebinding(Tracer())
    for w in WORKLOADS.values():
        small = tiny(w)
        bench = run.Bench(scenario, small,
                          write_inputs(small, 1, TINY_WORK_DIR))
        check_names(run.measure(bench, 0.0), spec["end_to_end"],
                    f"{w.name} --trace 0")
        check_names(run.measure_traced(bench, 0.0), spec["per_layer"],
                    f"{w.name} --trace 1")
        check(bench.ledger.correct,
              f"{w.name}: {bench.ledger.problems}")
        check_spans(bench)
        print(f"selftest: {w.name} ok ({len(bench.instances)} x "
              f"{small.n} nodes, {bench.ledger.attempted} seeded runs)")
    small = tiny(WORKLOADS["udg-cd"])
    check_exception_counted(run.Bench(
        scenario, small, write_inputs(small, 1, TINY_WORK_DIR)))
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
