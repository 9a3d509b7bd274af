"""Command-line front end.

Verbs:
  gen       write a scenario JSON around a generated network
            (udg, ring, star-path)
  run       execute a scenario across seeds, emit results as CSV or JSON
  bounds    report the instance floors for a scenario
  validate  parse and check a scenario file

Exit codes: 0 on success, 1 when a run violates a floor invariant,
2 on input errors (bad arguments, unreadable files, malformed scenarios,
or a module error surfaced with scenario context), 3 on any other
exception, reported as one ``internal error`` line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from collections.abc import Sequence
from dataclasses import replace

from .bounds import bound_report
from .distributed import SimConfig
from .fixtures import (gen_random_udg, gen_ring_fixture, gen_star_path,
                       pick_sources)
from .scenario import (BACKBONE_KINDS, MODES, Scenario, ScenarioError,
                       build_backbone, experiment_csv_rows, load_scenario,
                       run_experiment, scenario_to_dict)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _cmd_gen(args) -> int:
    if args.kind == "udg":
        g = gen_random_udg(args.n, args.radius, seed=args.seed,
                           connect_retry=args.retry)
        sources = pick_sources(g, args.k)
        name = args.name or f"udg-n{args.n}-s{args.seed}"
    elif args.kind == "ring":
        g = gen_ring_fixture(args.ring_size)
        sources = pick_sources(g, args.k)
        name = args.name or f"ring-{args.ring_size}"
    else:
        g, sources = gen_star_path(args.k, args.d)
        name = args.name or f"star-path-k{args.k}-d{args.d}"
    sc = Scenario(name=name, network=g, sources=tuple(sources),
                  compression=args.c, mode=args.mode,
                  cfg=SimConfig(slot_factor=args.mu),
                  backbone_kind=args.backbone)
    # a backbone that ``run`` could not build fails before any file is written
    build_backbone(g, sc.backbone_kind)
    _emit(_json_text(scenario_to_dict(sc)), args.out)
    return 0


def _cmd_run(args) -> int:
    sc = load_scenario(args.scenario)
    if args.mode:
        sc = replace(sc, mode=args.mode)
    if args.backbone:
        sc = replace(sc, backbone_kind=args.backbone)
    if args.mu is not None:
        sc = replace(sc, cfg=replace(sc.cfg, slot_factor=args.mu))
    if args.seeds is not None:
        if args.seeds < 1:
            raise ScenarioError("--seeds must be >= 1")
        try:
            seeds = list(range(args.seeds))
        except OverflowError:
            raise ScenarioError(f"--seeds {args.seeds} is too many") from None
    else:
        seeds = [args.seed if args.seed is not None else 0]
    report = run_experiment(sc, seeds)
    if args.format == "csv":
        text = _csv_text(experiment_csv_rows(report))
    else:
        text = _json_text(report.to_dict())
    _emit(text, args.out)
    return 0 if report.ok else 1


def _cmd_bounds(args) -> int:
    sc = load_scenario(args.scenario)
    # a loaded scenario is connected and symmetric, with 1 <= c <= k
    rep = bound_report(sc.network, sc.rumor_count, sc.compression)
    if args.format == "csv":
        text = _csv_text([
            ("scenario", "message_lb", "time_lb", "mcds_size",
             "mcds_is_exact"),
            (sc.name, str(rep.message_lb), str(rep.time_lb),
             str(rep.mcds_size), str(rep.mcds_is_exact).lower()),
        ])
    else:
        text = _json_text({"scenario": sc.name, **rep.to_dict()})
    _emit(text, args.out)
    return 0


def _cmd_validate(args) -> int:
    sc = load_scenario(args.scenario)
    print(f"scenario {sc.name!r} ok: {len(sc.network.node_ids)} nodes, "
          f"{len(sc.sources)} sources, c={sc.compression}, "
          f"mode {sc.mode}, backbone {sc.backbone_kind}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rumorcast",
        description="Backbone construction and rumor broadcast scheduling "
                    "for wireless ad-hoc networks.")
    sub = parser.add_subparsers(dest="verb", required=True)

    gen = sub.add_parser("gen", help="generate a scenario file")
    gen.add_argument("kind", choices=("udg", "ring", "star-path"))
    gen.add_argument("--n", type=int, default=10, help="node count (udg)")
    gen.add_argument("--radius", type=float, default=0.45,
                     help="transmission radius (udg)")
    gen.add_argument("--retry", type=int, default=50,
                     help="connectivity retries (udg)")
    gen.add_argument("--seed", type=int, default=0,
                     help="generator seed (udg)")
    gen.add_argument("--ring-size", type=int, default=9,
                     help="outer cycle length (ring)")
    gen.add_argument("--k", type=int, default=1,
                     help="source count; peripheral count for star-path")
    gen.add_argument("--d", type=int, default=1,
                     help="tail length (star-path)")
    gen.add_argument("--name", help="scenario name")
    gen.add_argument("--c", type=int, default=1, help="compression factor")
    gen.add_argument("--mode", choices=MODES, default="centralized")
    gen.add_argument("--mu", type=float, default=2.0,
                     help="slot factor for distributed modes")
    gen.add_argument("--backbone", choices=BACKBONE_KINDS, default="greedy")
    gen.add_argument("--out", help="output path (default stdout)")
    gen.set_defaults(func=_cmd_gen)

    run = sub.add_parser("run", help="run a scenario across seeds")
    run.add_argument("--scenario", required=True)
    seeding = run.add_mutually_exclusive_group()
    seeding.add_argument("--seed", type=int, help="single seed (default 0)")
    seeding.add_argument("--seeds", type=int, metavar="N",
                         help="run seeds 0..N-1")
    run.add_argument("--mode", choices=MODES, help="override scenario mode")
    run.add_argument("--mu", type=float, help="override slot factor")
    run.add_argument("--backbone", choices=BACKBONE_KINDS,
                     help="override backbone construction")
    run.add_argument("--out", help="output path (default stdout)")
    run.add_argument("--format", choices=("json", "csv"), default="csv")
    run.set_defaults(func=_cmd_run)

    bounds = sub.add_parser("bounds", help="report instance floors")
    bounds.add_argument("--scenario", required=True)
    bounds.add_argument("--out", help="output path (default stdout)")
    bounds.add_argument("--format", choices=("json", "csv"), default="json")
    bounds.set_defaults(func=_cmd_bounds)

    val = sub.add_parser("validate", help="check a scenario file")
    val.add_argument("--scenario", required=True)
    val.set_defaults(func=_cmd_validate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:
        print(f"internal error: {type(err).__name__}: {err}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
