"""Sweep random unit-disk networks and compare backbone constructions.

For each seeded network the sweep reports the greedy and bounded-diameter
backbone sizes next to the exact optimum, the member hop-diameter of the
bounded construction against its 4x-network-diameter guarantee, and the
multi-broadcast message count against the matching lower bound.  One CSV
row per network, so the numbers can be plotted or grepped directly.

Example:
    python3 scripts/sweep_backbones.py --count 50 --k 4 --c 2
"""

from __future__ import annotations

import argparse
import csv
import sys

from rumorcast.backbone import bounded_diameter_cds, greedy_cds
from rumorcast.bounds import bound_report
from rumorcast.central import multibroadcast_schedule, simulate_schedule
from rumorcast.fixtures import gen_random_udg, pick_sources
from rumorcast.model import NetworkGraph, diameter

HEADER = ("seed", "n", "max_degree", "diam", "greedy_size", "bounded_size",
          "oracle_size", "bounded_member_diam", "messages", "makespan",
          "msg_lb", "ratio")


def member_hop_diameter(g, members) -> int:
    mset = set(members)
    return diameter(NetworkGraph.from_adjacency(
        {m: [v for v in g.adjacency[m] if v in mset] for m in members}))


def sweep_row(seed: int, n: int, args) -> tuple:
    g = gen_random_udg(n, args.radius, seed=seed, connect_retry=args.retry)
    greedy = greedy_cds(g)
    bounded = bounded_diameter_cds(g)
    # the floors use the exact oracle where the network is small enough
    floors = bound_report(g, args.k, args.c)
    oracle_size = floors.mcds_size if floors.mcds_is_exact else ""
    sources = pick_sources(g, args.k)
    sched = multibroadcast_schedule(g, greedy, sources, args.c)
    met = simulate_schedule(g, sched)
    lb = floors.message_lb
    return (seed, len(g.node_ids), g.max_degree, diameter(g), greedy.size,
            bounded.size, oracle_size, member_hop_diameter(g, bounded.members),
            met.messages, met.makespan, lb, f"{met.messages / lb:.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="compare backbone constructions over seeded random "
                    "unit-disk networks")
    parser.add_argument("--count", type=int, default=50,
                        help="number of networks (default 50)")
    parser.add_argument("--n-min", type=int, default=5)
    parser.add_argument("--n-max", type=int, default=12)
    parser.add_argument("--radius", type=float, default=0.45)
    parser.add_argument("--retry", type=int, default=80,
                        help="re-draws allowed per seed to hit connectivity")
    parser.add_argument("--k", type=int, default=4, help="rumor count")
    parser.add_argument("--c", type=int, default=2, help="compression factor")
    parser.add_argument("--seed0", type=int, default=0, help="first seed")
    parser.add_argument("--out", help="output CSV path (default stdout)")
    args = parser.parse_args(argv)
    if args.n_min < args.k or args.n_min < 2 or args.n_max < args.n_min:
        parser.error("need k <= n-min <= n-max and n-min >= 2")

    span = args.n_max - args.n_min + 1
    rows = [HEADER]
    for i in range(args.count):
        seed = args.seed0 + i
        rows.append(sweep_row(seed, args.n_min + i % span, args))

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(rows)
    else:
        csv.writer(sys.stdout).writerows(rows)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
