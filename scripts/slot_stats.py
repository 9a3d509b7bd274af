"""Monte-Carlo the slotted transmission routines against their closed forms.

CD mode runs a clique of contending senders and measures the probe sender's
all-neighbors delivery rate, rounds until delivery, and error-echo traffic.
NoCD mode drains a star hub's acknowledgement list and measures rounds to
empty plus total acks.  Each row pairs a measurement with the prediction
from the bounds module, so drift between simulator and analysis shows up
as a ratio far from 1.

Examples:
    python3 scripts/slot_stats.py --mode cd --rounds 20000
    python3 scripts/slot_stats.py --mode nocd --deltas 4 8 --trials 2000
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from collections import deque

from rumorcast.bounds import expected_cd_stats, expected_nocd_stats
from rumorcast.distributed import SimConfig, init_states, run_round_cd, run_round_nocd, slot_count
from rumorcast.model import NetworkGraph

CD_HEADER = ("delta", "mu", "slots", "rounds", "success_rate", "exact_rate",
             "mean_rounds_to_success", "retx_bound", "mean_error_msgs",
             "error_bound")
NOCD_HEADER = ("delta", "mu", "slots", "trials", "mean_rounds", "drain_estimate",
               "mean_acks", "ack_bound")


def clique(n: int) -> NetworkGraph:
    ids = list(range(n))
    return NetworkGraph.from_adjacency(
        {u: [v for v in ids if v != u] for u in ids})


def star(leaf_count: int) -> tuple[NetworkGraph, list]:
    leaves = [f"l{i}" for i in range(leaf_count)]
    adj: dict = {"hub": leaves}
    adj.update({v: ["hub"] for v in leaves})
    return NetworkGraph.from_adjacency(adj), leaves


def cd_row(delta: int, mu: float, rounds: int, seed: int) -> tuple:
    g = clique(delta + 1)
    cfg = SimConfig(slot_factor=mu, mode="cd", seed=seed)
    m = slot_count(g, cfg)
    stats = expected_cd_stats(delta, delta, mu)
    exact = (1.0 - 1.0 / m) ** delta
    batches = {u: 1 << u for u in g.node_ids}  # u's own rumor
    states = init_states(g, cfg)
    wins = 0
    lengths: list[int] = []
    current = 0
    # probe sender 0 with one idle listener so error echoes can flow
    talkers = [u for u in g.node_ids if u != delta]
    errors = 0
    for _ in range(rounds):
        for u in g.node_ids:
            states[u].pending = deque([batches[u]])
            states[u].held = 0
        log = run_round_cd(g, states, g.node_ids, cfg)
        current += 1
        if all(states[v].held & batches[0]
               for v in g.node_ids if v != 0):
            wins += 1
            lengths.append(current)
            current = 0
        for u in talkers:
            states[u].pending = deque([batches[u]])
        for u in g.node_ids:
            states[u].held = 0
        errors += run_round_cd(g, states, talkers, cfg).control_messages
    mean_rounds = sum(lengths) / len(lengths) if lengths else math.inf
    return (delta, mu, m, rounds, f"{wins / rounds:.4f}", f"{exact:.4f}",
            f"{mean_rounds:.3f}", f"{stats.exp_retx_bound:.3f}",
            f"{errors / rounds:.4f}", f"{stats.exp_err_msgs:.4f}")


def nocd_row(delta: int, mu: float, trials: int, seed: int) -> tuple:
    g, leaves = star(delta)
    stats = expected_nocd_stats(delta, delta, mu)
    batch = 1  # the hub's rumor
    total_rounds = 0
    total_acks = 0
    for trial in range(trials):
        cfg = SimConfig(slot_factor=mu, mode="nocd", seed=seed + trial)
        states = init_states(g, cfg)
        states["hub"].pending = deque([batch])
        states["hub"].awaiting_ack = set(leaves)
        while states["hub"].pending:
            total_acks += run_round_nocd(g, states, ["hub"], cfg).control_messages
            total_rounds += 1
    return (delta, mu, stats.slots, trials, f"{total_rounds / trials:.3f}",
            stats.rounds_to_drain, f"{total_acks / trials:.3f}",
            f"{stats.exp_neighbor_tx:.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="measure slotted-round statistics against predictions")
    parser.add_argument("--mode", choices=("cd", "nocd"), default="cd")
    parser.add_argument("--deltas", type=int, nargs="+", default=[2, 4, 8],
                        help="neighbor counts to test")
    parser.add_argument("--mus", type=float, nargs="+",
                        help="slot factors (default: delta and 2*delta per "
                             "delta in cd mode, 2 in nocd mode)")
    parser.add_argument("--rounds", type=int, default=10_000,
                        help="cd mode: rounds per configuration")
    parser.add_argument("--trials", type=int, default=1000,
                        help="nocd mode: drains per configuration")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="output CSV path (default stdout)")
    args = parser.parse_args(argv)
    if any(d < 1 for d in args.deltas):
        parser.error("deltas must be >= 1")

    rows: list[tuple] = []
    if args.mode == "cd":
        rows.append(CD_HEADER)
        for delta in args.deltas:
            for mu in (args.mus or (float(delta), 2.0 * delta)):
                rows.append(cd_row(delta, mu, args.rounds, args.seed))
    else:
        rows.append(NOCD_HEADER)
        for delta in args.deltas:
            for mu in (args.mus or (2.0,)):
                rows.append(nocd_row(delta, mu, args.trials, args.seed))

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(rows)
    else:
        csv.writer(sys.stdout).writerows(rows)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
