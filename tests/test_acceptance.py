"""Release acceptance gates, one test per numbered criterion.

Every threshold and tolerance is frozen in this file.  A verbose run
prints one PASSED/FAILED line per criterion (the test names carry the
numbers), and each passing test prints a one-line summary of what was
measured.  The shared sweep of 200 random unit-disk networks is built
once per module; its construction time is charged to criterion 1's
runtime budget.
"""

from __future__ import annotations

import json
import math
import time
from collections import deque
from dataclasses import dataclass, replace

import pytest

from rumorcast.backbone import (
    Backbone,
    bounded_diameter_cds,
    brute_force_mcds,
    build_arborescence,
    greedy_cds,
    validate_backbone,
)
from rumorcast.bounds import (
    expected_cd_stats,
    expected_nocd_stats,
    message_lower_bound,
    message_lower_bound_raw,
    time_lower_bound_star_path,
)
from rumorcast.central import (
    Rumor,
    Schedule,
    broadcast_schedule,
    make_collision_free,
    multibroadcast_schedule,
    simulate_schedule,
)
from rumorcast.cli import main as cli_main
from rumorcast.distributed import SimConfig, init_states, run_round_cd, run_round_nocd, slot_count
from rumorcast.fixtures import (
    gen_internal_source_path,
    gen_leaf_source_path,
    gen_random_udg,
    gen_ring_fixture,
    gen_star_path,
    pick_sources,
)
from rumorcast.model import NetworkGraph, diameter
from rumorcast.scenario import Scenario, experiment_csv_rows, run_experiment, scenario_to_dict
from rumorcast.search import min_makespan_schedule

from reception_reference import delivery_times

SWEEP_SIZE = 200
SWEEP_RADIUS = 0.45
# rumor-count / compression pairs exercised on every sweep network
KC_GRID = ((2, 1), (2, 2), (4, 1), (4, 2), (4, 4))
BACKBONE_LABELS = ("greedy", "bounded", "oracle")
FLOAT_SLACK = 1e-9


def harmonic(n: int) -> float:
    return sum(1.0 / i for i in range(1, n + 1))


def symmetric_graph(adj: dict) -> NetworkGraph:
    return NetworkGraph.from_adjacency({u: sorted(vs) for u, vs in adj.items()})


def make_clique(n: int) -> NetworkGraph:
    ids = list(range(n))
    return symmetric_graph({u: [v for v in ids if v != u] for u in ids})


def make_star(leaf_count: int) -> tuple[NetworkGraph, list]:
    leaves = [f"l{i}" for i in range(leaf_count)]
    adj: dict = {"hub": leaves}
    adj.update({v: ["hub"] for v in leaves})
    return symmetric_graph(adj), leaves


def member_hop_diameter(g: NetworkGraph, members) -> int:
    """Diameter of the subgraph induced by the backbone members."""
    mset = set(members)
    worst = 0
    for s in members:
        dist = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in g.adjacency[u]:
                if v in mset and v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        assert len(dist) == len(mset), "member subgraph is disconnected"
        worst = max(worst, max(dist.values()))
    return worst


def interference_cap(g: NetworkGraph, sched: Schedule) -> int:
    """Largest interference set over the schedule's transmitter pool.

    For each transmitter, counts the pool members (itself included) whose
    simultaneous transmission would collide at one of its receivers.
    Splitting any round into collision-free sub-rounds never needs more
    sub-rounds than this: a sender conflicting with every existing
    sub-round has that many rivals.
    """
    senders = {tx.sender for rnd in sched.rounds for tx in rnd}
    reach = {u: set(g.adjacency[u]) for u in senders}
    cap = 0
    for u in senders:
        rivals = sum(1 for w in senders if w != u and reach[w] & reach[u])
        cap = max(cap, rivals + 1)
    return cap


def assert_delivered(g: NetworkGraph, sched: Schedule, *,
                     interference: bool = False) -> None:
    everyone = set(g.node_ids)
    delivery = delivery_times(g, sched, interference=interference)
    for r in sched.rumors():
        assert set(delivery[r]) == everyone


@dataclass(frozen=True)
class SweepInstance:
    seed: int
    g: NetworkGraph
    greedy: Backbone
    bounded: Backbone
    oracle: Backbone
    diam: int


@dataclass(frozen=True)
class MultiRun:
    inst: SweepInstance
    k: int
    c: int
    sched: dict
    metrics: dict


@pytest.fixture(scope="module")
def sweep():
    start = time.perf_counter()
    instances = []
    for seed in range(SWEEP_SIZE):
        n = 5 + seed % 8
        g = gen_random_udg(n, SWEEP_RADIUS, seed=seed, connect_retry=80)
        base = greedy_cds(g)
        instances.append(SweepInstance(
            seed=seed,
            g=g,
            greedy=base,
            bounded=bounded_diameter_cds(g, base),
            oracle=brute_force_mcds(g),
            diam=diameter(g),
        ))
    return instances, time.perf_counter() - start


@pytest.fixture(scope="module")
def multibroadcast_runs(sweep):
    instances, _ = sweep
    runs = []
    for inst in instances:
        for k, c in KC_GRID:
            sources = tuple(pick_sources(inst.g, k))
            scheds: dict = {}
            mets: dict = {}
            for label, bb in (("greedy", inst.greedy),
                              ("bounded", inst.bounded),
                              ("oracle", inst.oracle)):
                sched = multibroadcast_schedule(inst.g, bb, sources, c)
                scheds[label] = sched
                mets[label] = simulate_schedule(inst.g, sched)
            runs.append(MultiRun(inst=inst, k=k, c=c, sched=scheds, metrics=mets))
    return runs


def test_criterion_01_backbone_sweep_correctness(sweep):
    instances, build_seconds = sweep
    start = time.perf_counter()
    assert len(instances) == SWEEP_SIZE
    tightest = 0.0
    for inst in instances:
        assert 5 <= len(inst.g.node_ids) <= 12
        validate_backbone(inst.g, inst.greedy)
        validate_backbone(inst.g, inst.bounded)
        cap = (2.0 + harmonic(inst.g.max_degree)) * inst.oracle.size
        assert inst.greedy.size <= cap + FLOAT_SLACK
        tightest = max(tightest, inst.greedy.size / cap)
    elapsed = build_seconds + (time.perf_counter() - start)
    assert elapsed < 60.0
    print(f"criterion 1 PASS: {SWEEP_SIZE} networks, both constructions valid, "
          f"worst greedy/cap ratio {tightest:.3f}, {elapsed:.1f}s")


def test_criterion_02_bounded_diameter_guarantees(sweep):
    instances, _ = sweep
    for inst in instances:
        assert member_hop_diameter(inst.g, inst.bounded.members) <= 4 * inst.diam
        assert inst.bounded.size <= 3 * inst.greedy.size

    # ring networks: the smallest dominating backbone is the outer cycle,
    # whose own hop-diameter grows with the ring while the network's stays 4
    for size in (9, 17, 33):
        g = gen_ring_fixture(size)
        outers = tuple(sorted(f"o{i}" for i in range(size)))
        base = Backbone(members=outers, root="o0",
                        parent=build_arborescence(g, outers, "o0"))
        validate_backbone(g, base)
        assert diameter(g) == 4
        assert member_hop_diameter(g, base.members) == size // 2
        thickened = bounded_diameter_cds(g, base)
        validate_backbone(g, thickened)
        assert member_hop_diameter(g, thickened.members) <= 16
        assert thickened.size <= 3 * size
    print(f"criterion 2 PASS: hop-diameter <= 4*diam and size <= 3*|base| on "
          f"{SWEEP_SIZE} sweep networks and rings 9/17/33")


def test_criterion_03_path_broadcast_message_counts():
    g, leaf = gen_leaf_source_path()
    opt = brute_force_mcds(g)
    sched = broadcast_schedule(g, opt, leaf)
    met = simulate_schedule(g, sched)
    assert_delivered(g, sched)
    assert met.messages == opt.size + 1

    g2, internal = gen_internal_source_path()
    opt2 = brute_force_mcds(g2)
    sched2 = broadcast_schedule(g2, opt2, internal)
    met2 = simulate_schedule(g2, sched2)
    assert_delivered(g2, sched2)
    assert met2.messages == opt2.size
    print(f"criterion 3 PASS: leaf source broadcast in {met.messages} messages "
          f"(optimum {opt.size}+1), internal source in {met2.messages}")


def test_criterion_04_multibroadcast_message_ratio(multibroadcast_runs):
    worst_general = 0.0
    worst_udg = 0.0
    for run in multibroadcast_runs:
        floor = message_lower_bound_raw(run.k, run.c, run.inst.oracle.size)
        general_cap = ((2.0 * harmonic(run.inst.g.max_degree) + 5.0)
                       * (1.0 + 1.0 / run.c))
        ratio = run.metrics["greedy"].messages / floor
        assert ratio <= general_cap + FLOAT_SLACK
        worst_general = max(worst_general, ratio / general_cap)

        udg_cap = 15.6 * (1.0 + 1.0 / run.c)
        oracle_ratio = run.metrics["oracle"].messages / floor
        assert oracle_ratio <= udg_cap + FLOAT_SLACK
        worst_udg = max(worst_udg, oracle_ratio / udg_cap)
    print(f"criterion 4 PASS: {len(multibroadcast_runs)} runs, worst "
          f"ratio/cap {worst_general:.3f} (greedy), {worst_udg:.3f} "
          f"(oracle backbone, unit-disk cap)")


def test_criterion_05_multibroadcast_makespan_bound(multibroadcast_runs):
    worst = 0.0
    for run in multibroadcast_runs:
        cap = 2 * (4 * run.inst.diam + math.ceil(run.k / run.c))
        makespan = run.sched["bounded"].makespan
        assert makespan <= cap
        worst = max(worst, makespan / cap)
    print(f"criterion 5 PASS: makespan <= 2*(4*diam + ceil(k/c)) on all "
          f"{len(multibroadcast_runs)} runs, worst fill {worst:.3f}")


def test_criterion_06_collision_free_transform(multibroadcast_runs):
    checked = 0
    for run in multibroadcast_runs:
        for label in BACKBONE_LABELS:
            orig = run.sched[label]
            safe = make_collision_free(run.inst.g, orig)
            met = simulate_schedule(run.inst.g, safe, interference=True)
            assert met.collisions == 0
            assert_delivered(run.inst.g, safe, interference=True)
            cap = interference_cap(run.inst.g, orig)
            assert safe.makespan <= cap * orig.makespan
            checked += 1
    print(f"criterion 6 PASS: {checked} transformed schedules, 0 collisions "
          f"under interference, makespan within the interference-set factor")


CD_DELTAS = (2, 4, 8)
CD_ROUNDS = 10_000


def test_criterion_07_cd_round_statistics():
    start = time.perf_counter()
    summaries = []
    for delta in CD_DELTAS:
        for mu in (delta, 2 * delta):
            g = make_clique(delta + 1)
            cfg = SimConfig(slot_factor=float(mu), mode="cd",
                            seed=7000 + 10 * delta + mu)
            m = slot_count(g, cfg)
            assert m == expected_cd_stats(delta, delta, float(mu)).slots == mu * delta

            # all delta+1 nodes contend; the probe sender reaches everyone
            # exactly when no rival picked its slot
            p_exact = (1.0 - 1.0 / m) ** delta
            batches = {u: 1 << u for u in g.node_ids}  # u's own rumor
            states = init_states(g, cfg)
            wins = 0
            run_lengths: list[int] = []
            current = 0
            contend_errors = 0
            for _ in range(CD_ROUNDS):
                for u in g.node_ids:
                    states[u].pending = deque([batches[u]])
                    states[u].held = 0
                log = run_round_cd(g, states, g.node_ids, cfg)
                contend_errors += log.control_messages
                current += 1
                if all(states[v].held & batches[0]
                       for v in g.node_ids if v != 0):
                    wins += 1
                    run_lengths.append(current)
                    current = 0
            rate = wins / CD_ROUNDS
            se = math.sqrt(p_exact * (1.0 - p_exact) / CD_ROUNDS)
            assert abs(rate - p_exact) <= 3.0 * se
            assert run_lengths
            mean_rounds = sum(run_lengths) / len(run_lengths)
            assert mean_rounds <= math.exp(2.0 * delta / mu) * 1.1

            err_cap = delta * (1.0 - math.exp(-1.0 / mu)) * 1.2
            # with every node transmitting there is no idle listener left to
            # echo, so the contending fixture produces zero error messages
            assert contend_errors == 0 <= err_cap

            # same clique with one idle listener: real echo traffic, same cap
            talkers = [u for u in g.node_ids if u != delta]
            echo_total = 0
            for _ in range(CD_ROUNDS):
                for u in talkers:
                    states[u].pending = deque([batches[u]])
                for u in g.node_ids:
                    states[u].held = 0
                echo_total += run_round_cd(g, states, talkers, cfg).control_messages
            mean_echoes = echo_total / CD_ROUNDS
            assert mean_echoes <= err_cap

            summaries.append(f"d={delta},mu={mu}: rate {rate:.4f} "
                             f"(exact {p_exact:.4f}), mean rounds "
                             f"{mean_rounds:.2f}, echoes {mean_echoes:.3f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"criterion 7 PASS ({elapsed:.1f}s): " + "; ".join(summaries))


NOCD_TRIALS = {4: 3000, 8: 6000}


def test_criterion_08_nocd_drain_statistics():
    summaries = []
    for delta in (4, 8):
        g, leaves = make_star(delta)
        stats = expected_nocd_stats(delta, delta, 2.0)
        trials = NOCD_TRIALS[delta]
        batch = 1  # the hub's rumor
        total_rounds = 0
        total_acks = 0
        for trial in range(trials):
            cfg = SimConfig(slot_factor=2.0, mode="nocd", seed=trial)
            states = init_states(g, cfg)
            states["hub"].pending = deque([batch])
            states["hub"].awaiting_ack = set(leaves)
            rounds = 0
            while states["hub"].pending:
                log = run_round_nocd(g, states, ["hub"], cfg)
                rounds += 1
                total_acks += log.control_messages
                assert rounds <= 500
            total_rounds += rounds
        mean_acks = total_acks / trials
        mean_rounds = total_rounds / trials
        ack_cap = math.exp(2.0 / 2.0) * delta * 1.2
        assert mean_acks <= ack_cap
        assert stats.rounds_to_drain / 2.0 <= mean_rounds <= 2.0 * stats.rounds_to_drain
        summaries.append(f"d={delta}: {trials} trials, mean acks "
                         f"{mean_acks:.2f} <= {ack_cap:.2f}, mean rounds "
                         f"{mean_rounds:.2f} vs drain estimate {stats.rounds_to_drain}")
    print("criterion 8 PASS: " + "; ".join(summaries))


def test_criterion_09_lower_bound_sanity(multibroadcast_runs):
    violations = 0
    checked = 0
    for run in multibroadcast_runs:
        floor = message_lower_bound(run.k, run.c, run.inst.oracle.size)
        for label in BACKBONE_LABELS:
            met = run.metrics[label]
            assert_delivered(run.inst.g, run.sched[label])
            if met.messages < floor:
                violations += 1
            if met.makespan < run.inst.diam:
                violations += 1
            checked += 1
    assert violations == 0
    print(f"criterion 9 PASS: {checked} simulated runs, 0 floor violations")


def test_criterion_10_star_path_exact_optimum():
    cases = 0
    # two nodes, every rumor stacked on one end: diameter-1 member of the family
    for k in (1, 2, 3, 4):
        g = symmetric_graph({"a": ["b"], "b": ["a"]})
        rumors = [Rumor("a", i) for i in range(k)]
        for c in range(1, k + 1):
            best = min_makespan_schedule(g, rumors, c)
            predicted = math.ceil(k / c)
            assert best.makespan == predicted == time_lower_bound_star_path(k, c, 1)
            cases += 1
    for k in (1, 2, 3, 4):
        for tail in (1, 2):
            g, sources = gen_star_path(k, tail)
            diam = diameter(g)
            assert diam == tail + 1 <= 3
            rumors = [Rumor(s, i) for i, s in enumerate(sources)]
            for c in range(1, k + 1):
                best = min_makespan_schedule(g, rumors, c)
                predicted = math.ceil(k / c) + diam - 1
                assert best.makespan == predicted == time_lower_bound_star_path(k, c, diam)
                cases += 1
    print(f"criterion 10 PASS: exhaustive optimum equals ceil(k/c)+d-1 "
          f"in all {cases} cases")


def test_criterion_11_deterministic_csv_output(tmp_path):
    g = gen_random_udg(8, SWEEP_RADIUS, seed=13, connect_retry=80)
    sources = tuple(pick_sources(g, 2))
    for mode in ("centralized", "distributed-cd", "distributed-nocd"):
        sc = Scenario(name=f"determinism-{mode}", network=g, sources=sources,
                      compression=2, mode=mode, cfg=SimConfig(slot_factor=2.0))
        rows_a = experiment_csv_rows(run_experiment(sc, seeds=range(3)))
        rows_b = experiment_csv_rows(run_experiment(sc, seeds=range(3)))
        assert rows_a == rows_b

    # full command-line path, compared byte for byte
    sc = Scenario(name="determinism-cli", network=g, sources=sources,
                  compression=2, mode="distributed-cd",
                  cfg=SimConfig(slot_factor=2.0))
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario_to_dict(sc)))
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out in (out_a, out_b):
        rc = cli_main(["run", "--scenario", str(scenario_path),
                       "--seeds", "3", "--out", str(out)])
        assert rc == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.read_bytes().startswith(b"scenario,seed,messages,makespan")
    print("criterion 11 PASS: repeated runs byte-identical in all three modes "
          "and through the command line")
