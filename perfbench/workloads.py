"""Benchmark inputs: seeded placements written as scenario JSON.

The generators here are the benchmark's own, independent of
``rumorcast.fixtures``, so a change to the library's fixtures cannot change
what the benchmark runs.  Each placement is resampled from the same random
stream until its unit-disk graph is connected, found with a uniform grid
rather than the library's all-pairs scan.  The grid adjacency doubles as a
reference the loaded network is checked against.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass

# Same inclusive link test as rumorcast.model.build_network with alpha 2.
GEOM_EPS = 1e-9
ALPHA = 2.0
MAX_PLACEMENT_TRIES = 100
SQUARE_DEGREE = 12.0


@dataclass(frozen=True)
class Workload:
    """Fixed shape of one benchmark workload.

    ``shape`` is "square" (unit square, radius giving about
    ``SQUARE_DEGREE`` neighbours per node) or "strip" (``n / 8`` long,
    0.5 wide, radius 1).
    ``sources`` of None makes every node a source (gossip).  Each run
    covers ``instances`` independent placements with ``seeds`` experiment
    seeds each.
    """

    name: str
    shape: str
    n: int
    sources: int | None
    compression: int
    mode: str
    backbone: str
    seeds: int
    instances: int = 1


WORKLOADS = {w.name: w for w in (
    Workload("udg-central", "square", 729, 8, 2, "centralized",
             "greedy", 1, instances=4),
    Workload("udg-cd", "square", 324, 8, 2, "distributed-cd", "greedy", 6,
             instances=4),
    Workload("strip-nocd", "strip", 400, 8, 2, "distributed-nocd",
             "bounded-diameter", 4),
    Workload("gossip-central", "square", 400, None, 4, "centralized",
             "greedy", 1, instances=2),
)}


@dataclass(frozen=True)
class Inputs:
    """One generated instance, as written to disk."""

    path: str
    stem: str
    sha256: str
    nodes: int
    links: int
    adjacency: dict
    run_seeds: tuple


def _grid_adjacency(pts: list, reach: float) -> dict:
    cells: dict = {}
    for i, (x, y) in enumerate(pts):
        cells.setdefault((int(x // reach), int(y // reach)), []).append(i)
    adj = {}
    for i, (x, y) in enumerate(pts):
        cx, cy = int(x // reach), int(y // reach)
        outs = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for j in cells.get((cx + dx, cy + dy), ()):
                    if j != i and math.hypot(pts[j][0] - x, pts[j][1] - y) \
                            <= reach + GEOM_EPS:
                        outs.append(j)
        adj[i] = tuple(sorted(outs))
    return adj


def _connected(adj: dict) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(adj)


def _nearest_sources(pts: list, targets: list) -> list:
    """The node nearest each target point, skipping nodes already taken."""
    chosen: list = []
    for tx, ty in targets:
        best = min((i for i in range(len(pts)) if i not in chosen),
                   key=lambda i: math.hypot(pts[i][0] - tx, pts[i][1] - ty))
        chosen.append(best)
    return sorted(chosen)


def _jittered(w: Workload, width: float, height: float,
              rng: random.Random) -> list:
    """One uniform point per cell of a cols x rows grid over the area."""
    if w.shape == "square":
        cols = rows = math.isqrt(w.n)
    else:
        cols, rows = w.n // 2, 2
    if cols * rows != w.n:
        raise ValueError(f"{w.name}: {w.n} nodes do not fill a "
                         f"{cols} x {rows} grid")
    cw, ch = width / cols, height / rows
    return [((i + rng.random()) * cw, (j + rng.random()) * ch)
            for i in range(cols) for j in range(rows)]


def placement(w: Workload, seed: int,
              instance: int) -> tuple[list, float, dict, list]:
    """Connected placement, radio power, reference adjacency and sources."""
    rng = random.Random(f"perfbench:{w.name}:{seed}:{instance}")
    if w.shape == "square":
        width, height = 1.0, 1.0
        radius = math.sqrt(SQUARE_DEGREE / (math.pi * w.n))
    elif w.shape == "strip":
        width, height = w.n / 8.0, 0.5
        radius = 1.0
    else:
        raise ValueError(f"unknown shape {w.shape!r}")
    power = radius ** ALPHA
    reach = power ** (1.0 / ALPHA)
    for _ in range(MAX_PLACEMENT_TRIES):
        # Ids follow x + y, so the backbone root (its smallest member id)
        # sits in the same corner on every seed.
        pts = sorted(_jittered(w, width, height, rng),
                     key=lambda p: (p[0] + p[1], p))
        adj = _grid_adjacency(pts, reach)
        if _connected(adj):
            break
    else:
        raise RuntimeError(f"{w.name}: no connected placement of {w.n} "
                           f"nodes in {MAX_PLACEMENT_TRIES} tries")
    k = w.sources
    if k is None:
        sources = list(range(w.n))
    elif w.shape == "square":
        sources = _nearest_sources(pts, [
            (0.5 + 0.35 * math.cos(2 * math.pi * j / k),
             0.5 + 0.35 * math.sin(2 * math.pi * j / k)) for j in range(k)])
    else:
        sources = _nearest_sources(pts, [((j + 0.5) * width / k, 0.25)
                                         for j in range(k)])
    return pts, power, adj, sources


def write_inputs(w: Workload, seed: int, work_dir: str) -> list[Inputs]:
    """Generate the workload's instances for ``seed`` as scenario JSON."""
    os.makedirs(work_dir, exist_ok=True)
    return [_write_instance(w, seed, i, work_dir)
            for i in range(w.instances)]


def _write_instance(w: Workload, seed: int, instance: int,
                    work_dir: str) -> Inputs:
    pts, power, adj, sources = placement(w, seed, instance)
    scenario = {
        "name": w.name,
        "network": {
            "alpha": ALPHA,
            "strict": False,
            "nodes": [{"id": i, "x": x, "y": y, "power": power}
                      for i, (x, y) in enumerate(pts)],
            "obstacles": [],
        },
        "sources": sources,
        "c": w.compression,
        "mode": w.mode,
        "backbone": w.backbone,
    }
    data = (json.dumps(scenario, sort_keys=True) + "\n").encode()
    stem = f"{w.name}-seed{seed}-{instance}"
    path = os.path.join(work_dir, f"{stem}.json")
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)
    run_seeds = tuple(seed * 1000 + instance * 100 + j
                      for j in range(w.seeds))
    return Inputs(path=path, stem=stem,
                  sha256=hashlib.sha256(data).hexdigest(),
                  nodes=len(adj), links=sum(len(v) for v in adj.values()),
                  adjacency=adj, run_seeds=run_seeds)
