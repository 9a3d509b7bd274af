"""Outside-in span recorder for the rumorcast layers.

While installed, a ``Tracer`` replaces each timed public function with a
wrapper in every loaded ``rumorcast`` module that holds it, so ``from ...
import`` copies (``greedy_cds`` in scenario, bounds and backbone, for one)
are timed too.  The library itself is not edited.  A span records its name,
start, end, parent span and the experiment it belongs to; spans stay in
memory until ``write`` is called.  Per-round routines are wrapped, nothing
inside a slot loop is.
"""

from __future__ import annotations

import functools
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

PACKAGE = "rumorcast"
# Layer (module) -> public functions timed in it.  The layer of a span is
# the module the function is defined in, whichever module called it.
TIMED = {
    "model": ("build_network", "bfs_distances", "is_strongly_connected",
              "diameter"),
    "backbone": ("greedy_cds", "bounded_diameter_cds", "validate_backbone"),
    "bounds": ("bound_report",),
    "central": ("multibroadcast_schedule", "make_collision_free",
                "simulate_schedule"),
    "distributed": ("run_distributed_multibroadcast", "run_round_cd",
                    "run_round_nocd"),
    "scenario": ("load_scenario", "run_experiment", "build_backbone"),
}
# Results kept for the count metrics.  Each of these runs a few times per
# experiment; the per-round routines run thousands of times and are only
# tallied.
KEEP_RESULTS = frozenset({
    "scenario.build_backbone", "central.multibroadcast_schedule",
    "central.make_collision_free",
    "distributed.run_distributed_multibroadcast",
})


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    experiment: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans for calls into the timed rumorcast functions."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.results: dict[str, list] = {}
        self.round_counts = [0, 0]  # succeeded senders, data attempts
        self.experiment = ""
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        keep = name in KEEP_RESULTS
        is_round = name.startswith("distributed.run_round")

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx] = Span(name, start, end, parent,
                                       self.experiment)
            if keep:
                self.results.setdefault(name, []).append(result)
            elif is_round:
                self.round_counts[0] += len(result.succeeded)
                self.round_counts[1] += result.data_messages
            return result

        return timed

    @contextmanager
    def installed(self, experiment: str):
        """Time calls made inside the block under the ``experiment`` id.

        Kept results and round tallies start empty for each block.
        """
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        saved = []
        for layer, names in TIMED.items():
            home = sys.modules[f"{PACKAGE}.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            saved.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
        self.experiment = experiment
        self.results = {}
        self.round_counts = [0, 0]
        try:
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)
            self.experiment = ""

    def totals(self, experiment: str) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, inclusive seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        children, so the self times of one experiment sum to its root span.
        """
        own: dict[int, float] = {}
        for i, s in enumerate(self.spans):
            if s.experiment != experiment:
                continue
            own[i] = own.get(i, 0.0) + s.duration
            if s.parent is not None:
                own[s.parent] = own.get(s.parent, 0.0) - s.duration
        out: dict[str, tuple[int, float, float]] = {}
        for i, self_s in own.items():
            s = self.spans[i]
            calls, total, own_total = out.get(s.name, (0, 0.0, 0.0))
            out[s.name] = (calls + 1, total + s.duration, own_total + self_s)
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON line, indices as span ids."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "experiment": s.experiment}) + "\n")

