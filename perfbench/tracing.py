"""In-memory span tracing of fitroute's public functions, from outside the package.

A Tracer replaces each traced function at the module attribute its caller
looks it up by (so `fitroute.experiment.build_spanning_tree`, not only
`fitroute.fitness.build_spanning_tree`), records one span per call and puts
every original back when the `installed()` block ends. Helpers called once
per relaxation or per path step (`edge_cost`, `path_fitness`) are never
wrapped: a wrapper there would cost more than the work it times, so their
time shows as the self time of the function that calls them.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

from fitroute import cli, dv, experiment, fitness, topology


@dataclass
class Span:
    id: int
    name: str              # "<layer>.<function>"
    start: float           # time.perf_counter() seconds
    end: float
    parent: int | None     # id of the span that was open when this one began
    request: int | None    # one CLI run (compare) or one select_route call (stream)
    rep: int | None        # repetition of the workload; None during set-up
    counts: dict | None = None


def _tree_counts(tree) -> dict:
    return {"relaxations": tree.relaxations, "settled": len(tree.label)}


def _converge_counts(result) -> dict:
    state, rounds = result
    t = state.topology
    # every exchange round, the final unchanged one included, examines each
    # neighbour of each node for each of the other n - 1 destinations
    return {"rounds": rounds,
            "relaxations": (rounds + 1) * 2 * len(t.links) * (t.n - 1)}


# (module, attribute, span name, counter taking the call's result)
TRACED = (
    (cli, "run_cli", "cli.run_cli", None),
    (cli, "run_comparison", "experiment.run_comparison", None),
    (cli, "report_to_json", "experiment.render", None),
    (cli, "render_table", "experiment.render", None),
    (cli, "emit_plot_series", "experiment.render", None),
    (experiment, "verify_claims", "experiment.verify_claims", None),
    (experiment, "generate_topology_rng", "topology.generate", None),
    (topology, "generate_topology", "topology.generate", None),
    (experiment, "feasible_subgraph", "topology.prune", None),
    (fitness, "feasible_subgraph", "topology.prune", None),
    (experiment, "bfs_hops", "topology.bfs", None),
    (fitness, "bfs_hops", "topology.bfs", None),
    (experiment, "topology_fingerprint", "topology.fingerprint", None),
    (dv, "init_tables", "dv.init_tables", None),
    (dv, "converge", "dv.converge", _converge_counts),
    (dv, "exchange_round", "dv.exchange_round", None),
    (dv, "extract_path", "dv.extract_path", None),
    (experiment, "build_spanning_tree", "fitness.build_spanning_tree", _tree_counts),
    (fitness, "build_spanning_tree", "fitness.build_spanning_tree", _tree_counts),
    (experiment, "classify_outcome", "fitness.classify_outcome", None),
    (fitness, "classify_outcome", "fitness.classify_outcome", None),
    (fitness, "select_route", "fitness.select_route", None),
)

LAYERS = ("topology", "dv", "fitness", "experiment", "cli")

# name -> unit of every metric layer_metrics() returns
LAYER_METRICS = {
    "topology.generate_s": "s",
    "topology.prune_s": "s",
    "topology.prune_calls": "count",
    "topology.bfs_s": "s",
    "topology.bfs_calls": "count",
    "topology.fingerprint_s": "s",
    "dv.converge_s": "s",
    "dv.round_s": "s",
    "dv.rounds": "count",
    "dv.relaxations": "count",
    "fitness.tree_s": "s",
    "fitness.trees": "count",
    "fitness.relaxations": "count",
    "fitness.settled": "count",
    "fitness.queries_per_tree": "queries/tree",
    "fitness.classify_s": "s",
    "fitness.select_s": "s",
    "experiment.verify_s": "s",
    "experiment.render_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
}


class Tracer:
    """Collects spans while installed; `rep` and `request` label new spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.rep: int | None = None
        self.request: int | None = None
        self._open: list[int] = []
        self._next_id = 0

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._open[-1] if self._open else None
            self._open.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
            counts = None if counter is None else counter(result)
            self.spans.append(Span(sid, name, start, end, parent,
                                   self.request, self.rep, counts))
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every TRACED attribute; restore the originals on exit."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in TRACED]
        try:
            for mod, attr, name, counter in TRACED:
                setattr(mod, attr, self._wrap(getattr(mod, attr), name, counter))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    return {s.id: s.end - s.start - covered[s.id] for s in spans}


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[Span], requests_per_rep: int,
                  traced_walls: list[float],
                  untraced_walls: list[float]) -> dict[str, float]:
    """Every LAYER_METRICS value from the spans of the traced repetitions.

    Times and counts are totals per repetition, reported as the median over
    repetitions, except `topology.generate_s` and `dv.round_s`, which are the
    median duration of one generation and of one exchange round, and
    `trace.overhead_s`, the median traced minus the median untraced
    repetition, both scaled by the calibration loop. A layer the workload
    never calls reports 0.
    """
    selfs = self_times(spans)
    reps = sorted({s.rep for s in spans if s.rep is not None})
    per_rep: dict[int, dict[str, float]] = {r: defaultdict(float) for r in reps}
    for s in spans:
        if s.rep is None:
            continue
        m = per_rep[s.rep]
        dur = s.end - s.start
        layer = s.name.split(".", 1)[0]
        m[f"{layer}.self_s"] += selfs[s.id]
        if s.name == "topology.prune":
            m["topology.prune_s"] += dur
            m["topology.prune_calls"] += 1
        elif s.name == "topology.bfs":
            m["topology.bfs_s"] += dur
            m["topology.bfs_calls"] += 1
        elif s.name == "topology.fingerprint":
            m["topology.fingerprint_s"] += dur
        elif s.name == "dv.converge":
            m["dv.converge_s"] += dur
            m["dv.rounds"] += s.counts["rounds"]
            m["dv.relaxations"] += s.counts["relaxations"]
        elif s.name == "fitness.build_spanning_tree":
            m["fitness.tree_s"] += dur
            m["fitness.trees"] += 1
            m["fitness.relaxations"] += s.counts["relaxations"]
            m["fitness.settled"] += s.counts["settled"]
        elif s.name == "fitness.classify_outcome":
            m["fitness.classify_s"] += selfs[s.id]
        elif s.name == "fitness.select_route":
            m["fitness.select_s"] += selfs[s.id]
        elif s.name == "experiment.verify_claims":
            m["experiment.verify_s"] += selfs[s.id]
        elif s.name == "experiment.render":
            m["experiment.render_s"] += dur

    out = {name: _median(per_rep[r][name] for r in reps)
           for name in LAYER_METRICS}
    out["topology.generate_s"] = _median(
        s.end - s.start for s in spans if s.name == "topology.generate")
    out["dv.round_s"] = _median(
        s.end - s.start for s in spans if s.name == "dv.exchange_round")
    out["fitness.queries_per_tree"] = _median(
        requests_per_rep / per_rep[r]["fitness.trees"]
        for r in reps if per_rep[r]["fitness.trees"])
    out["trace.overhead_s"] = _median(traced_walls) - _median(untraced_walls)
    return out
