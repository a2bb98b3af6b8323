"""The benchmark's workloads: closed loops with one client in one thread.

compare-dense, compare-sparse
    Two loops take turns, COMPARES_PER_PASS repetitions of one to each of the
    other: a repetition of the first is one in-process
    `run_cli(["compare", ..., "--format", "json"])`, its report captured from
    stdout; a repetition of the second is a routed pass, one `select_route`
    call for each of the benchmark's own requests on the same instance.
route-stream
    One instance; a repetition is a pass of `select_route` requests with
    endpoints and demands drawn by the benchmark's own RNG.

A run builds its instance SETUP_BUILDS times (set-up time is the median),
repeats until its time is up, and only then checks every answer with the
oracle, outside the timed region. A traced run alternates untraced and
traced repetitions and reports the layer metrics instead.

Every time the benchmark reports is scaled by a calibration loop timed
right before and after it (see calibration.py), so that other tenants of a
shared host, who slow everything by up to twice from one second to the next,
drop out of the ratio. Every run reports medians of such scaled times.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field

from fitroute import GenParams, RouteRequest, cli, fitness, topology

import oracle
from calibration import LONG, LONG_RUNS, SHORT
from tracing import LAYER_METRICS, Tracer, layer_metrics

SETUP_BUILDS = 9
MIN_ROUNDS = 3
COMPARES_PER_PASS = 6

# name -> unit of every metric an untraced run reports
E2E_METRICS = {
    "setup_s": "s",
    "run_s": "s",
    "route_p50_ms": "ms",
    "route_p99_ms": "ms",
    "routes_per_s": "1/s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "compare" or "stream"
    nodes: int
    edge_prob: float
    requests: int             # select_route requests per pass
    demand: tuple[float, float]  # Mbps, uniform per request; one value for compare
    queries: int = 0          # queries per compare run; 0 for stream

    def cli_args(self, seed: int) -> list[str]:
        return ["compare", "--nodes", str(self.nodes), "--seed", str(seed),
                "--queries", str(self.queries),
                "--edge-prob", repr(self.edge_prob),
                "--demand", repr(self.demand[0]), "--format", "json"]


WORKLOADS = {w.name: w for w in (
    Workload("compare-dense", "compare", nodes=128, edge_prob=0.15,
             requests=1000, demand=(5.0, 5.0), queries=1000),
    Workload("compare-sparse", "compare", nodes=256, edge_prob=0.016,
             requests=1000, demand=(50.0, 50.0), queries=1000),
    Workload("route-stream", "stream", nodes=256, edge_prob=0.03,
             requests=2000, demand=(1.0, 90.0)),
)}


@dataclass
class Rep:
    traced: bool
    wall: float              # seconds, as measured
    scaled: float            # seconds, scaled by the calibration loop
    calibration: float       # the loop's median time around this repetition
    digest: str
    latencies: list[float]   # scaled, one per select_route call; empty for a compare run


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]   # name -> (value, unit)
    shape: dict
    digest: str
    reps: list[Rep]
    problems: list[str] = field(default_factory=list)
    spans: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def build_instance(w: Workload, seed: int):
    """The workload's topology and the median scaled time of SETUP_BUILDS builds."""
    params = GenParams(edge_prob=w.edge_prob)
    times = []
    for _ in range(SETUP_BUILDS):
        gc.collect()
        before = LONG.time_s(LONG_RUNS)
        start = time.perf_counter()
        t = topology.generate_topology(w.nodes, params, seed)
        wall = time.perf_counter() - start
        times.append(LONG.scale(wall, before, LONG.time_s(LONG_RUNS)))
    return t, statistics.median(times)


def draw_requests(w: Workload, seed: int) -> list[RouteRequest]:
    """Random src != dst pairs with uniform demands in w.demand."""
    rng = random.Random(seed)
    lo, hi = w.demand
    requests = []
    for _ in range(w.requests):
        src = rng.randrange(w.nodes)
        dst = rng.randrange(w.nodes - 1)
        dst += dst >= src
        requests.append(RouteRequest(src, dst, lo + rng.random() * (hi - lo)))
    return requests


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def compare_once(argv: list[str]):
    """One in-process CLI run: (Rep, (exit code, stdout))."""
    def once(tracer):
        if tracer is not None:
            tracer.request = tracer.rep
        out = io.StringIO()
        gc.collect()
        before = LONG.time_s(LONG_RUNS)
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            rc = cli.run_cli(argv)
        wall = time.perf_counter() - start
        after = LONG.time_s(LONG_RUNS)
        text = out.getvalue()
        rep = Rep(tracer is not None, wall, LONG.scale(wall, before, after),
                  (before + after) / 2, _sha(f"{rc}\n{text}"), [])
        return rep, (rc, text)
    return once


def route_once(t, requests: list[RouteRequest]):
    """One pass of select_route calls, the SHORT calibration loop timed
    between each two: (Rep, outcomes)."""
    def once(tracer):
        select = fitness.select_route  # looked up per pass: traced passes get the wrapper
        outcomes, walls = [], []
        gc.collect()
        loops = [SHORT.time_s()]
        for i, req in enumerate(requests):
            if tracer is not None:
                tracer.request = i
            t0 = time.perf_counter()
            outcomes.append(select(t, req))
            walls.append(time.perf_counter() - t0)
            loops.append(SHORT.time_s())
        latencies = [SHORT.scale(x, before, after)
                     for x, before, after in zip(walls, loops, loops[1:])]
        digest = _sha("\n".join(map(repr, outcomes)))
        rep = Rep(tracer is not None, sum(walls), sum(latencies),
                  statistics.median(loops), digest, latencies)
        return rep, outcomes
    return once


@dataclass
class Loop:
    """Repetitions of one unit of work; only a traceable loop is ever traced."""
    once: object
    traceable: bool
    reps: list[Rep] = field(default_factory=list)
    first: object = None     # the first repetition's output


def _append_rep(loop: Loop, tracer: Tracer | None):
    """Run one more repetition of loop, traced when a tracer is given, the
    loop is traceable and its repetition index is odd."""
    if tracer is not None and loop.traceable and len(loop.reps) % 2 == 1:
        tracer.rep = len(loop.reps)
        with tracer.installed():
            rep, output = loop.once(tracer)
    else:
        rep, output = loop.once(None)
    if not loop.reps:
        loop.first = output
    loop.reps.append(rep)


def repeat(loops: list[Loop], deadline: float, tracer: Tracer | None = None):
    """Rounds of one repetition of each listed loop in turn: at least MIN_ROUNDS
    (one more when traced, so that traced and untraced ones both recur),
    then while one more round of median length fits before the deadline."""
    minimum = MIN_ROUNDS if tracer is None else MIN_ROUNDS + 1
    rounds: list[float] = []
    while (len(rounds) < minimum
           or time.perf_counter() + statistics.median(rounds) <= deadline):
        start = time.perf_counter()
        for loop in loops:
            _append_rep(loop, tracer)
        rounds.append(time.perf_counter() - start)


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: at least (1 - q) of the samples lie at or above."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _check_report(g: oracle.Graph, w: Workload, output, doc: dict):
    """Report-wide problems, and the problems of each failing row."""
    rc, _ = output
    problems = oracle.report_problems(doc)
    if rc != 0:
        problems.append(f"compare exited with code {rc}")
    if len(doc["rows"]) != w.queries:
        problems.append(f"{len(doc['rows'])} rows for {w.queries} queries")
    cfg = doc["config"]
    bad = {}
    for i, row in enumerate(doc["rows"]):
        found = oracle.row_problems(g, row, cfg["demand"], cfg["infinity_metric"])
        if found:
            bad[i] = found
    return problems, bad


def _count(loop: Loop, label: str, per_rep: int, bad_per_rep: int,
           report_wide: bool, problems: list[str]) -> tuple[int, int]:
    """(attempted, failed) over every repetition of loop. A repetition whose
    digest differs from the first, or whose report fails a report-wide
    check, fails all its items; any other fails the first one's bad items."""
    attempted = failed = 0
    first = loop.reps[0].digest
    for k, r in enumerate(loop.reps):
        attempted += per_rep
        if r.digest != first:
            failed += per_rep
            problems.append(f"{label} repetition {k} differs from the first")
        else:
            failed += per_rep if report_wide else bad_per_rep
    return attempted, failed


def run(w: Workload, seed: int, seconds: float, trace: bool) -> Result:
    """Set up, measure for `seconds`, then check every answer.

    What is alive before set-up, and then before the timed loop (modules,
    calibration graphs, the instance, the requests), is frozen out of the
    collector's reach, as long-running services do: otherwise the full
    collections that fall in about 2% of the dense workload's requests scan
    the benchmark's own state too, and the pause they add (~4.5 ms against
    ~1.8 ms of routing) sets route_p99_ms and follows the host's memory speed.
    """
    tracer = Tracer() if trace else None
    gc.collect()
    gc.freeze()
    try:
        with tracer.installed() if trace else contextlib.nullcontext():
            t, setup_s = build_instance(w, seed)
        requests = draw_requests(w, seed)
        routed = Loop(route_once(t, requests), traceable=w.kind == "stream")
        loops = [routed]
        if w.kind == "compare":
            compared = Loop(compare_once(w.cli_args(seed)), traceable=True)
            loops = [compared] * COMPARES_PER_PASS + loops
        gc.collect()
        gc.freeze()
        repeat(loops, time.perf_counter() + seconds, tracer)
    finally:
        gc.unfreeze()
    peak_rss = _peak_rss_mb()

    g = oracle.graph_of(t)
    bad = {}
    for i, (req, out) in enumerate(zip(requests, routed.first)):
        found = oracle.outcome_problems(g, req, out)
        if found:
            bad[i] = found
    problems = [f"request {i}: {p}" for i, found in bad.items() for p in found]
    attempted, failed = _count(routed, "routed pass", len(requests), len(bad),
                               False, problems)
    if w.kind == "compare":
        doc = json.loads(compared.first[1])
        report_level, bad_rows = _check_report(g, w, compared.first, doc)
        problems += report_level
        problems += [f"row {i}: {p}" for i, found in bad_rows.items() for p in found]
        counted = _count(compared, "compare", len(doc["rows"]), len(bad_rows),
                         bool(report_level), problems)
        attempted, failed = attempted + counted[0], failed + counted[1]
        main, reps = compared, compared.reps + routed.reps
        statuses = [r["ff_status"] for r in doc["rows"]]
        sources = {r["src"] for r in doc["rows"]}
    else:
        main, reps = routed, routed.reps
        statuses = [o.status for o in routed.first]
        sources = {q.src for q in requests}

    mix = {s: statuses.count(s) for s in ("route", "no_bandwidth", "unreachable")}
    shape = {"links": len(t.links), "sources": len(sources), "outcomes": mix,
             "refusal_share": mix["no_bandwidth"] / len(statuses)}
    if trace:
        metrics = layer_metrics(tracer.spans, len(statuses),
                                [r.scaled for r in main.reps if r.traced],
                                [r.scaled for r in main.reps if not r.traced])
        return Result(attempted, failed, _with_units(metrics, LAYER_METRICS),
                      shape, main.reps[0].digest, reps, problems, tracer.spans)

    # each request's median scaled latency over every pass of the run
    latency = [statistics.median(calls)
               for calls in zip(*(p.latencies for p in routed.reps))]
    shape["latency_samples"] = len(latency)
    shape["passes"] = len(routed.reps)
    metrics = {
        "setup_s": setup_s,
        "run_s": statistics.median(r.scaled for r in main.reps),
        "route_p50_ms": _percentile(latency, 0.50) * 1e3,
        "route_p99_ms": _percentile(latency, 0.99) * 1e3,
        "routes_per_s": len(requests) / statistics.median(p.scaled for p in routed.reps),
        "peak_rss_mb": peak_rss,
    }
    return Result(attempted, failed, _with_units(metrics, E2E_METRICS),
                  shape, main.reps[0].digest, reps, problems)


def _with_units(values: dict[str, float], units: dict[str, str]):
    return {name: (values[name], unit) for name, unit in units.items()}
