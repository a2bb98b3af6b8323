"""Paired-query comparison harness for the two routing engines.

One experiment generates a seeded topology, converges the distance-vector
engine once, answers every query with both engines on that identical
instance, and re-checks each row against independent BFS oracles. The
oracles' BFS is the module's own, bitset hop layers over neighbour bitsets
of the full and the bandwidth-pruned graph up to the last queried dst,
sharing no code with the engines. Everything downstream of the config is
deterministic, so reports are golden-file testable byte for byte. The JSON
report is the stdlib's json.dumps(indent=2) layout byte for byte, written
from a row template; the tests and CI check it against the stdlib encoder.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace

from . import dv as dv_engine
from .fitness import (
    DEFAULT_WEIGHTS,
    NoSufficientBandwidth,
    Route,
    RouteOutcome,
    Unreachable,
    Weights,
    build_spanning_tree,
    check_weights,
    classify_outcome,
)
from .topology import (
    DEFAULT_GEN_PARAMS,
    GenParams,
    SplitMix64,
    Topology,
    check_demand,
    check_gen_params,
    check_node,
    check_node_count,
    check_seed,
    generate_topology_rng,
    generation_draws,
    is_int,
    is_node,
    topology_fingerprint,
)
# unused here; kept importable because the benchmark's tracer wraps these names
from .topology import bfs_hops, feasible_subgraph  # noqa: F401

# the most random queries one run draws: every query is a report row, so an
# unbounded count would fill memory before any row is routed
MAX_QUERIES = 10**6

REFUSAL_TEXT = "No sufficient bandwidth available"
PLOT_HEADER = "query,src,dst,dv_hops,ff_hops,ff_status"

# claim identifiers used in violation records
CLAIM_BANDWIDTH = "bandwidth"
CLAIM_SIMPLE_PATH = "simple_path"
CLAIM_MIN_HOP = "min_hop"
CLAIM_DOMINANCE = "dominance"
CLAIM_REFUSAL = "refusal"


@dataclass(frozen=True)
class ExperimentConfig:
    """One comparison's inputs, checked on construction (else ValueError)
    by the shared checks of fitroute.topology and fitroute.fitness.
    explicit_queries is None or a tuple or list of (src, dst) pairs, kept
    as a tuple of tuples so that the config stays hashable; explicit
    queries set query_count to their number. demand is kept as
    check_demand's float, as GenParams and Weights keep theirs, so equal
    configs render equal reports, and each row routes as a RouteRequest of
    that demand does."""

    n: int = 16
    seed: int = 0
    gen: GenParams = DEFAULT_GEN_PARAMS
    query_count: int = 20
    explicit_queries: tuple[tuple[int, int], ...] | None = None
    demand: float = 5.0
    weights: Weights = DEFAULT_WEIGHTS
    infinity_metric: int = 16

    def __post_init__(self):
        check_node_count(self.n)
        check_seed(self.seed)
        queries = self.explicit_queries
        if queries is not None:
            if not isinstance(queries, (tuple, list)):
                raise ValueError("explicit_queries must be a tuple or list of "
                                 f"(src, dst) pairs, got {queries!r}")
            for query in queries:
                if not (isinstance(query, Sequence) and len(query) == 2):
                    raise ValueError(f"query {query!r} must be a (src, dst) pair")
                src, dst = query
                check_node(src, self.n, f"src of query {query!r}")
                check_node(dst, self.n, f"dst of query {query!r}")
            object.__setattr__(self, "explicit_queries", tuple(map(tuple, queries)))
            object.__setattr__(self, "query_count", len(queries))
        if not (is_int(self.query_count) and 0 <= self.query_count <= MAX_QUERIES):
            raise ValueError(f"query_count must be an integer in 0..{MAX_QUERIES}, "
                             f"got {self.query_count!r}")
        object.__setattr__(self, "demand", check_demand(self.demand))
        check_gen_params(self.gen, "gen")
        check_weights(self.weights)
        dv_engine.check_infinity(self.infinity_metric)


@dataclass(frozen=True)
class ComparisonRow:
    """Both engines' answers for one query on the same topology instance."""

    src: int
    dst: int
    dv_path: tuple[int, ...] | None
    ff: RouteOutcome

    @property
    def dv_hops(self) -> int | None:
        return None if self.dv_path is None else len(self.dv_path) - 1


@dataclass(frozen=True)
class Violation:
    row: int
    claim: str
    detail: str


@dataclass(frozen=True)
class Summary:
    """Row categorization. ff_wins/ties/ff_longer count rows where both
    engines produced a path (ff_wins also covers routes found where the
    distance-vector metric had capped); refusals and unreachable are the
    fitness engine's two no-route outcomes. The five counts partition the
    rows."""

    ff_wins: int
    ties: int
    ff_longer: int
    refusals: int
    unreachable: int
    violations: tuple[Violation, ...]


@dataclass(frozen=True)
class ComparisonReport:
    config: ExperimentConfig
    fingerprint: int
    rows: tuple[ComparisonRow, ...]
    summary: Summary


def _draw_queries(cfg: ExperimentConfig, rng: SplitMix64) -> list[tuple[int, int]]:
    """Random (src, dst) pairs from the experiment's RNG stream, src != dst
    whenever the topology has more than one node."""
    queries = []
    for _ in range(cfg.query_count):
        src = rng.next_below(cfg.n)
        dst = rng.next_below(cfg.n)
        while cfg.n > 1 and dst == src:
            dst = rng.next_below(cfg.n)
        queries.append((src, dst))
    return queries


def run_comparison(cfg: ExperimentConfig,
                   topology: Topology | None = None) -> ComparisonReport:
    """Run both engines over every query and assemble the verified report.

    The topology is generated from cfg unless an explicit one is supplied
    (replay mode). Either way the random queries come from cfg.seed's stream
    skipped past the draws generating the topology takes
    (generation_draws), so a written topology replayed with its seed
    draws the generated run's queries. The distance-vector engine
    converges once and is reused across queries; the fitness engine routes
    each row as select_route does, with one search from its source over the
    links that carry the demand for its destination's min-hop paths, every
    search reading one gate built for cfg.demand (Topology.gate);
    classify_outcome tells refusals from unreachable rows by the topology's
    memoised connectivity labels. The summary's violation list is filled by
    verify_claims and is empty unless an engine misbehaved.
    """
    if topology is None:
        topology = generate_topology_rng(cfg.n, cfg.gen, SplitMix64(cfg.seed))
    elif topology.n != cfg.n:
        raise ValueError(
            f"config says n={cfg.n} but topology has {topology.n} nodes")
    t = topology

    if cfg.explicit_queries is not None:
        queries = list(cfg.explicit_queries)
    else:
        rng = SplitMix64(cfg.seed)
        rng.skip(generation_draws(t))
        queries = _draw_queries(cfg, rng)

    state, _ = dv_engine.converge(t, cfg.infinity_metric)

    gate = t.gate(cfg.demand)
    rows = []
    for src, dst in queries:
        dv_path = dv_engine.extract_path(state, src, dst)
        ff = classify_outcome(
            t, build_spanning_tree(t, src, cfg.weights, gate, dst))
        rows.append(ComparisonRow(
            src, dst, None if dv_path is None else tuple(dv_path), ff))

    wins = ties = longer = refusals = unreachable = 0
    for row in rows:
        if isinstance(row.ff, NoSufficientBandwidth):
            refusals += 1
        elif isinstance(row.ff, Unreachable):
            unreachable += 1
        elif row.dv_hops is None or row.ff.hops < row.dv_hops:
            wins += 1
        elif row.ff.hops == row.dv_hops:
            ties += 1
        else:
            longer += 1

    report = ComparisonReport(
        cfg, topology_fingerprint(t), tuple(rows),
        Summary(wins, ties, longer, refusals, unreachable, ()))
    return replace(report, summary=replace(
        report.summary, violations=verify_claims(report, t)))


def _walk(path: tuple[int, ...], t: Topology, src: int, dst: int,
          demand: float) -> tuple[str | None, list[tuple[int, int, float | None]]]:
    """One pass over a path: why it is not a simple src->dst walk (None when
    it is), and its steps (u, v, bandwidth) that are not links (bandwidth
    None) or carry less than the demand. A path holding an id that is not a
    node id of t (is_node: 5.0 equals 5) has no steps."""
    if not all(is_node(v, t.n) for v in path):
        return (f"{_path_text(path)} holds an id that is not an int in "
                f"[0, {t.n})", [])
    reason = None
    if not path or path[0] != src or path[-1] != dst:
        reason = f"endpoints of {list(path)} do not match query {src}->{dst}"
    elif len(set(path)) != len(path):
        reason = f"{_path_text(path)} repeats a node"
    short = []
    adjacency = t.adjacency  # ids passed is_node: link_between would recheck
    for u, v in zip(path, path[1:]):
        link = adjacency[u].get(v)
        if link is None:
            reason = reason or f"step {u}-{v} is not a link"
            short.append((u, v, None))
        elif link.bandwidth < demand:
            short.append((u, v, link.bandwidth))
    return reason, short


def _oracle_masks(t: Topology, demand: float) -> tuple[list[int], list[int]]:
    """Neighbour bitsets of t and of its links that carry demand, built in
    one pass over t.links: bit b of masks[a] is set when {a, b} is a link."""
    full = [0] * t.n
    feasible = [0] * t.n
    for link in t.links:
        a_bit, b_bit = 1 << link.a, 1 << link.b
        full[link.a] |= b_bit
        full[link.b] |= a_bit
        if link.bandwidth >= demand:
            feasible[link.a] |= b_bit
            feasible[link.b] |= a_bit
    return full, feasible


def _oracle_layers(masks: list[int], src: int, dsts: int) -> list[int]:
    """Bitset hop layers from src over _oracle_masks bitsets: layer h is the
    OR of layer h - 1's masks less every node already reached. Stops once
    every node of the bitset dsts is reached, or at an empty layer. The
    claim oracle's own BFS, kept apart from the engines it checks."""
    seen = layer = 1 << src
    layers = [layer]
    while dsts & ~seen:
        reach = 0
        while layer:
            u = layer.bit_length() - 1
            layer ^= 1 << u
            reach |= masks[u]
        layer = reach & ~seen
        if not layer:
            break
        seen |= layer
        layers.append(layer)
    return layers


def _layer_of(layers: list[int], v: int) -> int | None:
    """The index of the layer that holds v, None when none does."""
    for h, layer in enumerate(layers):
        if layer >> v & 1:
            return h
    return None


def verify_claims(report: ComparisonReport, t: Topology) -> tuple[Violation, ...]:
    """Re-check every row against independent oracles.

    A row whose src or dst is not a node id of t (is_node) is flagged
    (simple_path) and checked no further. Every other row gets one expected
    outcome from the oracle's own BFS (_oracle_layers) over neighbour
    bitsets of t and of its links that carry the demand (_oracle_masks):
    `route` when the pruned graph reaches dst, `no_bandwidth` when only the
    full one does, else `unreachable`. Each BFS runs at most once per source
    and graph and stops at the layer of the last dst queried from that
    source. (refusal) the fitness status must equal it. Each path is walked
    once: (bandwidth) every fitness-route link carries the demand;
    (simple_path) both paths are simple and consistent with the query;
    (min_hop) fitness hop counts equal BFS on the pruned graph;
    (dominance) when the DV path is a simple src->dst walk that carries the
    demand, the fitness route exists and uses no more hops. Returns
    structured violations, empty when every claim holds.
    """
    demand = report.config.demand
    full_masks, feas_masks = _oracle_masks(t, demand)
    dsts = [0] * t.n
    for row in report.rows:
        if is_node(row.src, t.n) and is_node(row.dst, t.n):
            dsts[row.src] |= 1 << row.dst
    full = functools.cache(lambda src: _oracle_layers(full_masks, src, dsts[src]))
    feas = functools.cache(lambda src: _oracle_layers(feas_masks, src, dsts[src]))
    violations = []

    def flag(i: int, claim: str, detail: str):
        violations.append(Violation(i, claim, detail))

    for i, row in enumerate(report.rows):
        if not (is_node(row.src, t.n) and is_node(row.dst, t.n)):
            flag(i, CLAIM_SIMPLE_PATH, f"query {row.src!r}->{row.dst!r} "
                 f"holds an id that is not an int in [0, {t.n})")
            continue
        ff = row.ff
        oracle = _layer_of(feas(row.src), row.dst)
        expected = (Route.status if oracle is not None
                    else NoSufficientBandwidth.status
                    if _layer_of(full(row.src), row.dst) is not None
                    else Unreachable.status)
        if isinstance(ff, Route):
            reason, short = _walk(ff.path, t, row.src, row.dst, demand)
            for u, v, bandwidth in short:
                if bandwidth is not None:
                    flag(i, CLAIM_BANDWIDTH, f"link {u}-{v} bandwidth "
                         f"{bandwidth:.6g} < demand {demand:.6g}")
            if reason is not None:
                flag(i, CLAIM_SIMPLE_PATH, f"fitness path invalid: {reason}")
            if ff.hops != len(ff.path) - 1 or oracle not in (None, ff.hops):
                flag(i, CLAIM_MIN_HOP, f"fitness hops {ff.hops}, path length "
                     f"{len(ff.path) - 1}, pruned BFS {oracle}")
        if ff.status != expected:
            flag(i, CLAIM_REFUSAL, f"status {ff.status} for {row.src}->{row.dst}"
                 f" at demand {demand:.6g}, BFS expects {expected}")

        if row.dv_path is not None:
            reason, short = _walk(row.dv_path, t, row.src, row.dst, demand)
            if reason is not None:
                flag(i, CLAIM_SIMPLE_PATH, f"dv path invalid: {reason}")
            elif not short and not (isinstance(ff, Route)
                                    and ff.hops <= row.dv_hops):
                flag(i, CLAIM_DOMINANCE, f"dv path of {row.dv_hops} hops "
                     f"carries the demand, fitness answered {ff}")

    return tuple(violations)


def _path_text(path: tuple[int, ...]) -> str:
    return "->".join(str(v) for v in path)


def render_table(report: ComparisonReport, which: str) -> str:
    """Fixed-width text table in the Source/Destination/Hop count/Path shape.

    Paths print as `a->b->c`. Bandwidth refusals print hop count `-` and the
    literal refusal sentence; unreachable destinations print `unreachable`.
    """
    if which == "dv":
        title = "Distance vector"
    elif which == "ff":
        title = "Fitness function estimation"
    else:
        raise ValueError(f"unknown table {which!r}, want 'dv' or 'ff'")

    cells = []
    for row in report.rows:
        if which == "dv":
            if row.dv_path is None:
                hops, path = "-", "unreachable"
            else:
                hops, path = str(row.dv_hops), _path_text(row.dv_path)
        else:
            ff = row.ff
            if isinstance(ff, Route):
                hops, path = str(ff.hops), _path_text(ff.path)
            elif isinstance(ff, NoSufficientBandwidth):
                hops, path = "-", REFUSAL_TEXT
            else:
                hops, path = "-", "unreachable"
        cells.append((str(row.src), str(row.dst), hops, path))

    header = ("Source", "Destination", "Hop count", "Path")
    widths = [max(map(len, column)) for column in zip(header, *cells)]

    def fmt(row_cells):
        return "  ".join(cell.ljust(width)
                         for cell, width in zip(row_cells, widths)).rstrip()

    lines = [title, fmt(header)]
    lines.extend(fmt(rc) for rc in cells)
    return "\n".join(lines) + "\n"


def emit_plot_series(report: ComparisonReport) -> str:
    """Per-query hop counts for both engines as CSV, one row per query in
    execution order; hops are empty fields when an engine found no route."""
    lines = [PLOT_HEADER]
    for i, row in enumerate(report.rows, start=1):
        dv = "" if row.dv_hops is None else str(row.dv_hops)
        ff = str(row.ff.hops) if isinstance(row.ff, Route) else ""
        lines.append(f"{i},{row.src},{row.dst},{dv},{ff},{row.ff.status}")
    return "\n".join(lines) + "\n"


def _json_float(x: float) -> str:
    """A finite float as json.dumps writes it; NaN and infinities raise
    ValueError, as allow_nan=False does."""
    if not math.isfinite(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return repr(x)


def _json_path(path: tuple[int, ...]) -> str:
    """A row's node list in the indent=2 layout, one element per line."""
    if not path:
        return "[]"
    return "[\n        " + ",\n        ".join(map(str, path)) + "\n      ]"


def _json_row(row: ComparisonRow) -> str:
    ff = row.ff
    if row.dv_path is None:
        dv_hops = dv_path = "null"
    else:
        dv_hops, dv_path = str(row.dv_hops), _json_path(row.dv_path)
    if isinstance(ff, Route):
        ff_hops, ff_path = str(ff.hops), _json_path(ff.path)
        ff_cost, ff_fitness = _json_float(ff.cost), _json_float(ff.fitness)
    else:
        ff_hops = ff_path = ff_cost = ff_fitness = "null"
    return (f'    {{\n      "src": {row.src},\n      "dst": {row.dst},\n'
            f'      "dv_hops": {dv_hops},\n      "dv_path": {dv_path},\n'
            f'      "ff_status": "{ff.status}",\n      "ff_hops": {ff_hops},\n'
            f'      "ff_path": {ff_path},\n      "ff_cost": {ff_cost},\n'
            f'      "ff_fitness": {ff_fitness}\n    }}')


def _json_member(value) -> str:
    """A nested value as json.dumps(indent=2) writes it one level down. JSON
    strings hold no raw newline, so every newline is a line break."""
    return json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n  ")


def report_to_json(report: ComparisonReport) -> str:
    """Report as a stable JSON document: {config, fingerprint, rows, summary}.

    The text is json.dumps(doc, indent=2, allow_nan=False) byte for byte.
    Config and summary go through json.dumps; each row is written from one
    template, since an indent makes the stdlib use its pure-Python encoder.
    """
    rows = (("[\n" + ",\n".join(map(_json_row, report.rows)) + "\n  ]")
            if report.rows else "[]")
    summary = {"rows": len(report.rows), **asdict(report.summary)}
    return (f'{{\n  "config": {_json_member(asdict(report.config))},\n'
            f'  "fingerprint": "{report.fingerprint:016x}",\n'
            f'  "rows": {rows},\n'
            f'  "summary": {_json_member(summary)}\n}}\n')
