"""Paired-query comparison harness for the two routing engines.

One experiment generates a seeded topology, converges the distance-vector
engine once, answers every query with both engines on that identical
instance, and re-checks each row against independent BFS oracles. The
oracles are the module's own code over neighbour lists built from the
links, sharing no code with the engines: one multi-source BFS advances
every queried source in lockstep over the bandwidth-pruned graph, each up
to its last queried dst, and component labels of the full graph, built
only on a run with a refused or unreachable row, tell a refusal from an
unreachable dst. Everything downstream of the config is deterministic, so
reports are golden-file testable byte for byte. The JSON
report is the stdlib's json.dumps(indent=2) layout byte for byte, written
from a row template; the tests and CI check it against the stdlib encoder.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace
from itertools import chain

from . import dv as dv_engine
from .fitness import (
    DEFAULT_WEIGHTS,
    NoSufficientBandwidth,
    Route,
    RouteOutcome,
    Unreachable,
    Weights,
    check_weights,
    route,
)
from .topology import (
    DEFAULT_GEN_PARAMS,
    GenParams,
    SplitMix64,
    Topology,
    _draws,
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
from .fitness import build_spanning_tree, classify_outcome  # noqa: F401
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
    whenever the topology has more than one node: src is the next draw mod
    n, and dst the one after it, redrawn while it equals src.

    The 2 * query_count draws the queries take when none is redrawn come
    off packed lanes (_draws), and any redraws, about one per n queries,
    from rng.next_u64 after them, so rng is left past the last draw used.
    """
    n = cfg.n
    draws = chain(chain.from_iterable(_draws(rng, 2 * cfg.query_count)),
                  iter(rng.next_u64, None))
    nodes = map(n.__rmod__, draws)
    queries = []
    for _ in range(cfg.query_count):
        src, dst = next(nodes), next(nodes)
        while dst == src and n > 1:
            dst = next(nodes)
        queries.append((src, dst))
    return queries


def run_comparison(cfg: ExperimentConfig,
                   topology: Topology | None = None) -> ComparisonReport:
    """Run both engines over every query and assemble the verified report.

    The topology is generated from cfg unless an explicit one is supplied
    (replay mode). Either way the random queries come from cfg.seed's stream
    skipped past the draws generating the topology takes
    (generation_draws), so a written topology replayed with its seed
    draws the generated run's queries. Generation and the queries
    (_draw_queries) both read that stream a batch of packed lanes at a
    time, equal to one next_u64 call per draw. The distance-vector engine
    converges once and is reused across queries; the fitness engine routes
    each row as select_route does, through fitness.route: one search from
    its source over the links that carry the demand for its destination's
    min-hop paths, with no tree built. Every search reads one gate built
    for cfg.demand (Topology.gate) and the hop layers the searches before
    it grew from its endpoints (Gate.layers), each node's dropped after the
    last row that names it; route tells refusals from unreachable rows by
    the topology's memoised connectivity labels. cfg has checked the
    queries, the demand and the weights, and a replayed topology must have
    cfg.n nodes, so the rows are routed unchecked. The summary's violation
    list is filled by verify_claims and is empty unless an engine
    misbehaved.
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
    last = {}  # per node: the last row that names it
    for i, (src, dst) in enumerate(queries):
        last[src] = last[dst] = i
    weights = cfg.weights
    rows = []
    for i, (src, dst) in enumerate(queries):
        dv_path = dv_engine.extract_path(state, src, dst)
        rows.append(ComparisonRow(
            src, dst, None if dv_path is None else tuple(dv_path),
            route(t, src, weights, gate, dst)))
        for v in (src, dst):  # no later row reads v's layers
            if last[v] == i:
                gate.layers.pop(v, None)

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
    node id of t (is_node: 5.0 equals 5) has no steps. A path of exact ints
    is range-checked by min and max; any other path by is_node per id."""
    if not (set(map(type, path)) == {int} and 0 <= min(path)
            and max(path) < t.n or all(is_node(v, t.n) for v in path)):
        return (f"{_path_text(path)} holds an id that is not an int in "
                f"[0, {t.n})", [])
    reason = None
    if not path or path[0] != src or path[-1] != dst:
        reason = f"endpoints of {list(path)} do not match query {src}->{dst}"
    elif len(set(path)) != len(path):
        reason = f"{_path_text(path)} repeats a node"
    short = []
    adjacency, bandwidth = t.adjacency, t.bandwidth  # ids passed is_node
    for u, v in zip(path, path[1:]):
        k = adjacency[u].get(v)
        if k is None:
            reason = reason or f"step {u}-{v} is not a link"
            short.append((u, v, None))
        elif bandwidth[k] < demand:
            short.append((u, v, bandwidth[k]))
    return reason, short


def _neighbours(t: Topology, demand: float) -> list[list[int]]:
    """Each node's neighbours over the links of t that carry demand, built in
    one pass over t's a, b and bandwidth columns. Every link has bandwidth
    > 0, so demand 0 keeps the full graph."""
    nbrs: list[list[int]] = [[] for _ in range(t.n)]
    for a, b, bandwidth in zip(t.a, t.b, t.bandwidth):
        if bandwidth >= demand:
            nbrs[a].append(b)
            nbrs[b].append(a)
    return nbrs


def _labels(nbrs: list[list[int]]) -> list[int]:
    """Each node's component label over _neighbours lists: the smallest node
    id in its component."""
    labels = [-1] * len(nbrs)
    for s in range(len(nbrs)):
        if labels[s] < 0:
            labels[s] = s
            stack = [s]
            while stack:
                for u in nbrs[stack.pop()]:
                    if labels[u] < 0:
                        labels[u] = s
                        stack.append(u)
    return labels


def _pair_hops(nbrs: list[list[int]],
               pairs: set[tuple[int, int]]) -> dict[tuple[int, int], int]:
    """Multi-source BFS over _neighbours lists (Then et al., PVLDB 8(4),
    2014): the hop count of every (src, dst) pair whose ends share a
    component (_labels). All sources advance one hop per round: each node
    holds a bitset of the sources that reached it in the last round (bit s),
    which it ORs into its neighbours', less the sources each has already
    seen. A source drops out once it has reached every dst it queries in
    its component, so a dst in another component never makes its source
    run to the end. The claim oracle's own BFS, kept apart from the engines
    it checks."""
    labels = _labels(nbrs)
    left = [0] * len(nbrs)  # bit s of left[v]: (s, v) is a pair not yet reached
    todo: dict[int, int] = {}  # per source: its pairs not yet reached
    for src, dst in pairs:
        if labels[src] == labels[dst]:
            left[dst] |= 1 << src
            todo[src] = todo.get(src, 0) + 1
    alive = sum(1 << src for src in todo)
    seen = [0] * len(nbrs)
    reached = {src: 1 << src for src in todo}  # per node: sources arriving
    hops = {}
    h = 0
    while reached:
        visit = {}
        for v, bits in reached.items():
            bits &= ~seen[v]
            if bits:
                seen[v] |= bits
                visit[v] = bits
                got = bits & left[v]
                left[v] ^= got
                while got:
                    s = got.bit_length() - 1
                    got ^= 1 << s
                    hops[s, v] = h
                    todo[s] -= 1
                    if not todo[s]:
                        alive ^= 1 << s
        h += 1
        reached = {}
        for v, bits in visit.items():
            bits &= alive
            if bits:
                for u in nbrs[v]:
                    reached[u] = reached.get(u, 0) | bits
    return hops


def verify_claims(report: ComparisonReport, t: Topology) -> tuple[Violation, ...]:
    """Re-check every row against independent oracles.

    A row whose src or dst is not a node id of t (is_node) is flagged
    (simple_path) and checked no further. Every other row gets one expected
    outcome from the oracle's own code, which reads only t's link columns: one
    multi-source BFS (_pair_hops) advances every queried source in
    lockstep over the links that carry the demand, each until it has
    reached every dst it queries in its component. `route` when it reaches
    dst; otherwise component labels of the full graph (_labels),
    built once and only then, give `no_bandwidth` when src and dst share a
    component, else `unreachable`. (refusal) the fitness status must equal
    it. Each path is walked once: (bandwidth) every fitness-route link
    carries the demand; (simple_path) both paths are simple and consistent
    with the query; (min_hop) fitness hop counts equal BFS on the pruned
    graph; (dominance) when the DV path is a simple src->dst walk that
    carries the demand, the fitness route exists and uses no more hops.
    Returns structured violations, empty when every claim holds.
    """
    demand = report.config.demand
    rows = report.rows
    valid = [is_node(row.src, t.n) and is_node(row.dst, t.n) for row in rows]
    pruned = _pair_hops(_neighbours(t, demand), {
        (row.src, row.dst) for row, ok in zip(rows, valid) if ok})
    full = None
    violations = []

    def flag(i: int, claim: str, detail: str):
        violations.append(Violation(i, claim, detail))

    for i, row in enumerate(rows):
        if not valid[i]:
            flag(i, CLAIM_SIMPLE_PATH, f"query {row.src!r}->{row.dst!r} "
                 f"holds an id that is not an int in [0, {t.n})")
            continue
        ff = row.ff
        oracle = pruned.get((row.src, row.dst))
        if oracle is not None:
            expected = Route.status
        else:
            full = full or _labels(_neighbours(t, 0.0))
            expected = (NoSufficientBandwidth.status
                        if full[row.src] == full[row.dst]
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
