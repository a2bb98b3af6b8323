"""Paired-query comparison harness for the two routing engines.

One experiment generates a seeded topology, converges the distance-vector
engine once, answers every query with both engines on that identical
instance, and re-checks each row against independent BFS oracles. Everything
downstream of the config is deterministic, so reports are golden-file
testable byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

from . import dv as dv_engine
from .fitness import (
    DEFAULT_WEIGHTS,
    NoSufficientBandwidth,
    Route,
    RouteOutcome,
    RouteRequest,
    SpanningTree,
    Unreachable,
    Weights,
    build_spanning_tree,
    classify_outcome,
)
from .topology import (
    DEFAULT_GEN_PARAMS,
    GenParams,
    SplitMix64,
    Topology,
    bfs_hops,
    feasible_subgraph,
    generate_topology_rng,
    topology_fingerprint,
)

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
    n: int = 16
    seed: int = 0
    gen: GenParams = DEFAULT_GEN_PARAMS
    query_count: int = 20
    explicit_queries: tuple[tuple[int, int], ...] | None = None
    demand: float = 5.0
    weights: Weights = DEFAULT_WEIGHTS
    infinity_metric: int = 16

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.query_count < 0:
            raise ValueError("query_count must be non-negative")
        if not 0 <= self.demand < math.inf:
            raise ValueError(f"demand must be finite and >= 0, got {self.demand}")
        if self.explicit_queries is not None:
            for src, dst in self.explicit_queries:
                if not (0 <= src < self.n and 0 <= dst < self.n):
                    raise ValueError(
                        f"query ({src}, {dst}) references nodes outside [0, {self.n})")


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

    @property
    def total(self) -> int:
        return (self.ff_wins + self.ties + self.ff_longer
                + self.refusals + self.unreachable)


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
    (replay mode); queries then come from the same seeded stream, after the
    generation draws, which replay skips, so a written topology replayed with
    its seed draws the generated run's queries. The distance-vector engine
    converges once and is reused across queries; the fitness engine builds
    one full spanning tree per distinct source over the links that carry the
    demand; classify_outcome tells refusals from unreachable rows by the
    topology's memoised connectivity labels. The summary's violation list is
    filled by verify_claims and is empty unless an engine misbehaved.
    """
    rng = SplitMix64(cfg.seed)
    if topology is None:
        topology = generate_topology_rng(cfg.n, cfg.gen, rng)
    elif topology.n != cfg.n:
        raise ValueError(
            f"config says n={cfg.n} but topology has {topology.n} nodes")
    else:
        rng.skip(cfg.n * (cfg.n - 1) // 2 + 4 * len(topology.links))
    t = topology

    if cfg.explicit_queries is not None:
        queries = list(cfg.explicit_queries)
    else:
        queries = _draw_queries(cfg, rng)

    state = dv_engine.init_tables(t, cfg.infinity_metric)
    state, _ = dv_engine.converge(state, t.n + 1)

    trees: dict[int, SpanningTree] = {}

    rows = []
    for src, dst in queries:
        dv_path = dv_engine.extract_path(state, src, dst)
        if src not in trees:
            trees[src] = build_spanning_tree(t, src, cfg.weights, cfg.demand)
        req = RouteRequest(src, dst, cfg.demand, cfg.weights)
        ff = classify_outcome(t, trees[src], req)
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


def _is_simple_path(path: tuple[int, ...], t: Topology,
                    src: int, dst: int) -> str | None:
    """None when the path is a valid simple src->dst walk, else a reason."""
    if len(path) == 0:
        return "empty path"
    if path[0] != src or path[-1] != dst:
        return f"endpoints {path[0]}->{path[-1]} do not match query {src}->{dst}"
    if len(set(path)) != len(path):
        return "repeated node"
    for u, v in zip(path, path[1:]):
        if not t.has_link(u, v):
            return f"step {u}-{v} is not a link"
    return None


def verify_claims(report: ComparisonReport, t: Topology) -> tuple[Violation, ...]:
    """Re-check every row against independent oracles.

    Per row: (bandwidth) every fitness-route link carries the demand;
    (simple_path) both paths are simple and consistent with the query;
    (min_hop) fitness hop counts equal BFS on the pruned subgraph;
    (dominance) when the DV path itself is bandwidth-feasible, the fitness
    route exists and uses no more hops; (refusal) the outcome class matches
    full-vs-pruned BFS reachability exactly. Returns structured violations,
    empty when every claim holds.
    """
    cfg = report.config
    pruned = feasible_subgraph(t, cfg.demand)
    full_cache: dict[int, dict[int, int]] = {}
    pruned_cache: dict[int, dict[int, int]] = {}

    def full(src: int) -> dict[int, int]:
        if src not in full_cache:
            full_cache[src] = bfs_hops(t, src)
        return full_cache[src]

    def feas(src: int) -> dict[int, int]:
        if src not in pruned_cache:
            pruned_cache[src] = bfs_hops(pruned, src)
        return pruned_cache[src]

    violations = []

    def flag(i: int, claim: str, detail: str):
        violations.append(Violation(i, claim, detail))

    for i, row in enumerate(report.rows):
        ff = row.ff
        if isinstance(ff, Route):
            for u, v in zip(ff.path, ff.path[1:]):
                link = t.link_between(u, v)
                if link is not None and link.bandwidth < cfg.demand:
                    flag(i, CLAIM_BANDWIDTH,
                         f"link {u}-{v} bandwidth {link.bandwidth:.6g} "
                         f"< demand {cfg.demand:.6g}")
            reason = _is_simple_path(ff.path, t, row.src, row.dst)
            if reason is not None:
                flag(i, CLAIM_SIMPLE_PATH, f"fitness path invalid: {reason}")
            oracle = feas(row.src).get(row.dst)
            if ff.hops != len(ff.path) - 1:
                flag(i, CLAIM_MIN_HOP,
                     f"hops {ff.hops} != path length {len(ff.path) - 1}")
            elif oracle is None:
                flag(i, CLAIM_REFUSAL,
                     "route returned but destination unreachable at this demand")
            elif ff.hops != oracle:
                flag(i, CLAIM_MIN_HOP,
                     f"fitness hops {ff.hops} != pruned BFS {oracle}")
        elif isinstance(ff, NoSufficientBandwidth):
            if row.dst in feas(row.src):
                flag(i, CLAIM_REFUSAL,
                     "refusal despite a feasible path at this demand")
            elif row.dst not in full(row.src):
                flag(i, CLAIM_REFUSAL,
                     "refusal for a destination unreachable even unpruned")
        else:
            if row.dst in full(row.src):
                flag(i, CLAIM_REFUSAL,
                     "unreachable verdict despite full-graph reachability")

        if row.dv_path is not None:
            reason = _is_simple_path(row.dv_path, t, row.src, row.dst)
            if reason is not None:
                flag(i, CLAIM_SIMPLE_PATH, f"dv path invalid: {reason}")
            dv_feasible = all(
                t.link_between(u, v) is not None
                and t.link_between(u, v).bandwidth >= cfg.demand
                for u, v in zip(row.dv_path, row.dv_path[1:]))
            if dv_feasible:
                if not isinstance(ff, Route):
                    flag(i, CLAIM_DOMINANCE,
                         "dv path is bandwidth-feasible but fitness found no route")
                elif ff.hops > row.dv_hops:
                    flag(i, CLAIM_DOMINANCE,
                         f"fitness hops {ff.hops} > feasible dv hops {row.dv_hops}")

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
    widths = [len(h) for h in header]
    for row_cells in cells:
        for k, cell in enumerate(row_cells):
            widths[k] = max(widths[k], len(cell))

    def fmt(row_cells):
        return "  ".join(cell.ljust(widths[k])
                         for k, cell in enumerate(row_cells)).rstrip()

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


def report_to_json(report: ComparisonReport) -> str:
    """Report as a stable JSON document: {config, fingerprint, rows, summary}."""
    doc = {
        "config": asdict(report.config),
        "fingerprint": f"{report.fingerprint:016x}",
        "rows": [],
        "summary": {
            "rows": len(report.rows),
            "ff_wins": report.summary.ff_wins,
            "ties": report.summary.ties,
            "ff_longer": report.summary.ff_longer,
            "refusals": report.summary.refusals,
            "unreachable": report.summary.unreachable,
            "violations": [asdict(v) for v in report.summary.violations],
        },
    }
    for row in report.rows:
        entry = {
            "src": row.src,
            "dst": row.dst,
            "dv_hops": row.dv_hops,
            "dv_path": None if row.dv_path is None else list(row.dv_path),
            "ff_status": row.ff.status,
            "ff_hops": None,
            "ff_path": None,
            "ff_cost": None,
            "ff_fitness": None,
        }
        if isinstance(row.ff, Route):
            entry["ff_hops"] = row.ff.hops
            entry["ff_path"] = list(row.ff.path)
            entry["ff_cost"] = row.ff.cost
            entry["ff_fitness"] = row.ff.fitness
        doc["rows"].append(entry)
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"
