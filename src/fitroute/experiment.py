"""Paired-query comparison harness for the two routing engines.

One experiment generates a seeded topology, converges the distance-vector
engine once, answers every query with both engines on that identical
instance, and re-checks each row against independent BFS oracles. The
oracles' BFS is the module's own, a bitmap frontier over neighbour bitsets
of the full and the bandwidth-pruned graph, sharing no code with the
engines. Everything downstream of the config is deterministic, so reports
are golden-file testable byte for byte.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, replace

from . import dv as dv_engine
from .fitness import (
    DEFAULT_WEIGHTS,
    NoSufficientBandwidth,
    Route,
    RouteOutcome,
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
    generate_topology_rng,
    topology_fingerprint,
)
# unused here; kept importable because the benchmark's tracer wraps these names
from .topology import bfs_hops, feasible_subgraph  # noqa: F401

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
        for name, value in (("n", self.n), ("seed", self.seed),
                            ("query_count", self.query_count)):
            if not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.query_count < 0:
            raise ValueError("query_count must be non-negative")
        if not 0 <= self.demand < math.inf:
            raise ValueError(f"demand must be finite and >= 0, got {self.demand}")
        if self.explicit_queries is not None:
            for src, dst in self.explicit_queries:  # node ids are ints in [0, n)
                if not (isinstance(src, int) and isinstance(dst, int)
                        and 0 <= src < self.n and 0 <= dst < self.n):
                    raise ValueError(
                        f"query ({src!r}, {dst!r}) references nodes outside [0, {self.n})")


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

    state, _ = dv_engine.converge(t, cfg.infinity_metric)

    trees: dict[int, SpanningTree] = {}

    rows = []
    for src, dst in queries:
        dv_path = dv_engine.extract_path(state, src, dst)
        if src not in trees:
            trees[src] = build_spanning_tree(t, src, cfg.weights, cfg.demand)
        ff = classify_outcome(t, trees[src], dst)
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
    None) or carry less than the demand."""
    reason = None
    if not path or path[0] != src or path[-1] != dst:
        reason = f"endpoints of {list(path)} do not match query {src}->{dst}"
    elif len(set(path)) != len(path):
        reason = f"{_path_text(path)} repeats a node"
    short = []
    for u, v in zip(path, path[1:]):
        link = t.link_between(u, v)
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


def _oracle_hops(masks: list[int], src: int) -> dict[int, int]:
    """Minimum hop count from src to every node it reaches, over neighbour
    bitsets from _oracle_masks: each layer is the OR of the previous layer's
    masks less every node already reached.

    The claim oracle's own BFS, kept apart from the engines it checks.
    """
    hops = {src: 0}
    seen = 1 << src
    layer = [src]
    depth = 0
    while layer:
        bits = 0
        for u in layer:
            bits |= masks[u]
        bits &= ~seen
        seen |= bits
        depth += 1
        layer = []
        while bits:
            v = bits.bit_length() - 1
            bits ^= 1 << v
            hops[v] = depth
            layer.append(v)
    return hops


def verify_claims(report: ComparisonReport, t: Topology) -> tuple[Violation, ...]:
    """Re-check every row against independent oracles.

    Each row gets one expected outcome from the oracle's own hop BFS
    (_oracle_hops) over neighbour bitsets of t and of its links that carry
    the demand (_oracle_masks), with no pruned topology built: `route` when
    the pruned graph reaches dst, `no_bandwidth` when only the full one
    does, else `unreachable`; each BFS runs at most once per source and
    graph. (refusal) the fitness status must equal it. Each path is walked
    once: (bandwidth) every fitness-route link carries the demand;
    (simple_path) both paths are simple and consistent with the query;
    (min_hop) fitness hop counts equal BFS on the pruned graph;
    (dominance) when the DV path is a simple src->dst walk that carries the
    demand, the fitness route exists and uses no more hops. Returns
    structured violations, empty when every claim holds.
    """
    demand = report.config.demand
    full_masks, feas_masks = _oracle_masks(t, demand)
    full = functools.cache(lambda src: _oracle_hops(full_masks, src))
    feas = functools.cache(lambda src: _oracle_hops(feas_masks, src))
    violations = []

    def flag(i: int, claim: str, detail: str):
        violations.append(Violation(i, claim, detail))

    for i, row in enumerate(report.rows):
        ff = row.ff
        oracle = feas(row.src).get(row.dst)
        expected = (Route.status if oracle is not None
                    else NoSufficientBandwidth.status if row.dst in full(row.src)
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


def report_to_json(report: ComparisonReport) -> str:
    """Report as a stable JSON document: {config, fingerprint, rows, summary}."""
    def row_doc(row: ComparisonRow) -> dict:
        route = isinstance(row.ff, Route)
        return {
            "src": row.src,
            "dst": row.dst,
            "dv_hops": row.dv_hops,
            "dv_path": None if row.dv_path is None else list(row.dv_path),
            "ff_status": row.ff.status,
            "ff_hops": row.ff.hops if route else None,
            "ff_path": list(row.ff.path) if route else None,
            "ff_cost": row.ff.cost if route else None,
            "ff_fitness": row.ff.fitness if route else None,
        }

    doc = {
        "config": asdict(report.config),
        "fingerprint": f"{report.fingerprint:016x}",
        "rows": [row_doc(row) for row in report.rows],
        "summary": {"rows": len(report.rows), **asdict(report.summary)},
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"
