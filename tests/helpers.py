"""Small topology builders, topology strategies and the oracles shared
across the test modules, the full-table distance-vector exchange that the
bitset engine must equal among them."""

import json
import math
import random
import time
from collections import defaultdict
from dataclasses import asdict, replace

from hypothesis import strategies as st

from fitroute import (ExperimentConfig, GenParams, QosLink, Route, RouteRequest,
                      Topology, Weights, generate_topology, run_comparison,
                      select_route)
from fitroute.dv import converge, extract_path
from fitroute.experiment import ComparisonReport
from fitroute.fitness import SpanningTree, classify_outcome, edge_cost
from fitroute.topology import (IndexedMasks, SplitMix64, bfs_hops,
                               check_node_count, remove_link)


def reference_topology_rng(n: int, params: GenParams,
                           rng: SplitMix64) -> Topology:
    """generate_topology_rng's pinned procedure with one scalar next_u64
    call per draw, in order, a draw's float being next_u64() / 2**64: the
    reference the batched generator must equal, every attribute's float and
    the rng state after it included."""
    if n < 1:
        raise ValueError("topology needs at least one node")

    perm = list(range(n))
    for i in range(1, n):
        j = rng.next_u64() % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]

    chain = {(min(u, v), max(u, v)) for u, v in zip(perm, perm[1:])}
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
             if (a, b) in chain or rng.next_u64() / 2**64 < params.edge_prob]
    ranges = (params.bandwidth_range, params.delay_range,
              params.jitter_range, params.loss_range)
    return Topology(n, tuple(
        QosLink(a, b, *(lo + rng.next_u64() / 2**64 * (hi - lo)
                        for lo, hi in ranges))
        for a, b in pairs))


def reference_parse(text: str) -> Topology:
    """parse_topology's per-line form: each link line split and converted
    on its own, and each link built through QosLink's checks, in line
    order. The reference the column-wise parse must equal, in the topology
    it returns and in raising ValueError."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise ValueError("topology file must start with 'n=<count>'")
    try:
        n = int(lines[0][2:])
    except ValueError:
        raise ValueError(f"bad node count line: {lines[0]!r}") from None
    check_node_count(n)
    most = n * (n - 1) // 2
    if len(lines) - 1 > most:
        raise ValueError(f"{len(lines) - 1} link lines, but n={n} holds at "
                         f"most {most} links")
    links = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 6:
            raise ValueError(f"bad link line (want 6 fields): {ln!r}")
        a, b = int(parts[0]), int(parts[1])
        bw, delay, jitter, loss = (float(p) for p in parts[2:])
        links.append(QosLink(a, b, bw, delay, jitter, loss))
    return Topology(n, tuple(links))


def reference_queries(cfg: ExperimentConfig,
                      rng: SplitMix64) -> list[tuple[int, int]]:
    """_draw_queries' pinned procedure with one scalar next_u64 call per
    draw: src = next_u64() % n, then dst the same, redrawn while dst == src
    and n > 1. The reference the batched query stream must equal."""
    n = cfg.n
    queries = []
    for _ in range(cfg.query_count):
        src = rng.next_u64() % n
        dst = rng.next_u64() % n
        while dst == src and n > 1:
            dst = rng.next_u64() % n
        queries.append((src, dst))
    return queries


def splitmix64_unmix(z: int) -> int:
    """The state whose SplitMix64 output is z: the mixer is a bijection on
    64-bit words, so each xor-shift is undone by repeating it (x from
    y = x ^ (x >> s)) and each multiply by the constant's inverse mod 2^64,
    last step first."""
    def unshift(y: int, s: int) -> int:
        x = y
        for _ in range(64 // s):
            x = y ^ (x >> s)
        return x
    z = unshift(z, 31) * pow(0x94D049BB133111EB, -1, 2**64) % 2**64
    z = unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 2**64) % 2**64
    return unshift(z, 30)


def seed_drawing(z: int, k: int) -> int:
    """The seed whose k-th draw (k >= 1) is z: the state that SplitMix64
    mixes into z, less the k increments that reach it."""
    return (splitmix64_unmix(z) - k * 0x9E3779B97F4A7C15) % 2**64


def reference_init_tables(t: Topology,
                          infinity_metric: int) -> tuple[tuple[int, ...], ...]:
    """The full-table initial vectors: table[v][d] is 0 for v = d, 1 for a
    neighbour and infinity_metric for every other destination."""
    inf = infinity_metric
    table = []
    for v in range(t.n):
        row = [inf] * t.n
        row[v] = 0
        for u in t.adjacency[v]:
            row[u] = 1
        table.append(tuple(row))
    return tuple(table)


def reference_exchange_round(t: Topology, table, infinity_metric: int):
    """One synchronous full-table exchange, every entry recomputed from the
    neighbours' previous-round vectors: table[v][d] = min(infinity,
    1 + min over neighbours m of table[m][d]), and 0 for v = d. Returns the
    new table and whether any entry changed: the reference that dv's bitset
    rounds must equal round for round."""
    cap = infinity_metric - 1
    new_table = []
    for v in range(t.n):
        rows = [table[m] for m in t.adjacency[v]]
        row = []
        for d in range(t.n):
            best = cap
            for r in rows:
                if r[d] < best:
                    best = r[d]
            row.append(best + 1)
        row[v] = 0
        new_table.append(tuple(row))
    new_table = tuple(new_table)
    return new_table, new_table != table


def reference_converge(t: Topology, infinity_metric: int):
    """reference_init_tables, then full-table rounds until one changes
    nothing: the fixed point and the number of rounds that changed it."""
    table = reference_init_tables(t, infinity_metric)
    rounds = 0
    while True:
        nxt, changed = reference_exchange_round(t, table, infinity_metric)
        if not changed:
            return table, rounds
        table, rounds = nxt, rounds + 1


def reference_walk(t: Topology, table, infinity_metric: int, src: int,
                   dst: int) -> list[int] | None:
    """The path a converged full table names from src to dst: each step to
    the smallest-id neighbour one metric closer; None when unreachable."""
    if table[src][dst] >= infinity_metric:
        return None
    path = [src]
    while path[-1] != dst:
        v = path[-1]
        path.append(min(m for m in t.adjacency[v]
                        if table[m][dst] == table[v][dst] - 1))
    return path


def reference_trace(t: Topology, a: int, b: int, probe: int, dest: int,
                    infinity_metric: int):
    """dv.fail_link_and_trace's entries from full-table rounds: every column
    converged on t, then every column exchanged on the failed topology until
    the probe caps or dest's column stops changing. A hang guard, far above
    the infinity_metric rounds the engine's docstring proves, raises instead
    of looping on."""
    table, _ = reference_converge(t, infinity_metric)
    failed = remove_link(t, a, b)
    col = [row[dest] for row in table]
    entries = []
    for rnd in range(1, 4 * infinity_metric + 1):
        table, _ = reference_exchange_round(failed, table, infinity_metric)
        prev, col = col, [row[dest] for row in table]
        entries.append((rnd, col[probe]))
        if col[probe] >= infinity_metric or col == prev:
            return tuple(entries)
    raise AssertionError(f"no stop rule within {len(entries)} rounds")


def counting_link_builds(monkeypatch) -> list:
    """From here on, record every QosLink built, in the list returned: the
    check that a path builds none, neither as a value nor as t.links."""
    built = []
    post_init = QosLink.__post_init__

    def counting(link):
        built.append(link)
        post_init(link)

    monkeypatch.setattr(QosLink, "__post_init__", counting)
    return built


class IntSubclass(int):
    """An int subclass: is_int and is_node take it, the exact-int fast
    paths do not."""


def line_topology(n: int, bandwidth: float = 10.0, delay: float = 1.0,
                  jitter: float = 0.0, loss: float = 0.0) -> Topology:
    """Chain 0-1-...-(n-1) with uniform attributes."""
    links = tuple(QosLink(i, i + 1, bandwidth, delay, jitter, loss)
                  for i in range(n - 1))
    return Topology(n, links)


def triangle_topology(bw01: float, bw12: float, bw02: float) -> Topology:
    """Triangle with chosen bandwidths and benign other attributes."""
    return Topology(3, (
        QosLink(0, 1, bw01, 1.0, 0.0, 0.0),
        QosLink(1, 2, bw12, 1.0, 0.0, 0.0),
        QosLink(0, 2, bw02, 1.0, 0.0, 0.0),
    ))


def square_topology() -> Topology:
    """0-1-2 cheap side (delay 1 per link) vs 0-3-2 dear side (delay 5)."""
    return Topology(4, (
        QosLink(0, 1, 10.0, 1.0, 0.0, 0.0),
        QosLink(1, 2, 10.0, 1.0, 0.0, 0.0),
        QosLink(0, 3, 10.0, 5.0, 0.0, 0.0),
        QosLink(2, 3, 10.0, 5.0, 0.0, 0.0),
    ))


def path_fitness(path: list[int] | tuple[int, ...], t: Topology,
                 w: Weights) -> tuple[float, float]:
    """(cost, fitness) of a concrete path: cost sums edge costs left to
    right, fitness = 1/(1+cost). A single-node path costs 0 (fitness 1)."""
    cost = 0.0
    for u, v in zip(path, path[1:]):
        k = t.adjacency[u].get(v)
        if k is None:
            raise ValueError(f"path step {u}-{v} is not a link")
        cost += edge_cost(t.delay[k], t.jitter[k], t.loss[k], w)
    return cost, 1.0 / (1.0 + cost)


def request_gate(t: Topology, demand: float) -> IndexedMasks:
    """The gate select_route reads for a request of `demand`: t.gate's
    list read off t.bandwidth_index one node at a time."""
    return IndexedMasks(t.bandwidth_index, -demand)


def is_connected(t: Topology) -> bool:
    """True iff every node is reachable from node 0 (single node counts)."""
    return len(bfs_hops(t, 0)) == t.n


def report_json_reference(report: ComparisonReport) -> str:
    """The report as the stdlib's json.dumps(doc, indent=2, allow_nan=False)
    writes it: the oracle that report_to_json must equal byte for byte."""
    def row_doc(row) -> dict:
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


def full_gated_tree(t: Topology, root: int, w: Weights,
                    demand: float) -> SpanningTree:
    """The reference search: minimum (hops, cost) labels over the whole of
    root's component in the links with bandwidth >= demand, one hop layer at
    a time until a layer is empty. A node first reached from layer k joins
    layer k+1 under the neighbour u in layer k with the smallest
    (cost_u + edge_cost, u), each link costed by edge_cost as it is crossed.
    relaxations counts every adjacency entry of every labelled node. The
    tree labels every node it reaches, so it answers for any destination
    through full_tree_outcome; its dst field holds the root."""
    label = {root: (0, 0.0)}
    parent = {}
    layer = [root]
    hops = relaxations = 0
    while layer:
        reached = {}
        for u in layer:  # ascending, so strict < keeps the smaller u on a tie
            cost_u = label[u][1]
            relaxations += len(t.adjacency[u])
            for v in t.adjacency[u]:
                if v in label:
                    continue
                k = t.adjacency[u][v]
                if t.bandwidth[k] >= demand:
                    cost = cost_u + edge_cost(t.delay[k], t.jitter[k], t.loss[k], w)
                    if v not in reached or cost < reached[v][0]:
                        reached[v] = (cost, u)
        hops += 1
        for v, (cost, u) in reached.items():
            label[v] = (hops, cost)
            parent[v] = u
        layer = sorted(reached)
    return SpanningTree(root, root, parent, label, relaxations)


def boundary_demands(t: Topology) -> list[float]:
    """0, a demand above t's widest link and every link's bandwidth with the
    floats just below and above it: demands on both sides of every step
    of a gate, ascending."""
    demands = {0.0, math.nextafter(max((link.bandwidth for link in t.links),
                                       default=0.0), math.inf)}
    for link in t.links:
        bw = link.bandwidth
        demands |= {math.nextafter(bw, 0.0), bw, math.nextafter(bw, math.inf)}
    return sorted(demands)


def full_tree_outcome(t: Topology, tree: SpanningTree, dst: int):
    """classify_outcome for dst on a full_gated_tree."""
    return classify_outcome(t, replace(tree, dst=dst))


def check_routes_against_full_trees(n: int, edge_prob: float, seed: int,
                                    requests: int,
                                    demands: tuple[float, float]) -> list:
    """select_route on `requests` random src != dst requests, demands uniform
    in `demands`, on the seeded n-node topology; every outcome must equal
    the outcome on the full gated tree from its source, a Route's cost
    compared with ==. Returns the outcomes.

    Run from the repository root, for example:
    PYTHONPATH=src:tests python -c 'from helpers import check_routes_against_full_trees as c; c(512, 0.016, 1, 2000, (1.0, 90.0))'
    """
    t = generate_topology(n, GenParams(edge_prob=edge_prob), seed)
    rng = random.Random(seed)
    lo, hi = demands
    batches = defaultdict(list)  # one full tree per (src, demand)
    for _ in range(requests):
        src = rng.randrange(n)
        dst = rng.randrange(n - 1)
        dst += dst >= src
        req = RouteRequest(src, dst, lo + rng.random() * (hi - lo))
        batches[req.src, req.demand].append(req)
    outcomes = []
    for (src, demand), batch in batches.items():
        tree = full_gated_tree(t, src, batch[0].weights, demand)
        for req in batch:
            out = select_route(t, req)
            assert out == full_tree_outcome(t, tree, req.dst), req
            outcomes.append(out)
    return outcomes


def check_rows_against_full_trees(cfg: ExperimentConfig,
                                  t: Topology | None = None) -> ComparisonReport:
    """run_comparison(cfg, t) (generating t from cfg when None); every row's
    ff must equal the outcome on the full gated tree from its source, a
    Route's cost compared with ==. Returns the report.

    Run from the repository root, for example:
    PYTHONPATH=src:tests python -c 'from helpers import check_rows_against_full_trees as c; from fitroute import ExperimentConfig as E; c(E(n=512, query_count=1000))'
    """
    report = run_comparison(cfg, t)
    if t is None:
        t = generate_topology(cfg.n, cfg.gen, cfg.seed)
    trees = {}
    for row in report.rows:
        if row.src not in trees:
            trees[row.src] = full_gated_tree(t, row.src, cfg.weights, cfg.demand)
        assert row.ff == full_tree_outcome(t, trees[row.src], row.dst), row
    return report


def check_dv_against_bfs(t: Topology, infinity_metric: int,
                         sources: int = 64) -> tuple[float, int]:
    """dv.converge(t, infinity_metric), then, from `sources` evenly spaced
    sources to every node: the metric must be the BFS hop count capped at
    infinity_metric, and extract_path a walk over links of exactly that
    many hops (None when capped). Returns converge's seconds and rounds.

    Run from the repository root, for example:
    PYTHONPATH=src:tests python -c 'from helpers import check_dv_against_bfs as c; from fitroute import generate_topology as g; print(c(g(1024), 16))'
    """
    started = time.perf_counter()
    s, rounds = converge(t, infinity_metric)
    seconds = time.perf_counter() - started
    for src in range(0, t.n, max(1, t.n // sources)):
        hops = bfs_hops(t, src)
        for dst in range(t.n):
            metric = min(hops.get(dst, infinity_metric), infinity_metric)
            assert s.metric(src, dst) == metric, (src, dst)
            path = extract_path(s, src, dst)
            if metric == infinity_metric:
                assert path is None, (src, dst)
                continue
            assert (path[0], path[-1], len(path) - 1) == (src, dst, metric)
            assert all(v in t.adjacency[u] for u, v in zip(path, path[1:])), \
                (src, dst)
    return seconds, rounds


BANDWIDTHS = (1.0, 2.5, 5.0, 10.0)


@st.composite
def drawn_topologies(draw):
    """Up to 7 nodes over any link subset, often in several components; few
    distinct attribute values, so equal labels are common."""
    n = draw(st.integers(1, 7))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Topology(n, tuple(
        QosLink(a, b, draw(st.sampled_from(BANDWIDTHS)),
                draw(st.sampled_from((0.0, 1.0, 2.0))), 0.0,
                draw(st.sampled_from((0.0, 0.25))))
        for a, b in chosen))


@st.composite
def cut_topologies(draw):
    """A generated (connected) topology with up to three links removed."""
    t = generate_topology(draw(st.integers(2, 9)),
                          GenParams(edge_prob=0.2, bandwidth_range=(1.0, 10.0)),
                          seed=draw(st.integers(0, 2**16)))
    for _ in range(draw(st.integers(0, 3))):
        if t.links:
            link = draw(st.sampled_from(t.links))
            t = remove_link(t, link.a, link.b)
    return t


@st.composite
def grid_topologies(draw):
    """A rows x cols grid, up to 4 x 4, whose links all carry the same
    attributes: every min-hop path between two nodes off a common row or
    column ties with another."""
    rows, cols = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    link = (draw(st.sampled_from(BANDWIDTHS)), draw(st.sampled_from((0.0, 1.0))),
            0.0, draw(st.sampled_from((0.0, 0.25))))
    pairs = [(v, v + 1) for v in range(rows * cols) if (v + 1) % cols]
    pairs += [(v, v + cols) for v in range((rows - 1) * cols)]
    return Topology(rows * cols, tuple(QosLink(a, b, *link) for a, b in pairs))
