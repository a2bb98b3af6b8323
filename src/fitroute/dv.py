"""Classical distance-vector routing over hop count, as a baseline engine.

The exchange model is deliberately naive: synchronous full-vector rounds with
no split horizon and no poisoned reverse, so the engine exhibits the textbook
count-to-infinity behaviour after a link failure. Distances cap at a
configurable infinity metric (conventionally 16), at which point a
destination is reported unreachable.

Only hop metrics are kept: at a fixed point they already name every next
hop, so paths are read off the converged table.

Both entry points start from a topology: `converge(t)` builds the initial
vectors and runs rounds to the fixed point, and `fail_link_and_trace(t, ...)`
checks its inputs, converges on t and counts on the topology without the
failed link. All transitions are pure: a round maps one DvState to a new
one, computed entirely from the previous round's vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .topology import Topology, remove_link


@dataclass(frozen=True)
class DvState:
    """Per-node distance vectors.

    dist[v][d] is the hop metric from v to d, stored capped: a value equal to
    infinity_metric means unreachable.
    """

    topology: Topology
    dist: tuple[tuple[int, ...], ...]
    infinity_metric: int


@dataclass(frozen=True)
class DvTrace:
    """Per-round (round index, probe metric) records after a link failure,
    with the topology the rounds ran on (the failed link removed).

    Metrics are stored capped; a value equal to infinity_metric means the
    probe node reported the destination unreachable in that round.
    """

    topology: Topology
    entries: tuple[tuple[int, int], ...]
    infinity_metric: int


def init_tables(t: Topology, infinity_metric: int = 16) -> DvState:
    """Initial vectors: self at 0, direct neighbors at 1, all else infinity."""
    if infinity_metric < 2:
        raise ValueError(
            f"infinity_metric must be at least 2, got {infinity_metric}")
    inf = infinity_metric
    dist = []
    for v in range(t.n):
        row = [inf] * t.n
        row[v] = 0
        for u, _ in t.adjacency(v):
            row[u] = 1
        dist.append(tuple(row))
    return DvState(t, tuple(dist), inf)


def exchange_round(s: DvState) -> tuple[DvState, bool]:
    """One synchronous exchange: every node recomputes its vector from its
    neighbors' previous-round vectors.

    dist[v][d] = min(infinity, 1 + min over neighbors m of dist[m][d]), and
    0 for v = d. Returns the new state and whether any entry changed.
    """
    t = s.topology
    old = s.dist
    cap = s.infinity_metric - 1
    new_dist = []
    for v in range(t.n):
        rows = [old[m] for m, _ in t.adjacency(v)]
        row = []
        for d in range(t.n):
            best = cap
            for r in rows:
                if r[d] < best:
                    best = r[d]
            row.append(best + 1)
        row[v] = 0
        new_dist.append(tuple(row))
    new_dist = tuple(new_dist)
    return DvState(t, new_dist, s.infinity_metric), new_dist != old


def converge(t: Topology, infinity_metric: int = 16) -> tuple[DvState, int]:
    """Run exchange rounds from init_tables(t, infinity_metric) until a fixed
    point; return it and the number of rounds that changed anything.

    On a static topology the fixed point always arrives within n-1 changing
    rounds; not reaching it within n+1 exchanges is an engine bug and raises
    RuntimeError.
    """
    s = init_tables(t, infinity_metric)
    limit = t.n + 1
    changing = 0
    for _ in range(limit):
        nxt, changed = exchange_round(s)
        if not changed:
            return s, changing
        s = nxt
        changing += 1
    raise RuntimeError(
        f"distance-vector failed to converge within {limit} rounds "
        f"on a static topology (engine bug)")


def extract_path(s: DvState, src: int, dst: int) -> list[int] | None:
    """Walk a converged table from src to dst; None when dst is unreachable.

    Each step goes to the smallest-id neighbor one metric closer to dst.
    The metric strictly decreases, so the walk cannot cycle; a node with no
    such neighbor means s is not a fixed point and raises RuntimeError.
    """
    n = s.topology.n
    if not (0 <= src < n and 0 <= dst < n):
        raise ValueError(f"query ({src}, {dst}) outside [0, {n})")
    if s.dist[src][dst] >= s.infinity_metric:
        return None
    path = [src]
    v = src
    while v != dst:
        closer = s.dist[v][dst] - 1
        for m, _ in s.topology.adjacency(v):  # ascending: first is smallest
            if s.dist[m][dst] == closer:
                break
        else:
            raise RuntimeError(
                f"no next hop at node {v} for destination {dst} "
                f"(table not converged)")
        path.append(m)
        v = m
    return path


def fail_link_and_trace(t: Topology, a: int, b: int, probe: int, dest: int,
                        max_rounds: int, infinity_metric: int = 16) -> DvTrace:
    """Converge on t, remove link {a, b} and record the probe node's metric
    toward dest each synchronous round on the failed topology.

    Every input is checked before any round runs, else ValueError: probe and
    dest must lie in [0, n), {a, b} must be a link of t, max_rounds at least
    1 and infinity_metric at least 2. Rounds stop when the probe metric caps
    at the infinity metric, when the whole destination column stops changing
    (the failure did not affect any route toward dest, or counting has
    finished), or after max_rounds. The trace keeps the failed topology.
    """
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be at least 1, got {max_rounds}")
    for name, node in (("probe", probe), ("dest", dest)):
        if not 0 <= node < t.n:
            raise ValueError(f"{name} {node} outside [0, {t.n})")
    failed = remove_link(t, a, b)
    state, _ = converge(t, infinity_metric)
    state = DvState(failed, state.dist, infinity_metric)
    col = [row[dest] for row in state.dist]
    entries = []
    for rnd in range(1, max_rounds + 1):
        state, _ = exchange_round(state)
        prev_col, col = col, [row[dest] for row in state.dist]
        entries.append((rnd, col[probe]))
        if col[probe] >= infinity_metric or col == prev_col:
            break
    return DvTrace(failed, tuple(entries), infinity_metric)


def format_trace(trace: DvTrace) -> str:
    """CSV dump `round,metric`, with INF for capped metrics."""
    lines = ["round,metric"]
    for rnd, metric in trace.entries:
        value = "INF" if metric >= trace.infinity_metric else str(metric)
        lines.append(f"{rnd},{value}")
    return "\n".join(lines) + "\n"
