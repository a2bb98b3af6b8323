"""Classical distance-vector routing over hop count, as a baseline engine.

The exchange model is deliberately naive: synchronous full-vector rounds with
no split horizon and no poisoned reverse, so the engine exhibits the textbook
count-to-infinity behaviour after a link failure. Distances cap at a
configurable infinity metric (conventionally 16), at which point a
destination is reported unreachable.

Only hop metrics are kept: at a fixed point they already name every next
hop, so paths are read off the converged table.

In a synchronous round every node's metric toward d depends only on its
neighbours' metrics toward d in the round before, so each destination's
column evolves on its own. `converge(t)` builds the fixed point one column at
a time with triggered updates, as RIP sends them (RFC 2453 section 3.10.1):
from the initial vectors metrics only fall, so a round pushes just the
entries that changed in the round before to their neighbours. Neighbour sets
are bitsets built once per call, so a round is the OR of the changed
entries' masks less the entries already set, a bitmap frontier (Beamer,
Asanovic & Patterson, SC 2012). Every column, and the number of rounds that
changed anything, equals the full exchange's round for round; `init_tables`
and `exchange_round` are that full exchange.
`fail_link_and_trace(t, ...)` checks its inputs, takes dest's converged
column on t and counts on the topology without the failed link, recomputing
that one column every round, since there metrics rise and a push cannot
raise an entry. All transitions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .topology import Topology, remove_link


@dataclass(frozen=True)
class DvState:
    """Per-node distance vectors.

    dist[v][d] is the hop metric from v to d, stored capped: a value equal to
    infinity_metric means unreachable. Hop metrics are symmetric, so
    converge stores destination d's column as row d, with no transpose; the
    reference properties in the tests compare it with the full exchange.
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


def _check_infinity(infinity_metric: int) -> None:
    if not (isinstance(infinity_metric, int) and infinity_metric >= 2):
        raise ValueError(
            f"infinity_metric must be an integer >= 2, got {infinity_metric!r}")


def init_tables(t: Topology, infinity_metric: int = 16) -> DvState:
    """Initial vectors: self at 0, direct neighbors at 1, all else infinity."""
    _check_infinity(infinity_metric)
    inf = infinity_metric
    dist = []
    for v in range(t.n):
        row = [inf] * t.n
        row[v] = 0
        for u in t.adjacency[v]:
            row[u] = 1
        dist.append(tuple(row))
    return DvState(t, tuple(dist), inf)


def exchange_round(s: DvState) -> tuple[DvState, bool]:
    """One synchronous exchange: every node recomputes its vector from its
    neighbors' previous-round vectors.

    dist[v][d] = min(infinity, 1 + min over neighbors m of dist[m][d]), and
    0 for v = d. Returns the new state and whether any entry changed. This
    full-table round is the reference that converge equals round for round.
    """
    t = s.topology
    old = s.dist
    cap = s.infinity_metric - 1
    new_dist = []
    for v in range(t.n):
        rows = [old[m] for m in t.adjacency[v]]
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


def _neighbour_masks(t: Topology) -> list[int]:
    """Per node, its neighbours as a bitset: bit b of masks[a] is set when
    {a, b} is a link of t."""
    masks = [0] * t.n
    for link in t.links:
        masks[link.a] |= 1 << link.b
        masks[link.b] |= 1 << link.a
    return masks


def _column(masks: list[int], dest: int,
            infinity_metric: int) -> tuple[list[int], int]:
    """dest's column of the fixed point that exchange rounds reach from
    init_tables, and the number of rounds in which it changed; masks are a
    topology's neighbour bitsets (see _neighbour_masks).

    The first pass sets dest's neighbours to 1, as init_tables does; round r
    then pushes the entries round r - 1 changed to their neighbours, setting
    those still at infinity to metric r + 1, until no entry changes or the
    metric would reach infinity_metric. The entries a round sets are the
    union of the changed entries' masks less every entry already set.
    """
    col = [infinity_metric] * len(masks)
    col[dest] = 0
    seen = 1 << dest
    changed = [dest]
    metric = 1
    while metric < infinity_metric:
        bits = 0
        for u in changed:
            bits |= masks[u]
        bits &= ~seen
        if not bits:
            break
        seen |= bits
        changed = []
        while bits:
            v = bits.bit_length() - 1
            bits ^= 1 << v
            col[v] = metric
            changed.append(v)
        metric += 1
    return col, max(0, metric - 2)


def converge(t: Topology, infinity_metric: int = 16) -> tuple[DvState, int]:
    """The fixed point that exchange rounds reach from
    init_tables(t, infinity_metric), and the number of rounds that changed
    anything.

    Each destination's column is built on its own with triggered updates
    (see _column) over neighbour bitsets built once per call, and stored as
    row d, hop metrics being symmetric; the table and the round count, the
    largest over the columns, equal the full exchange's.
    """
    _check_infinity(infinity_metric)
    masks = _neighbour_masks(t)
    columns, rounds = zip(*(_column(masks, d, infinity_metric)
                            for d in range(t.n)))
    return DvState(t, tuple(map(tuple, columns)), infinity_metric), max(rounds)


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
        for m in s.topology.adjacency[v]:  # ascending: first is smallest
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
    1 and infinity_metric an integer at least 2. Only dest's column is
    computed: its converged column on t, then one full recompute of it per
    round on the failed topology, equal round for round to the full
    exchange's. Rounds stop when the probe metric caps at the infinity
    metric, when the column stops changing (the failure did not affect any
    route toward dest, or counting has finished), or after max_rounds. The
    trace keeps the failed topology.
    """
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be at least 1, got {max_rounds}")
    for name, node in (("probe", probe), ("dest", dest)):
        if not 0 <= node < t.n:
            raise ValueError(f"{name} {node} outside [0, {t.n})")
    failed = remove_link(t, a, b)
    _check_infinity(infinity_metric)
    col, _ = _column(_neighbour_masks(t), dest, infinity_metric)
    cap = infinity_metric - 1
    entries = []
    for rnd in range(1, max_rounds + 1):
        prev = col
        col = [1 + min([cap] + [prev[m] for m in ms]) for ms in failed.adjacency]
        col[dest] = 0
        entries.append((rnd, col[probe]))
        if col[probe] >= infinity_metric or col == prev:
            break
    return DvTrace(failed, tuple(entries), infinity_metric)


def format_trace(trace: DvTrace) -> str:
    """CSV dump `round,metric`, with INF for capped metrics."""
    lines = ["round,metric"]
    for rnd, metric in trace.entries:
        value = "INF" if metric >= trace.infinity_metric else str(metric)
        lines.append(f"{rnd},{value}")
    return "\n".join(lines) + "\n"
