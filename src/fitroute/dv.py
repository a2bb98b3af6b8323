"""Classical distance-vector routing over hop count, as a baseline engine.

The exchange model is deliberately naive: synchronous full-vector rounds with
no split horizon and no poisoned reverse, so the engine exhibits the textbook
count-to-infinity behaviour after a link failure. Distances cap at a
configurable infinity metric (conventionally 16), at which point a
destination is reported unreachable.

Only hop metrics are kept: at a fixed point they already name every next
hop, so paths are read off the converged vectors.

`converge(t)` runs the exchange itself, as RIP does (RFC 2453): init_tables
gives every node its initial vector, and each exchange_round has every node
merge its neighbours' whole vectors, until a round changes nothing or the
next metric would reach the infinity metric. A vector is held as bitsets
over the destinations: `near[v]` is v and its neighbours, and `reach[v]`
the destinations v has a metric for, below infinity. Round k merges by
ORing the neighbours' reach into v's own, so the ring it adds,
`new & ~old`, is the destinations at metric k + 1.

The metrics are bit planes, (infinity_metric - 1).bit_length() of them
and no n x n table: for d in reach[v], bit d of planes[j][v] is bit j of
v's metric toward d. For d outside it, the planes hold the metric the last
round reached, so round k gives the ring its metric by stepping everything
outside the old reach from k to k + 1: the bit that turns on, k + 1's
lowest set bit, is set there and the bits below it are cleared. That is
about two planes a round, where ORing the ring into the plane of every set
bit of k + 1 would touch half of them.

Paths take the smallest-id neighbour one metric closer. The neighbours of a
node at metric c + 1 toward d sit at metric c, c + 1 or c + 2, which differ
mod 4, so d's row of the two low planes, within reach[d], picks the next
hops out of near[v] with no full metric read; hop metrics are symmetric,
so d's row also gives every node's metric toward d.

`fail_link_and_trace(t, ...)` checks its inputs, takes dest's converged
column from converge(t) and counts on the topology without the failed link,
recomputing that one column every round until the probe caps or the column
settles, within infinity_metric rounds. All transitions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from operator import and_, or_, xor

from .topology import MAX_NODES, Topology, check_node, is_int, remove_link


@dataclass(frozen=True)
class DvState:
    """Per-node distance vectors as bitsets over the destinations.

    Bit d of near[v] is set when d is v or a neighbour of v, and bit d of
    reach[v] when v's metric toward d is below infinity_metric. That metric
    is read off the planes: bit d of planes[j][v] is its bit j (see metric);
    outside reach[v] the planes' bits mean nothing. near follows from
    topology; the exchange never changes it.
    """

    topology: Topology
    near: tuple[int, ...]
    reach: tuple[int, ...]
    planes: tuple[tuple[int, ...], ...]
    infinity_metric: int

    def metric(self, v: int, d: int) -> int:
        """The hop metric from v to d, capped: infinity_metric when v has
        none below it."""
        if not self.reach[v] >> d & 1:
            return self.infinity_metric
        return sum((plane[v] >> d & 1) << j for j, plane in enumerate(self.planes))


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


def check_infinity(infinity_metric: int) -> None:
    """An infinity metric is an int, not a bool, in 2..MAX_NODES, else
    ValueError. Every Topology holds at most MAX_NODES nodes
    (check_node_count), so no hop metric reaches MAX_NODES, and counting to
    infinity takes at most infinity_metric rounds, so the bound keeps every
    run short."""
    if not (is_int(infinity_metric) and 2 <= infinity_metric <= MAX_NODES):
        raise ValueError(f"infinity_metric must be an integer in 2..{MAX_NODES}, "
                         f"got {infinity_metric!r}")


def init_tables(t: Topology, infinity_metric: int = 16) -> DvState:
    """Initial vectors: self at 0, direct neighbours at 1, all else infinity."""
    check_infinity(infinity_metric)
    near = tuple((1 << v) | sum(1 << u for u in t.adjacency[v])
                 for v in range(t.n))
    everyone = (1 << t.n) - 1
    planes = ((tuple(everyone ^ 1 << v for v in range(t.n)),)
              + ((0,) * t.n,) * ((infinity_metric - 1).bit_length() - 1))
    return DvState(t, near, near, planes, infinity_metric)


def exchange_round(s: DvState, rnd: int) -> tuple[DvState, bool]:
    """Round rnd of the synchronous exchange on s, the state after rounds
    1..rnd-1 from init_tables: every node ORs its neighbours' reach into its
    own, gaining the destinations at metric rnd + 1. Returns the new state
    and whether any vector changed; a round whose metric would reach
    infinity changes nothing.

    Outside the old reach the planes step from metric rnd to rnd + 1: the
    bit that turns on, rnd + 1's lowest set bit, is set there, and the bits
    below it, which turn off, are cleared.
    """
    metric = rnd + 1
    if metric >= s.infinity_metric:
        return s, False
    old = s.reach
    reach = tuple(map(reduce, repeat(or_),
                      map(map, repeat(old.__getitem__), s.topology.adjacency), old))
    if reach == old:
        return s, False
    on = (metric & -metric).bit_length() - 1
    planes = list(s.planes)
    planes[on] = tuple(map(or_, planes[on],
                           map(xor, repeat((1 << s.topology.n) - 1), old)))
    for j in range(on):
        planes[j] = tuple(map(and_, planes[j], old))
    return DvState(s.topology, s.near, reach, tuple(planes),
                   s.infinity_metric), True


def converge(t: Topology, infinity_metric: int = 16) -> tuple[DvState, int]:
    """The fixed point that exchange rounds reach from
    init_tables(t, infinity_metric), and the number of rounds that changed
    anything. Rounds stop at the first that changes nothing, or once the
    next metric would reach infinity_metric."""
    s = init_tables(t, infinity_metric)
    for rnd in range(1, infinity_metric - 1):
        s, changed = exchange_round(s, rnd)
        if not changed:
            return s, rnd - 1
    return s, infinity_metric - 2


def extract_path(s: DvState, src: int, dst: int) -> list[int] | None:
    """Walk converged vectors from src to dst; None when dst is unreachable.

    Each step goes to the smallest-id neighbour one metric closer to dst,
    picked by the metric's residue mod 4 from dst's row of the two low planes
    (see the module docstring). Every step follows a link of s.topology, and
    a node with no such neighbour, or a walk that has not reached dst within
    infinity_metric - 1 steps, means s is not a fixed point and raises
    RuntimeError.
    src and dst must be node ids of s.topology (check_node), else ValueError.
    """
    check_node(src, s.topology.n, "src")
    check_node(dst, s.topology.n, "dst")
    reach = s.reach[dst]
    bit = 1 << src
    if not reach & bit:
        return None
    planes = s.planes
    odd = reach & planes[0][dst]
    even = reach ^ odd
    high = planes[1][dst] if len(planes) > 1 else 0
    odd_high, even_high = odd & high, even & high
    # closer[r]: the nodes whose metric toward dst is r mod 4, disjoint sets,
    # so v itself is never a next hop from v
    closer = (even ^ even_high, odd ^ odd_high, even_high, odd_high)
    r = (1 if odd & bit else 0) | (2 if high & bit else 0)
    near = s.near
    path = [src]
    v = src
    while v != dst:
        r = r - 1 & 3
        hops = near[v] & closer[r] if len(path) < s.infinity_metric else 0
        if not hops:
            raise RuntimeError(
                f"no next hop at node {v} for destination {dst} "
                f"(vectors not converged)")
        v = (hops & -hops).bit_length() - 1
        path.append(v)
    return path


def fail_link_and_trace(t: Topology, a: int, b: int, probe: int, dest: int,
                        *, infinity_metric: int = 16) -> DvTrace:
    """Converge on t, remove link {a, b} and record the probe node's metric
    toward dest each synchronous round on the failed topology.

    Every input is checked before any round runs, else ValueError: probe
    and dest must pass check_node, {a, b} must be a link of t and
    infinity_metric pass check_infinity. Only dest's column is exchanged on
    the failed topology: its converged column on t, then one full recompute
    of it per round, equal round for round to the full exchange's. Rounds
    stop when the probe metric caps or the column stops changing, within
    infinity_metric rounds: removing a link only lengthens distances, so
    the column climbs to the failed topology's capped distances, and after
    k rounds a metric short of its capped distance follows a k-hop walk not
    yet at dest, so it is at least k + 1. The trace keeps the failed topology.
    """
    check_node(probe, t.n, "probe")
    check_node(dest, t.n, "dest")
    failed = remove_link(t, a, b)
    s, _ = converge(t, infinity_metric)
    col = [s.metric(v, dest) for v in range(t.n)]
    cap = infinity_metric - 1
    entries = []
    for rnd in range(1, infinity_metric + 1):
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
