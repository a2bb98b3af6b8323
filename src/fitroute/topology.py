"""Random QoS topologies and the graph utilities shared by both routing engines.

A topology is an undirected graph over nodes 0..n-1 where every link carries
four QoS attributes: bandwidth (Mbps), delay (ms), jitter (ms) and loss
probability. Generation is fully deterministic: a given (n, params, seed)
triple always produces the same topology, byte for byte, because every random
decision is drawn from an explicit SplitMix64 stream in a fixed order.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import cached_property

_MASK64 = (1 << 64) - 1

MAX_NODES = 1024  # largest node count the CLI and the file format accept


class SplitMix64:
    """SplitMix64 generator (Steele, Lea & Flood).

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    output = z ^ (z >> 31)

    All arithmetic mod 2^64. Chosen because it is trivial to reimplement
    identically in any language, which keeps generated topologies
    reproducible across platforms.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def skip(self, count: int) -> None:
        """Advance the stream past `count` draws, as `count` next_u64 calls."""
        self.state = (self.state + count * 0x9E3779B97F4A7C15) & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform float in [0, 1): next_u64() / 2^64 exactly."""
        return self.next_u64() / 18446744073709551616.0

    def next_below(self, bound: int) -> int:
        """Uniform-ish integer in [0, bound) via modulo (bound << 2^64)."""
        return self.next_u64() % bound


@dataclass(frozen=True)
class QosLink:
    """One undirected link. Endpoints are normalized so that a < b."""

    a: int
    b: int
    bandwidth: float  # Mbps, > 0, finite
    delay: float      # ms, >= 0, finite
    jitter: float     # ms, >= 0, finite
    loss: float       # probability, in [0, 1)

    def __post_init__(self):
        if not (isinstance(self.a, int) and isinstance(self.b, int)):
            raise ValueError(f"node ids must be ints, got {self.a!r}, {self.b!r}")
        if self.a == self.b:
            raise ValueError(f"self-loop at node {self.a}")
        if self.a > self.b:
            a, b = self.b, self.a
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)
        if self.a < 0:
            raise ValueError(f"negative node id {self.a}")
        if not 0 < self.bandwidth < math.inf:
            raise ValueError(f"bandwidth must be finite and > 0, got {self.bandwidth}")
        if not (0 <= self.delay < math.inf and 0 <= self.jitter < math.inf):
            raise ValueError("delay and jitter must be finite and non-negative")
        if not 0 <= self.loss < 1:
            raise ValueError(f"loss must lie in [0, 1), got {self.loss}")

    @property
    def pair(self) -> tuple[int, int]:
        return (self.a, self.b)


@dataclass(frozen=True)
class GenParams:
    """Attribute distributions for the random generator (uniform per range)."""

    edge_prob: float = 0.15
    bandwidth_range: tuple[float, float] = (1.0, 100.0)
    delay_range: tuple[float, float] = (1.0, 20.0)
    jitter_range: tuple[float, float] = (0.0, 5.0)
    loss_range: tuple[float, float] = (0.0, 0.05)

    def __post_init__(self):
        if not 0.0 <= self.edge_prob <= 1.0:
            raise ValueError(f"edge_prob must lie in [0, 1], got {self.edge_prob}")
        for name in ("bandwidth_range", "delay_range", "jitter_range", "loss_range"):
            lo, hi = getattr(self, name)
            if not -math.inf < lo <= hi < math.inf:
                raise ValueError(f"{name} needs finite min <= max: ({lo}, {hi})")
        if self.bandwidth_range[0] <= 0:
            raise ValueError("bandwidth_range must be positive")
        if self.delay_range[0] < 0 or self.jitter_range[0] < 0:
            raise ValueError("delay_range and jitter_range must be non-negative")
        if not (0.0 <= self.loss_range[0] and self.loss_range[1] < 1.0):
            raise ValueError("loss_range must lie within [0, 1)")


@dataclass(frozen=True)
class Topology:
    """Immutable undirected graph: node count plus QoS links keyed by pair.

    Links are stored sorted by (a, b). `adjacency[x]` is node x's neighbour
    ids in ascending order, built once at construction and shared by every
    traversal: x receives its neighbours a < x from the links (a, x), then
    its neighbours b > x from the links (x, b). `components` and
    `component_sizes` are memoised on first read, and `cost_table` holds
    the fitness search's link costs for the most recent weights as a
    (weights, table) pair (see fitness.cost_adjacency); all three live
    outside the compared fields.
    """

    n: int
    links: tuple[QosLink, ...]
    adjacency: tuple[tuple[int, ...], ...] = field(init=False, repr=False,
                                                   compare=False)
    _by_pair: dict = field(init=False, repr=False, compare=False)
    cost_table: tuple | None = field(init=False, repr=False, compare=False,
                                     default=None)

    def __post_init__(self):
        if not isinstance(self.n, int):
            raise ValueError(f"node count must be an int, got {self.n!r}")
        if self.n < 1:
            raise ValueError("topology needs at least one node")
        links = tuple(sorted(self.links, key=lambda l: l.pair))
        object.__setattr__(self, "links", links)
        by_pair: dict[tuple[int, int], QosLink] = {}
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for link in links:
            if link.b >= self.n:
                raise ValueError(f"link {link.pair} endpoint outside [0, {self.n})")
            if link.pair in by_pair:
                raise ValueError(f"duplicate link {link.pair}")
            by_pair[link.pair] = link
            adj[link.a].append(link.b)
            adj[link.b].append(link.a)
        object.__setattr__(self, "_by_pair", by_pair)
        object.__setattr__(self, "adjacency", tuple(map(tuple, adj)))

    def link_between(self, a: int, b: int) -> QosLink | None:
        return self._by_pair.get((min(a, b), max(a, b)))

    @cached_property
    def components(self) -> tuple[int, ...]:
        """Each node's component id, the smallest node id in its component."""
        ids = [-1] * self.n
        for v in range(self.n):
            if ids[v] < 0:
                for u in bfs_hops(self, v):
                    ids[u] = v
        return tuple(ids)

    @cached_property
    def component_sizes(self) -> tuple[int, ...]:
        """Each node's component size: the nodes it reaches, itself included."""
        sizes = Counter(self.components)
        return tuple(sizes[c] for c in self.components)


DEFAULT_GEN_PARAMS = GenParams()


def generate_topology_rng(n: int, params: GenParams, rng: SplitMix64) -> Topology:
    """Generate a connected random topology, consuming draws from `rng`.

    The procedure is pinned exactly so outputs are reproducible:

    1. Permute 0..n-1 by Fisher-Yates: for i = 1..n-1, j = draw mod (i+1),
       swap positions i and j.
    2. Link consecutive permutation elements (a random spanning chain, which
       guarantees connectivity without seed-dependent rejection loops).
    3. Visit every remaining unordered pair (a < b) in ascending order; add
       the link when draw / 2^64 < edge_prob. Pairs already linked by the
       chain consume no draw.
    4. Visit links in ascending (a, b) order and draw bandwidth, delay,
       jitter, loss for each, in that order, as min + (draw/2^64)*(max-min).

    In all that is n(n-1)/2 + 4*len(links) draws, the count run_comparison
    skips when it replays a topology.
    """
    if n < 1:
        raise ValueError("topology needs at least one node")

    perm = list(range(n))
    for i in range(1, n):
        j = rng.next_below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]

    chain = {(min(u, v), max(u, v)) for u, v in zip(perm, perm[1:])}
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
             if (a, b) in chain or rng.next_float() < params.edge_prob]
    ranges = (params.bandwidth_range, params.delay_range,
              params.jitter_range, params.loss_range)
    return Topology(n, tuple(
        QosLink(a, b, *(lo + rng.next_float() * (hi - lo) for lo, hi in ranges))
        for a, b in pairs))


def generate_topology(n: int, params: GenParams = DEFAULT_GEN_PARAMS,
                      seed: int = 0) -> Topology:
    """Generate a connected random topology from a bare seed."""
    return generate_topology_rng(n, params, SplitMix64(seed))


def feasible_subgraph(t: Topology, demand: float) -> Topology:
    """Topology restricted to links with bandwidth >= demand; same nodes."""
    if not 0 <= demand < math.inf:
        raise ValueError(f"demand must be finite and >= 0, got {demand}")
    return Topology(t.n, tuple(l for l in t.links if l.bandwidth >= demand))


def remove_link(t: Topology, a: int, b: int) -> Topology:
    """Copy of `t` without the link {a, b}. Missing link is an error."""
    gone = t.link_between(a, b)
    if gone is None:
        raise ValueError(f"{a}:{b} is not a link of the topology")
    return Topology(t.n, tuple(l for l in t.links if l is not gone))


def bfs_hops(t: Topology, src: int) -> dict[int, int]:
    """Minimum hop count from src to every reachable node.

    Unreachable nodes are absent from the result. Neighbors are expanded in
    ascending node-id order, so traversal order is deterministic.
    """
    if not 0 <= src < t.n:
        raise ValueError(f"source {src} outside [0, {t.n})")
    hops = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in t.adjacency[u]:
            if v not in hops:
                hops[v] = hops[u] + 1
                queue.append(v)
    return hops


def format_topology(t: Topology) -> str:
    """Canonical text form: `n=<count>` then one `a b bw delay jitter loss`
    line per link, ascending (a, b), attributes as 6-significant-digit
    decimals. This is the replay/debug file format and the fingerprint input.
    """
    lines = [f"n={t.n}"]
    for l in t.links:
        lines.append(f"{l.a} {l.b} {l.bandwidth:.6g} {l.delay:.6g} "
                     f"{l.jitter:.6g} {l.loss:.6g}")
    return "\n".join(lines) + "\n"


def parse_topology(text: str) -> Topology:
    """Inverse of format_topology. Raises ValueError on malformed input."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise ValueError("topology file must start with 'n=<count>'")
    try:
        n = int(lines[0][2:])
    except ValueError:
        raise ValueError(f"bad node count line: {lines[0]!r}") from None
    if not 1 <= n <= MAX_NODES:
        raise ValueError(f"node count must lie in 1..{MAX_NODES}, got {n}")
    links = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 6:
            raise ValueError(f"bad link line (want 6 fields): {ln!r}")
        a, b = int(parts[0]), int(parts[1])
        bw, delay, jitter, loss = (float(p) for p in parts[2:])
        links.append(QosLink(a, b, bw, delay, jitter, loss))
    return Topology(n, tuple(links))


def topology_fingerprint(t: Topology) -> int:
    """64-bit FNV-1a hash of the canonical file bytes."""
    h = 0xCBF29CE484222325
    for byte in format_topology(t).encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & _MASK64
    return h
