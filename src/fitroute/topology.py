"""Random QoS topologies and the graph utilities shared by both routing engines.

A topology is an undirected graph over nodes 0..n-1 where every link carries
four QoS attributes: bandwidth (Mbps), delay (ms), jitter (ms) and loss
probability. Generation is fully deterministic: a given (n, params, seed)
triple always produces the same topology, byte for byte, because every random
decision is drawn from an explicit SplitMix64 stream in a fixed order.
"""

from __future__ import annotations

import hashlib
import math
import sys
from bisect import bisect_right
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, compress, pairwise, repeat
from numbers import Real
from operator import add, attrgetter, ge, lt, mul, or_

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's state increment
_TWO64 = 18446744073709551616.0  # 2^64: draw / _TWO64 is a draw's float

MAX_NODES = 1024  # every Topology holds 1..MAX_NODES nodes (check_node_count)


def is_int(value) -> bool:
    """True for an int that is not a bool: bool subclasses int, but True is
    no node id or count, and JSON would echo it as `true`. An exact int
    skips the isinstance calls: every search checks two node ids."""
    return (type(value) is int
            or isinstance(value, int) and not isinstance(value, bool))


def check_seed(seed) -> None:
    """A seed is an int in [0, 2^64), else ValueError: SplitMix64 reads it
    mod 2^64, so s and s + 2^64 would be one run echoing two seeds."""
    if not (is_int(seed) and 0 <= seed <= _MASK64):
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")


def is_number(value) -> bool:
    """True for a real number that is not a bool and that a float holds: a
    str or None would fail later inside a comparison with TypeError, True is
    no quantity, and an int such as 10**400, which compares below math.inf,
    would raise OverflowError in the first float arithmetic. An exact float
    returns at once and an exact int skips the ABC isinstance call, the
    costly part of the demand check every route request makes."""
    if type(value) is float:
        return True
    if not (type(value) is int
            or isinstance(value, Real) and not isinstance(value, bool)):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def check_node_count(n) -> None:
    """A node count is an int, not a bool, in 1..MAX_NODES, else ValueError."""
    if not (is_int(n) and 1 <= n <= MAX_NODES):
        raise ValueError(f"node count must be an integer in 1..{MAX_NODES}, got {n!r}")


def is_node(v, n: int) -> bool:
    """True for an int, not a bool, in [0, n): True and 2.0 hash as 1 and 2."""
    return is_int(v) and 0 <= v < n


def check_node(v, n: int, name: str) -> None:
    """is_node(v, n), else ValueError naming the argument."""
    if not is_node(v, n):
        raise ValueError(f"{name} must be an integer node id in [0, {n}), got {v!r}")


def check_demand(demand) -> float:
    """A demand is a finite number >= 0, not a bool, else ValueError.
    Returns it as a float, the value every gate compares with the links'
    float bandwidths: an int such as 2**53 + 1 reads as the float it rounds
    to, in a request and in a compare alike."""
    if not (is_number(demand) and 0 <= demand < math.inf):
        raise ValueError(f"demand must be a finite number >= 0, got {demand!r}")
    return float(demand)


class SplitMix64:
    """SplitMix64 generator (Steele, Lea & Flood).

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    output = z ^ (z >> 31)

    All arithmetic mod 2^64. Chosen because it is trivial to reimplement
    identically in any language, which keeps generated topologies
    reproducible across platforms. Draw k depends only on seed + k*gamma,
    so generation and the queries' first 2 * query_count draws are computed
    in batches of packed lanes (_mixed); next_u64 is the scalar definition
    they equal, and the queries take any redraws from it.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def skip(self, count: int) -> None:
        """Advance the stream past `count` draws, as `count` next_u64 calls."""
        self.state = (self.state + count * _GAMMA) & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


@dataclass(frozen=True, slots=True)
class QosLink:
    """One undirected link. Endpoints are normalized so that a < b; the four
    attributes are numbers within float range (is_number), bools excluded,
    stored as floats and checked as stored: an int attribute such as
    2**53 + 1 becomes the float it rounds to, so the link equals its
    format_topology round trip. These are the only bounds on a link
    attribute. Each bound is an interval, so a link whose attributes lie
    between two valid links' passes: GenParams checks its ranges' ends
    through this constructor, and parse_topology its columns' minima and
    maxima, and both then store their columns unchecked."""

    a: int
    b: int
    bandwidth: float  # Mbps, > 0, finite
    delay: float      # ms, >= 0, finite
    jitter: float     # ms, >= 0, finite
    loss: float       # probability, in [0, 1)

    def __post_init__(self):
        a, b = self.a, self.b
        if not (is_int(a) and is_int(b)):
            raise ValueError(f"node ids must be ints, got {a!r}, {b!r}")
        if a == b:
            raise ValueError(f"self-loop at node {a}")
        if a > b:
            a, b = b, a
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)
        if a < 0:
            raise ValueError(f"negative node id {a}")
        attrs = (self.bandwidth, self.delay, self.jitter, self.loss)
        if not all(map(is_number, attrs)):
            raise ValueError("link attributes must be numbers within float range, "
                             f"not bools: {attrs!r}")
        bw, delay, jitter, loss = floats = tuple(map(float, attrs))
        for name, x in zip(("bandwidth", "delay", "jitter", "loss"), floats):
            object.__setattr__(self, name, x)
        if not 0 < bw < math.inf:
            raise ValueError(f"bandwidth must be finite and > 0, got {bw}")
        if not (0 <= delay < math.inf and 0 <= jitter < math.inf):
            raise ValueError("delay and jitter must be finite and non-negative")
        if not 0 <= loss < 1:
            raise ValueError(f"loss must lie in [0, 1), got {loss}")

    @property
    def pair(self) -> tuple[int, int]:
        return (self.a, self.b)


_columns = attrgetter(*QosLink.__slots__)  # a Topology's six link columns


@dataclass(frozen=True)
class GenParams:
    """Attribute distributions for the random generator (uniform per range).
    Any real numbers within float range, bools excluded, are accepted and
    stored as floats, each range as a (min, max) tuple of two with min <=
    max. The ranges' minima, then their maxima, then their lo + (hi - lo)
    ends must each make a valid QosLink, whose checks they raise. The last
    is the largest attribute lo + draw / 2^64 * (hi - lo) can be: the
    quotient is at most 1.0, and float rounding is monotone, so every
    generated attribute lies between two valid ends. For n >= 2 a GenParams
    is thus accepted exactly when every seed generates."""

    edge_prob: float = 0.15
    bandwidth_range: tuple[float, float] = (1.0, 100.0)
    delay_range: tuple[float, float] = (1.0, 20.0)
    jitter_range: tuple[float, float] = (0.0, 5.0)
    loss_range: tuple[float, float] = (0.0, 0.05)

    def __post_init__(self):
        names = ("bandwidth_range", "delay_range", "jitter_range", "loss_range")
        for name in names:
            pair = getattr(self, name)
            if not (isinstance(pair, Sequence) and len(pair) == 2):
                raise ValueError(f"{name} must be a (min, max) pair, got {pair!r}")
        values = (self.edge_prob, *self.bandwidth_range, *self.delay_range,
                  *self.jitter_range, *self.loss_range)
        if not all(map(is_number, values)):
            raise ValueError("generator parameters must be numbers within float "
                             f"range, not bools: {values!r}")
        # stored, and checked, as floats: equal params then hash alike and
        # echo alike in a report, and a list range is kept as a tuple
        object.__setattr__(self, "edge_prob", float(self.edge_prob))
        if not 0.0 <= self.edge_prob <= 1.0:
            raise ValueError(f"edge_prob must lie in [0, 1], got {self.edge_prob}")
        for name in names:
            lo, hi = pair = tuple(map(float, getattr(self, name)))
            object.__setattr__(self, name, pair)
            if not lo <= hi:
                raise ValueError(f"{name} needs min <= max: ({lo}, {hi})")
        ranges = [getattr(self, name) for name in names]
        for ends in (*zip(*ranges), [lo + (hi - lo) for lo, hi in ranges]):
            QosLink(0, 1, *ends)


@dataclass(frozen=True, init=False)
class Topology:
    """Immutable undirected graph: node count (check_node_count) plus QoS
    links, a tuple or list of QosLinks (no subclass), else ValueError.

    The links are stored as six columns in QosLink's field order, sorted by
    (a, b): link k is (a[k], b[k], bandwidth[k], ...). Equality and hash
    compare n and the columns. `adjacency[x]` maps node x's neighbour ids,
    ascending, to the index of the link joining them: x gets its neighbours
    a < x from the links (a, x), then b > x from the links (x, b). `links`,
    `components` and `bandwidth_index` are memoised on first read, outside
    the compared fields. The route search reads each node's gated
    neighbour bitset: a compare's from gate, a request's off
    bandwidth_index (IndexedMasks).
    """

    n: int
    a: tuple[int, ...]
    b: tuple[int, ...]
    bandwidth: tuple[float, ...]
    delay: tuple[float, ...]
    jitter: tuple[float, ...]
    loss: tuple[float, ...]

    def __init__(self, n: int, links: tuple[QosLink, ...] | list[QosLink]):
        check_node_count(n)
        if not (isinstance(links, (tuple, list))
                and set(map(type, links)) <= {QosLink}):
            raise ValueError(f"links must be a tuple or list of QosLinks, got {links!r}")
        columns = (list(map(attrgetter(name), links)) for name in QosLink.__slots__)
        vars(self).update(vars(Topology._from_columns(n, *columns)))

    @classmethod
    def _from_columns(cls, n: int, a: list, b: list, *attrs: list) -> Topology:
        """The one store builder: the topology over six columns whose rows
        make valid QosLinks, sorted by the rank a * n + b unless in order
        already. ValueError for a b outside [0, n) or a pair twice."""
        if b and max(b) >= n:
            pair = min(p for p in zip(a, b) if p[1] >= n)
            raise ValueError(f"link {pair} endpoint outside [0, {n})")
        ranks = list(map(add, map(mul, a, repeat(n)), b))
        if not all(map(lt, ranks, ranks[1:])):  # out of order, or a pair twice
            order = sorted(range(len(ranks)), key=ranks.__getitem__)
            a, b, *attrs = ([column[k] for k in order] for column in (a, b, *attrs))
            for pair, after in pairwise(zip(a, b)):
                if pair == after:
                    raise ValueError(f"duplicate link {pair}")
        adj: list[dict[int, int]] = [{} for _ in range(n)]
        for k, (x, y) in enumerate(zip(a, b)):
            adj[x][y] = adj[y][x] = k
        t = cls.__new__(cls)
        vars(t).update(zip(("n", *QosLink.__slots__, "adjacency"),
                           (n, *map(tuple, (a, b, *attrs, adj)))))
        return t

    @cached_property
    def links(self) -> tuple[QosLink, ...]:
        """The QosLinks, built checked on first read; no search reads them."""
        return tuple(map(QosLink, *_columns(self)))

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
    def bandwidth_index(self) -> tuple[tuple[tuple[float, ...], tuple[int, ...]], ...]:
        """Per node, (keys, masks) from its adjacency map: keys are its links'
        bandwidths negated, ascending, and masks[i] the neighbour bitset (bit
        b for neighbour b) of its first i links, so masks[bisect_right(keys,
        -demand)] holds its neighbours over links with bandwidth >= demand,
        which is what a request's gate reads (IndexedMasks)."""
        bandwidth = self.bandwidth
        rows = (sorted((-bandwidth[k], 1 << b) for b, k in links.items())
                for links in self.adjacency)
        return tuple((tuple(key for key, _ in row),
                      tuple(accumulate((bit for _, bit in row), or_, initial=0)))
                     for row in rows)

    def gate(self, demand: float) -> list[int]:
        """Each node's neighbour bitset over the links with bandwidth >=
        demand (check_demand): bit b of item a is set when {a, b} is such
        a link. Built in one pass over the links and not memoised: a compare
        routes every row at one demand, so it builds one gate per run."""
        demand = check_demand(demand)
        masks = [0] * self.n
        for a, b, bandwidth in zip(self.a, self.b, self.bandwidth):
            if bandwidth >= demand:
                masks[a] |= 1 << b
                masks[b] |= 1 << a
        return masks


class IndexedMasks:
    """Topology.gate's list at one demand, read off Topology.bandwidth_index
    one node at a time: self[v] is node v's neighbour bitset over its links
    with bandwidth >= demand, the masks[bisect_right(keys, -demand)] of v's
    (keys, masks). A request's search reads a few dozen nodes' masks, far
    fewer than a list of every node's would cost to build."""

    __slots__ = ("index", "key")

    def __init__(self, index, key: float):
        self.index = index
        self.key = key

    def __getitem__(self, v: int) -> int:
        keys, masks = self.index[v]
        return masks[bisect_right(keys, self.key)]


DEFAULT_GEN_PARAMS = GenParams()


def check_gen_params(params, name: str) -> None:
    """params is a GenParams, else ValueError naming the argument."""
    if not isinstance(params, GenParams):
        raise ValueError(f"{name} must be a GenParams, got {params!r}")


# Draws per batch of the packed SplitMix64 lanes (_mixed): a batch is one
# int of 128 * _BATCH bits, 16 KiB, however many draws a reader takes.
# 2048 or 4096 lanes drew no faster, and their lane constants and batches
# raised the benchmark's route-stream peak RSS by 0.06-0.2 MB.
_BATCH = 1024


def _broadcast(value: int, m: int) -> int:
    """value < 2^128 in each of m 128-bit slots, its 16 bytes repeated."""
    return int.from_bytes(value.to_bytes(16, "little") * m, "little")


_STEPS = int.from_bytes(b"".join(((i + 1) * _GAMMA & _MASK64).to_bytes(16, "little")
                                 for i in range(_BATCH)), "little")
_STRIDE = _broadcast(_BATCH * _GAMMA & _MASK64, _BATCH)
_LOW64 = _broadcast(_MASK64, _BATCH)


def _mixed(rng: SplitMix64, count: int):
    """rng's next `count` draws, equal to `count` next_u64 calls, as a
    (z, m) per batch of _BATCH: z holds width = min(count, _BATCH) lanes,
    draw i of the batch in bits 0-63 of the 128-bit slot at bit 128 * i,
    and the batch's draws are its first m lanes, all width of them but in
    a last, partial batch. rng advances past all `count` draws at once, as
    skip(count), when the first batch is read.

    The one lane stepper of every batched draw. It broadcasts rng's state
    once: lane i starts as state + (i+1)*gamma, the state of draw i+1. A
    batch's lanes step to the next batch's by adding _BATCH*gamma mod 2^64
    to every slot, masked to 64 bits: both terms are below 2^64, so the sum
    stays below 2^65 and no carry crosses into the next 128-bit slot. Each
    batch runs the mixer's steps with all lanes in one int. A product of
    two 64-bit factors never carries into the next lane either, and a right
    shift moves the next lane's low bits only into the slot's upper half,
    which the mask clears before every multiply. The last xor-shift is left
    unmasked: it moves the next lane's low 31 bits into each slot's bits
    97-127, so bits 64-96 of every slot stay 0.
    """
    width = min(count, _BATCH)
    low = _LOW64 >> 128 * (_BATCH - width)
    lanes = (_STEPS + _broadcast(rng.state, width)) & low
    rng.skip(count)
    for start in range(0, count, _BATCH):
        z = ((lanes ^ (lanes >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
        z = ((z ^ (z >> 27)) & low) * 0x94D049BB133111EB & low
        yield z ^ (z >> 31), min(_BATCH, count - start)
        lanes = (lanes + _STRIDE) & low


def _draws(rng: SplitMix64, count: int):
    """rng's next `count` draws, equal to `count` next_u64 calls, as one
    memoryview of ints per batch of _mixed, each computed as it is read:
    the first m slots' low 64-bit words, read in place off the lanes'
    bytes as native words, every other word, lane 0 first. rng advances as
    in _mixed."""
    width = min(count, _BATCH)
    for z, m in _mixed(rng, count):
        words = memoryview(z.to_bytes(16 * width, sys.byteorder)).cast("Q")
        yield words[:2 * m:2] if sys.byteorder == "little" else words[::-2][:m]


_LINKED = bytes.maketrans(b"\0\1", b"\1\0")  # a clear bit 64 links the pair


def _link_flags(rng: SplitMix64, count: int, threshold: int) -> bytes:
    """One byte per draw of rng's next `count`, 1 where the draw is below
    `threshold` (0 <= threshold <= 2^64), else 0: the bytes of
    [z < threshold for z in _draws(rng, count)], and rng advances the same.

    No draw becomes an int of its own: 2^64 - threshold, added to every
    slot of a batch of _mixed, sets a slot's bit 64 exactly when its draw
    is >= threshold. The sum stays below 2^65 and so inside the slot's
    clear bits 64-96, with no carry into the next slot. Bit 64 is bit 0 of
    the slot's byte 8, read for a batch's first m slots at once as one
    bytes slice, and 0 and 1 swap in one translate.
    """
    width = min(count, _BATCH)
    addend = _broadcast((1 << 64) - threshold, width)
    return b"".join((z + addend).to_bytes(16 * width, "little")[8:16 * m:16]
                    for z, m in _mixed(rng, count)).translate(_LINKED)


def _link_threshold(edge_prob: float) -> int:
    """The smallest draw z with z / 2^64 >= edge_prob (2^64 if none), so a
    draw links its pair, z / 2^64 < edge_prob, exactly when z < the result.
    Int-to-float rounding is monotone, so 64 bisection steps find it."""
    lo, hi = 0, 1 << 64
    while lo < hi:
        mid = (lo + hi) >> 1
        if mid / _TWO64 < edge_prob:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _linked_rows(perm: list[int], flags: bytes) -> list[list[int]]:
    """Steps 2 and 3 of generate_topology_rng: rows[a] holds the b > a
    linked to a, ascending, the chain's links through perm and the drawn
    pairs whose flag (_link_flags) is set, one flag per pair off the
    chain, in ascending (a, b) order."""
    n = len(perm)
    chained = [[] for _ in range(n)]  # chain neighbours b > a, per row a
    for u, v in zip(perm, perm[1:]):
        chained[min(u, v)].append(max(u, v))
    rows = []
    pos = 0  # flags[pos]: the next drawn pair's flag
    for a, ends in enumerate(chained):
        row, b = [], a + 1
        for c in sorted(ends):  # the drawn pairs before chain link (a, c)
            row += compress(range(b, c), flags[pos:pos + c - b])
            pos += c - b
            row.append(c)
            b = c + 1
        row += compress(range(b, n), flags[pos:pos + n - b])
        pos += n - b
        rows.append(row)
    return rows


def _attribute_columns(rng: SplitMix64, link_count: int,
                       params: GenParams) -> list[list[float]]:
    """Step 4 of generate_topology_rng: the bandwidth, delay, jitter and
    loss columns of `link_count` links, each attribute lo + draw / 2^64 * span
    from the link's 4 draws in turn. _BATCH is a multiple of 4, so a
    batch's draws[k::4] are attribute k of its links."""
    spans = [(lo, hi - lo) for lo, hi in (params.bandwidth_range, params.delay_range,
                                          params.jitter_range, params.loss_range)]
    columns = [[], [], [], []]
    for draws in _draws(rng, 4 * link_count):
        for k, (column, (lo, span)) in enumerate(zip(columns, spans)):
            column += [lo + z / _TWO64 * span for z in draws[k::4]]
    return columns


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
       The top 1024 draws read exactly 1.0, and the sum can round up, so an
       attribute can equal its max or, by an ulp, pass it. It never passes
       min + (max-min), which GenParams checked as a QosLink with the
       minima, so every link it makes is valid.

    In all that is generation_draws(t) draws, the count run_comparison
    skips before it draws queries, on a generated or a replayed topology.

    Steps 1, 3 and 4 know their draw counts up front: n-1, (n-1)(n-2)/2,
    then 4 per link. Each takes its draws from packed lanes that one
    stepper moves a batch at a time (_mixed): SplitMix64 draw k depends only on
    seed + k*gamma mod 2^64, so a batch computes the very draws next_u64
    calls would return, in order, and leaves rng where they would. Step 1
    takes its n-1 draws as one batch (n <= MAX_NODES <= _BATCH). Step 3 tests
    draw < _link_threshold(edge_prob), equal to the float test, inside the
    packed lanes (_link_flags), one flag byte per pair, and runs row by
    row, a ascending, so links come out sorted (_linked_rows). Step 4
    keeps the float arithmetic above, operation for operation, one
    attribute column at a time (_attribute_columns), and the columns are
    stored unchecked (Topology._from_columns).
    """
    check_node_count(n)
    check_gen_params(params, "params")

    perm = list(range(n))
    for i, z in enumerate(chain.from_iterable(_draws(rng, n - 1)), 1):
        j = z % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]

    rows = _linked_rows(perm, _link_flags(rng, (n - 1) * (n - 2) // 2,
                                          _link_threshold(params.edge_prob)))
    a = list(chain.from_iterable(map(repeat, range(n), map(len, rows))))
    return Topology._from_columns(n, a, list(chain.from_iterable(rows)),
                                  *_attribute_columns(rng, len(a), params))


def generation_draws(t: Topology) -> int:
    """The draws generate_topology_rng takes to generate t: n(n-1)/2 for
    the permutation and the pairs, then 4 per link."""
    return t.n * (t.n - 1) // 2 + 4 * len(t.a)


def generate_topology(n: int, params: GenParams = DEFAULT_GEN_PARAMS,
                      seed: int = 0) -> Topology:
    """Generate a connected random topology from a bare seed, an int in
    [0, 2^64) (check_seed)."""
    check_seed(seed)
    return generate_topology_rng(n, params, SplitMix64(seed))


def feasible_subgraph(t: Topology, demand: float) -> Topology:
    """Topology restricted to links with bandwidth >= demand (check_demand)."""
    demand = check_demand(demand)
    keep = list(map(ge, t.bandwidth, repeat(demand)))
    return Topology._from_columns(t.n, *(list(compress(column, keep))
                                         for column in _columns(t)))


def remove_link(t: Topology, a: int, b: int) -> Topology:
    """Copy of `t` without the link {a, b}. A missing link, or a or b not a
    node id (is_node), is an error."""
    k = t.adjacency[a].get(b) if is_node(a, t.n) and is_node(b, t.n) else None
    if k is None:
        raise ValueError(f"{a}:{b} is not a link of the topology")
    return Topology._from_columns(t.n, *(column[:k] + column[k + 1:]
                                         for column in _columns(t)))


def bfs_hops(t: Topology, src: int) -> dict[int, int]:
    """Minimum hop count from src (check_node) to every reachable node.

    Unreachable nodes are absent from the result. Neighbors are expanded in
    ascending node-id order, so traversal order is deterministic.
    """
    check_node(src, t.n, "src")
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
    line per link, ascending (a, b), each attribute written as the `repr` of
    the float QosLink stores, the shortest decimal that reads back as the
    same float. So parse_topology(format_topology(t)) == t, and equal
    topologies have one text. This is the replay/debug file format and the
    fingerprint input.
    """
    lines = [f"{a} {b} {bw!r} {delay!r} {jitter!r} {loss!r}"
             for a, b, bw, delay, jitter, loss in zip(*_columns(t))]
    return "\n".join([f"n={t.n}", *lines]) + "\n"


# Link lines parse_topology splits and converts at a time. Splitting all of
# a dense 1024-node file's at once kept every field's str alive together,
# and more than doubled the parse's peak memory (34 to 82 MB traced).
_CHUNK = 1024


def _line_link(line: str, n: int, seen: set[tuple[int, int]]) -> QosLink:
    """The link one link line holds, built through QosLink's checks, then
    the store's: b below n, and a pair not in `seen`, the pairs of the
    lines before it, which it joins. Else ValueError naming the line, with
    the message the check gives. parse_topology's error path."""
    fields = line.split()
    if len(fields) != 6:
        raise ValueError(f"bad link line (want 6 fields): {line!r}")
    try:
        link = QosLink(*map(int, fields[:2]), *map(float, fields[2:]))
        if link.b >= n:
            raise ValueError(f"link {link.pair} endpoint outside [0, {n})")
        if link.pair in seen:
            raise ValueError(f"duplicate link {link.pair}")
    except ValueError as e:
        raise ValueError(f"bad link line: {line!r}: {e}") from None
    seen.add(link.pair)
    return link


def parse_topology(text: str) -> Topology:
    """Inverse of format_topology. Raises ValueError on malformed input, and
    on more link lines than n(n - 1)/2 before it converts any of them.

    It splits the link lines _CHUNK at a time, checks that each has 6
    fields, and converts the chunk's columns with one map each. One check
    per column follows: every a < b, min(a) >= 0, no NaN (valid attributes
    are never negative, so their sum is not NaN and >= 0), and the
    attribute minima and maxima each a valid QosLink. When some a < b
    fails, the pair columns are swapped element-wise into (min, max), as
    QosLink swaps a reversed pair, and checked once more. QosLink's bounds
    are intervals, so these pass exactly when every row makes a valid link,
    and the columns go to the store (Topology._from_columns), which checks
    the pairs' range and that none is repeated. If any check fails, each
    line is built in file order by _line_link, which names the first bad
    one."""
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
    a, b, *attrs = columns = [[], [], [], [], [], []]
    try:
        for start in range(1, len(lines), _CHUNK):
            rows = list(map(str.split, lines[start:start + _CHUNK]))
            if set(map(len, rows)) != {6}:
                raise ValueError  # _line_link names the line
            for column, kind, fields in zip(columns, (int, int) + (float,) * 4,
                                            zip(*rows)):
                column += map(kind, fields)
        if a:
            QosLink(0, 1, *map(min, attrs))
            QosLink(0, 1, *map(max, attrs))
            if not all(map(lt, a, b)):  # a reversed pair: swap every pair once
                a, b = list(map(min, a, b)), list(map(max, a, b))
                if not all(map(lt, a, b)):
                    raise ValueError  # _line_link names the line
            if not (min(a) >= 0 and sum(map(sum, attrs)) >= 0):
                raise ValueError  # _line_link names the line
        return Topology._from_columns(n, a, b, *attrs)
    except ValueError:
        pass
    seen: set[tuple[int, int]] = set()
    return Topology(n, [_line_link(line, n, seen) for line in lines[1:]])


def topology_fingerprint(t: Topology) -> int:
    """BLAKE2b-64 (RFC 7693) of the canonical text's UTF-8 bytes, read as a
    big-endian int: `b2sum -l 64` of the file gen-topology writes."""
    data = format_topology(t).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")
