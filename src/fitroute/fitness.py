"""Fitness-estimation router: bandwidth gating plus loop-free path search.

Bandwidth is a hard constraint, not a cost term: the search never crosses a
link that cannot carry the requested demand, which is what gives the engine
its bandwidth guarantee. The search applies that gate itself, skipping such
links as it scans each adjacency list, so no pruned topology is built. The
remaining QoS attributes (delay, jitter, loss) are folded into an additive
edge cost, and paths minimise the lexicographic label (hops, cost). Each
link is costed once per topology and weights, on the first search that uses
them, and later searches under the same weights scan that table. The search
expands one hop layer at a time, each newly reached node taking its cheapest
predecessor in the layer before.
Every node is labelled once, so the search ends after at most n labels, and
its predecessor pointers form a tree, which makes routing loops structurally
impossible. Every route, of one request or of a compare row, comes from one
search: it is built for one destination and costs only the nodes on that
destination's min-hop gated paths, found by bitset layers (a bitmap
frontier, Beamer, Asanovic & Patterson, SC 2012). Those nodes get the
labels and parents a search of the root's whole gated component would give
them; the tests keep such a full search as their reference. The topology's
component labels, computed once, tell a refusal from an unreachable verdict.

Loss enters the cost as -ln(1 - loss) so that multiplicative path delivery
probability becomes additive, keeping the path cost an exact sum.
A path's fitness is 1 / (1 + cost): 1 for a free path, approaching 0 as the
accumulated cost grows.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import ClassVar, Union

from .topology import QosLink, Topology, is_int
# unused here; kept importable because the benchmark's tracer wraps these names
from .topology import bfs_hops, feasible_subgraph  # noqa: F401


@dataclass(frozen=True)
class Weights:
    """Per-attribute cost weights: delay and jitter per ms, loss applied to
    -ln(1 - loss). All finite and non-negative, not all zero."""

    delay: float = 1.0
    jitter: float = 1.0
    loss: float = 1.0

    def __post_init__(self):
        weights = (self.delay, self.jitter, self.loss)
        if any(isinstance(x, bool) for x in weights):
            raise ValueError("weights must be numbers, not bools")
        if not all(0 <= x < math.inf for x in weights):
            raise ValueError("weights must be finite and non-negative")
        if self.delay == self.jitter == self.loss == 0:
            raise ValueError("at least one weight must be positive")


DEFAULT_WEIGHTS = Weights()


@dataclass(frozen=True)
class RouteRequest:
    src: int
    dst: int
    demand: float = 5.0  # Mbps the route must carry on every link
    weights: Weights = DEFAULT_WEIGHTS

    def __post_init__(self):
        if not (is_int(self.src) and is_int(self.dst)):
            raise ValueError(f"src and dst must be ints, got {self.src!r}, {self.dst!r}")
        if isinstance(self.demand, bool) or not 0 <= self.demand < math.inf:
            raise ValueError(f"demand must be finite and >= 0, got {self.demand!r}")


@dataclass(frozen=True)
class Route:
    """A selected path with its hop count, additive cost and fitness."""

    path: tuple[int, ...]
    hops: int
    cost: float
    fitness: float

    status: ClassVar[str] = "route"


@dataclass(frozen=True)
class NoSufficientBandwidth:
    """Destination reachable in the full topology but not at this demand."""

    status: ClassVar[str] = "no_bandwidth"


@dataclass(frozen=True)
class Unreachable:
    """Destination unreachable even ignoring bandwidth."""

    status: ClassVar[str] = "unreachable"


RouteOutcome = Union[Route, NoSufficientBandwidth, Unreachable]

NO_SUFFICIENT_BANDWIDTH = NoSufficientBandwidth()
UNREACHABLE = Unreachable()


def edge_cost(link: QosLink, w: Weights) -> float:
    """w.delay*delay + w.jitter*jitter + w.loss*(-ln(1-loss)).

    Bandwidth is deliberately absent: it gates which links a search may
    cross, never traded off against the other attributes. QosLink keeps loss
    below 1. The search does not call this per relaxation: cost_adjacency
    calls it once per link for each topology and weights.
    """
    return (w.delay * link.delay
            + w.jitter * link.jitter
            + w.loss * -math.log1p(-link.loss))


def cost_adjacency(t: Topology, w: Weights
                   ) -> tuple[tuple[tuple[int, float, float], ...], ...]:
    """Per node, (neighbour, edge_cost, bandwidth) in t.adjacency order.

    One pass over t.links, ascending by (a, b), costs each link once and
    appends its entry to both endpoints, which yields t.adjacency's order.
    The table for the most recent weights is kept in t.cost_table, so calls
    for weights equal to those only look it up; other weights replace it.
    """
    slot = t.cost_table  # one read: a search under other weights may replace it
    if slot is not None and slot[0] == w:
        return slot[1]
    rows: list[list[tuple[int, float, float]]] = [[] for _ in range(t.n)]
    for link in t.links:
        cost = edge_cost(link, w)
        rows[link.a].append((link.b, cost, link.bandwidth))
        rows[link.b].append((link.a, cost, link.bandwidth))
    table = tuple(map(tuple, rows))
    object.__setattr__(t, "cost_table", (w, table))
    return table


@dataclass(frozen=True)
class SpanningTree:
    """Predecessor tree of a layered search from `root`.

    label maps every reached node to its final (hops, cost); parent maps
    every reached node except the root to its predecessor, which defines the
    tree. dst is the destination the search was built for: the tree labels
    the root and, if the gate lets it reach dst, every node on dst's min-hop
    gated paths, as a search of the root's whole gated component labels
    them; it answers only for dst. Tree paths are loop-free by
    construction. relaxations counts the adjacency entries the search
    costed: those of its nodes before dst's layer, at most twice the link
    count.
    """

    root: int
    dst: int
    parent: dict[int, int]
    label: dict[int, tuple[int, float]]
    relaxations: int

    def path_to(self, node: int) -> list[int] | None:
        """Root-to-node tree path, or None if the node was never reached."""
        if node not in self.label:
            return None
        path = [node]
        while node != self.root:
            node = self.parent[node]
            path.append(node)
        path.reverse()
        return path


def _ids(bits: int) -> list[int]:
    """The node ids whose bits are set, ascending."""
    ids = []
    while bits:
        low = bits & -bits
        ids.append(low.bit_length() - 1)
        bits ^= low
    return ids


def build_spanning_tree(t: Topology, root: int, w: Weights, demand: float,
                        dst: int) -> SpanningTree:
    """Minimum (hops, cost) labels from `root` on dst's min-hop paths, one
    hop layer at a time.

    Only links with bandwidth >= demand are crossed (demand 0 crosses every
    link, as on a topology pruned beforehand). Hops compare first, so a
    node's hop count is its breadth-first layer: a node first reached from
    layer k joins layer k+1 under the neighbour u in layer k with the smallest
    (cost_u + edge_cost, u), ties thus going to the smaller id. Link costs
    come from cost_adjacency(t, w). root and dst are int node ids of t, and
    demand is finite and >= 0.

    Forward: bitset hop layers, each the OR of the last one's gated masks
    (t.bandwidth_index) less the nodes seen, until one holds dst. Backward:
    keep each layer's nodes with a gated link into the next layer's kept
    ones, i.e. those on dst's min-hop paths. All candidate predecessors of a
    kept node are kept, so the layer step, run from kept nodes into the next
    kept layer only, gives them the labels and parents a search of the whole
    gated component would. Each node is labelled once and each link examined
    at most twice, so the search is bounded whatever the topology.
    """
    if not (is_int(root) and is_int(dst)):
        raise ValueError(f"root and dst must be ints, got {root!r}, {dst!r}")
    if not 0 <= root < t.n:
        raise ValueError(f"root {root} outside [0, {t.n})")
    if not 0 <= dst < t.n:
        raise ValueError(f"dst {dst} outside [0, {t.n})")
    if not 0 <= demand < math.inf:
        raise ValueError(f"demand must be finite and >= 0, got {demand}")
    costs = cost_adjacency(t, w)
    index = t.bandwidth_index
    key = -demand  # masks[bisect_right(keys, key)]: links with bandwidth >= demand
    layers = []
    seen = frontier = 1 << root
    while frontier and not frontier >> dst & 1:
        layers.append(frontier)
        bits, reach = frontier, 0
        while bits:
            u = bits.bit_length() - 1
            bits ^= 1 << u
            keys, masks = index[u]
            reach |= masks[bisect_right(keys, key)]
        frontier = reach & ~seen
        seen |= frontier
    if not frontier:
        return SpanningTree(root, dst, {}, {root: (0, 0.0)}, 0)
    kept = [[dst]]
    for layer in reversed(layers):  # layers[0] is the root alone
        reach = 0
        for v in kept[-1]:
            keys, masks = index[v]
            reach |= masks[bisect_right(keys, key)]
        kept.append(_ids(reach & layer))
    kept.reverse()
    label: dict[int, tuple[int, float]] = {root: (0, 0.0)}
    parent: dict[int, int] = {}
    relaxations = 0
    # the layer step filtered to the kept next layer: costing every
    # unlabelled neighbour made dense requests a third slower
    for hops, (layer, nxt) in enumerate(zip(kept, kept[1:]), 1):
        wanted = set(nxt)
        reached: dict[int, tuple[float, int]] = {}
        for u in layer:  # ascending, so strict < keeps the smaller u on a tie
            cost_u = label[u][1]
            adj = costs[u]
            relaxations += len(adj)
            for v, edge, bandwidth in adj:
                if v in wanted and bandwidth >= demand:
                    cost = cost_u + edge
                    if v not in reached or cost < reached[v][0]:
                        reached[v] = (cost, u)
        for v, (cost, u) in reached.items():
            label[v] = (hops, cost)
            parent[v] = u
    return SpanningTree(root, dst, parent, label, relaxations)


def select_route(t: Topology, req: RouteRequest) -> RouteOutcome:
    """Route a request: search from req.src over the links that carry
    req.demand for req.dst's min-hop paths alone (build_spanning_tree), then
    classify the outcome on that tree.

    Returns a Route when the destination is reached over such links,
    NoSufficientBandwidth when t.components puts it in the source's
    component, and Unreachable otherwise. Routing failures are outcomes;
    only bad input raises ValueError.
    """
    tree = build_spanning_tree(t, req.src, req.weights, req.demand, req.dst)
    return classify_outcome(t, tree)


def classify_outcome(t: Topology, tree: SpanningTree) -> RouteOutcome:
    """Read the outcome for tree.dst off a tree built on `t`: the source is
    tree.root and the demand is the tree's gate, so none of the three can
    disagree with it.

    A labelled dst yields its tree path as a Route; an unlabelled one is
    refused when t.components puts it in the root's component, else it is
    unreachable. ValueError when the path cost overflows.
    """
    dst = tree.dst
    if dst in tree.label:
        hops, cost = tree.label[dst]
        if not math.isfinite(cost):
            raise ValueError(
                f"route cost {tree.root}->{dst} overflows to {cost}: the weights times "
                f"the delay, jitter and loss ranges of the links exceed the float range")
        return Route(tuple(tree.path_to(dst)), hops, cost, 1 / (1 + cost))
    reachable = t.components[tree.root] == t.components[dst]
    return NO_SUFFICIENT_BANDWIDTH if reachable else UNREACHABLE
