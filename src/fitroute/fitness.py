"""Fitness-estimation router: bandwidth gating plus loop-free path search.

Bandwidth is a hard constraint, not a cost term: the search never crosses a
link that cannot carry the requested demand, which is what gives the engine
its bandwidth guarantee. The search reads that gate as one neighbour bitset
per node, gate[v] (v's neighbours over the links that carry the demand), so
no pruned topology is built: a compare builds one gate per run
(Topology.gate), a request reads its masks off the topology's bandwidth index
(Topology.indexed_gate). The remaining QoS attributes (delay, jitter, loss)
are folded into an additive edge cost, and paths minimise the lexicographic
label (hops, cost). The search expands one hop layer at a time, each newly
reached node taking its cheapest predecessor in the layer before; a link is
costed when a node weighs it as a predecessor link, so a search costs only
the links between the layers of its route.
Every node is labelled once, so the search ends after at most n labels, and
its predecessor pointers form a tree, which makes routing loops structurally
impossible. Every route, of one request or of a compare row, comes from one
search: it is built for one destination and costs only the nodes on that
destination's min-hop gated paths, found by bitset hop layers (bitmap
frontiers, Beamer, Asanovic & Patterson, SC 2012) grown from both the root
and the destination until they meet (bidirectional search, Pohl,
Machine Intelligence 6, 1971). Those nodes get the labels and parents a
search of the root's whole gated component would give them; the tests keep
such a full search as their reference. The topology's component labels,
computed once, tell a refusal from an unreachable verdict.

Loss enters the cost as -ln(1 - loss) so that multiplicative path delivery
probability becomes additive, keeping the path cost an exact sum.
A path's fitness is 1 / (1 + cost): 1 for a free path, approaching 0 as the
accumulated cost grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Union

from .topology import QosLink, Topology, check_demand, check_node, is_int, is_number
# unused here; kept importable because the benchmark's tracer wraps these names
from .topology import bfs_hops, feasible_subgraph  # noqa: F401


@dataclass(frozen=True)
class Weights:
    """Per-attribute cost weights: delay and jitter per ms, loss applied to
    -ln(1 - loss). All finite and non-negative, not all zero; stored as
    floats, so equal weights echo alike in a report."""

    delay: float = 1.0
    jitter: float = 1.0
    loss: float = 1.0

    def __post_init__(self):
        weights = (self.delay, self.jitter, self.loss)
        if not all(map(is_number, weights)):
            raise ValueError("weights must be numbers within float range, "
                             f"not bools: {weights!r}")
        weights = tuple(map(float, weights))
        for name, x in zip(("delay", "jitter", "loss"), weights):
            object.__setattr__(self, name, x)
        if not all(0 <= x < math.inf for x in weights):
            raise ValueError("weights must be finite and non-negative")
        if self.delay == self.jitter == self.loss == 0:
            raise ValueError("at least one weight must be positive")


DEFAULT_WEIGHTS = Weights()


def check_weights(w) -> None:
    """w is a Weights, else ValueError."""
    if not isinstance(w, Weights):
        raise ValueError(f"weights must be a Weights, got {w!r}")


@dataclass(frozen=True)
class RouteRequest:
    """One route request, checked on construction (else ValueError). The
    demand is kept as check_demand's float, the value a compare row at that
    demand routes on too."""

    src: int
    dst: int
    demand: float = 5.0  # Mbps the route must carry on every link
    weights: Weights = DEFAULT_WEIGHTS

    def __post_init__(self):
        if not (is_int(self.src) and is_int(self.dst)):
            raise ValueError(f"src and dst must be ints, got {self.src!r}, {self.dst!r}")
        object.__setattr__(self, "demand", check_demand(self.demand))
        check_weights(self.weights)


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
    below 1. The search calls it once per predecessor link it weighs.
    """
    return (w.delay * link.delay
            + w.jitter * link.jitter
            + w.loss * -math.log1p(-link.loss))


@dataclass(frozen=True)
class SpanningTree:
    """Predecessor tree of a layered search from `root`.

    label maps every reached node to its final (hops, cost); parent maps
    every reached node except the root to its predecessor, which defines the
    tree. dst is the destination the search was built for: the tree labels
    the root and, if the gate lets it reach dst, every node on dst's min-hop
    gated paths, as a search of the root's whole gated component labels
    them; it answers only for dst. Tree paths are loop-free by
    construction. relaxations counts the predecessor links the search
    costed: the gated links between consecutive labelled layers, each at
    most once. It depends only on the labelled nodes, not on how the
    bitset layers that find them grow.
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


def _reach(gate, bits: int) -> int:
    """The gated neighbours of the nodes in `bits`: the OR of their masks."""
    reach = 0
    while bits:
        u = bits.bit_length() - 1
        bits ^= 1 << u
        reach |= gate[u]
    return reach


def build_spanning_tree(t: Topology, root: int, w: Weights, gate,
                        dst: int) -> SpanningTree:
    """Minimum (hops, cost) labels from `root` on dst's min-hop paths, one
    hop layer at a time.

    Only the links of `gate` are crossed: gate[v] is v's neighbour bitset
    over the links with bandwidth >= the demand, as t.gate(demand) or
    t.indexed_gate(demand) gives it, which check the demand (demand 0
    crosses every link, as on a topology pruned beforehand). Hops compare
    first, so a node's hop count is its breadth-first layer: a node first
    reached from layer k joins layer k+1 under the neighbour u in layer k
    with the smallest (cost_u + edge_cost, u), ties thus going to the
    smaller id. root and dst must pass check_node and w check_weights, else
    ValueError.

    Meet: bitset hop layers grow from root and from dst (bidirectional
    search, Pohl 1971, over bitmap frontiers, Beamer et al. 2012), each
    step on the side whose last layer has fewer nodes (root on a tie), each
    layer the OR of the last one's gate masks less the nodes that side has
    seen. The first new layer that touches the other side's seen set meets
    it in `meet`: the nodes of dst's min-hop paths at that hop count, which
    lie in both sides' last layers. A side that runs
    dry first refuses. Walk: from `meet`, each kept layer is the gated
    neighbours of the one before it, within root's layers towards root and
    within dst's towards dst; these are the nodes on dst's min-hop paths.
    Cost: layer by layer from root, each kept node weighs all its gated
    neighbours in the kept layer before, reading each link off its
    t.adjacency map, as a search of the whole gated component would, so it
    gets the same label and parent. Each node is labelled once and each
    link costed at most once, so the search is bounded whatever the
    topology.
    """
    check_node(root, t.n, "root")
    check_node(dst, t.n, "dst")
    check_weights(w)
    layers = ([1 << root], [1 << dst])  # hop layers from root and from dst
    seen = [1 << root, 1 << dst]
    meet = seen[0] & seen[1]
    while not meet:
        side = layers[0][-1].bit_count() > layers[1][-1].bit_count()
        frontier = _reach(gate, layers[side][-1]) & ~seen[side]
        if not frontier:
            return SpanningTree(root, dst, {}, {root: (0, 0.0)}, 0)
        layers[side].append(frontier)
        seen[side] |= frontier
        meet = frontier & seen[not side]
    # kept[h]: the nodes h hops from root on dst's min-hop paths
    kept = [meet]
    for layer in reversed(layers[0][:-1]):
        kept.append(_reach(gate, kept[-1]) & layer)
    kept.reverse()
    for layer in reversed(layers[1][:-1]):
        kept.append(_reach(gate, kept[-1]) & layer)
    label: dict[int, tuple[int, float]] = {root: (0, 0.0)}
    parent: dict[int, int] = {}
    relaxations = 0
    adjacency = t.adjacency
    for hops in range(1, len(kept)):
        before, layer = kept[hops - 1], kept[hops]
        while layer:
            low = layer & -layer
            v = low.bit_length() - 1
            layer ^= low
            links = adjacency[v]
            bits = gate[v] & before
            best = None
            # lowest bit first: u ascending, so strict < keeps the smaller u
            # on a tie
            while bits:
                low = bits & -bits
                u = low.bit_length() - 1
                bits ^= low
                cost = label[u][1] + edge_cost(links[u], w)
                if best is None or cost < best:
                    best, pred = cost, u
                relaxations += 1
            label[v] = (hops, best)
            parent[v] = pred
    return SpanningTree(root, dst, parent, label, relaxations)


def select_route(t: Topology, req: RouteRequest) -> RouteOutcome:
    """Route a request: search from req.src over the links that carry
    req.demand for req.dst's min-hop paths alone (build_spanning_tree, over
    t.indexed_gate: the demand changes from request to request), then
    classify the outcome on that tree.

    Returns a Route when the destination is reached over such links,
    NoSufficientBandwidth when t.components puts it in the source's
    component, and Unreachable otherwise. Routing failures are outcomes;
    only bad input raises ValueError.
    """
    tree = build_spanning_tree(t, req.src, req.weights,
                               t.indexed_gate(req.demand), req.dst)
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
