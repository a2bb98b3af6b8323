"""Fitness-estimation router: bandwidth gating plus loop-free path search.

Bandwidth is a hard constraint, not a cost term: the search never crosses a
link that cannot carry the requested demand, which is what gives the engine
its bandwidth guarantee. The search reads that gate as one neighbour bitset
per node, gate[v] (v's neighbours over the links that carry the demand), so
no pruned topology is built: a compare builds one list of them per run
(Topology.gate), and select_route reads a request's off the topology's
bandwidth index (IndexedMasks). The remaining QoS attributes
(delay, jitter, loss) are folded into an additive edge cost, and paths
minimise the lexicographic label (hops, cost). The search expands one hop
layer at a time, each newly reached node taking its cheapest predecessor in
the layer before; a link is costed when a node weighs it as a predecessor
link, so a search costs only the links between the layers of its route.
Every node is labelled once, so the search ends after at most n labels, and
its predecessor pointers form a tree, which makes routing loops structurally
impossible. A route needs only its destination's cost and parent chain, so
`route` reads them straight off the search (a request through select_route,
a compare row directly) and builds no tree; build_spanning_tree is the
checked tree API over the same search, for the tests and for inspection.
Every route, of one request or of a compare row, comes from one
search: it is built for one destination and costs only the nodes on that
destination's min-hop gated paths, found by bitset hop layers (bitmap
frontiers, Beamer, Asanovic & Patterson, SC 2012) stepped from both the root
and the destination until they meet (bidirectional search, Pohl,
Machine Intelligence 6, 1971). Each search grows its own layers and keeps
nothing after it returns. Those nodes get the labels and parents a search
of the root's whole gated component would give them; the tests keep such a
full search as their reference. The topology's component labels, computed
once, tell a refusal from an unreachable verdict.

Loss enters the cost as -ln(1 - loss) so that multiplicative path delivery
probability becomes additive, keeping the path cost an exact sum.
A path's fitness is 1 / (1 + cost): 1 for a free path, approaching 0 as the
accumulated cost grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Union

from .topology import (IndexedMasks, Topology, check_demand, check_node,
                       is_int, is_number)
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


def edge_cost(delay: float, jitter: float, loss: float, w: Weights) -> float:
    """w.delay*delay + w.jitter*jitter + w.loss*(-ln(1-loss)), a link's cost.

    Bandwidth is deliberately absent: it gates which links a search may
    cross, never traded off against the other attributes. QosLink keeps loss
    below 1. The search calls it once per predecessor link it weighs.
    """
    return (w.delay * delay
            + w.jitter * jitter
            + w.loss * -math.log1p(-loss))


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


def _reach(masks, bits: int) -> int:
    """The gated neighbours of the nodes in `bits`: the OR of their masks."""
    reach = 0
    while bits:
        u = bits.bit_length() - 1
        bits ^= 1 << u
        reach |= masks[u]
    return reach


def _search(t: Topology, root: int, w: Weights, gate: list[int] | IndexedMasks,
            dst: int) -> tuple[list[int], dict[int, float], dict[int, int]]:
    """The search that build_spanning_tree and route share, unchecked: root
    and dst must be node ids of t, w a Weights and gate[v] node v's gated
    neighbour bitset, as Topology.gate or IndexedMasks gives it.
    Returns (kept, cost, parent): kept[h] is the bitset of the labelled
    nodes h hops from root, cost maps each labelled node to its path cost
    and parent each but root to its predecessor, both in label order (hop
    layer by hop layer, ids ascending). A refusal labels the root alone.

    Meet: bitset hop layers step from root and from dst, one layer a step
    (bidirectional search, Pohl 1971, over bitmap frontiers, Beamer et al.
    2012). Each step grows the side whose last layer has fewer nodes, root
    on a tie, and tests the new layer against the other side's last layer
    alone, which is exact: with root's side at layer i and dst's at layer
    j, each step adds one to i + j, no layer of one side overlaps one of
    the other while i + j is below the hop distance, and once it reaches it
    the two last layers overlap in the nodes of dst's min-hop paths i hops
    from root. They form `meet`. A side that runs dry first refuses.

    Walk: from `meet`, each kept layer is the gated neighbours of the one
    before it, within root's layers towards root and within dst's towards
    dst, both starting from meet's neighbours; these are the nodes on dst's
    min-hop paths, whichever i and j the sides met at.

    Cost: layer by layer from root, each kept node weighs all its gated
    neighbours in the kept layer before, reading each link's index off its
    t.adjacency map and its attributes off t's columns, as a search of the
    whole gated component would, so it gets the same label and parent.
    Layer 1's only such neighbour is root, so its nodes take root's link
    with no mask read. Each node is labelled once and each link costed at
    most once, so the search is bounded whatever the topology.
    """
    out, back = [1 << root], [1 << dst]  # hop layers from root and from dst
    meet = out[0] & back[0]
    while not meet:
        if out[-1].bit_count() <= back[-1].bit_count():
            layers, other = out, back[-1]
        else:
            layers, other = back, out[-1]
        # every neighbour of the last layer lies in the one before it, in it
        # or in the new one, so an undirected BFS needs no seen set
        last = layers[-1]
        frontier = _reach(gate, last) & ~(last | layers[-2] if len(layers) > 1
                                          else last)
        if not frontier:
            return [1 << root], {root: 0.0}, {}
        layers.append(frontier)
        meet = frontier & other
    i, j = len(out) - 1, len(back) - 1
    # kept[h]: the nodes h hops from root on dst's min-hop paths, each side's
    # layers narrowed to them from meet outwards; layer 0 of either side
    # holds its own node alone
    kept = out[:i] + [meet] + back[:j][::-1]
    near = _reach(gate, meet) if i > 1 or j > 1 else 0
    for h in range(i - 1, 0, -1):
        kept[h] &= near if h == i - 1 else _reach(gate, kept[h + 1])
    for h in range(i + 1, i + j):
        kept[h] &= near if h == i + 1 else _reach(gate, kept[h - 1])
    cost = {root: 0.0}
    parent: dict[int, int] = {}
    adjacency, delay, jitter, loss = t.adjacency, t.delay, t.jitter, t.loss
    layer = kept[1] if i + j else 0
    links = adjacency[root]
    while layer:
        low = layer & -layer
        v = low.bit_length() - 1
        layer ^= low
        # root's cost plus the link, as for any layer: a link whose
        # attributes are all -0.0 costs -0.0, and its route 0.0
        k = links[v]
        cost[v] = 0.0 + edge_cost(delay[k], jitter[k], loss[k], w)
        parent[v] = root
    for hops in range(2, len(kept)):
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
                k = links[u]
                c = cost[u] + edge_cost(delay[k], jitter[k], loss[k], w)
                if best is None or c < best:
                    best, pred = c, u
            cost[v] = best
            parent[v] = pred
    return kept, cost, parent


def build_spanning_tree(t: Topology, root: int, w: Weights,
                        gate: list[int] | IndexedMasks, dst: int) -> SpanningTree:
    """Minimum (hops, cost) labels from `root` on dst's min-hop paths, one
    hop layer at a time: the checked tree over the search route runs.

    Only the links of `gate` are crossed: gate[v] is v's neighbour
    bitset over the links with bandwidth >= the demand, as t.gate(demand),
    which checks the demand, or an IndexedMasks gives it (demand 0 crosses
    every link, as on a topology pruned beforehand). Hops compare
    first, so a node's hop count is its breadth-first layer: a node first
    reached from layer k joins layer k+1 under the neighbour u in layer k
    with the smallest (cost_u + edge_cost, u), ties thus going to the
    smaller id. The search (_search) meets bitset hop layers stepped from
    root and from dst, keeps the layers of dst's min-hop paths and costs
    them; the tree's labels pair each kept node's layer with its cost, and
    relaxations, the gated links between consecutive kept layers, is
    counted off those layers and the gate. root and dst must pass
    check_node and w check_weights, else ValueError.
    """
    check_node(root, t.n, "root")
    check_node(dst, t.n, "dst")
    check_weights(w)
    kept, cost, parent = _search(t, root, w, gate, dst)
    label: dict[int, tuple[int, float]] = {}
    relaxations = 0
    before = 0
    for hops, layer in enumerate(kept):
        nodes = layer
        while nodes:
            low = nodes & -nodes
            v = low.bit_length() - 1
            nodes ^= low
            label[v] = (hops, cost[v])
            relaxations += (gate[v] & before).bit_count()
        before = layer
    return SpanningTree(root, dst, parent, label, relaxations)


def _outcome(t: Topology, root: int, dst: int, cost: float | None,
             parent: dict[int, int]) -> RouteOutcome:
    """dst's outcome after a search from root that gave dst `cost` (None
    when it left dst unlabelled) and `parent` pointers: a Route along dst's
    parents, else a refusal when t.components puts dst in root's
    component, else Unreachable. ValueError when the cost overflows."""
    if cost is None:
        reachable = t.components[root] == t.components[dst]
        return NO_SUFFICIENT_BANDWIDTH if reachable else UNREACHABLE
    if not math.isfinite(cost):
        raise ValueError(
            f"route cost {root}->{dst} overflows to {cost}: the weights times "
            f"the delay, jitter and loss ranges of the links exceed the float range")
    path = [dst]
    v = dst
    while v != root:
        v = parent[v]
        path.append(v)
    path.reverse()
    return Route(tuple(path), len(path) - 1, cost, 1 / (1 + cost))


def route(t: Topology, root: int, w: Weights, gate: list[int] | IndexedMasks,
          dst: int) -> RouteOutcome:
    """The outcome for dst of one search from root over `gate`, the search
    build_spanning_tree runs, with no tree built: a Route when the gate
    lets root reach dst, NoSufficientBandwidth when t.components puts dst
    in root's component, and Unreachable otherwise; ValueError when the
    route's cost overflows. Unchecked, as its callers check their inputs
    once: root and dst must be node ids of t and w a Weights."""
    _, cost, parent = _search(t, root, w, gate, dst)
    return _outcome(t, root, dst, cost.get(dst), parent)


def select_route(t: Topology, req: RouteRequest) -> RouteOutcome:
    """Route a request: search from req.src over the links that carry
    req.demand for req.dst's min-hop paths alone (route, over the masks
    IndexedMasks reads off t.bandwidth_index: the demand changes from
    request to request).

    Returns a Route when the destination is reached over such links,
    NoSufficientBandwidth when t.components puts it in the source's
    component, and Unreachable otherwise. Routing failures are outcomes;
    only bad input raises ValueError: RouteRequest has checked the ids,
    the demand and the weights, so only the ids' range is checked here.
    """
    src, dst, n = req.src, req.dst, t.n
    if not (0 <= src < n and 0 <= dst < n):
        raise ValueError(
            f"src and dst must be node ids in [0, {n}), got {src!r}, {dst!r}")
    return route(t, src, req.weights,
                 IndexedMasks(t.bandwidth_index, -req.demand), dst)


def classify_outcome(t: Topology, tree: SpanningTree) -> RouteOutcome:
    """Read the outcome for tree.dst off a tree built on `t`: the source is
    tree.root and the demand is the tree's gate, so none of the three can
    disagree with it.

    A labelled dst yields its tree path as a Route; an unlabelled one is
    refused when t.components puts it in the root's component, else it is
    unreachable. ValueError when the path cost overflows. route gives the
    same outcome with no tree.
    """
    label = tree.label.get(tree.dst)
    return _outcome(t, tree.root, tree.dst,
                    None if label is None else label[1], tree.parent)
