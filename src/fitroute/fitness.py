"""Fitness-estimation router: bandwidth gating plus loop-free path search.

Bandwidth is a hard constraint, not a cost term: the search never crosses a
link that cannot carry the requested demand, which is what gives the engine
its bandwidth guarantee. The search applies that gate itself, skipping such
links as it scans each adjacency list, so no pruned topology is built. The
remaining QoS attributes (delay, jitter, loss) are folded into an additive
edge cost, and paths minimise the lexicographic label (hops, cost). The
search expands one hop layer at a time, each newly reached node taking its
cheapest predecessor in the layer before.
Every node is labelled once, so the search ends after at most n labels, and
its predecessor pointers form a spanning tree of the reachable component,
which makes routing loops structurally impossible. A search given a
destination stops once the destination's layer is labelled. The topology's
component labels, computed once, tell a refusal from an unreachable verdict.

Loss enters the cost as -ln(1 - loss) so that multiplicative path delivery
probability becomes additive, keeping the path cost an exact sum.
A path's fitness is 1 / (1 + cost): 1 for a free path, approaching 0 as the
accumulated cost grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Union

from .topology import QosLink, Topology
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
        if not 0 <= self.demand < math.inf:
            raise ValueError(f"demand must be finite and >= 0, got {self.demand}")


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
    below 1.
    """
    return (w.delay * link.delay
            + w.jitter * link.jitter
            + w.loss * -math.log1p(-link.loss))


def path_fitness(path: list[int] | tuple[int, ...], t: Topology,
                 w: Weights) -> tuple[float, float]:
    """(cost, fitness) of a concrete path: cost sums edge costs left to
    right, fitness = 1/(1+cost). A single-node path costs 0 (fitness 1)."""
    cost = 0.0
    for u, v in zip(path, path[1:]):
        link = t.link_between(u, v)
        if link is None:
            raise ValueError(f"path step {u}-{v} is not a link")
        cost += edge_cost(link, w)
    return cost, 1.0 / (1.0 + cost)


@dataclass(frozen=True)
class SpanningTree:
    """Predecessor tree of a layered search from `root`.

    label maps every reached node to its final (hops, cost); parent maps
    every reached node except the root to its predecessor, which defines the
    tree. A tree built for one destination labels only the layers up to and
    including the destination's. Tree paths are loop-free by construction.
    relaxations counts adjacency entries examined, bounded by twice the link
    count.
    """

    root: int
    parent: dict[int, int]
    label: dict[int, tuple[int, float]]
    relaxations: int

    def settled(self, node: int) -> bool:
        return node in self.label

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


def build_spanning_tree(t: Topology, root: int, w: Weights,
                        demand: float = 0.0,
                        dst: int | None = None) -> SpanningTree:
    """Minimum (hops, cost) labels from `root`, one hop layer at a time.

    Only links with bandwidth >= demand are crossed (demand 0 crosses every
    link, as on a topology pruned beforehand). Hops compare first, so a
    node's hop count is its breadth-first layer: a node first reached from
    layer k joins layer k+1 under the neighbour u in layer k with the smallest
    (cost_u + edge_cost, u), ties thus going to the smaller id. A layer is
    final once labelled, so the search stops as soon as `dst` is labelled;
    with dst None it labels the whole reachable component. Each node is
    labelled once and each link examined at most twice, so the search is
    bounded whatever the topology.
    """
    if not 0 <= root < t.n:
        raise ValueError(f"root {root} outside [0, {t.n})")
    label: dict[int, tuple[int, float]] = {root: (0, 0.0)}
    parent: dict[int, int] = {}
    layer = [root]
    relaxations = 0
    while layer and dst not in label:
        reached: dict[int, tuple[float, int]] = {}
        for u in layer:  # ascending, so strict < keeps the smaller u on a tie
            hops, cost_u = label[u]
            adj = t.adjacency(u)
            relaxations += len(adj)
            for v, link in adj:
                if v not in label and link.bandwidth >= demand:
                    cost = cost_u + edge_cost(link, w)
                    if v not in reached or cost < reached[v][0]:
                        reached[v] = (cost, u)
        for v, (cost, u) in reached.items():
            label[v] = (hops + 1, cost)
            parent[v] = u
        layer = sorted(reached)
    return SpanningTree(root, parent, label, relaxations)


def select_route(t: Topology, req: RouteRequest) -> RouteOutcome:
    """Route a request: search over the links that carry the demand, up to
    the destination's layer, then classify the result.

    Returns a Route when the destination is reached over such links,
    NoSufficientBandwidth when t.components puts it in the source's
    component, and Unreachable otherwise. Routing failures are outcomes;
    only bad input raises ValueError (see classify_outcome).
    """
    n = t.n
    if not (0 <= req.src < n and 0 <= req.dst < n):
        raise ValueError(f"query ({req.src}, {req.dst}) outside [0, {n})")
    tree = build_spanning_tree(t, req.src, req.weights, req.demand, req.dst)
    return classify_outcome(t, tree, req)


def classify_outcome(t: Topology, tree: SpanningTree,
                     req: RouteRequest) -> RouteOutcome:
    """Turn a search from req.src over the links that carry req.demand into
    a RouteOutcome.

    Routes come from the tree labels. An unreached destination is refused
    when it shares the source's component of `t` (t.components), else it is
    unreachable. Finite weights and attributes can still sum to an infinite
    cost, which raises ValueError.
    """
    if tree.settled(req.dst):
        hops, cost = tree.label[req.dst]
        if not math.isfinite(cost):
            raise ValueError(
                f"route cost {req.src}->{req.dst} overflows to {cost}: the "
                f"weights {req.weights} times the delay, jitter and loss "
                f"ranges of the links exceed the float range")
        return Route(tuple(tree.path_to(req.dst)), hops, cost, 1 / (1 + cost))
    reachable = t.components[tree.root] == t.components[req.dst]
    return NO_SUFFICIENT_BANDWIDTH if reachable else UNREACHABLE
