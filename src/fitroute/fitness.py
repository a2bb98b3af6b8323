"""Fitness-estimation router: bandwidth gating plus loop-free path search.

Bandwidth is a hard constraint, not a cost term: links that cannot carry the
requested demand are pruned before any search runs, which is what gives the
engine its bandwidth guarantee. The remaining QoS attributes (delay, jitter,
loss) are folded into an additive edge cost, and paths minimise the
lexicographic label (hops, cost). The search expands one hop layer at a time,
each newly reached node taking its cheapest predecessor in the layer before.
Every node is labelled once, so the search ends after at most n labels, and
its predecessor pointers form a spanning tree of the reachable component,
which makes routing loops structurally impossible.

Loss enters the cost as -ln(1 - loss) so that multiplicative path delivery
probability becomes additive, keeping the path cost an exact sum.
A path's fitness is 1 / (1 + cost): 1 for a free path, approaching 0 as the
accumulated cost grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Union

from .topology import QosLink, Topology, bfs_hops, feasible_subgraph


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

    Bandwidth is deliberately absent: it is enforced by pruning, never
    traded off against the other attributes. QosLink keeps loss below 1.
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
    tree. Tree paths are loop-free by construction. relaxations counts edge
    examinations, bounded by twice the link count.
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


def build_spanning_tree(t: Topology, root: int, w: Weights) -> SpanningTree:
    """Minimum (hops, cost) labels from `root`, one hop layer at a time.

    Hops compare first, so a node's hop count is its breadth-first layer: a
    node first reached from layer k joins layer k+1 under the neighbour u in
    layer k with the smallest (cost_u + edge_cost, u), ties thus going to
    the smaller id. Each node is labelled once and each link examined at
    most twice, so the search is bounded whatever the topology.
    """
    if not 0 <= root < t.n:
        raise ValueError(f"root {root} outside [0, {t.n})")
    label: dict[int, tuple[int, float]] = {root: (0, 0.0)}
    parent: dict[int, int] = {}
    layer = [root]
    relaxations = 0
    while layer:
        reached: dict[int, tuple[float, int]] = {}
        for u in layer:  # ascending, so strict < keeps the smaller u on a tie
            hops, cost_u = label[u]
            for v, link in t.adjacency(u):
                relaxations += 1
                if v not in label:
                    cost = cost_u + edge_cost(link, w)
                    if v not in reached or cost < reached[v][0]:
                        reached[v] = (cost, u)
        for v, (cost, u) in reached.items():
            label[v] = (hops + 1, cost)
            parent[v] = u
        layer = sorted(reached)
    return SpanningTree(root, parent, label, relaxations)


def select_route(t: Topology, req: RouteRequest) -> RouteOutcome:
    """Route a request: prune infeasible links, search, classify the result.

    Returns a Route when the destination is reached in the pruned graph,
    NoSufficientBandwidth when it is reachable only in the unpruned
    topology, and Unreachable otherwise. Routing failures are outcomes; only
    bad input raises ValueError (see classify_outcome).
    """
    n = t.n
    if not (0 <= req.src < n and 0 <= req.dst < n):
        raise ValueError(f"query ({req.src}, {req.dst}) outside [0, {n})")
    pruned = feasible_subgraph(t, req.demand)
    tree = build_spanning_tree(pruned, req.src, req.weights)
    return classify_outcome(t, tree, req)


def classify_outcome(t: Topology, tree: SpanningTree, req: RouteRequest,
                     components: list[int] | None = None) -> RouteOutcome:
    """Turn a search from req.src over the pruned graph into a RouteOutcome.

    Routes come from the tree labels. An unreached destination is refused
    when `t` connects it to the source: `components` (component_ids of `t`)
    tells, else one BFS from the root. Finite weights and attributes can
    still sum to an infinite cost, which raises ValueError.
    """
    if tree.settled(req.dst):
        hops, cost = tree.label[req.dst]
        if not math.isfinite(cost):
            raise ValueError(
                f"route cost {req.src}->{req.dst} overflows to {cost}: the "
                f"weights {req.weights} times the delay, jitter and loss "
                f"ranges of the links exceed the float range")
        return Route(tuple(tree.path_to(req.dst)), hops, cost, 1 / (1 + cost))
    if components is None:
        reachable = req.dst in bfs_hops(t, tree.root)
    else:
        reachable = components[tree.root] == components[req.dst]
    return NO_SUFFICIENT_BANDWIDTH if reachable else UNREACHABLE
