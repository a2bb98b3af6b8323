"""Small topology builders, topology strategies and the oracles shared
across the test modules."""

from hypothesis import strategies as st

from fitroute import GenParams, QosLink, Topology, Weights, generate_topology
from fitroute.fitness import edge_cost
from fitroute.topology import bfs_hops, remove_link


def line_topology(n: int, bandwidth: float = 10.0, delay: float = 1.0,
                  jitter: float = 0.0, loss: float = 0.0) -> Topology:
    """Chain 0-1-...-(n-1) with uniform attributes."""
    links = tuple(QosLink(i, i + 1, bandwidth, delay, jitter, loss)
                  for i in range(n - 1))
    return Topology(n, links)


def triangle_topology(bw01: float, bw12: float, bw02: float) -> Topology:
    """Triangle with chosen bandwidths and benign other attributes."""
    return Topology(3, (
        QosLink(0, 1, bw01, 1.0, 0.0, 0.0),
        QosLink(1, 2, bw12, 1.0, 0.0, 0.0),
        QosLink(0, 2, bw02, 1.0, 0.0, 0.0),
    ))


def square_topology() -> Topology:
    """0-1-2 cheap side (delay 1 per link) vs 0-3-2 dear side (delay 5)."""
    return Topology(4, (
        QosLink(0, 1, 10.0, 1.0, 0.0, 0.0),
        QosLink(1, 2, 10.0, 1.0, 0.0, 0.0),
        QosLink(0, 3, 10.0, 5.0, 0.0, 0.0),
        QosLink(2, 3, 10.0, 5.0, 0.0, 0.0),
    ))


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


def is_connected(t: Topology) -> bool:
    """True iff every node is reachable from node 0 (single node counts)."""
    return len(bfs_hops(t, 0)) == t.n


BANDWIDTHS = (1.0, 2.5, 5.0, 10.0)


@st.composite
def drawn_topologies(draw):
    """Up to 7 nodes over any link subset, often in several components; few
    distinct attribute values, so equal labels are common."""
    n = draw(st.integers(1, 7))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Topology(n, tuple(
        QosLink(a, b, draw(st.sampled_from(BANDWIDTHS)),
                draw(st.sampled_from((0.0, 1.0, 2.0))), 0.0,
                draw(st.sampled_from((0.0, 0.25))))
        for a, b in chosen))


@st.composite
def cut_topologies(draw):
    """A generated (connected) topology with up to three links removed."""
    t = generate_topology(draw(st.integers(2, 9)),
                          GenParams(edge_prob=0.2, bandwidth_range=(1.0, 10.0)),
                          seed=draw(st.integers(0, 2**16)))
    for _ in range(draw(st.integers(0, 3))):
        if t.links:
            link = draw(st.sampled_from(t.links))
            t = remove_link(t, link.a, link.b)
    return t
