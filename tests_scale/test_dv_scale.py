"""DV agreement at scale: the distance-vector engine against BFS at 1024
nodes (tests/helpers.py's check_dv_against_bfs).

DV convergence runs the synchronous exchange on reach bitsets and keeps
its metrics in bit planes; each next hop is read off the two low planes
(mod 4). From 64 sources, every metric must be the BFS hop count capped at
the infinity metric and every extracted path a walk over links of exactly
that length: at 1024 nodes dense and very sparse at infinity 16, and on a
1024-node chain at infinity 1024, whose 1022 rounds use all ten planes.
Each converge time is printed (-rP).

A count-to-infinity trace has no round cap: failing the chain's last link,
node 0 counts toward node 1023 for 1023 rounds and caps at the last,
within the infinity_metric rounds that bound every trace.

Outside the tier-1 testpaths; run from the repository root with
PYTHONPATH=src:tests python -m pytest -q tests_scale -rP
"""

import pytest

from fitroute import GenParams, QosLink, Topology, generate_topology
from fitroute.dv import fail_link_and_trace

from helpers import check_dv_against_bfs as check

CHAIN = Topology(1024, tuple(QosLink(i, i + 1, 10.0, 1.0, 0.0, 0.0)
                             for i in range(1023)))


@pytest.mark.parametrize("name, edge_prob, infinity", [
    ("dense", 0.15, 16), ("very sparse", 0.004, 16), ("chain", None, 1024),
])
def test_converge_equals_bfs(name, edge_prob, infinity):
    t = (CHAIN if edge_prob is None
         else generate_topology(1024, GenParams(edge_prob=edge_prob), 1))
    seconds, rounds = check(t, infinity)
    print(f"{name}: converge {seconds:.3f} s, {rounds} rounds at infinity {infinity}")


def test_chain_trace_counts_to_infinity():
    trace = fail_link_and_trace(CHAIN, 1022, 1023, 0, 1023, infinity_metric=1024)
    print("chain trace:", len(trace.entries), "rounds, last", trace.entries[-1])
    assert len(trace.entries) == 1023 and trace.entries[-1] == (1023, 1024)
