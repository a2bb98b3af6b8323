"""Deterministic QoS routing simulator.

Two engines over the same random topologies: a classical hop-count
distance-vector baseline (complete with its count-to-infinity pathology) and
a fitness-estimation router that never crosses bandwidth-infeasible links and
picks loop-free minimum-(hops, cost) paths from a spanning tree built one hop
layer at a time. The experiment harness runs paired queries over both and
verifies the routing claims against independent BFS oracles.

The package exports the library API the README documents; everything else is
imported from its module: fitroute.topology, .dv, .fitness, .experiment and
.cli.
"""

from .topology import GenParams, QosLink, Topology, generate_topology
from .fitness import (
    NoSufficientBandwidth,
    Route,
    RouteRequest,
    Unreachable,
    Weights,
    select_route,
)
from .experiment import ExperimentConfig, run_comparison

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "GenParams",
    "QosLink",
    "Topology",
    "Weights",
    "RouteRequest",
    "Route",
    "NoSufficientBandwidth",
    "Unreachable",
    "generate_topology",
    "run_comparison",
    "select_route",
]
