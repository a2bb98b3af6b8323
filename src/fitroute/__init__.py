"""Deterministic QoS routing simulator.

Two engines over the same random topologies: a classical hop-count
distance-vector baseline (complete with its count-to-infinity pathology) and
a fitness-estimation router that prunes bandwidth-infeasible links and picks
loop-free minimum-(hops, cost) paths from a spanning tree built one hop layer
at a time. The experiment harness runs paired queries over both and verifies
the routing claims against independent BFS oracles.
"""

from .topology import (
    DEFAULT_GEN_PARAMS,
    GenParams,
    QosLink,
    SplitMix64,
    Topology,
    bfs_hops,
    feasible_subgraph,
    format_topology,
    generate_topology,
    generate_topology_rng,
    is_connected,
    parse_topology,
    remove_link,
    topology_fingerprint,
)
from .dv import (
    DvState,
    DvTrace,
    converge,
    exchange_round,
    extract_path,
    fail_link_and_trace,
    format_trace,
    init_tables,
)
from .fitness import (
    DEFAULT_WEIGHTS,
    NO_SUFFICIENT_BANDWIDTH,
    UNREACHABLE,
    NoSufficientBandwidth,
    Route,
    RouteOutcome,
    RouteRequest,
    SpanningTree,
    Unreachable,
    Weights,
    build_spanning_tree,
    edge_cost,
    path_fitness,
    select_route,
)
from .experiment import (
    ComparisonReport,
    ComparisonRow,
    ExperimentConfig,
    Summary,
    Violation,
    emit_plot_series,
    render_table,
    report_to_json,
    run_comparison,
    verify_claims,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_GEN_PARAMS",
    "DEFAULT_WEIGHTS",
    "NO_SUFFICIENT_BANDWIDTH",
    "UNREACHABLE",
    "ComparisonReport",
    "ComparisonRow",
    "DvState",
    "DvTrace",
    "ExperimentConfig",
    "GenParams",
    "NoSufficientBandwidth",
    "QosLink",
    "Route",
    "RouteOutcome",
    "RouteRequest",
    "SpanningTree",
    "SplitMix64",
    "Summary",
    "Topology",
    "Unreachable",
    "Violation",
    "Weights",
    "bfs_hops",
    "build_spanning_tree",
    "converge",
    "edge_cost",
    "emit_plot_series",
    "exchange_round",
    "extract_path",
    "fail_link_and_trace",
    "feasible_subgraph",
    "format_topology",
    "format_trace",
    "generate_topology",
    "generate_topology_rng",
    "init_tables",
    "is_connected",
    "parse_topology",
    "path_fitness",
    "remove_link",
    "render_table",
    "report_to_json",
    "run_comparison",
    "select_route",
    "topology_fingerprint",
    "verify_claims",
]
