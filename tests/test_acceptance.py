"""Acceptance suite: the routing claims as machine-checked properties.

Each test covers one exit criterion at its stated tolerance and prints a
one-line verdict (visible under `pytest -s`). Criteria 2-4 share one suite:
100 seeded 64-node topologies with 50 queries each at demand 5 Mbps, half
generated with the default attribute ranges and half with a tight 1-7 Mbps
bandwidth range so that bandwidth refusals actually occur (with the default
1-100 Mbps range, pruning at demand 5 never disconnects anything).
"""

import io
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from fitroute import (
    ExperimentConfig,
    GenParams,
    QosLink,
    Route,
    RouteRequest,
    Topology,
    NoSufficientBandwidth,
    Unreachable,
    generate_topology,
    run_comparison,
    select_route,
)
from fitroute.dv import converge, fail_link_and_trace
from fitroute.fitness import build_spanning_tree
from fitroute.topology import bfs_hops, feasible_subgraph, remove_link
from fitroute.cli import run_cli
from fitroute.experiment import PLOT_HEADER, REFUSAL_TEXT, emit_plot_series, render_table

GOLDEN = Path(__file__).parent / "golden"

SUITE_DEMAND = 5.0
SUITE_QUERIES = 50
SUITE_N = 64
DEFAULT_GEN = GenParams()
TIGHT_GEN = GenParams(bandwidth_range=(1.0, 7.0))


@pytest.fixture(scope="module")
def suite():
    """The shared criterion 2-4 suite: (runs, build_seconds), one
    (config, topology, report) triple per seeded experiment."""
    started = time.perf_counter()
    runs = []
    for group, gen in ((0, DEFAULT_GEN), (1, TIGHT_GEN)):
        for seed in range(50):
            cfg = ExperimentConfig(
                n=SUITE_N, seed=1000 * group + seed, gen=gen,
                query_count=SUITE_QUERIES, demand=SUITE_DEMAND)
            t = generate_topology(cfg.n, cfg.gen, cfg.seed)
            runs.append((cfg, t, run_comparison(cfg, t)))
    return runs, time.perf_counter() - started


def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    checked_pairs = 0
    for seed in range(200):
        n = 2 + seed % 15
        t = generate_topology(n, DEFAULT_GEN, seed)
        state, _ = converge(t, 16)
        pruned = feasible_subgraph(t, SUITE_DEMAND)
        gate = t.gate(SUITE_DEMAND)
        for src in range(n):
            oracle = bfs_hops(t, src)
            pruned_oracle = bfs_hops(pruned, src)
            for dst in range(n):
                tree = build_spanning_tree(t, src, ExperimentConfig().weights,
                                           gate, dst)
                assert state.metric(src, dst) == oracle[dst]
                if dst in tree.label:  # and every node on its min-hop paths
                    assert all(hops == pruned_oracle[v]
                               for v, (hops, _) in tree.label.items())
                else:
                    assert dst not in pruned_oracle
                checked_pairs += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"criterion 1 PASS: dv and fitness hop counts match the BFS "
          f"oracles on {checked_pairs} pairs across 200 topologies "
          f"({elapsed:.1f}s)")


def test_criterion_2_bandwidth_assurance(suite):
    runs, build_seconds = suite
    started = time.perf_counter()
    routes = 0
    for cfg, t, report in runs:
        assert report.summary.violations == ()
        for row in report.rows:
            if isinstance(row.ff, Route):
                routes += 1
                for u, v in zip(row.ff.path, row.ff.path[1:]):
                    k = t.adjacency[u].get(v)
                    assert k is not None
                    assert t.bandwidth[k] >= cfg.demand
    elapsed = build_seconds + time.perf_counter() - started
    assert elapsed < 30.0
    print(f"criterion 2 PASS: all {routes} returned routes carry the "
          f"demand on every link, zero violations ({elapsed:.1f}s incl. "
          f"suite build)")


def test_criterion_3_refusal_soundness(suite):
    runs, _ = suite
    refusals = 0
    for cfg, t, report in runs:
        pruned = feasible_subgraph(t, cfg.demand)
        for row in report.rows:
            if isinstance(row.ff, NoSufficientBandwidth):
                refusals += 1
                assert row.dst in bfs_hops(t, row.src)
                assert row.dst not in bfs_hops(pruned, row.src)
    assert refusals >= 1
    print(f"criterion 3 PASS: {refusals} bandwidth refusals, every one "
          f"confirmed reachable unpruned and unreachable pruned")


def test_criterion_4_hop_dominance(suite):
    runs, _ = suite
    conditional = leq = gt = 0
    for cfg, t, report in runs:
        for row in report.rows:
            if isinstance(row.ff, Route) and row.dv_hops is not None:
                if row.ff.hops <= row.dv_hops:
                    leq += 1
                else:
                    gt += 1
            if row.dv_path is None:
                continue
            feasible = all(t.bandwidth[t.adjacency[u][v]] >= cfg.demand
                           for u, v in zip(row.dv_path, row.dv_path[1:]))
            if feasible:
                conditional += 1
                assert isinstance(row.ff, Route)
                assert row.ff.hops <= row.dv_hops
    assert conditional > 0
    print(f"criterion 4 PASS: fitness hops <= dv hops on all {conditional} "
          f"queries with a bandwidth-feasible dv path; unconditional "
          f"comparison: {leq} <=, {gt} > (dv path infeasible)")


def test_criterion_5_loop_freedom(suite):
    runs, _ = suite
    paths = trees = 0
    for cfg, t, report in runs:
        for row in report.rows:
            for path in (row.dv_path,
                         row.ff.path if isinstance(row.ff, Route) else None):
                if path is not None:
                    paths += 1
                    assert len(set(path)) == len(path)
    for cfg, t, report in runs[::10]:
        gate = t.gate(cfg.demand)
        for row in report.rows:  # the tree each row's route was read off
            tree = build_spanning_tree(t, row.src, cfg.weights, gate, row.dst)
            trees += 1
            assert set(tree.parent) == set(tree.label) - {tree.root}
            for node in tree.label:
                seen = set()
                while node != tree.root:
                    assert node not in seen
                    seen.add(node)
                    node = tree.parent[node]
                assert len(seen) <= len(tree.label)
    print(f"criterion 5 PASS: {paths} paths simple, {trees} spanning-tree "
          f"parent maps acyclic")


def test_criterion_6_count_to_infinity_contrast():
    line = Topology(3, (QosLink(0, 1, 10.0, 1.0, 0.0, 0.0),
                        QosLink(1, 2, 10.0, 1.0, 0.0, 0.0)))
    trace = fail_link_and_trace(line, 1, 2, probe=0, dest=2)
    expected = [2, 4, 4, 6, 6, 8, 8, 10, 10, 12, 12, 14, 14, 16]
    assert trace.entries == tuple(enumerate(expected, start=1))
    assert trace.entries[-1] == (14, 16)  # capped at infinity 16 by round 14

    failed = remove_link(line, 1, 2)
    outcome = select_route(failed, RouteRequest(0, 2, SUITE_DEMAND))
    assert isinstance(outcome, Unreachable)
    tree = build_spanning_tree(failed, 0, ExperimentConfig().weights,
                               failed.gate(SUITE_DEMAND), 2)
    assert len(tree.label) <= failed.n
    assert tree.relaxations <= 2 * len(failed.links)
    print("criterion 6 PASS: dv counts 2,4,4,...,16 capping at round 14; "
          "fitness answers unreachable in one bounded search "
          f"({len(tree.label)} settlements)")


def test_criterion_7_scale_and_determinism():
    argv = ["compare", "--nodes", "64", "--queries", "1000", "--format", "json"]
    outputs = []
    timings = []
    for _ in range(2):
        buf = io.StringIO()
        started = time.perf_counter()
        with redirect_stdout(buf):
            code = run_cli(list(argv))
        timings.append(time.perf_counter() - started)
        assert code == 0
        outputs.append(buf.getvalue())
    assert outputs[0] == outputs[1]
    assert max(timings) < 1.0
    print(f"criterion 7 PASS: 64 nodes x 1000 queries in "
          f"{max(timings) * 1000:.0f}ms, byte-identical across runs")


def _golden_report():
    t = Topology(4, (
        QosLink(0, 1, 10.0, 1.0, 0.0, 0.0),
        QosLink(1, 2, 10.0, 1.0, 0.0, 0.0),
        QosLink(0, 3, 2.0, 1.0, 0.0, 0.0),
    ))
    cfg = ExperimentConfig(n=4, explicit_queries=((0, 2), (0, 3), (3, 1)),
                           demand=4.0)
    return run_comparison(cfg, t)


def test_criterion_8_report_fidelity():
    report = _golden_report()
    dv = render_table(report, "dv")
    ff = render_table(report, "ff")
    csv = emit_plot_series(report)

    assert dv == (GOLDEN / "table_dv.txt").read_text()
    assert ff == (GOLDEN / "table_ff.txt").read_text()
    assert csv == (GOLDEN / "plot_series.csv").read_text()

    # the load-bearing literals, independent of the frozen layout
    assert "0->1->2" in dv
    assert REFUSAL_TEXT in ff
    ff_refusal_cells = [c.strip() for c in ff.splitlines()[3].split("  ")
                        if c.strip()]
    assert "-" in ff_refusal_cells
    lines = csv.splitlines()
    assert lines[0] == PLOT_HEADER
    assert lines[1] == "1,0,2,2,2,route"
    assert lines[2] == "2,0,3,1,,no_bandwidth"
    print("criterion 8 PASS: tables and plot CSV match the golden files "
          "byte for byte")
