import dataclasses
import json
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from fitroute import (
    ExperimentConfig,
    GenParams,
    QosLink,
    Route,
    RouteRequest,
    Topology,
    generate_topology,
    run_comparison,
    select_route,
)
from fitroute import experiment
from fitroute.experiment import (
    CLAIM_BANDWIDTH,
    CLAIM_DOMINANCE,
    CLAIM_MIN_HOP,
    CLAIM_REFUSAL,
    CLAIM_SIMPLE_PATH,
    REFUSAL_TEXT,
    PLOT_HEADER,
    emit_plot_series,
    render_table,
    report_to_json,
    verify_claims,
)
from fitroute.fitness import NO_SUFFICIENT_BANDWIDTH, UNREACHABLE
from fitroute.topology import bfs_hops, feasible_subgraph

from helpers import (cut_topologies, drawn_topologies, line_topology,
                     triangle_topology)


def refusal_topology() -> Topology:
    """Line 0-1-2 (fat links) plus a thin 0-3 pendant: at demand 4 the
    query (0,2) routes in 2 hops and (0,3) refuses."""
    return Topology(4, (
        QosLink(0, 1, 10.0, 1.0, 0.0, 0.0),
        QosLink(1, 2, 10.0, 1.0, 0.0, 0.0),
        QosLink(0, 3, 2.0, 1.0, 0.0, 0.0),
    ))


def three_component_topology() -> Topology:
    """Components {0,1,2} (1-2 too thin at demand 5), {3,4}, and isolated 5."""
    return Topology(6, (
        QosLink(0, 1, 10.0, 1.0, 0.0, 0.0),
        QosLink(1, 2, 2.0, 1.0, 0.0, 0.0),
        QosLink(3, 4, 10.0, 2.0, 0.0, 0.0),
    ))


def refusal_report():
    cfg = ExperimentConfig(n=4, explicit_queries=((0, 2), (0, 3)), demand=4.0)
    return run_comparison(cfg, refusal_topology()), refusal_topology()


def tamper(report, idx, **row_changes):
    rows = list(report.rows)
    rows[idx] = dataclasses.replace(rows[idx], **row_changes)
    return dataclasses.replace(report, rows=tuple(rows))


def flagged(report, t) -> set[tuple[int, str]]:
    """The (row, claim) pairs verify_claims flags."""
    return {(v.row, v.claim) for v in verify_claims(report, t)}


# --- config validation ---


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        ExperimentConfig(n=0)
    with pytest.raises(ValueError):
        ExperimentConfig(query_count=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(n=4, explicit_queries=((0, 7),))
    with pytest.raises(ValueError):
        ExperimentConfig(demand=-1.0)


@pytest.mark.parametrize("field, value", [
    ("n", 4.0), ("query_count", 2.5), ("query_count", float("nan")),
    ("seed", 1.5), ("explicit_queries", ((0.0, 1),)),
    ("explicit_queries", ((0, 1), (2, 3.0))),
])
def test_config_rejects_non_integer_ids_and_counts(field, value):
    with pytest.raises(ValueError, match="integer|outside"):
        ExperimentConfig(**{"n": 4, field: value})


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_config_rejects_non_finite_demand(bad):
    with pytest.raises(ValueError):
        ExperimentConfig(demand=bad)


def test_replay_topology_must_match_node_count():
    with pytest.raises(ValueError):
        run_comparison(ExperimentConfig(n=5), line_topology(3))


@pytest.mark.parametrize("n, edge_prob", [
    (1, 0.15), (2, 0.0), (12, 0.0), (12, 1.0), (40, 0.016), (40, 0.15)])
def test_replay_draws_the_generated_queries(n, edge_prob):
    gen = GenParams(edge_prob=edge_prob)
    cfg = ExperimentConfig(n=n, seed=3, gen=gen, query_count=60)
    replayed = run_comparison(cfg, generate_topology(n, gen, seed=3))
    assert replayed.rows == run_comparison(cfg).rows


# --- run_comparison ---


def test_empty_run():
    report = run_comparison(ExperimentConfig(n=1, query_count=0))
    assert report.rows == ()
    s = report.summary
    assert (s.ff_wins, s.ties, s.ff_longer, s.refusals, s.unreachable) == (0,) * 5
    assert s.violations == ()


def test_line_query_is_a_tie():
    cfg = ExperimentConfig(n=3, explicit_queries=((0, 2),), demand=4.0)
    report = run_comparison(cfg, line_topology(3))
    row = report.rows[0]
    assert row.dv_hops == 2 and row.dv_path == (0, 1, 2)
    assert isinstance(row.ff, Route) and row.ff.hops == 2
    assert report.summary.ties == 1


def test_triangle_dv_picks_infeasible_shortcut():
    # dv takes the thin direct link; fitness detours; neither is a win or tie
    t = triangle_topology(10.0, 10.0, 2.0)
    cfg = ExperimentConfig(n=3, explicit_queries=((0, 2),), demand=5.0)
    report = run_comparison(cfg, t)
    row = report.rows[0]
    assert row.dv_hops == 1 and row.dv_path == (0, 2)
    assert isinstance(row.ff, Route)
    assert row.ff.path == (0, 1, 2) and row.ff.hops == 2
    assert report.summary.ff_longer == 1
    assert report.summary.violations == ()  # dv's path is infeasible, no claim broken


def test_refusal_row():
    report, _ = refusal_report()
    row = report.rows[1]
    assert row.dv_hops == 1
    assert row.ff is NO_SUFFICIENT_BANDWIDTH or row.ff == NO_SUFFICIENT_BANDWIDTH
    assert report.summary.refusals == 1


@pytest.mark.parametrize("seed", range(6))
def test_summary_counts_partition_rows(seed):
    cfg = ExperimentConfig(n=24, seed=seed, query_count=40,
                           gen=GenParams(bandwidth_range=(1.0, 8.0)))
    report = run_comparison(cfg)
    assert report.summary.total == len(report.rows)
    assert report.summary.violations == ()


@pytest.mark.parametrize("seed", [0, 3])
def test_rows_agree_with_standalone_select_route(seed):
    cfg = ExperimentConfig(n=16, seed=seed, query_count=25)
    report = run_comparison(cfg)
    t = generate_topology(cfg.n, cfg.gen, cfg.seed)
    for row in report.rows:
        standalone = select_route(t, RouteRequest(row.src, row.dst,
                                                  cfg.demand, cfg.weights))
        assert standalone == row.ff


def test_reports_are_byte_identical():
    cfg = ExperimentConfig(n=32, seed=11, query_count=30)
    a = report_to_json(run_comparison(cfg))
    b = report_to_json(run_comparison(cfg))
    assert a == b


def test_report_matches_golden_file():
    # pins the whole pipeline: generation draws, both engines, serialization
    from pathlib import Path
    cfg = ExperimentConfig(n=8, seed=4, query_count=6,
                           gen=GenParams(bandwidth_range=(1.0, 15.0)),
                           demand=5.0)
    golden = Path(__file__).parent / "golden" / "report.json"
    assert report_to_json(run_comparison(cfg)) == golden.read_text()


def test_random_queries_avoid_self_pairs():
    report = run_comparison(ExperimentConfig(n=8, seed=2, query_count=50))
    assert all(row.src != row.dst for row in report.rows)


def test_single_node_queries_are_self_ties():
    report = run_comparison(ExperimentConfig(n=1, seed=0, query_count=3))
    for row in report.rows:
        assert (row.src, row.dst) == (0, 0)
        assert row.dv_hops == 0
        assert isinstance(row.ff, Route) and row.ff.hops == 0
    assert report.summary.ties == 3


def test_outcomes_across_three_components():
    t = three_component_topology()
    cfg = ExperimentConfig(n=6, demand=5.0, explicit_queries=(
        (0, 1), (0, 2), (0, 3), (4, 3), (5, 5)))
    report = run_comparison(cfg, t)
    assert [row.ff.status for row in report.rows] == [
        "route", "no_bandwidth", "unreachable", "route", "route"]
    assert report.rows[3].ff == Route((4, 3), 1, 2.0, 1.0 / 3.0)
    assert report.rows[4].ff == Route((5,), 0, 0.0, 1.0)
    s = report.summary
    assert (s.ff_wins, s.ties, s.ff_longer, s.refusals, s.unreachable) == (
        0, 3, 0, 1, 1)
    assert s.violations == ()


def test_oracle_runs_one_bfs_per_source_and_graph(monkeypatch):
    # the pruned graph's BFS runs once per source; the full graph's once per
    # source with a refused or unreachable row
    calls = []
    real = experiment._oracle_hops

    def counting(masks, src):
        calls.append((id(masks), src))
        return real(masks, src)

    monkeypatch.setattr(experiment, "_oracle_hops", counting)
    cfg = ExperimentConfig(n=64, seed=1, query_count=1000,
                           gen=GenParams(bandwidth_range=(1.0, 8.0)))
    report = run_comparison(cfg)
    assert report.summary.refusals > 0 and report.summary.violations == ()
    sources = {row.src for row in report.rows}
    refused = {row.src for row in report.rows if row.ff.status != "route"}
    assert len(calls) == len(set(calls)) == len(sources) + len(refused)
    per_graph = sorted(Counter(graph for graph, _ in calls).values())
    assert per_graph == [len(refused), len(sources)]


@given(st.one_of(drawn_topologies(), cut_topologies()), st.data())
def test_oracle_bfs_equals_bfs_hops(t, data):
    # the oracle's bitset BFS against the adjacency-list BFS on the full and
    # the pruned topology, from every source
    demands = st.floats(0.0, 12.0)
    if t.links:  # a demand equal to a link's bandwidth pins the >= boundary
        demands |= st.sampled_from([link.bandwidth for link in t.links])
    demand = data.draw(demands)
    full, feasible = experiment._oracle_masks(t, demand)
    pruned = feasible_subgraph(t, demand)
    for src in range(t.n):
        assert experiment._oracle_hops(full, src) == bfs_hops(t, src)
        assert experiment._oracle_hops(feasible, src) == bfs_hops(pruned, src)


# --- verify_claims fault injection ---


def test_clean_reports_verify_empty():
    report, t = refusal_report()
    assert verify_claims(report, t) == ()


def test_detects_bandwidth_violation():
    report, t = refusal_report()
    # forge a route over the thin 0-3 link
    forged = Route((0, 3), 1, 1.0, 0.5)
    bad = tamper(report, 1, ff=forged)
    assert flagged(bad, t) == {(1, CLAIM_BANDWIDTH), (1, CLAIM_REFUSAL)}


def test_detects_inflated_hop_count():
    report, t = refusal_report()
    row = report.rows[0]
    forged = dataclasses.replace(row.ff, hops=row.ff.hops + 1)
    bad = tamper(report, 0, ff=forged)
    assert flagged(bad, t) == {(0, CLAIM_MIN_HOP), (0, CLAIM_DOMINANCE)}


def test_detects_non_minimal_path():
    # a valid simple path that is longer than the BFS optimum
    t = triangle_topology(10.0, 10.0, 10.0)
    cfg = ExperimentConfig(n=3, explicit_queries=((0, 2),), demand=5.0)
    report = run_comparison(cfg, t)
    forged = Route((0, 1, 2), 2, 2.0, 1 / 3)
    bad = tamper(report, 0, ff=forged)
    assert flagged(bad, t) == {(0, CLAIM_MIN_HOP), (0, CLAIM_DOMINANCE)}


def test_detects_looping_path():
    report, t = refusal_report()
    forged = Route((0, 1, 0, 1, 2), 4, 4.0, 0.2)
    bad = tamper(report, 0, ff=forged)
    assert flagged(bad, t) == {
        (0, CLAIM_SIMPLE_PATH), (0, CLAIM_MIN_HOP), (0, CLAIM_DOMINANCE)}


def test_detects_bogus_refusal():
    report, t = refusal_report()
    bad = tamper(report, 0, ff=NO_SUFFICIENT_BANDWIDTH)
    assert flagged(bad, t) == {(0, CLAIM_REFUSAL), (0, CLAIM_DOMINANCE)}


def test_detects_dominance_break():
    # dv path feasible but fitness pretends there is no route
    t = line_topology(3)
    cfg = ExperimentConfig(n=3, explicit_queries=((0, 2),), demand=4.0)
    report = run_comparison(cfg, t)
    bad = tamper(report, 0, ff=NO_SUFFICIENT_BANDWIDTH)
    assert flagged(bad, t) == {(0, CLAIM_REFUSAL), (0, CLAIM_DOMINANCE)}


def test_detects_unreachable_verdict_for_reachable_destination():
    # 0 reaches 3 over the thin link: a refusal, not an unreachable verdict
    report, t = refusal_report()
    bad = tamper(report, 1, ff=UNREACHABLE)
    assert flagged(bad, t) == {(1, CLAIM_REFUSAL)}


def test_detects_refusal_for_unreachable_destination():
    # 3 lies in another component than 0, so no demand could be routed
    t = three_component_topology()
    cfg = ExperimentConfig(n=6, demand=5.0, explicit_queries=((0, 1), (0, 3)))
    report = run_comparison(cfg, t)
    bad = tamper(report, 1, ff=NO_SUFFICIENT_BANDWIDTH)
    assert flagged(bad, t) == {(1, CLAIM_REFUSAL)}


def test_detects_dv_step_over_non_link():
    report, t = refusal_report()
    bad = tamper(report, 0, dv_path=(0, 2))
    assert flagged(bad, t) == {(0, CLAIM_SIMPLE_PATH)}


def test_detects_dv_repeated_node():
    report, t = refusal_report()
    bad = tamper(report, 0, dv_path=(0, 1, 0, 1, 2))
    assert flagged(bad, t) == {(0, CLAIM_SIMPLE_PATH)}


def test_detects_empty_dv_path():
    # no walk at all: not a path, so there is no dominance to check
    report, t = refusal_report()
    bad = tamper(report, 0, dv_path=())
    assert flagged(bad, t) == {(0, CLAIM_SIMPLE_PATH)}


def test_violations_carry_row_and_detail():
    report, t = refusal_report()
    bad = tamper(report, 1, ff=Route((0, 3), 1, 1.0, 0.5))
    violations = verify_claims(bad, t)
    assert violations
    assert violations[0].row == 1
    assert "bandwidth" in violations[0].detail


# --- rendering ---


def test_render_table_dv_golden_shape():
    report, _ = refusal_report()
    text = render_table(report, "dv")
    lines = text.splitlines()
    assert lines[0] == "Distance vector"
    assert lines[1].split() == ["Source", "Destination", "Hop", "count", "Path"]
    assert "0->1->2" in lines[2]
    assert "0->3" in lines[3]


def test_render_table_ff_refusal_literals():
    report, _ = refusal_report()
    text = render_table(report, "ff")
    refusal_line = text.splitlines()[3]
    assert REFUSAL_TEXT in refusal_line
    cells = refusal_line.split("  ")
    assert "-" in [c.strip() for c in cells if c.strip()]


def test_render_table_empty_report():
    report = run_comparison(ExperimentConfig(n=1, query_count=0))
    for which in ("dv", "ff"):
        lines = render_table(report, which).splitlines()
        assert len(lines) == 2  # title + header, no data rows


def test_render_table_rejects_unknown_kind():
    report, _ = refusal_report()
    with pytest.raises(ValueError):
        render_table(report, "both")


def test_plot_series_matches_documented_grammar():
    report, _ = refusal_report()
    lines = emit_plot_series(report).splitlines()
    assert lines[0] == PLOT_HEADER
    assert lines[1] == "1,0,2,2,2,route"
    assert lines[2] == "2,0,3,1,,no_bandwidth"


def test_plot_series_empty_report():
    report = run_comparison(ExperimentConfig(n=1, query_count=0))
    assert emit_plot_series(report) == PLOT_HEADER + "\n"


def test_plot_series_unreachable_row():
    t = Topology(3, (QosLink(0, 1, 10.0, 1.0, 0.0, 0.0),))
    cfg = ExperimentConfig(n=3, explicit_queries=((0, 2),), demand=1.0)
    report = run_comparison(cfg, t)
    assert emit_plot_series(report).splitlines()[1] == "1,0,2,,,unreachable"


def test_report_json_schema():
    report, _ = refusal_report()
    doc = json.loads(report_to_json(report))
    assert set(doc) == {"config", "fingerprint", "rows", "summary"}
    assert len(doc["fingerprint"]) == 16
    int(doc["fingerprint"], 16)
    assert doc["summary"]["rows"] == 2
    assert doc["summary"]["refusals"] == 1
    assert doc["summary"]["violations"] == []
    route_row, refusal_row = doc["rows"]
    assert route_row["ff_status"] == "route"
    assert route_row["ff_path"] == [0, 1, 2]
    assert refusal_row["ff_status"] == "no_bandwidth"
    assert refusal_row["ff_hops"] is None
    assert doc["config"]["demand"] == 4.0


def test_report_json_rejects_non_finite_numbers():
    report, _ = refusal_report()
    bad = tamper(report, 0, ff=Route((0, 1, 2), 2, float("nan"), float("nan")))
    with pytest.raises(ValueError):
        report_to_json(bad)
