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
    Weights,
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
    MAX_QUERIES,
    REFUSAL_TEXT,
    PLOT_HEADER,
    Violation,
    _draw_queries,
    emit_plot_series,
    render_table,
    report_to_json,
    verify_claims,
)
from fitroute.fitness import NO_SUFFICIENT_BANDWIDTH, UNREACHABLE
from fitroute.topology import (SplitMix64, bfs_hops, feasible_subgraph,
                               format_topology, generate_topology_rng,
                               parse_topology)

from helpers import (IntSubclass, check_rows_against_full_trees,
                     counting_link_builds, cut_topologies, drawn_topologies,
                     line_topology, reference_queries, report_json_reference,
                     request_gate, triangle_topology)


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


def test_config_bounds_query_count():
    # every query is a report row; an unbounded count would fill memory
    assert ExperimentConfig(query_count=MAX_QUERIES).query_count == 10**6
    for count in (MAX_QUERIES + 1, 2**64):
        with pytest.raises(ValueError,
                           match="query_count must be an integer in 0..1000000"):
            ExperimentConfig(query_count=count)


@pytest.mark.parametrize("field, value", [
    ("n", 4.0), ("query_count", 2.5), ("query_count", float("nan")),
    ("seed", 1.5), ("explicit_queries", ((0.0, 1),)),
    ("explicit_queries", ((0, 1), (2, 3.0))),
])
def test_config_rejects_non_integer_ids_and_counts(field, value):
    with pytest.raises(ValueError, match="integer|outside"):
        ExperimentConfig(**{"n": 4, field: value})


@pytest.mark.parametrize("field, value", [
    ("n", True), ("seed", True), ("query_count", False), ("demand", True),
    ("explicit_queries", ((True, False),)), ("explicit_queries", ((0, True),)),
])
def test_config_rejects_bools(field, value):
    # bool subclasses int; the JSON report would echo `true`
    with pytest.raises(ValueError):
        ExperimentConfig(**{"n": 4, field: value})


@pytest.mark.parametrize("bad", [1, 0, -16, 2.5, "16", None, True])
def test_config_rejects_bad_infinity_metric(bad):
    # checked with the other fields, before any topology is generated
    with pytest.raises(ValueError,
                       match=r"infinity_metric must be an integer in 2..1024, got "):
        ExperimentConfig(n=1024, infinity_metric=bad)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1, 1.0])
def test_config_rejects_seeds_outside_u64(seed):
    # SplitMix64 reads a seed mod 2^64: 2^64 + 1 would run seed 1's rows
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\^64\)"):
        ExperimentConfig(seed=seed)
    assert ExperimentConfig(seed=2**64 - 1).seed == 2**64 - 1


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), "5", None])
def test_config_rejects_non_finite_demand(bad):
    with pytest.raises(ValueError):
        ExperimentConfig(demand=bad)


def test_replay_topology_must_match_node_count():
    with pytest.raises(ValueError):
        run_comparison(ExperimentConfig(n=5), line_topology(3))


def test_a_compare_row_and_a_request_read_a_demand_alike():
    # 2**53 + 1 reads as the float 2.0**53, which the link carries: every
    # gate compares check_demand's float, so both engines route the pair
    t = Topology(2, (QosLink(0, 1, float(2**53), 1.0, 0.0, 0.0),))
    demand = 2**53 + 1
    req = RouteRequest(0, 1, demand)
    assert type(req.demand) is float and req.demand == 2.0**53
    assert t.gate(demand).masks == [0b10, 0b01]
    assert [request_gate(t, req.demand).masks[v] for v in range(2)] == [0b10, 0b01]
    cfg = ExperimentConfig(n=2, explicit_queries=((0, 1),), demand=demand)
    row = run_comparison(cfg, t).rows[0]
    assert isinstance(row.ff, Route)
    assert row.ff == select_route(t, req)


@pytest.mark.parametrize("n, edge_prob", [
    (1, 0.15), (2, 0.0), (12, 0.0), (12, 1.0), (40, 0.016), (40, 0.15)])
def test_replay_draws_the_generated_queries(n, edge_prob):
    gen = GenParams(edge_prob=edge_prob)
    cfg = ExperimentConfig(n=n, seed=3, gen=gen, query_count=60)
    replayed = run_comparison(cfg, generate_topology(n, gen, seed=3))
    assert replayed.rows == run_comparison(cfg).rows


@given(st.one_of(st.sampled_from((1, 2, 3)), st.integers(1, 1024)),
       st.one_of(st.sampled_from((0, 1, 511, 512, 513, 1500)), st.integers(0, 3000)),
       st.one_of(st.sampled_from((0, 2**64 - 1)), st.integers(0, 2**64 - 1)))
def test_draw_queries_equal_the_scalar_reference(n, query_count, seed):
    # n = 2 redraws about half its dsts, so its stream runs past the first
    # 2 * query_count draws at uneven points; rng ends past the last draw
    # used, as the scalar reference's does
    cfg = ExperimentConfig(n=n, seed=seed, query_count=query_count)
    rng, ref_rng = SplitMix64(seed), SplitMix64(seed)
    assert _draw_queries(cfg, rng) == reference_queries(cfg, ref_rng)
    assert rng.state == ref_rng.state


@pytest.mark.parametrize("edge_prob, demand", [(0.15, 5.0), (0.15, 50.0),
                                               (0.016, 50.0)])
def test_compare_builds_no_bandwidth_index(edge_prob, demand):
    # every row's search reads the one gate the run builds for its demand
    gen = GenParams(edge_prob=edge_prob)
    cfg = ExperimentConfig(n=40, seed=3, gen=gen, query_count=100, demand=demand)
    t = generate_topology(cfg.n, gen, seed=cfg.seed)
    report = run_comparison(cfg, t)
    assert "bandwidth_index" not in vars(t)
    assert report.summary.violations == ()


def test_compare_drops_each_node_layers_after_its_last_row(monkeypatch):
    # before row i the run's gate keeps the layers of the nodes that an
    # earlier row and row i or a later one name, and none once every row
    # is routed
    gates, stored = [], []
    build_gate, search = Topology.gate, experiment.route

    def capture(self, demand):
        gates.append(build_gate(self, demand))
        return gates[-1]

    def recording(t, root, w, gate, dst):
        stored.append(set(gate.layers))
        return search(t, root, w, gate, dst)

    monkeypatch.setattr(Topology, "gate", capture)
    monkeypatch.setattr(experiment, "route", recording)
    cfg = ExperimentConfig(n=40, seed=3, gen=GenParams(edge_prob=0.05),
                           query_count=200, demand=50.0)
    report = run_comparison(cfg)
    assert report.summary.refusals > 0 and report.summary.violations == ()
    [gate] = gates
    assert gate.layers == {}
    queries = [(row.src, row.dst) for row in report.rows]
    assert len(stored) == len(queries)
    for i, kept in enumerate(stored):
        named_before = {v for pair in queries[:i] for v in pair}
        named_after = {v for pair in queries[i:] for v in pair}
        assert kept == named_before & named_after


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
    s = report.summary
    assert (s.ff_wins + s.ties + s.ff_longer + s.refusals
            + s.unreachable) == len(report.rows)
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


def several_components() -> Topology:
    """Three generated 12-node graphs with 1-10 Mbps links side by side,
    plus the isolated node 36."""
    links = []
    for part, seed in enumerate((1, 2, 3)):
        g = generate_topology(12, GenParams(edge_prob=0.2,
                                            bandwidth_range=(1.0, 10.0)), seed)
        links += [dataclasses.replace(l, a=l.a + 12 * part, b=l.b + 12 * part)
                  for l in g.links]
    return Topology(37, tuple(links))


def test_rows_equal_full_tree_reference_dense():
    report = check_rows_against_full_trees(
        ExperimentConfig(n=64, seed=1, query_count=1000))
    assert len(report.rows) == 1000
    assert report.summary.refusals == report.summary.unreachable == 0


def test_rows_equal_full_tree_reference_across_components():
    t = several_components()
    cfg = ExperimentConfig(n=t.n, seed=5, query_count=400, demand=5.0)
    s = check_rows_against_full_trees(cfg, t).summary
    assert s.refusals > 0 and s.unreachable > 0
    assert s.ff_wins + s.ties + s.ff_longer > 0


def test_rows_equal_full_tree_reference_on_self_queries():
    t = several_components()
    queries = tuple((v, v) for v in range(t.n)) + ((0, 11), (36, 0), (12, 23))
    cfg = ExperimentConfig(n=t.n, explicit_queries=queries, demand=5.0)
    report = check_rows_against_full_trees(cfg, t)
    assert all(row.ff == Route((row.src,), 0, 0.0, 1.0)
               for row in report.rows[:t.n])


class ReadCounter(list):
    """Neighbour lists that record every node whose list is read."""

    def __init__(self, nbrs):
        super().__init__(nbrs)
        self.reads = []

    def __getitem__(self, v):
        self.reads.append(v)
        return super().__getitem__(v)


def farthest_pairs(hops, pairs):
    """{src: the hop count of its farthest pair in its component} for every
    src with such a pair; hops[s] is bfs_hops from s."""
    farthest = {}
    for src, dst in pairs:
        if dst in hops[src]:
            farthest[src] = max(farthest.get(src, 0), hops[src][dst])
    return farthest


def pass_reads(hops, pairs):
    """The nodes whose neighbour lists one _pair_hops call reads, counted:
    _labels reads every node once, and the pass expands v once per round h
    at which v is h hops from some source that still runs, one with a pair
    more than h hops away in its component. hops[s] is bfs_hops from s."""
    expanded = {(h, v) for src, far in farthest_pairs(hops, pairs).items()
                for v, h in hops[src].items() if h < far}
    return Counter(range(len(hops))) + Counter(v for _, v in expanded)


def test_oracle_runs_one_pass_and_labels_the_full_graph_only_on_refusals(
        monkeypatch):
    # one lockstep pass per verify_claims; the full graph is labelled only on
    # a run with a refused or unreachable row, and then once; each source
    # stops at its farthest queried pair, so some stop before their pruned
    # BFS would end
    passes, labelled = [], []
    real_pass, real_labels = experiment._pair_hops, experiment._labels

    def counting_pass(nbrs, pairs):
        nbrs = ReadCounter(nbrs)
        passes.append((pairs, nbrs))
        return real_pass(nbrs, pairs)

    def counting_labels(nbrs):
        labelled.append(nbrs)
        return real_labels(nbrs)

    monkeypatch.setattr(experiment, "_pair_hops", counting_pass)
    monkeypatch.setattr(experiment, "_labels", counting_labels)
    clean = run_comparison(ExperimentConfig(n=64, seed=1, query_count=1000))
    assert clean.summary.refusals == clean.summary.unreachable == 0
    assert len(passes) == len(labelled) == 1  # the pruned graph's labels
    passes.clear()
    labelled.clear()
    cfg = ExperimentConfig(n=64, seed=1, query_count=1000,
                           gen=GenParams(bandwidth_range=(1.0, 8.0)))
    report = run_comparison(cfg)
    assert report.summary.refusals > 0 and report.summary.violations == ()
    t = generate_topology(cfg.n, cfg.gen, cfg.seed)
    assert labelled == [experiment._neighbours(t, cfg.demand),
                        experiment._neighbours(t, 0.0)]
    [(pairs, nbrs)] = passes
    assert pairs == {(row.src, row.dst) for row in report.rows}
    pruned = feasible_subgraph(t, cfg.demand)
    hops = [bfs_hops(pruned, v) for v in range(t.n)]
    assert Counter(nbrs.reads) == pass_reads(hops, pairs)
    stopped_early = sum(far < max(hops[src].values())
                        for src, far in farthest_pairs(hops, pairs).items())
    assert stopped_early > 0


@given(st.one_of(drawn_topologies(), cut_topologies()), st.data())
def test_oracle_bfs_equals_bfs_hops(t, data):
    # the lockstep pass and the component labels against the adjacency-list
    # BFS on the full and the pruned topology, for every source at once, with
    # dst sets per source that are empty, hold src, are drawn (often across
    # components) or hold every node
    demands = st.floats(0.0, 12.0)
    if t.links:  # a demand equal to a link's bandwidth pins the >= boundary
        demands |= st.sampled_from([link.bandwidth for link in t.links])
    demand = data.draw(demands)
    drawn = [data.draw(st.sets(st.integers(0, t.n - 1))) for _ in range(t.n)]
    for graph_demand, graph in ((0.0, t), (demand, feasible_subgraph(t, demand))):
        labels = experiment._labels(experiment._neighbours(t, graph_demand))
        expected = [bfs_hops(graph, src) for src in range(t.n)]
        for src in range(t.n):
            assert {v for v in range(t.n)
                    if labels[v] == labels[src]} == expected[src].keys()
        for dsts in ([set()] * t.n, [{src} for src in range(t.n)], drawn,
                     [set(range(t.n))] * t.n):
            pairs = {(src, dst) for src in range(t.n) for dst in dsts[src]}
            nbrs = ReadCounter(experiment._neighbours(t, graph_demand))
            # every reachable pair's hop count, so every layer when dsts
            # hold every node, and each source stops at its farthest pair
            assert experiment._pair_hops(nbrs, pairs) == {
                (src, dst): expected[src][dst] for src, dst in pairs
                if dst in expected[src]}
            assert Counter(nbrs.reads) == pass_reads(expected, pairs)


@pytest.mark.parametrize("cfg", [
    ExperimentConfig(n=40, seed=3, query_count=200),
    ExperimentConfig(n=60, seed=1, gen=GenParams(edge_prob=0.05),
                     query_count=200, demand=50.0),
], ids=["dense", "sparse with refusals"])
def test_compare_builds_no_link_objects(monkeypatch, cfg):
    # generation and replay hand their link columns to the store, and the
    # gate, the searches, the oracle, the fingerprint and the file writer
    # read the columns: no QosLink is built, and t.links is never read
    source = generate_topology(cfg.n, cfg.gen, cfg.seed)
    replayed = parse_topology(format_topology(source))
    generated = []

    def keeping(*args):
        generated.append(generate_topology_rng(*args))
        return generated[-1]

    monkeypatch.setattr(experiment, "generate_topology_rng", keeping)
    built = counting_link_builds(monkeypatch)
    report = run_comparison(cfg)
    assert run_comparison(cfg, replayed) == report
    assert report.summary.refusals == (12 if cfg.demand == 50.0 else 0)
    [t] = generated
    assert built == []
    assert not any("links" in vars(x) for x in (t, replayed, source))


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


@pytest.mark.parametrize("path", [(0.0, 1, 2), (0, 1, 2.0), (0, 1.0, 2),
                                  (0, True, 2), (0, 9, 2), (0, -1, 2),
                                  (0, True, 5.0)])
@pytest.mark.parametrize("engine", ["dv", "ff"])
def test_detects_forged_node_ids(path, engine):
    # 2.0 == 2 would pass the endpoint check and the link lookup, so every id
    # must be an int in [0, n) before a step is looked up
    report, t = refusal_report()
    if engine == "dv":
        bad = tamper(report, 0, dv_path=path)
    else:
        bad = tamper(report, 0, ff=dataclasses.replace(report.rows[0].ff,
                                                       path=path))
    violations = verify_claims(bad, t)
    assert {(v.row, v.claim) for v in violations} == {(0, CLAIM_SIMPLE_PATH)}
    assert "not an int in [0, 4)" in violations[0].detail


def test_accepts_int_subclass_node_ids():
    # is_node takes an int subclass: a path of them skips the exact-int
    # min/max check and passes is_node id by id, so a valid route verifies
    report, t = refusal_report()
    path = tuple(map(IntSubclass, report.rows[0].ff.path))
    assert set(map(type, path)) == {IntSubclass} and path == (0, 1, 2)
    ok = tamper(report, 0, dv_path=path,
                ff=dataclasses.replace(report.rows[0].ff, path=path))
    assert verify_claims(ok, t) == ()


@pytest.mark.parametrize("node", [4, -1, 1.0, True])
@pytest.mark.parametrize("end", ["src", "dst"])
def test_detects_forged_query_ids(node, end):
    # 4 and 1.0 would index past the oracle's lists, -1 would shift by a
    # negative count and True would pass as node 1: the row is flagged and
    # checked no further, and the other row still verifies
    report, t = refusal_report()
    bad = tamper(report, 0, **{end: node})
    violations = verify_claims(bad, t)
    assert [(v.row, v.claim) for v in violations] == [(0, CLAIM_SIMPLE_PATH)]
    assert "holds an id that is not an int in [0, 4)" in violations[0].detail


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


@pytest.mark.parametrize("field", ["ff_cost", "ff_fitness"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_report_json_rejects_non_finite_numbers(field, bad):
    report, _ = refusal_report()
    route = report.rows[0].ff
    numbers = {"ff_cost": route.cost, "ff_fitness": route.fitness, field: bad}
    bad_report = tamper(report, 0, ff=Route(
        route.path, route.hops, numbers["ff_cost"], numbers["ff_fitness"]))
    with pytest.raises(ValueError):
        report_to_json(bad_report)


# --- report_to_json against the stdlib's indent=2 encoder ---


def assert_stdlib_layout(report):
    text = report_to_json(report)
    assert text == report_json_reference(report)
    assert json.dumps(json.loads(text), indent=2, allow_nan=False) + "\n" == text


@st.composite
def drawn_reports(draw):
    """Reports on generated topologies or on drawn, often disconnected, ones
    with explicit queries (src == dst allowed), across demands that refuse,
    non-default weights and distance-vector infinities that cap."""
    common = dict(
        demand=draw(st.sampled_from((0.0, 2.5, 5.0, 50.0))),
        weights=draw(st.sampled_from((Weights(), Weights(0.5, 2.0, 40.0)))),
        infinity_metric=draw(st.integers(2, 16)))
    if draw(st.booleans()):
        t = draw(drawn_topologies())
        node = st.integers(0, t.n - 1)
        queries = draw(st.lists(st.tuples(node, node), max_size=12))
        return run_comparison(ExperimentConfig(
            n=t.n, explicit_queries=tuple(queries), **common), t)
    return run_comparison(ExperimentConfig(
        n=draw(st.integers(1, 24)), seed=draw(st.integers(0, 2**32)),
        gen=GenParams(edge_prob=draw(st.sampled_from((0.0, 0.15, 0.5)))),
        query_count=draw(st.integers(0, 30)), **common))


@given(drawn_reports())
def test_report_json_equals_stdlib_encoder(report):
    assert_stdlib_layout(report)


def test_report_json_equals_stdlib_encoder_on_edge_cases():
    empty = run_comparison(ExperimentConfig(n=1, query_count=0))
    assert empty.rows == ()
    self_query = run_comparison(ExperimentConfig(
        n=4, explicit_queries=((0, 0), (0, 1))))
    components = run_comparison(ExperimentConfig(
        n=6, explicit_queries=((0, 1), (0, 2), (0, 3), (5, 5))),
        three_component_topology())
    refusals, _ = refusal_report()
    capped = run_comparison(ExperimentConfig(
        n=40, seed=5, query_count=40, infinity_metric=3))
    weighted = run_comparison(ExperimentConfig(
        n=12, seed=2, query_count=10, weights=Weights(0.25, 3.0, 100.0)))
    # an empty DV path and a violation detail with characters JSON escapes
    detail = 'fitness path "0->1" \\ broke\nat node é'
    tampered = tamper(refusals, 0, dv_path=())
    tampered = dataclasses.replace(tampered, summary=dataclasses.replace(
        refusals.summary, violations=(Violation(1, CLAIM_REFUSAL, detail),)))

    assert {row.ff.status for row in components.rows} == {
        "route", "no_bandwidth", "unreachable"}
    assert any(row.dv_path is None and isinstance(row.ff, Route)
               for row in capped.rows)
    for report in (empty, self_query, components, refusals, capped, weighted,
                   tampered):
        assert_stdlib_layout(report)
    assert json.loads(report_to_json(tampered))["summary"]["violations"][0][
        "detail"] == detail
