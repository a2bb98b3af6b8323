import math

import pytest
from hypothesis import assume, given, strategies as st

from fitroute import GenParams, QosLink, Topology, generate_topology
from fitroute.dv import (
    DvState,
    _column,
    _neighbour_masks,
    converge,
    exchange_round,
    extract_path,
    fail_link_and_trace,
    format_trace,
    init_tables,
)
from fitroute.topology import MAX_NODES, bfs_hops, remove_link

from helpers import line_topology

# Hand-simulated synchronous recurrence for the 3-node line 0-1-2 with link
# {1,2} failed, infinity 16 (checked against an independent scratch
# simulation before this engine existed).
PROBE0_SEQUENCE = [2, 4, 4, 6, 6, 8, 8, 10, 10, 12, 12, 14, 14, 16]
PROBE1_SEQUENCE = [3, 3, 5, 5, 7, 7, 9, 9, 11, 11, 13, 13, 15, 15, 16]


def converged_line(n=3, infinity=16):
    s, _ = converge(line_topology(n), infinity)
    return s


def reference_converge(t, infinity):
    """The full-table engine: init_tables, then exchange rounds until one
    changes nothing; the fixed point and the number of changing rounds."""
    s = init_tables(t, infinity)
    for rounds in range(t.n):
        nxt, changed = exchange_round(s)
        if not changed:
            return s, rounds
        s = nxt
    raise AssertionError(f"no fixed point within {t.n} rounds")


def reference_trace(t, a, b, probe, dest, max_rounds, infinity):
    """fail_link_and_trace's entries from full-table rounds: every column
    converged on t, then every column exchanged on the failed topology."""
    s, _ = reference_converge(t, infinity)
    s = DvState(remove_link(t, a, b), s.dist, infinity)
    col = [row[dest] for row in s.dist]
    entries = []
    for rnd in range(1, max_rounds + 1):
        s, _ = exchange_round(s)
        prev, col = col, [row[dest] for row in s.dist]
        entries.append((rnd, col[probe]))
        if col[probe] >= infinity or col == prev:
            break
    return tuple(entries)


@st.composite
def any_topology(draw):
    # every pair is a link with a drawn probability from 1/7 to 6/7, so
    # sparse draws are often disconnected and have bridges
    n = draw(st.integers(1, 14))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    density = draw(st.integers(1, 6))
    keep = draw(st.lists(st.integers(0, 6), min_size=len(pairs),
                         max_size=len(pairs)))
    return Topology(n, tuple(QosLink(a, b, 10.0, 1.0, 0.0, 0.0)
                             for (a, b), x in zip(pairs, keep)
                             if x < density))


def test_init_tables_line():
    s = init_tables(line_topology(3), 16)
    assert s.dist[0][2] == 16  # not a neighbor yet
    assert s.dist[0][1] == 1
    assert all(s.dist[v][v] == 0 for v in range(3))


def test_init_tables_single_node():
    s = init_tables(Topology(1, ()), 16)
    assert s.dist == ((0,),)


def test_init_tables_rejects_tiny_infinity():
    with pytest.raises(ValueError):
        init_tables(line_topology(2), 1)


@pytest.mark.parametrize("infinity", [math.nan, math.inf, 2.5])
def test_engine_rejects_non_integer_infinity(infinity):
    # none of these is a hop metric; nan would fill the table with nans
    t = line_topology(3)
    for run in (lambda: converge(t, infinity),
                lambda: init_tables(t, infinity),
                lambda: fail_link_and_trace(t, 1, 2, 0, 2, 64, infinity)):
        with pytest.raises(ValueError, match="integer >= 2"):
            run()


def test_exchange_round_single_relaxation():
    s = init_tables(line_topology(3), 16)
    s2, changed = exchange_round(s)
    assert changed
    assert s2.dist[0][2] == 2


def test_exchange_round_fixed_point_reports_unchanged():
    s = converged_line()
    _, changed = exchange_round(s)
    assert not changed


def test_next_hop_tie_breaks_to_smallest_neighbor():
    # square 0-1, 0-2, 1-3, 2-3: node 0 reaches 3 via 1 or 2 at equal metric
    t = Topology(4, (
        QosLink(0, 1, 10.0, 1.0, 0.0, 0.0),
        QosLink(0, 2, 10.0, 1.0, 0.0, 0.0),
        QosLink(1, 3, 10.0, 1.0, 0.0, 0.0),
        QosLink(2, 3, 10.0, 1.0, 0.0, 0.0),
    ))
    s, _ = converge(t, 16)
    assert s.dist[0][3] == 2
    assert extract_path(s, 0, 3) == [0, 1, 3]


@pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
def test_converge_chain_bound_and_distance(n):
    s, rounds = converge(line_topology(n), max(16, n + 1))
    assert rounds <= max(0, n - 1)
    assert s.dist[0][n - 1] == n - 1


def test_converge_complete_graph_immediate():
    links = tuple(QosLink(a, b, 10.0, 1.0, 0.0, 0.0)
                  for a in range(4) for b in range(a + 1, 4))
    s, rounds = converge(Topology(4, links), 16)
    assert rounds == 0  # neighbor initialization is already the fixed point
    assert all(s.dist[u][v] == 1 for u in range(4) for v in range(4) if u != v)


def test_converge_round_count_on_a_line():
    # the far end of a line is n - 1 hops away, reached in round n - 2
    # unless the cap k - 1 stops counting first
    for n in range(1, 22):
        for k in range(2, 17):
            assert converge(line_topology(n), k)[1] == max(0, min(n, k) - 2)


@given(any_topology(), st.integers(2, 16))
def test_converge_equals_full_table_rounds(t, k):
    assert converge(t, k) == reference_converge(t, k)


@pytest.mark.parametrize("t, k", [
    (line_topology(5), 2),  # infinity 2: only dest's neighbours are set
    (Topology(4, (QosLink(0, 1, 10.0, 1.0, 0.0, 0.0),
                  QosLink(1, 2, 10.0, 1.0, 0.0, 0.0))), 16),  # 3 isolated
    (line_topology(12), 5),  # the far end lies beyond the cap
])
def test_column_edges_equal_full_table_rounds(t, k):
    # each column and the rounds in which it changed, against init_tables
    # and exchange_round
    s = init_tables(t, k)
    rounds = [0] * t.n
    for _ in range(t.n):
        nxt, _ = exchange_round(s)
        for d in range(t.n):
            rounds[d] += any(a[d] != b[d] for a, b in zip(s.dist, nxt.dist))
        s = nxt
    masks = _neighbour_masks(t)
    for d in range(t.n):
        assert _column(masks, d, k) == ([row[d] for row in s.dist], rounds[d])
    assert converge(t, k) == reference_converge(t, k)


@pytest.mark.parametrize("seed", range(12))
def test_converged_metrics_equal_bfs_oracle(seed):
    t = generate_topology(2 + seed, seed=seed)
    s, rounds = converge(t, 16)
    assert rounds <= t.n - 1
    for src in range(t.n):
        oracle = bfs_hops(t, src)
        for dst in range(t.n):
            assert s.dist[src][dst] == oracle[dst]  # generated => connected


def test_extract_path_direct_link():
    t = Topology(2, (QosLink(0, 1, 10.0, 1.0, 0.0, 0.0),))
    s, _ = converge(t, 16)
    assert extract_path(s, 1, 0) == [1, 0]


def test_extract_path_self():
    s = converged_line()
    assert extract_path(s, 1, 1) == [1]


def test_extract_path_unreachable():
    t = Topology(3, (QosLink(0, 1, 10.0, 1.0, 0.0, 0.0),))
    s, _ = converge(t, 16)
    assert extract_path(s, 0, 2) is None


def test_extract_path_rejects_bad_nodes():
    s = converged_line()
    with pytest.raises(ValueError):
        extract_path(s, 0, 9)


def test_extract_path_raises_without_next_hop():
    # line 0-1-2 whose table claims 0 reaches 2 in one hop: 0's only
    # neighbor, 1, is also at metric 1 from 2, so no neighbor is closer
    s = DvState(line_topology(3), ((0, 1, 1), (1, 0, 1), (2, 1, 0)), 16)
    with pytest.raises(RuntimeError):
        extract_path(s, 0, 2)


@pytest.mark.parametrize("seed", range(8))
def test_converged_tables_self_consistent(seed):
    # every finite entry satisfies dist[u][d] = 1 + min over neighbors m
    # of dist[m][d]
    t = generate_topology(10, seed=seed)
    s, _ = converge(t, 16)
    for u in range(t.n):
        for d in range(t.n):
            if u == d or s.dist[u][d] >= s.infinity_metric:
                continue
            assert s.dist[u][d] == 1 + min(s.dist[m][d]
                                           for m in t.adjacency[u])


@pytest.mark.parametrize("seed", range(8))
def test_extracted_paths_simple_and_consistent(seed):
    t = generate_topology(10, seed=seed)
    s, _ = converge(t, 16)
    for src in range(t.n):
        for dst in range(t.n):
            path = extract_path(s, src, dst)
            assert path is not None
            assert len(set(path)) == len(path)
            assert len(path) - 1 == s.dist[src][dst]
            assert all(t.link_between(u, v) for u, v in zip(path, path[1:]))


def test_engine_bounds_infinity_by_max_nodes():
    # counting to infinity takes about infinity_metric rounds, and no hop
    # metric on a topology the file format accepts reaches MAX_NODES
    t = line_topology(3)
    for run in (lambda: converge(t, MAX_NODES + 1),
                lambda: init_tables(t, MAX_NODES + 1),
                lambda: fail_link_and_trace(t, 1, 2, 0, 2, 10**8, 10**20)):
        with pytest.raises(ValueError, match=f"at most {MAX_NODES}"):
            run()
    trace = fail_link_and_trace(t, 1, 2, 0, 2, 10**8, MAX_NODES)
    assert trace.entries[-1][1] == MAX_NODES
    assert len(trace.entries) < 2 * MAX_NODES


# --- count-to-infinity ---


def test_count_to_infinity_probe_far_node():
    trace = fail_link_and_trace(line_topology(3), 1, 2, probe=0, dest=2,
                                max_rounds=64)
    assert [m for _, m in trace.entries] == PROBE0_SEQUENCE
    assert [r for r, _ in trace.entries] == list(range(1, 15))


def test_count_to_infinity_probe_near_node():
    trace = fail_link_and_trace(line_topology(3), 1, 2, probe=1, dest=2,
                                max_rounds=64)
    assert [m for _, m in trace.entries] == PROBE1_SEQUENCE


def test_counting_metric_monotone_and_bounded():
    trace = fail_link_and_trace(line_topology(3), 1, 2, probe=0, dest=2,
                                max_rounds=64)
    metrics = [m for _, m in trace.entries]
    assert all(a <= b for a, b in zip(metrics, metrics[1:]))
    assert metrics[-1] == 16
    assert len(metrics) <= 2 * 16


def test_irrelevant_failure_terminates_first_round():
    # triangle 0-1-2 plus pendant 3 on node 0; routes to 3 never cross {1,2}
    t = Topology(4, (
        QosLink(0, 1, 10.0, 1.0, 0.0, 0.0),
        QosLink(1, 2, 10.0, 1.0, 0.0, 0.0),
        QosLink(0, 2, 10.0, 1.0, 0.0, 0.0),
        QosLink(0, 3, 10.0, 1.0, 0.0, 0.0),
    ))
    s, _ = converge(t, 16)
    before = s.dist[1][3]
    trace = fail_link_and_trace(t, 1, 2, probe=1, dest=3, max_rounds=64)
    assert trace.entries == ((1, before),)


@pytest.mark.parametrize("probe, dest", [(-1, 2), (3, 2), (0, -1), (0, 3)])
def test_trace_rejects_nodes_outside_the_topology(probe, dest):
    with pytest.raises(ValueError, match="outside"):
        fail_link_and_trace(line_topology(3), 1, 2, probe, dest, 64)


@pytest.mark.parametrize("args", [
    (True, 2, 0, 2, 4), (1, 2.0, 0, 2, 4),  # the failed link's ends
    (1, 2, True, 2, 4), (1, 2, 0, False, 4), (1, 2, 0.0, 2, 4),
    (1, 2, 0, "2", 4), (1, 2, 0, 2, 2.5), (1, 2, 0, 2, True),
])
def test_trace_rejects_non_int_nodes_and_rounds(args):
    # True would trace node 1; 2.5 rounds would fail in range() with TypeError
    with pytest.raises(ValueError, match="must be an int|not a link"):
        fail_link_and_trace(line_topology(3), *args)


@pytest.mark.parametrize("src, dst", [(True, 2), (0, False), (0.0, 2),
                                      (0, "2"), (None, 2)])
def test_extract_path_rejects_non_int_nodes(src, dst):
    # (True, 2) would walk to [True, 2]
    with pytest.raises(ValueError, match="int node ids"):
        extract_path(converged_line(), src, dst)


@given(st.data())
def test_trace_settles_on_the_failed_topology_distance(data):
    # counting ends at the capped BFS distance on the failed topology, or at
    # infinity when the failure cut dest off from probe
    t = generate_topology(data.draw(st.integers(2, 10)),
                          GenParams(edge_prob=0.2),
                          seed=data.draw(st.integers(0, 2**16)))
    link = data.draw(st.sampled_from(t.links))
    probe = data.draw(st.integers(0, t.n - 1))
    dest = data.draw(st.integers(0, t.n - 1))
    inf = data.draw(st.integers(2, 16))
    trace = fail_link_and_trace(t, link.a, link.b, probe, dest, 4 * inf, inf)
    failed = remove_link(t, link.a, link.b)
    assert trace.topology == failed
    assert trace.entries[-1][1] == min(bfs_hops(failed, probe).get(dest, inf),
                                       inf)


@given(any_topology(), st.data())
def test_trace_equals_full_table_rounds(t, data):
    # same entries as exchanging every column, including failures that cut
    # dest off and traces that max_rounds stops
    assume(t.links)
    link = data.draw(st.sampled_from(t.links))
    # often the failed link's own endpoints, so failing a bridge cuts dest off
    anywhere = st.integers(0, t.n - 1)
    probe = data.draw(st.just(link.a) | anywhere)
    dest = data.draw(st.just(link.b) | anywhere)
    k = data.draw(st.integers(2, 16))
    max_rounds = data.draw(st.integers(1, 4 * k))
    trace = fail_link_and_trace(t, link.a, link.b, probe, dest, max_rounds, k)
    assert trace.entries == reference_trace(t, link.a, link.b, probe, dest,
                                            max_rounds, k)


def test_trace_deterministic():
    a = fail_link_and_trace(line_topology(3), 1, 2, 0, 2, 64)
    b = fail_link_and_trace(line_topology(3), 1, 2, 0, 2, 64)
    assert a == b


def test_format_trace_csv():
    trace = fail_link_and_trace(line_topology(3), 1, 2, 0, 2, 64)
    text = format_trace(trace)
    lines = text.splitlines()
    assert lines[0] == "round,metric"
    assert lines[1] == "1,2"
    assert lines[-1] == "14,INF"
