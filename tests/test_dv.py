import dataclasses
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from fitroute import GenParams, QosLink, Topology, generate_topology
from fitroute.dv import (
    converge,
    exchange_round,
    extract_path,
    fail_link_and_trace,
    format_trace,
    init_tables,
)
from fitroute.topology import MAX_NODES, bfs_hops, remove_link

from helpers import (cut_topologies, drawn_topologies, grid_topologies,
                     line_topology, reference_exchange_round,
                     reference_init_tables, reference_trace, reference_walk)

# Hand-simulated synchronous recurrence for the 3-node line 0-1-2 with link
# {1,2} failed, infinity 16 (checked against an independent scratch
# simulation before this engine existed).
PROBE0_SEQUENCE = [2, 4, 4, 6, 6, 8, 8, 10, 10, 12, 12, 14, 14, 16]
PROBE1_SEQUENCE = [3, 3, 5, 5, 7, 7, 9, 9, 11, 11, 13, 13, 15, 15, 16]


def converged_line(n=3, infinity=16):
    s, _ = converge(line_topology(n), infinity)
    return s


def metrics(s):
    """Every metric of s as a full table, table[v][d] = s.metric(v, d)."""
    n = s.topology.n
    return tuple(tuple(s.metric(v, d) for d in range(n)) for v in range(n))


def state_from_table(t, table, infinity):
    """A DvState whose metrics are the table's, fixed point or not: near as
    init_tables sets it, reach and planes read off the table."""
    planes = (infinity - 1).bit_length()
    rows = [[(d, m) for d, m in enumerate(row) if m < infinity] for row in table]
    return dataclasses.replace(
        init_tables(t, infinity),
        reach=tuple(sum(1 << d for d, _ in row) for row in rows),
        planes=tuple(tuple(sum(1 << d for d, m in row if m >> j & 1) for row in rows)
                     for j in range(planes)))


def check_against_full_table(t, k):
    """Round for round, the bitset state's metrics equal the full table's
    and both report the same changes; converge returns the last state and
    the number of changing rounds, and every extracted path is the table's
    walk."""
    table = reference_init_tables(t, k)
    s = init_tables(t, k)
    rounds = 0
    while True:
        assert metrics(s) == table
        table_next, table_changed = reference_exchange_round(t, table, k)
        s_next, changed = exchange_round(s)
        assert changed == table_changed
        if not changed:
            break
        table, s, rounds = table_next, s_next, rounds + 1
    assert converge(t, k) == (s, rounds)
    for src in range(t.n):
        for dst in range(t.n):
            assert extract_path(s, src, dst) == reference_walk(t, table, k,
                                                               src, dst)


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
    assert s.metric(0, 2) == 16  # not a neighbor yet
    assert s.metric(0, 1) == 1
    assert all(s.metric(v, v) == 0 for v in range(3))
    assert s.near == s.reach == (0b011, 0b111, 0b110)
    # outside reach the planes hold the metric the last round reached, 1
    assert s.planes == ((0b110, 0b101, 0b011),) + ((0, 0, 0),) * 3


def test_init_tables_single_node():
    s = init_tables(Topology(1, ()), 16)
    assert metrics(s) == ((0,),)


def test_init_tables_rejects_tiny_infinity():
    with pytest.raises(ValueError):
        init_tables(line_topology(2), 1)


@pytest.mark.parametrize("infinity", [math.nan, math.inf, 2.5])
def test_engine_rejects_non_integer_infinity(infinity):
    # none of these is a hop metric; nan would fill the table with nans
    t = line_topology(3)
    for run in (lambda: converge(t, infinity),
                lambda: init_tables(t, infinity),
                lambda: fail_link_and_trace(t, 1, 2, 0, 2,
                                            infinity_metric=infinity)):
        with pytest.raises(ValueError, match="integer in 2..1024"):
            run()


def test_exchange_round_single_relaxation():
    s = init_tables(line_topology(3), 16)
    s2, changed = exchange_round(s)
    assert changed
    assert s2.metric(0, 2) == 2
    # metric 2 turns plane 1's bit on and plane 0's off outside the old reach
    assert s2.planes[:2] == ((0b010, 0b101, 0b010), (0b100, 0, 0b001))


def test_exchange_round_fixed_point_reports_unchanged():
    s = converged_line()
    s2, changed = exchange_round(s)
    assert not changed
    assert s2 == s


def test_exchange_round_reads_its_round_off_the_state():
    # each round adds the ring one metric further out; a caller could once
    # pass round 3 to a fresh state and get metric 4 for a 2-hop node
    t = line_topology(6)
    s = init_tables(t, 16)
    for rnd in range(1, 5):
        s, changed = exchange_round(s)
        assert changed and s.rounds == rnd
        assert s.metric(0, rnd + 1) == rnd + 1
        assert s.metric(0, rnd + 2) == 16
    assert exchange_round(s) == (s, False)
    assert metrics(s) == metrics(converge(t)[0])


@pytest.mark.parametrize("t, infinity", [
    (Topology(1, ()), 16), (line_topology(2), 2), (line_topology(6), 16),
    (line_topology(6), 4), (line_topology(40), 16)])
def test_converge_returns_the_rounds_its_state_counts(t, infinity):
    s, rounds = converge(t, infinity)
    # a line's farthest node is n - 1 hops out, reached in round n - 2
    assert s.rounds == rounds == min(max(t.n - 2, 0), infinity - 2)


def test_exchange_round_at_the_cap_changes_nothing():
    # infinity 3: metric 2 is the last below it, so round 2 would reach 3
    s, changed = exchange_round(init_tables(line_topology(5), 3))
    assert changed and s.metric(0, 2) == 2
    assert exchange_round(s) == (s, False)


def test_next_hop_tie_breaks_to_smallest_neighbor():
    # square 0-1, 0-2, 1-3, 2-3: node 0 reaches 3 via 1 or 2 at equal metric
    t = Topology(4, (
        QosLink(0, 1, 10.0, 1.0, 0.0, 0.0),
        QosLink(0, 2, 10.0, 1.0, 0.0, 0.0),
        QosLink(1, 3, 10.0, 1.0, 0.0, 0.0),
        QosLink(2, 3, 10.0, 1.0, 0.0, 0.0),
    ))
    s, _ = converge(t, 16)
    assert s.metric(0, 3) == 2
    assert extract_path(s, 0, 3) == [0, 1, 3]


@pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
def test_converge_chain_bound_and_distance(n):
    s, rounds = converge(line_topology(n), max(16, n + 1))
    assert rounds <= max(0, n - 1)
    assert s.metric(0, n - 1) == n - 1


def test_converge_complete_graph_immediate():
    links = tuple(QosLink(a, b, 10.0, 1.0, 0.0, 0.0)
                  for a in range(4) for b in range(a + 1, 4))
    s, rounds = converge(Topology(4, links), 16)
    assert rounds == 0  # neighbor initialization is already the fixed point
    assert all(s.metric(u, v) == 1 for u in range(4) for v in range(4) if u != v)


def test_converge_round_count_on_a_line():
    # the far end of a line is n - 1 hops away, reached in round n - 2
    # unless the cap k - 1 stops counting first
    for n in range(1, 22):
        for k in range(2, 17):
            assert converge(line_topology(n), k)[1] == max(0, min(n, k) - 2)


@settings(max_examples=300)
@given(any_topology() | drawn_topologies() | cut_topologies(),
       st.integers(2, 20))
def test_converge_equals_full_table_rounds(t, k):
    # metrics, round count and every pair's path, on graphs with several
    # components, with cut links and with caps below and above the diameter
    check_against_full_table(t, k)


@pytest.mark.parametrize("t, k", [
    (line_topology(5), 2),  # infinity 2: only dest's neighbours are set
    (Topology(4, (QosLink(0, 1, 10.0, 1.0, 0.0, 0.0),
                  QosLink(1, 2, 10.0, 1.0, 0.0, 0.0))), 16),  # 3 isolated
    (line_topology(12), 5),  # the far end lies beyond the cap
])
def test_column_edges_equal_full_table_rounds(t, k):
    # every destination's column at the edges of the exchange: one plane
    # (infinity 2), an isolated node, and metrics cut off at the cap
    check_against_full_table(t, k)
    s, _ = converge(t, k)
    assert len(s.planes) == (k - 1).bit_length()


@pytest.mark.parametrize("seed", range(12))
def test_converged_metrics_equal_bfs_oracle(seed):
    t = generate_topology(2 + seed, seed=seed)
    s, rounds = converge(t, 16)
    assert rounds <= t.n - 1
    for src in range(t.n):
        oracle = bfs_hops(t, src)
        for dst in range(t.n):
            assert s.metric(src, dst) == oracle[dst]  # generated => connected


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
    t = line_topology(3)
    s = state_from_table(t, ((0, 1, 1), (1, 0, 1), (1, 1, 0)), 16)
    with pytest.raises(RuntimeError):
        extract_path(s, 0, 2)


class CountingNear(tuple):
    """A near tuple that counts its reads: one per step of a walk."""

    reads = 0

    def __getitem__(self, v):
        self.reads += 1
        return super().__getitem__(v)


def test_extract_path_stops_a_cycling_walk():
    # ring 0-1-2-3-0 with dst 4 hanging off 0, whose forged metrics 7, 6, 5,
    # 4 toward 4 fall by one mod 4 around the ring: unbounded, the mod-4
    # rule would walk 0, 1, 2, 3, 0, ... for ever
    t = Topology(5, tuple(QosLink(a, b, 10.0, 1.0, 0.0, 0.0)
                          for a, b in ((0, 1), (1, 2), (2, 3), (0, 3), (0, 4))))
    s, _ = converge(t, 16)
    table = [list(row) for row in metrics(s)]
    for v, m in enumerate((7, 6, 5, 4)):
        table[v][4] = table[4][v] = m
    s = state_from_table(t, table, 16)
    s = dataclasses.replace(s, near=CountingNear(s.near))
    with pytest.raises(RuntimeError, match="no next hop at node 3"):
        extract_path(s, 0, 4)
    assert s.near.reads == 15  # infinity_metric - 1 steps


@st.composite
def forged_states(draw):
    """A topology, an infinity and any table of metrics on it, fixed point
    or not, as a state whose near counts its reads."""
    t = draw(drawn_topologies())
    k = draw(st.integers(2, 20))
    table = draw(st.lists(st.lists(st.integers(0, k), min_size=t.n,
                                   max_size=t.n), min_size=t.n, max_size=t.n))
    s = state_from_table(t, table, k)
    return dataclasses.replace(s, near=CountingNear(s.near))


@given(forged_states(), st.data())
def test_extract_path_on_any_state_is_bounded_and_follows_links(s, data):
    # on a state that is not a fixed point, a walk either ends at dst or
    # raises RuntimeError, after at most infinity_metric - 1 steps, each
    # along a link of s.topology
    t = s.topology
    src = data.draw(st.integers(0, t.n - 1))
    dst = data.draw(st.integers(0, t.n - 1))
    try:
        path = extract_path(s, src, dst)
    except RuntimeError:
        path = None
    assert s.near.reads <= s.infinity_metric - 1
    if path is not None:
        assert path[0] == src and path[-1] == dst
        assert len(path) <= s.infinity_metric
        assert all(t.link_between(u, v) for u, v in zip(path, path[1:]))


@pytest.mark.parametrize("seed", range(8))
def test_converged_tables_self_consistent(seed):
    # every finite metric satisfies metric(u, d) = 1 + min over neighbors m
    # of metric(m, d)
    t = generate_topology(10, seed=seed)
    s, _ = converge(t, 16)
    for u in range(t.n):
        for d in range(t.n):
            if u == d or s.metric(u, d) >= s.infinity_metric:
                continue
            assert s.metric(u, d) == 1 + min(s.metric(m, d)
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
            assert len(path) - 1 == s.metric(src, dst)
            assert all(t.link_between(u, v) for u, v in zip(path, path[1:]))


def test_engine_bounds_infinity_by_max_nodes():
    # counting to infinity takes about infinity_metric rounds, and no hop
    # metric on a topology the file format accepts reaches MAX_NODES
    t = line_topology(3)
    for run in (lambda: converge(t, MAX_NODES + 1),
                lambda: init_tables(t, MAX_NODES + 1),
                lambda: fail_link_and_trace(t, 1, 2, 0, 2,
                                            infinity_metric=10**20)):
        with pytest.raises(ValueError, match=f"integer in 2..{MAX_NODES}"):
            run()
    trace = fail_link_and_trace(t, 1, 2, 0, 2, infinity_metric=MAX_NODES)
    assert trace.entries[-1] == (MAX_NODES - 2, MAX_NODES)


# --- count-to-infinity ---


def test_count_to_infinity_probe_far_node():
    trace = fail_link_and_trace(line_topology(3), 1, 2, probe=0, dest=2)
    assert [m for _, m in trace.entries] == PROBE0_SEQUENCE
    assert [r for r, _ in trace.entries] == list(range(1, 15))


def test_count_to_infinity_probe_near_node():
    trace = fail_link_and_trace(line_topology(3), 1, 2, probe=1, dest=2)
    assert [m for _, m in trace.entries] == PROBE1_SEQUENCE


def test_counting_metric_monotone_and_bounded():
    trace = fail_link_and_trace(line_topology(3), 1, 2, probe=0, dest=2)
    metrics = [m for _, m in trace.entries]
    assert all(a <= b for a, b in zip(metrics, metrics[1:]))
    assert metrics[-1] == 16
    assert len(metrics) <= 16


def test_irrelevant_failure_terminates_first_round():
    # triangle 0-1-2 plus pendant 3 on node 0; routes to 3 never cross {1,2}
    t = Topology(4, (
        QosLink(0, 1, 10.0, 1.0, 0.0, 0.0),
        QosLink(1, 2, 10.0, 1.0, 0.0, 0.0),
        QosLink(0, 2, 10.0, 1.0, 0.0, 0.0),
        QosLink(0, 3, 10.0, 1.0, 0.0, 0.0),
    ))
    s, _ = converge(t, 16)
    before = s.metric(1, 3)
    trace = fail_link_and_trace(t, 1, 2, probe=1, dest=3)
    assert trace.entries == ((1, before),)


@pytest.mark.parametrize("probe, dest", [(-1, 2), (3, 2), (0, -1), (0, 3)])
def test_trace_rejects_nodes_outside_the_topology(probe, dest):
    with pytest.raises(ValueError,
                       match=r"(probe|dest) must be an integer node id in \[0, 3\)"):
        fail_link_and_trace(line_topology(3), 1, 2, probe, dest)


@pytest.mark.parametrize("args", [
    (True, 2, 0, 2), (1, 2.0, 0, 2),  # the failed link's ends
    (1, 2, True, 2), (1, 2, 0, False), (1, 2, 0.0, 2), (1, 2, 0, "2"),
])
def test_trace_rejects_non_int_nodes(args):
    # True would trace node 1
    with pytest.raises(ValueError, match="must be an int|not a link"):
        fail_link_and_trace(line_topology(3), *args)


def test_trace_takes_infinity_by_keyword_only():
    # a stale round cap passed by position must not become the infinity
    with pytest.raises(TypeError):
        fail_link_and_trace(line_topology(3), 1, 2, 0, 2, 64)


@pytest.mark.parametrize("src, dst", [(True, 2), (0, False), (0.0, 2),
                                      (0, "2"), (None, 2)])
def test_extract_path_rejects_non_int_nodes(src, dst):
    # (True, 2) would walk to [True, 2]
    with pytest.raises(ValueError, match="(src|dst) must be an integer node id"):
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
    trace = fail_link_and_trace(t, link.a, link.b, probe, dest,
                                infinity_metric=inf)
    failed = remove_link(t, link.a, link.b)
    assert trace.topology == failed
    assert trace.entries[-1][1] == min(bfs_hops(failed, probe).get(dest, inf),
                                       inf)


@settings(max_examples=300, deadline=None)
@given(st.one_of(any_topology(), drawn_topologies(), cut_topologies(),
                 grid_topologies()), st.data())
def test_trace_ends_by_itself_as_full_table_rounds_do(t, data):
    # with no round cap, every trace stops by a stop rule within
    # infinity_metric rounds, and its entries are those of exchanging every
    # column, failures that cut dest off included
    assume(t.links)
    link = data.draw(st.sampled_from(t.links))
    # often the failed link's own endpoints, so failing a bridge cuts dest off
    anywhere = st.integers(0, t.n - 1)
    probe = data.draw(st.just(link.a) | anywhere)
    dest = data.draw(st.just(link.b) | anywhere)
    k = data.draw(st.integers(2, 64))
    trace = fail_link_and_trace(t, link.a, link.b, probe, dest,
                                infinity_metric=k)
    assert trace.entries == reference_trace(t, link.a, link.b, probe, dest, k)
    rounds, metrics = zip(*trace.entries)
    assert rounds == tuple(range(1, len(rounds) + 1)) and len(rounds) <= k
    assert all(m < k for m in metrics[:-1])
    # the last entry is the probe's capped distance on the failed topology,
    # and it caps or the column stopped changing, so the probe's did too
    assert metrics[-1] == min(bfs_hops(trace.topology, probe).get(dest, k), k)
    before = (metrics[-2] if len(metrics) > 1
              else converge(t, k)[0].metric(probe, dest))
    assert metrics[-1] in (k, before)


def test_trace_deterministic():
    a = fail_link_and_trace(line_topology(3), 1, 2, 0, 2)
    b = fail_link_and_trace(line_topology(3), 1, 2, 0, 2)
    assert a == b


def test_format_trace_csv():
    trace = fail_link_and_trace(line_topology(3), 1, 2, 0, 2)
    text = format_trace(trace)
    lines = text.splitlines()
    assert lines[0] == "round,metric"
    assert lines[1] == "1,2"
    assert lines[-1] == "14,INF"
