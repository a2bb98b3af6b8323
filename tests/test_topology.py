import math

import pytest
from hypothesis import given, strategies as st

from fitroute import GenParams, QosLink, Topology, generate_topology
from fitroute.topology import (
    SplitMix64,
    bfs_hops,
    feasible_subgraph,
    format_topology,
    generate_topology_rng,
    parse_topology,
    remove_link,
    topology_fingerprint,
)

from helpers import is_connected, line_topology, triangle_topology


# --- SplitMix64 ---
# Reference outputs evaluated independently from the published three-step
# formula before this module was written.

SEED0_FIRST3 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_splitmix64_seed0_reference_vector():
    rng = SplitMix64(0)
    assert tuple(rng.next_u64() for _ in range(3)) == SEED0_FIRST3


def test_splitmix64_seed1_seed2_differ():
    assert SplitMix64(1).next_u64() == 0x910A2DEC89025CC1
    assert SplitMix64(2).next_u64() == 0x975835DE1C9756CE


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_splitmix64_same_seed_same_sequence(seed):
    a, b = SplitMix64(seed), SplitMix64(seed)
    assert [a.next_u64() for _ in range(8)] == [b.next_u64() for _ in range(8)]


@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.integers(min_value=0, max_value=300))
def test_splitmix64_skip_equals_draws(seed, count):
    a, b = SplitMix64(seed), SplitMix64(seed)
    a.skip(count)
    for _ in range(count):
        b.next_u64()
    assert a.state == b.state


def test_next_float_in_unit_interval():
    rng = SplitMix64(123)
    for _ in range(1000):
        f = rng.next_float()
        assert 0.0 <= f < 1.0


# --- QosLink / GenParams / Topology invariants ---


def test_link_normalizes_endpoint_order():
    link = QosLink(5, 2, 10.0, 1.0, 0.0, 0.0)
    assert (link.a, link.b) == (2, 5)


@pytest.mark.parametrize("kwargs", [
    dict(a=1, b=1),
    dict(bandwidth=0.0),
    dict(bandwidth=-3.0),
    dict(delay=-1.0),
    dict(jitter=-0.5),
    dict(loss=1.0),
    dict(loss=-0.1),
])
def test_link_rejects_bad_attributes(kwargs):
    base = dict(a=0, b=1, bandwidth=10.0, delay=1.0, jitter=0.0, loss=0.0)
    base.update(kwargs)
    with pytest.raises(ValueError):
        QosLink(**base)


@pytest.mark.parametrize("kwargs", [
    dict(bandwidth=math.inf),
    dict(bandwidth=math.nan),
    dict(delay=math.nan),
    dict(delay=math.inf),
    dict(jitter=math.inf),
    dict(loss=math.nan),
])
def test_link_rejects_non_finite_attributes(kwargs):
    base = dict(a=0, b=1, bandwidth=10.0, delay=1.0, jitter=0.0, loss=0.0)
    base.update(kwargs)
    with pytest.raises(ValueError):
        QosLink(**base)


@pytest.mark.parametrize("a, b", [(0, 1.0), (0.0, 1), (2.0, 1.0), ("0", 1),
                                  (0, None)])
def test_link_rejects_non_int_endpoints(a, b):
    with pytest.raises(ValueError, match="node ids must be ints"):
        QosLink(a, b, 10.0, 1.0, 0.0, 0.0)


def test_gen_params_validation():
    with pytest.raises(ValueError):
        GenParams(edge_prob=1.5)
    with pytest.raises(ValueError):
        GenParams(bandwidth_range=(10.0, 1.0))
    with pytest.raises(ValueError):
        GenParams(loss_range=(0.0, 1.0))
    with pytest.raises(ValueError):
        GenParams(bandwidth_range=(0.0, 10.0))


@pytest.mark.parametrize("name", ["bandwidth_range", "delay_range",
                                  "jitter_range", "loss_range"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_gen_params_rejects_non_finite_ranges(name, bad):
    with pytest.raises(ValueError):
        GenParams(**{name: (0.5, bad)})


def test_topology_rejects_duplicates_and_stray_endpoints():
    l1 = QosLink(0, 1, 10.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        Topology(2, (l1, QosLink(1, 0, 5.0, 1.0, 0.0, 0.0)))
    with pytest.raises(ValueError):
        Topology(2, (QosLink(0, 5, 10.0, 1.0, 0.0, 0.0),))
    with pytest.raises(ValueError):
        Topology(0, ())


@pytest.mark.parametrize("n", [3.0, "3", None, 2.5])
def test_topology_rejects_non_int_node_count(n):
    with pytest.raises(ValueError, match="node count must be an int"):
        Topology(n, (QosLink(0, 1, 10.0, 1.0, 0.0, 0.0),))


def test_adjacency_sorted_by_neighbor():
    t = Topology(4, (
        QosLink(1, 3, 10.0, 1.0, 0.0, 0.0),
        QosLink(0, 1, 10.0, 1.0, 0.0, 0.0),
        QosLink(1, 2, 10.0, 1.0, 0.0, 0.0),
    ))
    assert list(t.adjacency[1]) == [0, 2, 3]
    assert t.links == tuple(sorted(t.links, key=lambda l: l.pair))


# --- generation ---


def test_generate_rejects_empty():
    with pytest.raises(ValueError):
        generate_topology(0)


def test_generate_single_node():
    t = generate_topology(1, seed=99)
    assert t.n == 1 and t.links == () and is_connected(t)


def test_generate_two_nodes_is_the_chain():
    t = generate_topology(2, seed=5)
    assert len(t.links) == 1 and t.links[0].pair == (0, 1)


def test_generate_64_nodes_connected_with_chain_floor():
    t = generate_topology(64, GenParams(edge_prob=0.15), seed=42)
    assert t.n == 64
    assert is_connected(t)
    assert len(t.links) >= 63


@pytest.mark.parametrize("seed", range(0, 60, 7))
def test_generated_attributes_within_ranges(seed):
    params = GenParams(edge_prob=0.3, bandwidth_range=(2.0, 9.0),
                       delay_range=(1.0, 4.0), jitter_range=(0.5, 2.0),
                       loss_range=(0.01, 0.2))
    t = generate_topology(12, params, seed)
    for l in t.links:
        assert 2.0 <= l.bandwidth <= 9.0
        assert 1.0 <= l.delay <= 4.0
        assert 0.5 <= l.jitter <= 2.0
        assert 0.01 <= l.loss <= 0.2


def test_generation_connected_across_sizes_and_seeds():
    for seed in range(1000):
        n = 1 + seed % 64
        assert is_connected(generate_topology(n, seed=seed))


def test_generation_deterministic():
    a = generate_topology(17, seed=1234)
    b = generate_topology(17, seed=1234)
    assert a == b
    assert format_topology(a) == format_topology(b)


@pytest.mark.parametrize("n, edge_prob, seed", [
    (1, 0.15, 0), (2, 0.15, 5), (17, 0.15, 3), (40, 0.05, 11), (64, 0.9, 7)])
def test_generation_consumes_the_draws_replay_skips(n, edge_prob, seed):
    # run_comparison skips n(n-1)/2 + 4*len(links) draws when it replays a
    # topology, so generation must consume exactly that many
    rng = SplitMix64(seed)
    t = generate_topology_rng(n, GenParams(edge_prob=edge_prob), rng)
    skipped = SplitMix64(seed)
    skipped.skip(n * (n - 1) // 2 + 4 * len(t.links))
    assert rng.state == skipped.state


def test_generation_fingerprint_pinned():
    # regression pin: any drift in the draw order or formatting changes this
    t = generate_topology(8, seed=42)
    assert f"{topology_fingerprint(t):016x}" == "cc8531dd54b6e194"


# --- feasible_subgraph ---


def test_feasible_subgraph_filters_by_bandwidth():
    t = triangle_topology(10.0, 5.0, 2.0)
    pruned = feasible_subgraph(t, 4.0)
    assert {l.pair for l in pruned.links} == {(0, 1), (1, 2)}
    assert pruned.n == t.n


def test_feasible_subgraph_demand_zero_keeps_everything():
    t = triangle_topology(10.0, 5.0, 2.0)
    assert feasible_subgraph(t, 0.0) == t


def test_feasible_subgraph_demand_above_all():
    t = triangle_topology(10.0, 5.0, 2.0)
    assert feasible_subgraph(t, 11.0).links == ()


def test_feasible_subgraph_rejects_negative_demand():
    with pytest.raises(ValueError):
        feasible_subgraph(triangle_topology(1, 1, 1), -1.0)


@pytest.mark.parametrize("demand", [math.nan, math.inf])
def test_feasible_subgraph_rejects_non_finite_demand(demand):
    # nan compares false with every bandwidth, so it would prune every link
    with pytest.raises(ValueError, match="demand"):
        feasible_subgraph(triangle_topology(1, 1, 1), demand)


@given(st.floats(min_value=0, max_value=120), st.floats(min_value=0, max_value=120))
def test_pruning_is_monotone(d1, d2):
    lo, hi = sorted((d1, d2))
    t = generate_topology(12, seed=3)
    tighter = {l.pair for l in feasible_subgraph(t, hi).links}
    looser = {l.pair for l in feasible_subgraph(t, lo).links}
    assert tighter <= looser


# --- remove_link / is_connected / bfs_hops ---


def test_remove_link():
    t = line_topology(3)
    t2 = remove_link(t, 2, 1)
    assert {l.pair for l in t2.links} == {(0, 1)}
    assert not is_connected(t2)
    with pytest.raises(ValueError):
        remove_link(t, 0, 2)


def test_is_connected_cases():
    assert is_connected(line_topology(3))
    assert not is_connected(Topology(2, ()))
    assert is_connected(Topology(1, ()))


def test_bfs_hops_on_line():
    assert bfs_hops(line_topology(3), 0) == {0: 0, 1: 1, 2: 2}


def test_bfs_hops_isolated_source():
    t = Topology(3, (QosLink(1, 2, 10.0, 1.0, 0.0, 0.0),))
    assert bfs_hops(t, 0) == {0: 0}


def test_bfs_hops_complete_graph():
    links = tuple(QosLink(a, b, 10.0, 1.0, 0.0, 0.0)
                  for a in range(4) for b in range(a + 1, 4))
    t = Topology(4, links)
    for src in range(4):
        hops = bfs_hops(t, src)
        assert all(hops[v] == (0 if v == src else 1) for v in range(4))


def test_bfs_hops_rejects_bad_source():
    with pytest.raises(ValueError):
        bfs_hops(line_topology(3), 3)


@pytest.mark.parametrize("seed", range(0, 40, 5))
def test_bfs_triangle_inequality_across_links(seed):
    t = generate_topology(2 + seed % 14, seed=seed)
    hops = bfs_hops(t, 0)
    for l in t.links:
        if l.a in hops and l.b in hops:
            assert abs(hops[l.a] - hops[l.b]) <= 1


# --- file format and fingerprint ---


def test_format_parse_round_trip():
    t = generate_topology(10, seed=77)
    text = format_topology(t)
    again = parse_topology(text)
    assert again.n == t.n
    assert format_topology(again) == text
    assert topology_fingerprint(again) == topology_fingerprint(t)


def test_format_idempotent_for_tiny_values():
    # attributes small enough to format in exponent notation must survive
    # a parse/format cycle unchanged
    params = GenParams(loss_range=(1e-8, 1e-5), jitter_range=(0.0, 1e-4))
    for seed in range(20):
        text = format_topology(generate_topology(10, params, seed))
        assert format_topology(parse_topology(text)) == text


def test_format_shape():
    t = triangle_topology(10.0, 5.0, 2.0)
    lines = format_topology(t).splitlines()
    assert lines[0] == "n=3"
    assert len(lines) == 4
    assert lines[1].split()[:2] == ["0", "1"]


@pytest.mark.parametrize("text", [
    "", "nodes=3\n", "n=3\n0 1 10\n", "n=x\n",
])
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_topology(text)


def test_parse_bounds_node_count_before_allocating():
    with pytest.raises(ValueError, match="1..1024"):
        parse_topology("n=1025\n")
    assert parse_topology("n=1024\n").n == 1024


def test_fingerprints_distinct_across_seeds():
    prints = {topology_fingerprint(generate_topology(16, seed=s))
              for s in range(200)}
    assert len(prints) == 200


def test_fingerprint_sensitive_to_any_change():
    t = generate_topology(6, seed=1)
    t2 = remove_link(t, *t.links[0].pair)
    assert topology_fingerprint(t) != topology_fingerprint(t2)


def test_component_ids():
    t = Topology(6, (
        QosLink(1, 4, 10.0, 1.0, 0.0, 0.0),
        QosLink(4, 5, 10.0, 1.0, 0.0, 0.0),
        QosLink(0, 2, 10.0, 1.0, 0.0, 0.0),
    ))
    assert t.components == (0, 1, 0, 3, 1, 1)
    assert t.component_sizes == (2, 3, 2, 1, 3, 3)
    assert generate_topology(20, seed=3).components == (0,) * 20
