import hashlib
import math
import sys
from bisect import bisect_right
from itertools import chain

import pytest
from hypothesis import given, strategies as st

from fitroute import (GenParams, QosLink, Route, RouteRequest, Topology,
                      generate_topology, select_route)
from fitroute.topology import (
    _BATCH,
    SplitMix64,
    _draws,
    _link_flags,
    _link_threshold,
    bfs_hops,
    feasible_subgraph,
    format_topology,
    generate_topology_rng,
    generation_draws,
    parse_topology,
    remove_link,
    topology_fingerprint,
)

from helpers import (boundary_demands, counting_link_builds, cut_topologies,
                     drawn_topologies, grid_topologies, is_connected, line_topology,
                     reference_parse, reference_topology_rng, request_gate,
                     seed_drawing, splitmix64_unmix, triangle_topology)

SEEDS = st.one_of(st.sampled_from((0, 2**64 - 1)), st.integers(0, 2**64 - 1))


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
    # the reference generator's float of a draw, next_u64() / 2**64, lies
    # in [0, 1) but for the top 1024 draws, which round up to 1.0
    rng = SplitMix64(123)
    for _ in range(1000):
        f = rng.next_u64() / 2**64
        assert 0.0 <= f < 1.0
    assert (2**64 - 1025) / 2**64 < 1.0 == (2**64 - 1024) / 2**64


@given(SEEDS, st.one_of(st.sampled_from((0, 1, _BATCH - 1, _BATCH, _BATCH + 1,
                                         3 * _BATCH + 5, 5 * _BATCH)),
                        st.integers(0, 2 * _BATCH + 3)))
def test_batched_draws_equal_next_u64(seed, count):
    rng, ref, skipped = SplitMix64(seed), SplitMix64(seed), SplitMix64(seed)
    assert list(chain.from_iterable(_draws(rng, count))) == [
        ref.next_u64() for _ in range(count)]
    skipped.skip(count)
    assert rng.state == ref.state == skipped.state


@given(SEEDS)
def test_unmix_inverts_the_mixer(seed):
    rng = SplitMix64(seed)
    z = rng.next_u64()
    assert splitmix64_unmix(z) == rng.state
    crafted = SplitMix64(seed_drawing(z, 7))
    crafted.skip(6)
    assert crafted.next_u64() == z


@pytest.mark.parametrize("seed", [0, 2**64 - 1, 0x5EED])
@pytest.mark.parametrize("count", [0, 1, _BATCH - 1, _BATCH, _BATCH + 1,
                                   3 * _BATCH + 5])
@pytest.mark.parametrize("threshold", [0, 1, 2**63, 2**64 - 1, 2**64])
def test_link_flags_equal_the_per_draw_test(threshold, count, seed):
    rng, ref = SplitMix64(seed), SplitMix64(seed)
    flags = _link_flags(rng, count, threshold)
    draws = chain.from_iterable(_draws(ref, count))
    assert list(flags) == [z < threshold for z in draws]
    assert rng.state == ref.state


@pytest.mark.parametrize("k", [1, 2, _BATCH, _BATCH + 1, 2 * _BATCH + 3])
@pytest.mark.parametrize("threshold", [1, 2**63, 2**64 - 1024, 2**64 - 1, 2**64])
def test_link_flags_split_at_the_threshold(threshold, k):
    # draw k crafted to sit just below and then at the threshold, in lane
    # k - 1 of its batch: a carry into bit 64 flags it, one short does not
    for z in (threshold - 1, threshold):
        if z < 2**64:
            flags = _link_flags(SplitMix64(seed_drawing(z, k)), k, threshold)
            assert flags[-1] == (z < threshold)


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


@pytest.mark.parametrize("name", ["bandwidth", "delay", "jitter", "loss"])
@pytest.mark.parametrize("bad", [True, False, "0.5", None])
def test_link_rejects_non_number_attributes(name, bad):
    base = dict(a=0, b=1, bandwidth=10.0, delay=1.0, jitter=0.0, loss=0.0)
    with pytest.raises(ValueError, match="link attributes must be numbers"):
        QosLink(**{**base, name: bad})


@pytest.mark.parametrize("a, b", [(0, 1.0), (0.0, 1), (2.0, 1.0), ("0", 1),
                                  (0, None), (True, 2), (0, True)])
def test_link_rejects_non_int_endpoints(a, b):
    with pytest.raises(ValueError, match="node ids must be ints"):
        QosLink(a, b, 10.0, 1.0, 0.0, 0.0)


def test_gen_params_validation():
    with pytest.raises(ValueError, match="edge_prob must lie in"):
        GenParams(edge_prob=1.5)
    with pytest.raises(ValueError, match=r"bandwidth_range needs min <= max"):
        GenParams(bandwidth_range=(10.0, 1.0))
    with pytest.raises(ValueError, match=r"jitter_range needs min <= max"):
        GenParams(jitter_range=(math.nan, 1.0))
    # a range's ends are checked as a QosLink, whose messages they raise
    with pytest.raises(ValueError, match=r"loss must lie in \[0, 1\)"):
        GenParams(loss_range=(0.0, 1.0))
    with pytest.raises(ValueError, match="bandwidth must be finite and > 0"):
        GenParams(bandwidth_range=(0.0, 10.0))
    with pytest.raises(ValueError, match="delay and jitter must be finite"):
        GenParams(delay_range=(-1.0, 2.0))
    with pytest.raises(ValueError, match="bools"):  # a report would echo `true`
        GenParams(edge_prob=True)
    for name in ("bandwidth_range", "delay_range", "jitter_range", "loss_range"):
        for bad in (None, (0.5,), (0.5, 1.0, 2.0)):
            with pytest.raises(ValueError, match=r"must be a \(min, max\) pair"):
                GenParams(**{name: bad})


@pytest.mark.parametrize("name", ["bandwidth_range", "delay_range",
                                  "jitter_range", "loss_range"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, True, "5", None])
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


@pytest.mark.parametrize("n", [3.0, "3", None, 2.5, True])
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


@given(st.one_of(drawn_topologies(), cut_topologies(), grid_topologies()))
def test_adjacency_maps_each_neighbour_to_its_link(t):
    # adjacency holds link indexes; the memoised links are the columns'
    # rows, and the QosLinks they make build an equal store
    for a in range(t.n):
        touching = {l.a + l.b - a: l for l in t.links if a in l.pair}
        assert {b: t.links[k] for b, k in t.adjacency[a].items()} == touching
        assert all(t.links[t.adjacency[a][b]] is link
                   for b, link in touching.items())
        assert all(type(k) is int for k in t.adjacency[a].values())
        assert list(t.adjacency[a]) == sorted(touching)
    fresh = Topology(t.n, t.links)
    assert fresh == t and hash(fresh) == hash(t)
    assert "links" not in vars(fresh)


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


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1, 1.0, True])
def test_generate_rejects_seeds_outside_u64(seed):
    # SplitMix64 reads a seed mod 2^64: 2^64 + 1 would build seed 1's
    # topology, and -1 that of 2^64 - 1
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\^64\)"):
        generate_topology(8, seed=seed)


def test_generate_accepts_both_ends_of_u64():
    assert generate_topology(8, seed=0) != generate_topology(8, seed=2**64 - 1)


@pytest.mark.parametrize("n, edge_prob, seed", [
    (1, 0.15, 0), (2, 0.15, 5), (17, 0.15, 3), (40, 0.05, 11), (64, 0.9, 7),
    (1, 0.0, 1), (1, 1.0, 2), (2, 0.0, 3), (2, 1.0, 4), (40, 0.0, 5),
    (40, 1.0, 6), (128, 0.15, 1)])
def test_generation_consumes_the_draws_replay_skips(n, edge_prob, seed):
    # run_comparison skips generation_draws(t) draws before it draws its
    # queries, so generation must consume exactly that many
    rng = SplitMix64(seed)
    t = generate_topology_rng(n, GenParams(edge_prob=edge_prob), rng)
    skipped = SplitMix64(seed)
    skipped.skip(generation_draws(t))
    assert rng.state == skipped.state


def _assert_same_generation(n, params, seed):
    rng, ref = SplitMix64(seed), SplitMix64(seed)
    t = generate_topology_rng(n, params, rng)
    expected = reference_topology_rng(n, params, ref)
    # the text keeps each attribute's float exactly (repr)
    assert format_topology(t) == format_topology(expected)
    assert t == expected
    assert rng.state == ref.state


@pytest.mark.parametrize("edge_prob", [0.0, 1.0])
def test_generation_equals_scalar_reference_at_edge_probs_0_and_1(edge_prob):
    for n in range(1, 65):
        _assert_same_generation(n, GenParams(edge_prob=edge_prob), seed=n)


@given(st.integers(1, 64), st.floats(0.0, 1.0), SEEDS,
       st.sampled_from([((1.0, 100.0), (1.0, 20.0)), ((1, 10), (0, 3)),
                        ((2.5, 2.5), (0.0, 1e-9))]))
def test_generation_equals_scalar_reference(n, edge_prob, seed, ranges):
    bandwidth_range, delay_range = ranges
    _assert_same_generation(n, GenParams(edge_prob=edge_prob,
                                         bandwidth_range=bandwidth_range,
                                         delay_range=delay_range), seed)


def test_link_threshold_edges():
    # draws from 2^64 - 1024 up divide to exactly 1.0, so not even
    # edge_prob 1.0 links their pairs
    assert _link_threshold(1.0) == 2**64 - 1024
    assert _link_threshold(0.0) == 0
    assert _link_threshold(5e-324) == 1


@given(st.floats(0.0, 1.0))
def test_link_threshold_brackets_edge_prob(p):
    thr = _link_threshold(p)
    assert (thr - 1) / 2**64 < p <= thr / 2**64


@pytest.mark.parametrize("draw, links", [(2**64 - 1025, 3), (2**64 - 1024, 2),
                                         (2**64 - 1, 2)])
def test_edge_prob_1_links_no_pair_whose_draw_rounds_to_1(draw, links):
    # three nodes: two permutation draws, then one pair off the chain
    seed = seed_drawing(draw, 3)
    rng = SplitMix64(seed)
    assert [rng.next_u64() for _ in range(3)][-1] == draw
    params = GenParams(edge_prob=1.0)
    assert len(generate_topology(3, params, seed).links) == links
    _assert_same_generation(3, params, seed)


_FLOAT_MAX = sys.float_info.max
_LOSS_MAX = math.nextafter(1.0, 0.0)


@st.composite
def extreme_generations(draw):
    """(n, edge_prob, ranges, seed) with ranges that reach the float
    extremes, such as subnormal and near-maximal bounds and a loss max one
    ulp below 1, and now and then an end no link may have. Half the seeds
    are crafted so that one of the first link's four attribute draws, the
    loss most often, is among the top 2048, which read 1.0 from 2^64 - 1024
    up and just under 1.0 below."""
    def pair(lo, hi, lows, highs):
        x = draw(st.one_of(st.sampled_from(lows), st.floats(lo, hi)))
        y = draw(st.one_of(st.sampled_from(highs), st.floats(x, hi)))
        return (x, max(x, y))
    big = (_FLOAT_MAX, math.nextafter(_FLOAT_MAX, 0.0), _FLOAT_MAX / 2)
    ranges = (
        pair(5e-324, _FLOAT_MAX, (0.0, 5e-324, 1e-310, 1.0), big),
        pair(0.0, _FLOAT_MAX, (0.0, 5e-324), (*big, math.inf)),
        pair(0.0, _FLOAT_MAX, (0.0, 5e-324), big),
        # lo + (_LOSS_MAX - lo) rounds up to 1.0 for lo 0.3, not for 0 or 0.5
        pair(0.0, _LOSS_MAX, (0.0, 0.3, 0.381887309488307, 0.5),
             (_LOSS_MAX, 1.0)))
    n = draw(st.integers(1, 8))
    first = n - 1 + (n - 1) * (n - 2) // 2  # the draws before the first link's
    top = st.builds(seed_drawing,
                    st.one_of(st.sampled_from((2**64 - 1, 2**64 - 1024)),
                              st.integers(2**64 - 2048, 2**64 - 1)),
                    st.one_of(st.just(first + 4), st.integers(first + 1, first + 4)))
    return n, draw(st.floats(0.0, 1.0)), ranges, draw(st.one_of(SEEDS, top))


def _valid_attribute(k, x):
    """True when a link with x as its attribute k (bandwidth, delay, jitter,
    loss) and valid others passes QosLink's checks."""
    attrs = [1.0, 0.0, 0.0, 0.0]
    attrs[k] = x
    try:
        QosLink(0, 1, *attrs)
    except ValueError:
        return False
    return True


@given(extreme_generations())
def test_generated_links_pass_the_checked_constructor(case):
    n, edge_prob, ranges, seed = case
    # GenParams refuses exactly the ranges with an end no link may have:
    # the minimum, the maximum, or lo + (hi - lo), the value the top 1024
    # draws give. Every range it accepts then generates, from any seed,
    # links the checked constructor accepts, equal to the scalar reference's
    accepted = all(_valid_attribute(k, x) for k, (lo, hi) in enumerate(ranges)
                   for x in (lo, hi, lo + (hi - lo)))
    names = ("bandwidth_range", "delay_range", "jitter_range", "loss_range")
    kwargs = dict(zip(names, ranges))
    if not accepted:
        with pytest.raises(ValueError):
            GenParams(edge_prob, **kwargs)
        return
    params = GenParams(edge_prob, **kwargs)
    for link in generate_topology(n, params, seed).links:
        fields = (link.a, link.b, link.bandwidth, link.delay, link.jitter, link.loss)
        assert QosLink(*fields) == link
        assert all(type(x) is int for x in fields[:2])
        assert all(type(x) is float for x in fields[2:])
    _assert_same_generation(n, params, seed)


@pytest.mark.parametrize("lo, rejected", [(0.0, False), (0.3, True),
                                          (0.381887309488307, True), (0.5, False)])
def test_generation_rejects_a_loss_rounded_up_to_1(lo, rejected):
    # from 2^64 - 1024 up a draw reads exactly 1.0, and the loss is then
    # lo + (hi - lo): for lo 0.3 and 0.381887309488307 that rounds up to
    # 1.0, so GenParams refuses the range before any seed draws it. Two
    # nodes take one permutation draw, no pair draws, then bandwidth,
    # delay, jitter and loss, so the loss takes draw 5
    if rejected:
        with pytest.raises(ValueError, match=r"loss must lie in \[0, 1\), got 1\.0"):
            GenParams(loss_range=(lo, _LOSS_MAX))
        return
    params = GenParams(loss_range=(lo, _LOSS_MAX))
    for draw in (2**64 - 1, 2**64 - 1024):
        seed = seed_drawing(draw, 5)
        assert generate_topology(2, params, seed).links[0].loss < 1.0
        _assert_same_generation(2, params, seed)


def test_generation_fingerprint_pinned():
    # regression pin: any drift in the draw order or formatting changes this
    t = generate_topology(8, seed=42)
    assert f"{topology_fingerprint(t):016x}" == "fc7a89280620a29a"


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


def test_parse_bounds_link_lines_before_converting():
    # a third line no link of 2 nodes can be: rejected by count, the bad
    # field of its last line never read
    text = "n=2\n" + "0 1 1.0 1.0 0.0 0.0\n" * 2 + "0 1 x 1.0 0.0 0.0\n"
    with pytest.raises(ValueError, match=r"^3 link lines, but n=2 holds at "
                                         r"most 1 links$"):
        parse_topology(text)
    assert len(parse_topology("n=3\n0 1 1.0 1.0 0.0 0.0\n0 2 1.0 1.0 0.0 0.0\n"
                              "1 2 1.0 1.0 0.0 0.0\n").links) == 3


_ODD_FIELDS = ("nan", "inf", "-inf", "1e309", "-0.0", "0x1", "-1", "-3")


@st.composite
def mutated_topology_texts(draw):
    """A formatted generated topology of up to 12 nodes, or of 80 at
    edge_prob 0.5, whose 1500-odd link lines span two chunks of the parse,
    its link lines mutated up to three times: ids swapped, a field set to
    one no valid link has or to an odd spelling of one, a field dropped or
    added, or a line duplicated."""
    n, edge_prob = draw(st.one_of(st.tuples(st.integers(1, 12), st.floats(0.0, 1.0)),
                                  st.just((80, 0.5))))
    params = GenParams(edge_prob=edge_prob)
    lines = format_topology(generate_topology(n, params, draw(SEEDS))).splitlines()
    for _ in range(draw(st.integers(0, 3)) if len(lines) > 1 else 0):
        i = draw(st.integers(1, len(lines) - 1))
        fields = lines[i].split()
        kind = draw(st.sampled_from(("swap", "set", "drop", "add", "repeat")))
        if kind == "swap":
            fields[0], fields[1] = fields[1], fields[0]
        elif kind == "set":
            k = draw(st.integers(0, len(fields) - 1))
            fields[k] = draw(st.sampled_from(_ODD_FIELDS))
        elif kind == "drop":
            del fields[draw(st.integers(0, len(fields) - 1))]
        elif kind == "add":
            fields.insert(draw(st.integers(0, len(fields))), "1.0")
        else:
            lines.insert(i, lines[i])
        if kind != "repeat":
            lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


@st.composite
def random_topology_texts(draw):
    """An `n=` line and up to 8 lines of up to 7 fields, each a small id, an
    attribute or an odd field."""
    field = st.one_of(st.integers(-2, 6).map(str), st.sampled_from(
        ("0.0", "0.5", "1.0", "10.0", "2", "x", "") + _ODD_FIELDS))
    lines = draw(st.lists(st.lists(field, max_size=7).map(" ".join), max_size=8))
    return "\n".join([f"n={draw(st.integers(0, 6))}", *lines])


def _assert_parses_as_reference(text):
    # the column checks and the unchecked links they allow must accept
    # exactly the texts the per-line checked constructor accepts, and
    # build the same links, each float as it was read (repr)
    try:
        expected = reference_parse(text)
    except ValueError:
        with pytest.raises(ValueError):
            parse_topology(text)
        return
    t = parse_topology(text)
    assert t == expected
    assert format_topology(t) == format_topology(expected)


@given(st.one_of(mutated_topology_texts(), random_topology_texts(), st.text()))
def test_parse_equals_the_per_line_reference(text):
    _assert_parses_as_reference(text)


@pytest.mark.parametrize("text", ["n=1\n", "n=5\n"])
def test_parse_equals_the_per_line_reference_with_no_links(text):
    _assert_parses_as_reference(text)


@pytest.mark.parametrize("line, message", [
    ("1 2.0 5 1 1 0", "invalid literal for int() with base 10: '2.0'"),
    ("1 2 5 1 x 0", "could not convert string to float: 'x'"),
    ("1 2 5 1e400 1 0", "delay and jitter must be finite and non-negative"),
    ("1 2 5 1 1 nan", "loss must lie in [0, 1), got nan"),
    ("2 2 5 1 1 0", "self-loop at node 2"),
    ("1 0 5 1 1 0", "duplicate link (0, 1)"),
    ("1 5 5 1 1 0", "link (1, 5) endpoint outside [0, 3)"),
], ids=["int field", "float field", "overflow", "NaN", "self-loop",
        "duplicate", "out of range"])
def test_parse_error_names_the_first_bad_line(line, message):
    # the columns are converted whole; on error each line is rebuilt in
    # file order, so the message names the first bad line, before a later
    # line with too few fields, and keeps the line's own error text or the
    # store's, a duplicate at its second occurrence
    text = f"n=3\n0 1 5 1 1 0\n{line}\n0 2 5 1 1\n"
    with pytest.raises(ValueError) as raised:
        parse_topology(text)
    assert str(raised.value) == f"bad link line: {line!r}: {message}"


# 1654 link lines, over two chunks of the parse; (78, 79) is the last
_TWO_CHUNKS = format_topology(generate_topology(80, GenParams(edge_prob=0.5), 0))


@pytest.mark.parametrize("head, a, b", [
    ("n=3\n0 1 1.0 1.0 0.0 0.0\n", 0, 2),
    (_TWO_CHUNKS[:_TWO_CHUNKS.index("\n78 79 ") + 1], 78, 79),
], ids=["after a valid row", "last row of the second chunk"])
@pytest.mark.parametrize("row", [
    # each bad value a column's min and max can both pass, or only one
    # of them catches, and a reversed pair, which is swapped
    "-1 {b} 1.0 1.0 0.0 0.0", "{a} {b} 1.0 1.0 nan 0.0", "{a} {b} nan 1.0 0.0 0.0",
    "{a} {b} 1.0 inf 0.0 0.0", "{a} {b} 1.0 1.0 0.0 1e309", "{a} {b} 1.0 1.0 0.0 1.0",
    "{a} {b} 0.0 1.0 0.0 0.0", "{a} {b} 1.0 -0.5 0.0 0.0", "{a} {b} 1.0 -0.0 0.0 0.0",
    "{b} {a} 1.0 1.0 0.0 0.0", "{b} {b} 1.0 1.0 0.0 0.0", "{a} {b} 1.0 1.0 0.0",
])
def test_parse_equals_the_per_line_reference_on_each_column_check(head, a, b, row):
    _assert_parses_as_reference(head + row.format(a=a, b=b) + "\n")


@pytest.mark.parametrize("reversed_lines", [[1], [1, 900, -1]],
                         ids=["first line", "in both chunks"])
def test_parse_swaps_reversed_pairs_without_checking_each_line(monkeypatch,
                                                               reversed_lines):
    # the pair columns are swapped into (min, max) and checked once more, so
    # only the two checks of the attribute minima and maxima build a
    # checked QosLink, and the file parses as its canonical form does
    lines = _TWO_CHUNKS.splitlines()
    for i in reversed_lines:
        a, b, *attrs = lines[i].split()
        lines[i] = " ".join([b, a, *attrs])
    text = "\n".join(lines) + "\n"
    canonical = parse_topology(_TWO_CHUNKS)
    checks = counting_link_builds(monkeypatch)
    t = parse_topology(text)
    assert len(checks) == 2
    assert t == canonical and format_topology(t) == _TWO_CHUNKS


@given(st.one_of(drawn_topologies(), cut_topologies()))
def test_format_is_exact_and_fingerprint_is_its_blake2b(t):
    text = format_topology(t)
    assert parse_topology(text) == t
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    assert topology_fingerprint(t) == int.from_bytes(digest, "big")


def test_format_writes_int_attributes_as_floats():
    # an int attribute equals its float, so both topologies get one text
    as_ints = Topology(2, (QosLink(0, 1, 10, 1, 0, 0),))
    as_floats = Topology(2, (QosLink(0, 1, 10.0, 1.0, 0.0, 0.0),))
    assert as_ints == as_floats
    assert format_topology(as_ints) == format_topology(as_floats) == (
        "n=2\n0 1 10.0 1.0 0.0 0.0\n")


def test_an_int_attribute_no_float_equals_survives_the_round_trip():
    # 2**53 + 1 has no float of its own: the link stores 2.0**53, the
    # value its text writes, so the replay equals it and routes alike
    t = Topology(2, (QosLink(0, 1, 2**53 + 1, 1, 0, 0),))
    replayed = parse_topology(format_topology(t))
    assert replayed == t
    assert topology_fingerprint(replayed) == topology_fingerprint(t)
    link = t.links[0]
    assert link.bandwidth == 2.0**53
    assert all(type(x) is float
               for x in (link.bandwidth, link.delay, link.jitter, link.loss))
    req = RouteRequest(0, 1, 2**53 + 1)
    assert isinstance(select_route(t, req), Route)
    assert select_route(replayed, req) == select_route(t, req)


def test_fingerprint_is_b2sum_of_the_text():
    # printf 'n=1\n' | b2sum -l 64
    assert f"{topology_fingerprint(Topology(1, ())):016x}" == "49850fe19b57246b"


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
    assert generate_topology(20, seed=3).components == (0,) * 20


# --- bandwidth index ---


def gated_mask(t: Topology, node: int, demand: float) -> int:
    """node's neighbour bitset over its links with bandwidth >= demand."""
    bits = 0
    for link in t.links:
        if node in link.pair and link.bandwidth >= demand:
            bits |= 1 << (link.a + link.b - node)
    return bits


@given(st.one_of(drawn_topologies(), cut_topologies()))
def test_bandwidth_index_gates_neighbour_masks(t):
    assert "bandwidth_index" not in vars(t)  # built on first read only
    widest = max((link.bandwidth for link in t.links), default=1.0)
    # each exact bandwidth pins the >= boundary; above the widest gates all
    demands = {0.0, widest * 2, *(link.bandwidth for link in t.links)}
    for node, (keys, masks) in enumerate(t.bandwidth_index):
        assert len(masks) - 1 == len(keys) == len(t.adjacency[node])
        for demand in demands:
            assert masks[bisect_right(keys, -demand)] == gated_mask(t, node,
                                                                    demand)
    assert t.bandwidth_index is t.bandwidth_index  # memoised
    fresh = Topology(t.n, t.links)
    assert t == fresh
    assert hash(t) == hash(fresh)
    assert repr(t) == repr(fresh)


@given(st.one_of(drawn_topologies(), cut_topologies(), grid_topologies()),
       st.data())
def test_gates_read_as_the_index(t, data):
    # a compare's gate and a request's view over the index give every node
    # the mask the index holds at that demand, on both sides of every step
    demands = boundary_demands(t)
    for demand in data.draw(st.lists(st.sampled_from(demands), min_size=1)):
        gate, view = t.gate(demand).masks, request_gate(t, demand).masks
        assert len(gate) == t.n
        for node, (keys, masks) in enumerate(t.bandwidth_index):
            read = masks[bisect_right(keys, -demand)]
            assert gate[node] == view[node] == read == gated_mask(t, node, demand)
    assert t.gate(0.0) is not t.gate(0.0)  # built per call, not memoised


def test_bandwidth_index_on_a_triangle():
    t = triangle_topology(10.0, 5.0, 2.5)
    keys, masks = t.bandwidth_index[0]  # links 0-1 (10) and 0-2 (2.5)
    assert keys == (-10.0, -2.5)
    assert masks == (0, 0b010, 0b110)
    gate = {d: masks[bisect_right(keys, -d)] for d in (0.0, 2.5, 2.6, 10.0, 11.0)}
    assert gate == {0.0: 0b110, 2.5: 0b110, 2.6: 0b010, 10.0: 0b010, 11.0: 0}
    assert t.gate(2.6).masks == [0b010, 0b101, 0b010]  # links 0-1 (10) and 1-2 (5)
