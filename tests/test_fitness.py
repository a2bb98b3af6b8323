import math
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from fitroute import (
    GenParams,
    QosLink,
    RouteRequest,
    Route,
    NoSufficientBandwidth,
    Topology,
    Unreachable,
    Weights,
    generate_topology,
    select_route,
)
from fitroute.fitness import (
    build_spanning_tree,
    classify_outcome,
    cost_adjacency,
    edge_cost,
)
from fitroute.topology import bfs_hops, feasible_subgraph, remove_link

from helpers import (cut_topologies, drawn_topologies, line_topology,
                     path_fitness, square_topology, triangle_topology)

UNIT = Weights(1.0, 1.0, 1.0)


def all_simple_paths(t: Topology, src: int, dst: int):
    """Exhaustive DFS enumeration; the independent oracle for route search."""
    stack = [(src, [src])]
    while stack:
        node, path = stack.pop()
        if node == dst:
            yield path
            continue
        for v in t.adjacency[node]:
            if v not in path:
                stack.append((v, path + [v]))


def brute_force_best(t: Topology, src: int, dst: int, w: Weights):
    """Lexicographic (hops, cost) minimum over every simple path, or None."""
    best = None
    for path in all_simple_paths(t, src, dst):
        cost, _ = path_fitness(path, t, w)
        key = (len(path) - 1, cost)
        if best is None or key < best:
            best = key
    return best


# --- weights and edge cost ---


def test_weights_validation():
    with pytest.raises(ValueError):
        Weights(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        Weights(0.0, 0.0, 0.0)
    Weights(0.0, 0.0, 2.0)  # a single positive weight is fine


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_weights_and_demand_reject_non_finite(bad):
    with pytest.raises(ValueError):
        Weights(1.0, bad, 1.0)
    with pytest.raises(ValueError):
        RouteRequest(0, 1, bad, UNIT)


def test_edge_cost_formula():
    link = QosLink(0, 1, 10.0, 2.0, 1.0, 0.0)
    assert edge_cost(link, UNIT) == 3.0


def test_edge_cost_zero_attributes():
    link = QosLink(0, 1, 10.0, 0.0, 0.0, 0.0)
    assert edge_cost(link, UNIT) == 0.0


def test_edge_cost_loss_is_log_scaled():
    link = QosLink(0, 1, 10.0, 0.0, 0.0, 0.5)
    assert edge_cost(link, UNIT) == pytest.approx(math.log(2), abs=1e-12)


def test_edge_cost_rejects_total_loss():
    fake = SimpleNamespace(pair=(0, 1), delay=0.0, jitter=0.0, loss=1.0)
    with pytest.raises(ValueError):
        edge_cost(fake, UNIT)


def test_edge_cost_weighted():
    link = QosLink(0, 1, 10.0, 4.0, 3.0, 0.0)
    assert edge_cost(link, Weights(2.0, 0.5, 1.0)) == 8.0 + 1.5


# --- path fitness ---


def test_path_fitness_single_node():
    assert path_fitness([0], line_topology(2), UNIT) == (0.0, 1.0)


def test_path_fitness_additive():
    t = Topology(3, (
        QosLink(0, 1, 10.0, 3.0, 0.0, 0.0),
        QosLink(1, 2, 10.0, 5.0, 0.0, 0.0),
    ))
    cost, fitness = path_fitness([0, 1, 2], t, UNIT)
    assert cost == 8.0
    assert fitness == 1.0 / 9.0


def test_path_fitness_rejects_non_path():
    with pytest.raises(ValueError):
        path_fitness([0, 2], line_topology(3), UNIT)


@given(st.lists(st.tuples(
    st.floats(min_value=0, max_value=50),
    st.floats(min_value=0, max_value=10),
    st.floats(min_value=0, max_value=0.9)), min_size=1, max_size=6))
def test_fitness_bounds(attrs):
    n = len(attrs) + 1
    links = tuple(QosLink(i, i + 1, 10.0, d, j, l)
                  for i, (d, j, l) in enumerate(attrs))
    t = Topology(n, links)
    cost, fitness = path_fitness(list(range(n)), t, UNIT)
    assert cost >= 0.0
    assert 0.0 < fitness <= 1.0
    if cost > 1e-9:  # below that, 1/(1+cost) rounds to 1.0 in doubles
        assert fitness < 1.0


# --- spanning tree search ---


def test_tree_on_line():
    t = line_topology(3, delay=2.0)
    tree = build_spanning_tree(t, 0, UNIT)
    assert tree.label == {0: (0, 0.0), 1: (1, 2.0), 2: (2, 4.0)}
    assert tree.parent[1] == 0 and tree.parent[2] == 1
    assert tree.path_to(2) == [0, 1, 2]


def test_tree_square_prefers_cheaper_equal_hop_path():
    # 0-1-2 costs 2.0 total, 0-3-2 costs 10.0; equal hops, cost decides
    tree = build_spanning_tree(square_topology(), 0, UNIT)
    assert tree.label[2] == (2, 2.0)
    assert tree.parent[2] == 1


def test_tree_isolated_root():
    t = Topology(3, (QosLink(1, 2, 10.0, 1.0, 0.0, 0.0),))
    tree = build_spanning_tree(t, 0, UNIT)
    assert tree.label == {0: (0, 0.0)}
    assert tree.parent == {}
    assert tree.path_to(1) is None


def test_tree_rejects_bad_root():
    with pytest.raises(ValueError):
        build_spanning_tree(line_topology(2), 7, UNIT)


@pytest.mark.parametrize("demand", [math.nan, -1.0, math.inf])
def test_tree_rejects_bad_demand(demand):
    # nan would gate out every link and yield a root-only tree; a negative
    # demand would cross every link
    with pytest.raises(ValueError, match="demand"):
        build_spanning_tree(line_topology(3), 0, UNIT, demand)


def test_tree_hops_beat_cost():
    # direct expensive link vs two cheap hops: fewer hops must win
    t = Topology(3, (
        QosLink(0, 2, 10.0, 100.0, 0.0, 0.0),
        QosLink(0, 1, 10.0, 1.0, 0.0, 0.0),
        QosLink(1, 2, 10.0, 1.0, 0.0, 0.0),
    ))
    tree = build_spanning_tree(t, 0, UNIT)
    assert tree.label[2] == (1, 100.0)
    assert tree.path_to(2) == [0, 2]


def test_tree_equal_label_keeps_smaller_predecessor():
    # diamond with identical attributes: 3 is reachable via 1 or 2 at the
    # exact same (hops, cost); the parent must be the smaller id
    t = Topology(4, (
        QosLink(0, 1, 10.0, 1.0, 0.0, 0.0),
        QosLink(0, 2, 10.0, 1.0, 0.0, 0.0),
        QosLink(1, 3, 10.0, 1.0, 0.0, 0.0),
        QosLink(2, 3, 10.0, 1.0, 0.0, 0.0),
    ))
    tree = build_spanning_tree(t, 0, UNIT)
    assert tree.parent[3] == 1


def test_tree_equal_label_tie_ignores_discovery_order():
    # layer 2 is reached as 4 (via 1) before 3 (via 2); 5 ties between
    # them and must still take the smaller id, 3
    t = Topology(6, (
        QosLink(0, 1, 10.0, 1.0, 0.0, 0.0),
        QosLink(0, 2, 10.0, 1.0, 0.0, 0.0),
        QosLink(1, 4, 10.0, 1.0, 0.0, 0.0),
        QosLink(2, 3, 10.0, 1.0, 0.0, 0.0),
        QosLink(3, 5, 10.0, 1.0, 0.0, 0.0),
        QosLink(4, 5, 10.0, 1.0, 0.0, 0.0),
    ))
    tree = build_spanning_tree(t, 0, UNIT)
    assert tree.label[5] == (3, 3.0)
    assert tree.path_to(5) == [0, 2, 3, 5]


@pytest.mark.parametrize("seed", range(10))
def test_tree_labels_monotone_and_bounded(seed):
    t = generate_topology(12, seed=seed)
    tree = build_spanning_tree(t, 0, UNIT)
    assert len(tree.label) <= t.n
    assert tree.relaxations <= 2 * len(t.links)
    for node in tree.label:
        path = tree.path_to(node)
        labels = [tree.label[v] for v in path]
        assert labels == sorted(labels)
        assert len(set(path)) == len(path)


@pytest.mark.parametrize("seed", range(10))
def test_tree_matches_brute_force(seed):
    t = generate_topology(8, GenParams(edge_prob=0.3), seed=seed)
    tree = build_spanning_tree(t, 0, UNIT)
    for dst in range(1, t.n):
        expected = brute_force_best(t, 0, dst, UNIT)
        if expected is None:
            assert dst not in tree.label
        else:
            assert tree.label[dst] == expected


# --- route selection ---


def test_select_route_direct_link():
    t = Topology(2, (QosLink(0, 1, 10.0, 1.0, 0.0, 0.0),))
    out = select_route(t, RouteRequest(1, 0, 5.0, UNIT))
    assert isinstance(out, Route)
    assert out.path == (1, 0) and out.hops == 1


def test_select_route_refuses_when_only_link_too_thin():
    t = Topology(2, (QosLink(0, 1, 2.0, 1.0, 0.0, 0.0),))
    out = select_route(t, RouteRequest(0, 1, 4.0, UNIT))
    assert isinstance(out, NoSufficientBandwidth)


def test_select_route_square_prefers_cheap_side():
    out = select_route(square_topology(), RouteRequest(0, 2, 5.0, UNIT))
    assert isinstance(out, Route)
    assert out.path == (0, 1, 2) and out.hops == 2
    assert out.cost == 2.0
    assert out.fitness == 1.0 / 3.0


def test_select_route_self_query():
    out = select_route(line_topology(2), RouteRequest(1, 1, 5.0, UNIT))
    assert out == Route((1,), 0, 0.0, 1.0)


def test_select_route_unreachable():
    t = Topology(3, (QosLink(0, 1, 10.0, 1.0, 0.0, 0.0),))
    out = select_route(t, RouteRequest(0, 2, 5.0, UNIT))
    assert isinstance(out, Unreachable)


def test_select_route_detours_around_thin_link():
    t = triangle_topology(10.0, 10.0, 2.0)
    out = select_route(t, RouteRequest(0, 2, 5.0, UNIT))
    assert isinstance(out, Route)
    assert out.path == (0, 1, 2)


def test_select_route_rejects_bad_nodes():
    with pytest.raises(ValueError):
        select_route(line_topology(2), RouteRequest(0, 5, 1.0, UNIT))


@pytest.mark.parametrize("dst", [-3, 3])
def test_classify_outcome_rejects_bad_destination(dst):
    # -3 would index node 0's component label, 3 past the end
    t = line_topology(3)
    tree = build_spanning_tree(t, 0, UNIT, 20.0)
    with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
        classify_outcome(t, tree, dst)


def thin_middle_line() -> Topology:
    """Line 0-1-2-3 whose middle link carries only 2 Mbps."""
    return Topology(4, (
        QosLink(0, 1, 10.0, 1.0, 0.0, 0.0),
        QosLink(1, 2, 2.0, 1.0, 0.0, 0.0),
        QosLink(2, 3, 10.0, 1.0, 0.0, 0.0),
    ))


def test_classify_outcome_reads_source_and_demand_off_the_tree():
    t = thin_middle_line()
    assert classify_outcome(t, build_spanning_tree(t, 0, UNIT), 3) == Route(
        (0, 1, 2, 3), 3, 3.0, 0.25)
    # the tree's gate is the demand: a demand-5 tree cannot cross 1-2
    thick = build_spanning_tree(t, 0, UNIT, 5.0)
    assert isinstance(classify_outcome(t, thick, 3), NoSufficientBandwidth)
    assert classify_outcome(t, thick, 1).path == (0, 1)
    # the tree's root is the source
    assert classify_outcome(t, build_spanning_tree(t, 2, UNIT), 1).path == (2, 1)


def test_tree_for_one_destination_answers_only_for_it():
    t = thin_middle_line()
    tree = build_spanning_tree(t, 0, UNIT, dst=1)
    assert tree.dst == 1 and 3 not in tree.label
    assert classify_outcome(t, tree, 1).path == (0, 1)
    with pytest.raises(ValueError, match="built for destination 1"):
        classify_outcome(t, tree, 3)
    assert build_spanning_tree(t, 0, UNIT).dst is None


@pytest.mark.parametrize("dst", [-1, 4, 99])
def test_build_spanning_tree_rejects_bad_destination(dst):
    with pytest.raises(ValueError, match=r"outside \[0, 4\)"):
        build_spanning_tree(thin_middle_line(), 0, UNIT, dst=dst)


@pytest.mark.parametrize("src, dst", [(1, 2.0), (1.5, 2), (0, "1"), (None, 1)])
def test_request_rejects_non_integer_nodes(src, dst):
    with pytest.raises(ValueError, match="must be ints"):
        RouteRequest(src, dst, 5.0, UNIT)


def test_select_route_rejects_cost_overflow():
    # each link costs a finite 1e308; two of them sum past the float range
    t = Topology(3, (
        QosLink(0, 1, 10.0, 1e308, 0.0, 0.0),
        QosLink(1, 2, 10.0, 1e308, 0.0, 0.0),
    ))
    assert select_route(t, RouteRequest(0, 1, 5.0, UNIT)).cost == 1e308
    with pytest.raises(ValueError, match="overflows"):
        select_route(t, RouteRequest(0, 2, 5.0, UNIT))


def test_request_rejects_negative_demand():
    with pytest.raises(ValueError):
        RouteRequest(0, 1, -2.0, UNIT)


@pytest.mark.parametrize("seed", range(8))
def test_route_outcomes_match_brute_force(seed):
    t = generate_topology(8, GenParams(edge_prob=0.25,
                                       bandwidth_range=(1.0, 10.0)), seed=seed)
    demand = 5.0
    pruned = feasible_subgraph(t, demand)
    for src in range(t.n):
        for dst in range(t.n):
            if src == dst:
                continue
            out = select_route(t, RouteRequest(src, dst, demand, UNIT))
            expected = brute_force_best(pruned, src, dst, UNIT)
            if isinstance(out, Route):
                assert (out.hops, out.cost) == expected
                assert all(t.link_between(u, v).bandwidth >= demand
                           for u, v in zip(out.path, out.path[1:]))
            elif isinstance(out, NoSufficientBandwidth):
                assert expected is None
                assert brute_force_best(t, src, dst, UNIT) is not None
            else:
                assert brute_force_best(t, src, dst, UNIT) is None


@pytest.mark.parametrize("seed", range(6))
def test_demand_monotonicity(seed):
    t = generate_topology(10, GenParams(bandwidth_range=(1.0, 10.0)), seed=seed)
    for src, dst in [(0, 9), (3, 7), (1, 8)]:
        low = select_route(t, RouteRequest(src, dst, 2.0, UNIT))
        high = select_route(t, RouteRequest(src, dst, 6.0, UNIT))
        if isinstance(low, Route) and isinstance(high, Route):
            assert low.hops <= high.hops


def test_route_cost_matches_tree_label_exactly():
    t = generate_topology(12, seed=9)
    tree = build_spanning_tree(t, 0, UNIT)
    for dst in range(1, t.n):
        out = select_route(t, RouteRequest(0, dst, 0.0, UNIT))
        assert isinstance(out, Route)
        assert out.cost == tree.label[dst][1]  # identical accumulation order
        assert out.fitness == 1.0 / (1.0 + out.cost)


# --- bandwidth gate and early stop inside the search ---


def test_tree_stops_at_destination_layer():
    tree = build_spanning_tree(line_topology(5), 0, UNIT, dst=1)
    assert set(tree.label) == {0, 1}
    assert tree.path_to(1) == [0, 1]


def test_tree_to_its_own_root_does_no_work():
    tree = build_spanning_tree(line_topology(5), 2, UNIT, dst=2)
    assert tree.label == {2: (0, 0.0)}
    assert tree.relaxations == 0


def test_full_tree_stops_once_its_component_is_labelled():
    # dense and connected at demand 5: the tree labels every node, and the
    # stop spares the last layer's scan, where every neighbour is labelled
    t = generate_topology(128, seed=1)
    tree = build_spanning_tree(t, 0, UNIT, 5.0)
    assert len(tree.label) == t.n
    # the same search with a component size it can never reach runs to an
    # empty layer
    unstopped = Topology(t.n, t.links)
    vars(unstopped)["component_sizes"] = (t.n + 1,) * t.n
    full_scan = build_spanning_tree(unstopped, 0, UNIT, 5.0)
    assert full_scan.relaxations == sum(len(t.adjacency[v]) for v in tree.label)
    assert tree.relaxations < full_scan.relaxations <= 2 * len(t.links)
    assert tree.label == full_scan.label
    assert tree.parent == full_scan.parent


def test_select_route_builds_no_pruned_topology(monkeypatch):
    def no_pruning(*args):
        raise AssertionError("select_route built a pruned topology")

    monkeypatch.setattr("fitroute.fitness.feasible_subgraph", no_pruning)
    monkeypatch.setattr("fitroute.topology.feasible_subgraph", no_pruning)
    t = triangle_topology(10.0, 10.0, 2.0)
    assert select_route(t, RouteRequest(0, 2, 5.0, UNIT)) == Route(
        (0, 1, 2), 2, 2.0, 1.0 / 3.0)
    assert select_route(t, RouteRequest(0, 2, 2.0, UNIT)) == Route(
        (0, 2), 1, 1.0, 0.5)
    assert isinstance(select_route(t, RouteRequest(0, 2, 20.0, UNIT)),
                      NoSufficientBandwidth)
    split = Topology(3, (QosLink(0, 1, 10.0, 1.0, 0.0, 0.0),))
    assert isinstance(select_route(split, RouteRequest(0, 2, 5.0, UNIT)),
                      Unreachable)


WEIGHT_CHOICES = (UNIT, Weights(1.0, 0.0, 0.0), Weights(0.0, 0.0, 2.0),
                  Weights(0.5, 2.0, 1.0))


@given(st.data())
def test_gated_search_equals_prune_then_search(data):
    t = data.draw(st.one_of(drawn_topologies(), cut_topologies()))
    src = data.draw(st.integers(0, t.n - 1))
    dst = data.draw(st.integers(0, t.n - 1))
    demands = st.floats(0.0, 12.0)
    if t.links:  # a demand equal to a link's bandwidth pins the >= boundary
        demands |= st.sampled_from([link.bandwidth for link in t.links])
    demand = data.draw(demands)
    w = data.draw(st.sampled_from(WEIGHT_CHOICES))
    req = RouteRequest(src, dst, demand, w)

    pruned_tree = build_spanning_tree(feasible_subgraph(t, demand), src, w)
    out = select_route(t, req)
    assert out == classify_outcome(t, pruned_tree, dst)

    gated = build_spanning_tree(t, src, w, demand)
    assert gated.label == pruned_tree.label
    assert gated.parent == pruned_tree.parent
    assert gated.relaxations <= 2 * len(t.links)

    # a full tree answers for every destination as the early-stopping
    # search for that destination does
    for d in range(t.n):
        assert classify_outcome(t, gated, d) == select_route(
            t, RouteRequest(src, d, demand, w))

    # the refusal/unreachable split against an unpruned BFS, independent of
    # the component labels select_route and classify_outcome share
    full = bfs_hops(t, src)
    assert isinstance(out, Unreachable) == (dst not in full)
    assert isinstance(out, NoSufficientBandwidth) == (
        dst in full and dst not in gated.label)

    # a search for dst labels exactly the layers up to dst's, or everything
    # when dst is never reached
    bounded = build_spanning_tree(t, src, w, demand, dst)
    last = gated.label[dst][0] if dst in gated.label else t.n
    assert bounded.label == {v: label for v, label in gated.label.items()
                             if label[0] <= last}
    assert bounded.parent == {v: u for v, u in gated.parent.items()
                              if v in bounded.label}
    assert bounded.relaxations <= gated.relaxations

    # the exhaustive oracle costs paths with edge_cost, never with the
    # memoised cost table
    best = brute_force_best(feasible_subgraph(t, demand), src, dst, w)
    assert isinstance(out, Route) == (best is not None)
    if isinstance(out, Route):
        assert (out.hops, out.cost) == best

    # t now holds a cost table for w: routing under other weights must
    # match a topology that has none
    again = RouteRequest(src, dst, demand,
                         data.draw(st.sampled_from(WEIGHT_CHOICES)))
    assert select_route(t, again) == select_route(Topology(t.n, t.links), again)


# --- component labels ---


@given(st.one_of(drawn_topologies(), cut_topologies()))
def test_components_match_bfs_and_stay_out_of_identity(t):
    # labelled, sized and costed on first use only
    assert "components" not in vars(t) and t.cost_table is None
    assert "component_sizes" not in vars(t)
    for a in range(t.n):
        reached = bfs_hops(t, a)
        for b in range(t.n):
            assert (t.components[a] == t.components[b]) == (b in reached)
    build_spanning_tree(t, 0, UNIT)
    assert t.cost_table[0] == UNIT
    fresh = Topology(t.n, t.links)
    assert t == fresh
    assert hash(t) == hash(fresh)
    assert repr(t) == repr(fresh)


def test_one_labelling_per_topology(monkeypatch):
    params = GenParams(edge_prob=0.1, bandwidth_range=(1.0, 10.0))
    t = generate_topology(24, params, seed=5)
    for link in t.links:  # isolate nodes 0 and 1
        if link.a in (0, 1):
            t = remove_link(t, link.a, link.b)
    component_count = len({min(bfs_hops(t, v)) for v in range(t.n)})
    assert component_count >= 3

    calls = []

    def counting_bfs(topology, src):
        calls.append(src)
        return bfs_hops(topology, src)

    monkeypatch.setattr("fitroute.topology.bfs_hops", counting_bfs)
    monkeypatch.setattr("fitroute.fitness.bfs_hops", counting_bfs)
    outcomes = [select_route(t, RouteRequest(src, dst, demand, UNIT))
                for demand in (6.0, 9.0) for src in range(t.n)
                for dst in range(t.n)]
    refusals = sum(isinstance(o, NoSufficientBandwidth) for o in outcomes)
    unreachable = sum(isinstance(o, Unreachable) for o in outcomes)
    assert refusals > 100 and unreachable > 100
    assert len(calls) == component_count


def test_links_costed_once_per_weights(monkeypatch):
    t = generate_topology(32, GenParams(edge_prob=0.2), seed=11)
    calls = []

    def counting_cost(link, w):
        calls.append((link.pair, w))
        return edge_cost(link, w)

    def route_all(weight_args):
        refusals = 0
        for src in range(t.n):  # 1024 requests
            for dst in range(t.n):
                # a fresh Weights per request: the slot goes by equality
                req = RouteRequest(src, dst, 10.0 * (dst % 10),
                                   Weights(*weight_args))
                refusals += isinstance(select_route(t, req),
                                       NoSufficientBandwidth)
        return refusals

    monkeypatch.setattr("fitroute.fitness.edge_cost", counting_cost)
    assert route_all((1.0, 1.0, 1.0)) > 0
    assert calls == [(l.pair, UNIT) for l in t.links]
    # switching weights costs each link once more
    calls.clear()
    route_all((0.5, 2.0, 1.0))
    assert calls == [(l.pair, Weights(0.5, 2.0, 1.0)) for l in t.links]

    # a sweep over ten weights holds one table, the last: the slot refers
    # to it, and the nine built before it have no more references than an
    # object nothing else holds
    tables = [cost_adjacency(t, Weights(1.0, 1.0, float(k)))
              for k in range(2, 12)] + [object()]
    assert t.cost_table == (Weights(1.0, 1.0, 11.0), tables[-2])
    refs = [sys.getrefcount(x) for x in tables]
    assert refs == [refs[-1]] * 9 + [refs[-1] + 1, refs[-1]]
