import math
import random
from collections import Counter
from functools import partial
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
    SpanningTree,
    build_spanning_tree,
    classify_outcome,
    edge_cost,
    route,
)
from fitroute.topology import bfs_hops, feasible_subgraph, remove_link

from helpers import (boundary_demands, check_routes_against_full_trees,
                     counting_link_builds, cut_topologies, drawn_topologies,
                     full_gated_tree, full_tree_outcome, grid_topologies,
                     line_topology, path_fitness, request_gate,
                     square_topology, triangle_topology)

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


def gated_hops(t: Topology, src: int, demand: float) -> dict[int, int]:
    """Hop counts from src over the links with bandwidth >= demand, by a
    queue over t.links that shares no code with the engines."""
    neighbours: list[list[int]] = [[] for _ in range(t.n)]
    for link in t.links:
        if link.bandwidth >= demand:
            neighbours[link.a].append(link.b)
            neighbours[link.b].append(link.a)
    hops = {src: 0}
    queue = [src]
    for u in queue:
        for v in neighbours[u]:
            if v not in hops:
                hops[v] = hops[u] + 1
                queue.append(v)
    return hops


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, True, "5", None])
def test_weights_and_demand_reject_non_finite(bad):
    with pytest.raises(ValueError):
        Weights(1.0, bad, 1.0)
    with pytest.raises(ValueError):
        RouteRequest(0, 1, bad, UNIT)


def test_edge_cost_formula():
    link = QosLink(0, 1, 10.0, 2.0, 1.0, 0.0)
    assert edge_cost(link.delay, link.jitter, link.loss, UNIT) == 3.0


def test_edge_cost_zero_attributes():
    link = QosLink(0, 1, 10.0, 0.0, 0.0, 0.0)
    assert edge_cost(link.delay, link.jitter, link.loss, UNIT) == 0.0


def test_edge_cost_loss_is_log_scaled():
    link = QosLink(0, 1, 10.0, 0.0, 0.0, 0.5)
    assert edge_cost(link.delay, link.jitter, link.loss, UNIT) == pytest.approx(
        math.log(2), abs=1e-12)


def test_edge_cost_rejects_total_loss():
    fake = SimpleNamespace(pair=(0, 1), delay=0.0, jitter=0.0, loss=1.0)
    with pytest.raises(ValueError):
        edge_cost(fake.delay, fake.jitter, fake.loss, UNIT)


def test_edge_cost_weighted():
    link = QosLink(0, 1, 10.0, 4.0, 3.0, 0.0)
    assert edge_cost(link.delay, link.jitter, link.loss,
                     Weights(2.0, 0.5, 1.0)) == 8.0 + 1.5


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
    tree = build_spanning_tree(t, 0, UNIT, t.gate(0.0), 2)
    assert tree.label == {0: (0, 0.0), 1: (1, 2.0), 2: (2, 4.0)}
    assert tree.parent[1] == 0 and tree.parent[2] == 1
    assert tree.path_to(2) == [0, 1, 2]


def test_tree_square_prefers_cheaper_equal_hop_path():
    # 0-1-2 costs 2.0 total, 0-3-2 costs 10.0; equal hops, cost decides
    t = square_topology()
    tree = build_spanning_tree(t, 0, UNIT, t.gate(0.0), 2)
    assert tree.label[2] == (2, 2.0)
    assert tree.parent[2] == 1


def test_tree_isolated_root():
    t = Topology(3, (QosLink(1, 2, 10.0, 1.0, 0.0, 0.0),))
    for dst in (1, 2):
        tree = build_spanning_tree(t, 0, UNIT, t.gate(0.0), dst)
        assert tree.label == {0: (0, 0.0)}
        assert tree.parent == {}
        assert tree.path_to(dst) is None


def test_tree_rejects_bad_root():
    t = line_topology(2)
    with pytest.raises(ValueError):
        build_spanning_tree(t, 7, UNIT, t.gate(0.0), 1)


@pytest.mark.parametrize("demand", [math.nan, -1.0, math.inf])
def test_gates_reject_bad_demand(demand):
    # nan would gate out every link and yield a root-only tree; a negative
    # demand would cross every link
    t = line_topology(3)
    with pytest.raises(ValueError, match="demand"):
        t.gate(demand)


@pytest.mark.parametrize("demand", [True, False, "5", None])
def test_gates_reject_non_number_demand(demand):
    # True would gate at demand 1; a str would raise TypeError in the gate
    t = line_topology(3)
    with pytest.raises(ValueError, match="demand"):
        t.gate(demand)


def test_tree_hops_beat_cost():
    # direct expensive link vs two cheap hops: fewer hops must win
    t = Topology(3, (
        QosLink(0, 2, 10.0, 100.0, 0.0, 0.0),
        QosLink(0, 1, 10.0, 1.0, 0.0, 0.0),
        QosLink(1, 2, 10.0, 1.0, 0.0, 0.0),
    ))
    tree = build_spanning_tree(t, 0, UNIT, t.gate(0.0), 2)
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
    tree = build_spanning_tree(t, 0, UNIT, t.gate(0.0), 3)
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
    tree = build_spanning_tree(t, 0, UNIT, t.gate(0.0), 5)
    assert tree.label[5] == (3, 3.0)
    assert tree.path_to(5) == [0, 2, 3, 5]


@pytest.mark.parametrize("seed", range(10))
def test_tree_labels_monotone_and_bounded(seed):
    t = generate_topology(12, seed=seed)
    for dst in range(t.n):
        tree = build_spanning_tree(t, 0, UNIT, t.gate(0.0), dst)
        assert dst in tree.label and len(tree.label) <= t.n
        assert tree.relaxations <= 2 * len(t.links)
        for node in tree.label:
            path = tree.path_to(node)
            labels = [tree.label[v] for v in path]
            assert labels == sorted(labels)
            assert len(set(path)) == len(path)


@pytest.mark.parametrize("seed", range(10))
def test_tree_matches_brute_force(seed):
    t = generate_topology(8, GenParams(edge_prob=0.3), seed=seed)
    for dst in range(1, t.n):
        tree = build_spanning_tree(t, 0, UNIT, t.gate(0.0), dst)
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


def thin_middle_line() -> Topology:
    """Line 0-1-2-3 whose middle link carries only 2 Mbps."""
    return Topology(4, (
        QosLink(0, 1, 10.0, 1.0, 0.0, 0.0),
        QosLink(1, 2, 2.0, 1.0, 0.0, 0.0),
        QosLink(2, 3, 10.0, 1.0, 0.0, 0.0),
    ))


def test_classify_outcome_reads_source_and_demand_off_the_tree():
    t = thin_middle_line()
    def outcome(src, demand, dst):
        return classify_outcome(
            t, build_spanning_tree(t, src, UNIT, t.gate(demand), dst))

    assert outcome(0, 0.0, 3) == Route((0, 1, 2, 3), 3, 3.0, 0.25)
    # the tree's gate is the demand: a demand-5 tree cannot cross 1-2
    assert isinstance(outcome(0, 5.0, 3), NoSufficientBandwidth)
    assert outcome(0, 5.0, 1).path == (0, 1)
    # the tree's root is the source
    assert outcome(2, 0.0, 1).path == (2, 1)


def test_tree_for_one_destination_answers_only_for_it():
    t = thin_middle_line()
    tree = build_spanning_tree(t, 0, UNIT, t.gate(0.0), 1)
    assert tree.dst == 1 and 3 not in tree.label
    assert classify_outcome(t, tree).path == (0, 1)


@pytest.mark.parametrize("dst", [-1, 4, 99])
def test_build_spanning_tree_rejects_bad_destination(dst):
    t = thin_middle_line()
    with pytest.raises(ValueError, match=r"dst must be an integer node id in \[0, 4\)"):
        build_spanning_tree(t, 0, UNIT, t.gate(0.0), dst)


@pytest.mark.parametrize("src, dst", [(1, 2.0), (1.5, 2), (0, "1"), (None, 1),
                                      (True, 1), (0, False)])
def test_request_rejects_non_integer_nodes(src, dst):
    with pytest.raises(ValueError, match="must be ints"):
        RouteRequest(src, dst, 5.0, UNIT)
    # the search itself: a bit shift by a float id would raise TypeError
    t = line_topology(3)
    with pytest.raises(ValueError, match="(root|dst) must be an integer node id"):
        build_spanning_tree(t, src, UNIT, t.gate(0.0), dst)


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
                assert all(t.bandwidth[t.adjacency[u][v]] >= demand
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
    for dst in range(1, t.n):
        tree = build_spanning_tree(t, 0, UNIT, t.gate(0.0), dst)
        out = select_route(t, RouteRequest(0, dst, 0.0, UNIT))
        assert isinstance(out, Route)
        assert out.cost == tree.label[dst][1]  # identical accumulation order
        assert out.fitness == 1.0 / (1.0 + out.cost)


def test_select_route_builds_no_link_objects(monkeypatch):
    # a request's gate reads the bandwidth index and its search the link
    # columns: a pass of requests builds no QosLink, and t.links is never
    # read
    t = generate_topology(60, GenParams(edge_prob=0.05), 1)
    rng = random.Random(1)
    requests = [RouteRequest(rng.randrange(60), rng.randrange(60),
                             rng.uniform(1.0, 90.0)) for _ in range(300)]
    built = counting_link_builds(monkeypatch)
    outcomes = Counter(select_route(t, req).status for req in requests)
    assert outcomes["route"] > 0 and outcomes["no_bandwidth"] > 0
    assert built == [] and "links" not in vars(t)


# --- bandwidth gate and early stop inside the search ---


def test_tree_stops_at_destination_layer():
    t = line_topology(5)
    tree = build_spanning_tree(t, 0, UNIT, t.gate(0.0), 1)
    assert set(tree.label) == {0, 1}
    assert tree.path_to(1) == [0, 1]


def test_tree_to_its_own_root_does_no_work():
    t = line_topology(5)
    tree = build_spanning_tree(t, 2, UNIT, t.gate(0.0), 2)
    assert tree.label == {2: (0, 0.0)}
    assert tree.relaxations == 0


# --- the two-sided search: hop layers grow from root and from dst, each step
# from the side whose last layer has fewer nodes (root on a tie), until they
# meet; the comments trace the steps ---


def search_equals_full_tree(t: Topology, src: int, dst: int,
                            demand: float = 0.0) -> SpanningTree:
    """The search for dst, asserted to give the outcome of the full gated
    tree from src and, on every node it labels, its labels and parents."""
    tree = build_spanning_tree(t, src, UNIT, t.gate(demand), dst)
    full = full_gated_tree(t, src, UNIT, demand)
    assert classify_outcome(t, tree) == full_tree_outcome(t, full, dst)
    assert tree.label == {v: full.label[v] for v in tree.label}
    assert tree.parent == {v: full.parent[v] for v in tree.label if v != src}
    return tree


def unit_links(*pairs, bandwidth: float = 10.0) -> tuple[QosLink, ...]:
    """Links over the given pairs, each of delay 1 and no jitter or loss."""
    return tuple(QosLink(a, b, bandwidth, 1.0, 0.0, 0.0) for a, b in pairs)


def test_two_sided_search_meets_on_a_root_step():
    # root grows {1, 2}; dst grows {3, 4, 6}; root grows {3, 4}, which
    # touches dst's seen set: 3 hops, met on a root step; 6, in dst's last
    # layer, is on no min-hop path
    t = Topology(7, unit_links((0, 1), (0, 2), (1, 3), (2, 4), (3, 5),
                               (4, 5), (5, 6)))
    tree = search_equals_full_tree(t, 0, 5)
    assert set(tree.label) == set(range(6))
    assert tree.path_to(5) == [0, 1, 3, 5]


def test_two_sided_search_meets_on_a_dst_step():
    # root grows {1, 2}; dst grows {4}, then {3}, then {1, 2, 6}, which
    # touches root's seen set: 4 hops, met on a dst step; 6, in dst's last
    # layer, is on no min-hop path
    t = Topology(7, unit_links((0, 1), (0, 2), (1, 3), (2, 3), (3, 4),
                               (4, 5), (3, 6)))
    tree = search_equals_full_tree(t, 0, 5)
    assert set(tree.label) == set(range(6))
    assert tree.label[5] == (4, 4.0)
    assert tree.path_to(5) == [0, 1, 3, 4, 5]


def test_two_sided_search_refuses_when_dst_side_runs_dry():
    # root grows {1, 2}; dst, linked to 1 only below the demand, grows
    # nothing
    t = Topology(4, unit_links((0, 1), (0, 2))
                 + unit_links((1, 3), bandwidth=2.0))
    tree = search_equals_full_tree(t, 0, 3, demand=5.0)
    assert tree.label == {0: (0, 0.0)} and tree.relaxations == 0
    assert isinstance(classify_outcome(t, tree), NoSufficientBandwidth)


def test_two_sided_search_refuses_when_root_side_runs_dry():
    # root grows {1, 2}; dst grows {3, 4}; a tie, so root grows from the
    # dead ends 1 and 2 and finds nothing new; 0-3 is below the demand
    t = Topology(6, unit_links((0, 1), (0, 2), (3, 5), (4, 5), (3, 4))
                 + unit_links((0, 3), bandwidth=2.0))
    tree = search_equals_full_tree(t, 0, 5, demand=5.0)
    assert tree.label == {0: (0, 0.0)} and tree.relaxations == 0
    assert isinstance(classify_outcome(t, tree), NoSufficientBandwidth)


def test_two_sided_search_on_a_lopsided_graph():
    # root is the hub of an 8-leaf star, dst the end of a chain off leaf 1:
    # root grows its 8 leaves once, then dst grows its chain one node a step
    # until it reaches leaf 1
    t = Topology(14, unit_links(*((0, leaf) for leaf in range(1, 9)),
                                (1, 9), (9, 10), (10, 11), (11, 12), (12, 13)))
    tree = search_equals_full_tree(t, 0, 13)
    assert tree.path_to(13) == [0, 1, 9, 10, 11, 12, 13]
    assert set(tree.label) == {0, 1, 9, 10, 11, 12, 13}
    # and back: the chain's end is now the root, and its side grows every
    # step until it reaches the hub
    assert search_equals_full_tree(t, 13, 0).path_to(0) == [
        13, 12, 11, 10, 9, 1, 0]


def test_two_sided_search_tie_after_the_meeting_layer():
    # root grows {1, 2, 3}; dst grows {5, 6}, then {4}, then {1}, which
    # touches root's seen set at 1 hop; 4, 5, 6 and dst were reached from
    # the dst side, and dst ties between 6 and 5: the smaller id wins
    t = Topology(8, unit_links((0, 1), (0, 2), (0, 3), (1, 4), (4, 6),
                               (4, 5), (6, 7), (5, 7)))
    tree = search_equals_full_tree(t, 0, 7)
    assert tree.label[7] == (4, 4.0)
    assert tree.path_to(7) == [0, 1, 4, 5, 7]
    assert set(tree.label) == {0, 1, 4, 5, 6, 7}


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
    # grids tie every min-hop path, so a tie sent to the larger
    # predecessor shows in the parents
    t = data.draw(st.one_of(drawn_topologies(), cut_topologies(),
                            grid_topologies()))
    src = data.draw(st.integers(0, t.n - 1))
    dst = data.draw(st.integers(0, t.n - 1))
    demands = st.floats(0.0, 12.0)
    if t.links:  # a demand equal to a link's bandwidth pins the >= boundary
        demands |= st.sampled_from([link.bandwidth for link in t.links])
    demand = data.draw(demands)
    w = data.draw(st.sampled_from(WEIGHT_CHOICES))
    req = RouteRequest(src, dst, demand, w)

    # the reference full tree (tests/helpers.py), gated and on the pruned
    # topology
    pruned_tree = full_gated_tree(feasible_subgraph(t, demand), src, w, 0.0)
    out = select_route(t, req)
    assert out == full_tree_outcome(t, pruned_tree, dst)

    gated = full_gated_tree(t, src, w, demand)
    assert gated.label == pruned_tree.label
    assert gated.parent == pruned_tree.parent
    assert gated.relaxations <= 2 * len(t.links)

    # the full tree answers for every destination as the search for that
    # destination does
    for d in range(t.n):
        assert full_tree_outcome(t, gated, d) == select_route(
            t, RouteRequest(src, d, demand, w))

    # the refusal/unreachable split against an unpruned BFS, independent of
    # the component labels select_route and classify_outcome read
    full = bfs_hops(t, src)
    assert isinstance(out, Unreachable) == (dst not in full)
    assert isinstance(out, NoSufficientBandwidth) == (
        dst in full and dst not in gated.label)

    # a search for dst labels the root and, when the gate lets it reach dst,
    # exactly the nodes on dst's min-hop gated paths (by this module's own
    # BFS), each with the full tree's label and parent
    bounded = build_spanning_tree(t, src, w, t.gate(demand), dst)
    assert bounded.dst == dst and classify_outcome(t, bounded) == out
    assert (dst in bounded.label) == (dst in gated.label)
    assert bounded.label == {v: gated.label[v] for v in bounded.label}
    assert bounded.parent == {v: gated.parent[v] for v in bounded.label
                              if v != src}
    if dst in gated.label:
        last = bounded.label[dst][0]
        to_dst = gated_hops(t, dst, demand)
        assert all(label[0] + to_dst[v] == last
                   for v, label in bounded.label.items())
        assert set(bounded.label) == {v for v, label in gated.label.items()
                                      if label[0] + to_dst[v] == last}
    else:
        assert bounded.label == {src: (0, 0.0)} and bounded.parent == {}
        assert bounded.relaxations == 0
    assert bounded.relaxations <= gated.relaxations
    # the search costs each gated link between consecutive labelled layers
    # once, as a predecessor link
    assert bounded.relaxations == sum(
        link.bandwidth >= demand and link.a in bounded.label
        and link.b in bounded.label
        and abs(bounded.label[link.a][0] - bounded.label[link.b][0]) == 1
        for link in t.links)

    # the exhaustive oracle
    best = brute_force_best(feasible_subgraph(t, demand), src, dst, w)
    assert isinstance(out, Route) == (best is not None)
    if isinstance(out, Route):
        assert (out.hops, out.cost) == best


@given(st.data())
def test_trees_over_a_gate_equal_trees_over_the_index(data):
    # run_comparison's searches read a list of masks, select_route's a view
    # over the bandwidth index: one search body, so the same tree
    t = data.draw(st.one_of(drawn_topologies(), cut_topologies(),
                            grid_topologies()))
    src = data.draw(st.integers(0, t.n - 1))
    dst = data.draw(st.integers(0, t.n - 1))
    demand = data.draw(st.sampled_from(boundary_demands(t)))
    w = data.draw(st.sampled_from(WEIGHT_CHOICES))
    over_list = build_spanning_tree(t, src, w, t.gate(demand), dst)
    over_view = build_spanning_tree(t, src, w, request_gate(t, demand), dst)
    assert list(over_list.label.items()) == list(over_view.label.items())
    assert list(over_list.parent.items()) == list(over_view.parent.items())
    assert over_list == over_view  # relaxations, root and dst too


# --- one gate list read by many searches ---


def sparse_topologies():
    """Generated sparse topologies of up to 40 nodes, deep enough for long
    layer lists; thin links below the demand split them at random."""
    return st.builds(
        generate_topology, st.integers(2, 40),
        st.just(GenParams(edge_prob=0.05, bandwidth_range=(1.0, 10.0))),
        st.integers(0, 2**16))


@given(st.data())
def test_searches_over_a_shared_gate_equal_searches_over_fresh_ones(data):
    # a search keeps no state in the gate it reads: over a list that the
    # searches before it read too, it gives the tree a fresh gate gives,
    # dict order and relaxations too, for repeated and reversed pairs,
    # src == dst, which meets at once, and refused pairs, which end on an
    # exhausted side
    t = data.draw(st.one_of(drawn_topologies(), cut_topologies(),
                            grid_topologies(), sparse_topologies()))
    demand = data.draw(st.sampled_from(boundary_demands(t)))
    w = data.draw(st.sampled_from(WEIGHT_CHOICES))
    nodes = st.integers(0, t.n - 1)
    pairs = data.draw(st.lists(st.tuples(nodes, nodes), min_size=1,
                               max_size=8))
    v = data.draw(nodes)
    pairs = data.draw(st.permutations(
        pairs + [(dst, src) for src, dst in pairs] + pairs + [(v, v)]))
    shared = t.gate(demand)
    for src, dst in pairs:
        tree = build_spanning_tree(t, src, w, shared, dst)
        fresh = build_spanning_tree(t, src, w, t.gate(demand), dst)
        assert list(tree.label.items()) == list(fresh.label.items())
        assert list(tree.parent.items()) == list(fresh.parent.items())
        assert tree == fresh
        full = full_gated_tree(t, src, w, demand)
        assert classify_outcome(t, tree) == full_tree_outcome(t, full, dst)


@given(st.data())
def test_route_equals_the_outcome_of_the_checked_tree(data):
    # route runs the search build_spanning_tree wraps and reads dst's
    # outcome off it with no tree: over either kind of gate, fresh or read
    # by earlier searches, at every step of the gate (demand 0 and above
    # every bandwidth among them), for src == dst, on split graphs and on
    # grids whose min-hop paths tie; repr compares each cost's sign too
    t = data.draw(st.one_of(drawn_topologies(), cut_topologies(),
                            grid_topologies(), sparse_topologies()))
    demand = data.draw(st.sampled_from(boundary_demands(t)))
    w = data.draw(st.sampled_from(WEIGHT_CHOICES))
    gate_of = data.draw(st.sampled_from((t.gate, partial(request_gate, t))))
    nodes = st.integers(0, t.n - 1)
    used = gate_of(demand)
    for s, d in data.draw(st.lists(st.tuples(nodes, nodes), max_size=6)):
        route(t, s, w, used, d)
    src = data.draw(nodes)
    dst = data.draw(st.one_of(st.just(src), nodes))
    expected = classify_outcome(
        t, build_spanning_tree(t, src, w, gate_of(demand), dst))
    for gate in (gate_of(demand), used):
        assert repr(route(t, src, w, gate, dst)) == repr(expected)
    assert classify_outcome(t, build_spanning_tree(t, src, w, used, dst)) == expected


def test_route_and_the_tree_share_the_overflow_check():
    # each link costs a finite 1e308; two of them sum past the float range
    t = Topology(3, (QosLink(0, 1, 10.0, 1e308, 0.0, 0.0),
                     QosLink(1, 2, 10.0, 1e308, 0.0, 0.0)))
    for gate_of in (t.gate, partial(request_gate, t)):
        assert route(t, 0, UNIT, gate_of(5.0), 1).cost == 1e308
        with pytest.raises(ValueError, match="route cost 0->2 overflows to inf"):
            route(t, 0, UNIT, gate_of(5.0), 2)
        with pytest.raises(ValueError, match="route cost 0->2 overflows to inf"):
            classify_outcome(t, build_spanning_tree(t, 0, UNIT, gate_of(5.0), 2))


def test_a_link_of_negative_zeros_costs_a_route_of_zero():
    # every attribute -0.0 gives an edge cost of -0.0; a route adds it to
    # the root's 0.0, at the first hop as at any other
    t = Topology(3, (QosLink(0, 1, 10.0, -0.0, -0.0, -0.0),
                     QosLink(1, 2, 10.0, -0.0, -0.0, -0.0)))
    link = t.links[0]
    assert repr(edge_cost(link.delay, link.jitter, link.loss, UNIT)) == "-0.0"
    for dst in (1, 2):
        out = route(t, 0, UNIT, t.gate(0.0), dst)
        assert repr(out.cost) == "0.0" and out.hops == dst


def test_repeated_searches_over_one_gate_list_leave_it_unchanged():
    # each search grows its own layers: a repeated search, and the reversed
    # one, over a list that every pair's search has read give the trees
    # fresh gates give, and the list stays t.gate(demand). Demands 0 and 5
    # route every pair, up to 5 hops long; demand 9 refuses the three whose
    # ends differ
    t = generate_topology(60, GenParams(edge_prob=0.05,
                                        bandwidth_range=(1.0, 10.0)), 4)
    pairs = ((0, 59), (7, 7), (3, 41), (12, 30))
    trees = []
    for demand in (0.0, 5.0, 9.0):
        gate = t.gate(demand)
        for src, dst in pairs:
            build_spanning_tree(t, src, UNIT, gate, dst)
        for pair in pairs:
            for src, dst in (pair, pair[::-1]):
                tree = build_spanning_tree(t, src, UNIT, gate, dst)
                assert tree == build_spanning_tree(t, src, UNIT,
                                                   t.gate(demand), dst)
                trees.append(tree)
        assert gate == t.gate(demand)
    assert max(tree.label[tree.dst][0] for tree in trees
               if tree.dst in tree.label) == 5
    assert sum(tree.dst not in tree.label for tree in trees) == 6


# --- component labels ---


@given(st.one_of(drawn_topologies(), cut_topologies()))
def test_components_match_bfs_and_stay_out_of_identity(t):
    # labelled and indexed on first use only; a gate is never memoised
    assert "components" not in vars(t)
    assert "bandwidth_index" not in vars(t)
    for a in range(t.n):
        reached = bfs_hops(t, a)
        for b in range(t.n):
            assert (t.components[a] == t.components[b]) == (b in reached)
    build_spanning_tree(t, 0, UNIT, t.gate(0.0), t.n - 1)
    assert "bandwidth_index" not in vars(t)
    select_route(t, RouteRequest(0, t.n - 1, 0.0, UNIT))
    assert "bandwidth_index" in vars(t)
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


# --- agreement at the benchmark's shapes ---


@pytest.mark.parametrize("n, edge_prob, seed, demands", [
    (256, 0.03, 1, (1.0, 90.0)),
    (256, 0.03, 2, (1.0, 90.0)),
    (256, 0.03, 3, (1.0, 90.0)),
    (128, 0.15, 1, (5.0, 5.0)),
])
def test_select_route_equals_full_tree_at_benchmark_shapes(n, edge_prob, seed,
                                                           demands):
    outcomes = check_routes_against_full_trees(n, edge_prob, seed, 500, demands)
    assert len(outcomes) == 500
    routes = sum(isinstance(o, Route) for o in outcomes)
    if demands[0] == demands[1]:  # dense at demand 5: no refusals
        assert routes == 500
    else:  # random demands up to 90 refuse some requests
        assert 0 < routes < 500
