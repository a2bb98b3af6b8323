"""One input policy: every entry point checks node counts, node ids,
demands and parameter objects with the shared checks in fitroute.topology
(check_node_count, is_node, check_node, check_demand, check_gen_params) and
fitroute.fitness (check_weights). A bad value raises ValueError naming the
argument: never TypeError or AttributeError, and never a silent result."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest

from fitroute import (ExperimentConfig, GenParams, QosLink, RouteRequest,
                      Topology, Weights, generate_topology, select_route)
from fitroute.dv import converge, extract_path, fail_link_and_trace
from fitroute.experiment import report_to_json, run_comparison
from fitroute.fitness import build_spanning_tree
from fitroute.topology import (MAX_NODES, SplitMix64, bfs_hops,
                               feasible_subgraph, generate_topology_rng,
                               is_int, is_number, parse_topology, remove_link)

from helpers import IntSubclass, line_topology

T = line_topology(4)
STATE, _ = converge(T)
W = Weights()

COUNTS = (True, 2.5, 4.0, "4", None, -1, 0, MAX_NODES + 1)
IDS = (True, False, 1.5, 2.0, "1", None, -1, T.n)  # -1 and n: just outside
NON_INT_IDS = (True, 1.5, 2.0, "1", None)  # a request has no n to bound by
HUGE = 10**400  # a real no float holds: it compares below math.inf
OUT_OF_RANGE_IDS = (-1, T.n, HUGE)  # ints a request takes, outside [0, n)
DEMANDS = (True, "5", None, -1.0, math.nan, math.inf, HUGE)
NOT_CONFIGS = (None, "x", (1.0, 1.0, 1.0))
QUERIES = (5, None, (), (0,), (0, 1, 2), {0: 1})  # no (src, dst) pair
QUERY_LISTS = (5, 1.5, True, "01", {(0, 1)}, {0: 1})  # no tuple or list
LINK = QosLink(0, 1, 10.0, 1.0, 0.0, 0.0)
LINK_LISTS = (None, ((0, 1),), (LINK, (1, 2)), [LINK, None], {LINK},
              range(2), "01")

# (entry point, call, bad values, what the message must start with)
ENTRIES = [
    ("Topology", lambda v: Topology(v, ()), COUNTS, "node count"),
    ("generate_topology", generate_topology, COUNTS, "node count"),
    ("generate_topology_rng",
     lambda v: generate_topology_rng(v, GenParams(), SplitMix64(1)),
     COUNTS, "node count"),
    ("parse_topology", parse_topology,
     ("n=True\n", "n=2.5\n", "n=x\n", "n=-1\n", "n=0\n", f"n={MAX_NODES + 1}\n"),
     "(bad )?node count"),
    ("ExperimentConfig.n", lambda v: ExperimentConfig(n=v), COUNTS, "node count"),
    ("bfs_hops", lambda v: bfs_hops(T, v), IDS, "src"),
    ("extract_path.src", lambda v: extract_path(STATE, v, 0), IDS, "src"),
    ("extract_path.dst", lambda v: extract_path(STATE, 0, v), IDS, "dst"),
    ("fail_link_and_trace.probe",
     lambda v: fail_link_and_trace(T, 0, 1, v, 3), IDS, "probe"),
    ("fail_link_and_trace.dest",
     lambda v: fail_link_and_trace(T, 0, 1, 0, v), IDS, "dest"),
    ("build_spanning_tree.root",
     lambda v: build_spanning_tree(T, v, W, T.gate(0.0), 1), IDS, "root"),
    ("build_spanning_tree.dst",
     lambda v: build_spanning_tree(T, 0, W, T.gate(0.0), v), IDS, "dst"),
    ("ExperimentConfig.query_src",
     lambda v: ExperimentConfig(n=T.n, explicit_queries=((0, 1), (v, 1))),
     IDS, "src of query"),
    ("ExperimentConfig.query_dst",
     lambda v: ExperimentConfig(n=T.n, explicit_queries=((0, v),)),
     IDS, "dst of query"),
    ("RouteRequest.src", lambda v: RouteRequest(v, 1), NON_INT_IDS, "src"),
    ("RouteRequest.dst", lambda v: RouteRequest(0, v), NON_INT_IDS, "src and dst"),
    ("select_route.src", lambda v: select_route(T, RouteRequest(v, 1)),
     OUT_OF_RANGE_IDS, "src and dst"),
    ("select_route.dst", lambda v: select_route(T, RouteRequest(0, v)),
     OUT_OF_RANGE_IDS, "src and dst"),
    ("feasible_subgraph", lambda v: feasible_subgraph(T, v), DEMANDS, "demand"),
    ("RouteRequest.demand", lambda v: RouteRequest(0, 1, v), DEMANDS, "demand"),
    ("Topology.gate", T.gate, DEMANDS, "demand"),
    ("ExperimentConfig.demand", lambda v: ExperimentConfig(demand=v),
     DEMANDS, "demand"),
    ("ExperimentConfig.gen", lambda v: ExperimentConfig(gen=v),
     NOT_CONFIGS + (W,), "gen"),
    ("ExperimentConfig.weights", lambda v: ExperimentConfig(weights=v),
     NOT_CONFIGS + (GenParams(),), "weights"),
    ("RouteRequest.weights", lambda v: RouteRequest(0, 1, 5.0, v),
     NOT_CONFIGS + (GenParams(),), "weights"),
    ("build_spanning_tree.w",
     lambda v: build_spanning_tree(T, 0, v, T.gate(0.0), 3),
     NOT_CONFIGS + (GenParams(),), "weights"),
    ("generate_topology.params", lambda v: generate_topology(4, v),
     NOT_CONFIGS + (W,), "params"),
    ("generate_topology_rng.params",
     lambda v: generate_topology_rng(4, v, SplitMix64(1)),
     NOT_CONFIGS + (W,), "params"),
    ("ExperimentConfig.explicit_queries",
     lambda v: ExperimentConfig(n=T.n, explicit_queries=((0, 1), v)),
     QUERIES, "query"),
    ("ExperimentConfig.explicit_queries.container",
     lambda v: ExperimentConfig(n=T.n, explicit_queries=v),
     QUERY_LISTS, "explicit_queries"),
    ("Topology.links", lambda v: Topology(3, v), LINK_LISTS, "links"),
    ("GenParams.edge_prob", lambda v: GenParams(edge_prob=v), (HUGE,),
     "generator parameters"),
    ("GenParams.bandwidth_range", lambda v: GenParams(bandwidth_range=(1, v)),
     (HUGE,), "generator parameters"),
    ("Weights", lambda v: Weights(v, 1, 1), (HUGE,), "weights"),
    ("QosLink", lambda v: QosLink(0, 1, v, 1.0, 0.0, 0.0), (HUGE,),
     "link attributes"),
]


@pytest.mark.parametrize("call, value, name", [
    pytest.param(call, value, name, id=f"{entry}-{value!r}")
    for entry, call, values, name in ENTRIES for value in values])
def test_entry_points_reject_bad_inputs_naming_the_argument(call, value, name):
    with pytest.raises(ValueError, match=f"^{name} "):
        call(value)


@pytest.mark.parametrize("a, b", [(0, True), (True, 0), (1, 2.0), (2.0, 1),
                                  (0, "1"), (None, 1), (-1, 0), (3, T.n)])
def test_remove_link_finds_no_link_at_a_non_node_id(a, b):
    # True and 2.0 hash as 1 and 2, so an adjacency lookup alone would
    # remove the links {0, 1} and {1, 2}
    with pytest.raises(ValueError, match="is not a link"):
        remove_link(T, a, b)


def test_generator_checks_the_count_before_any_draw():
    rng = SplitMix64(1)
    with pytest.raises(ValueError, match="node count"):
        generate_topology_rng(MAX_NODES + 1, GenParams(), rng)
    assert rng.state == 1


def test_explicit_queries_set_the_query_count():
    # a count outside 0..MAX_QUERIES is never checked: the queries run
    cfg = ExperimentConfig(n=4, query_count=2_000_000,
                           explicit_queries=((0, 3), (1, 2), (3, 0)))
    assert cfg.query_count == 3
    assert ExperimentConfig(n=4, explicit_queries=()).query_count == 0


def test_equal_configs_render_equal_reports():
    # ints pass the checks but are kept as floats, so a config equal to
    # its all-float twin, and hashing the same, echoes the same JSON
    given = ExperimentConfig(n=8, seed=1, query_count=2, demand=5,
                             weights=Weights(1, 1, 1),
                             gen=GenParams(bandwidth_range=(1, 100)))
    twin = ExperimentConfig(n=8, seed=1, query_count=2, demand=5.0,
                            weights=Weights(1.0, 1.0, 1.0),
                            gen=GenParams(bandwidth_range=(1.0, 100.0)))
    assert given == twin and hash(given) == hash(twin)
    assert report_to_json(run_comparison(given)) == report_to_json(
        run_comparison(twin))
    # a list range is kept as a tuple: the params stay hashable
    as_list = GenParams(edge_prob=Fraction(1, 4), bandwidth_range=[1.0, 2.0])
    as_tuple = GenParams(edge_prob=0.25, bandwidth_range=(1.0, 2.0))
    assert as_list == as_tuple and hash(as_list) == hash(as_tuple)
    assert as_list.bandwidth_range == (1.0, 2.0)
    assert type(as_list.edge_prob) is float


def test_explicit_queries_are_kept_as_a_tuple_of_pairs():
    # a list is converted, so the frozen config stays hashable and equals
    # the one given tuples
    given = ExperimentConfig(n=4, explicit_queries=[[0, 3], (1, 2)])
    as_tuples = ExperimentConfig(n=4, explicit_queries=((0, 3), (1, 2)))
    assert given.explicit_queries == ((0, 3), (1, 2))
    assert given == as_tuples and hash(given) == hash(as_tuples)
    assert given.query_count == 2
    assert hash(ExperimentConfig(n=4, explicit_queries=[])) == hash(
        ExperimentConfig(n=4, explicit_queries=()))
    # an iterator has no length to set query_count from
    for queries in (iter([(0, 1)]), ((0, 1) for _ in range(1))):
        with pytest.raises(ValueError, match="^explicit_queries "):
            ExperimentConfig(n=4, explicit_queries=queries)


class FloatSubclass(float):
    pass


# value, is_int, is_number: the exact-type fast paths change neither column
NUMBER_TABLE = [
    (3, True, True),
    (True, False, False),
    (IntSubclass(3), True, True),
    (2.5, False, True),
    (FloatSubclass(2.5), False, True),
    (Fraction(1, 2), False, True),
    (Decimal("1.5"), False, False),  # not registered as a numbers.Real
    (1j, False, False),
    ("1", False, False),
    (None, False, False),
    (math.nan, False, True),
    (math.inf, False, True),
    (-math.inf, False, True),
    (HUGE, True, False),  # float(HUGE) overflows
    (-HUGE, True, False),
    (Fraction(HUGE), False, False),
]


@pytest.mark.parametrize("value, int_, number", NUMBER_TABLE,
                         ids=[repr(row[0]) for row in NUMBER_TABLE])
def test_is_int_and_is_number_truth_table(value, int_, number):
    assert is_int(value) is int_
    assert is_number(value) is number
