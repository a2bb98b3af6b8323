"""Route agreement at scale: the engine's routes against full reference trees
at 512 and 1024 nodes, sizes the tier-1 suite does not reach.

Every route, of select_route or of a run_comparison row, comes from one
search that costs only the nodes on dst's min-hop gated paths, with no tree
built (fitness.route); the full gated tree from the source, run until a
layer is empty, is the reference it must equal (tests/helpers.py).

- At 512 nodes: 2000 select_route outcomes, dense at the compare demand and
  sparse with demands drawn from 1-90. The search grows its hop layers from
  both ends until they meet, so 2000 select_route outcomes on a very sparse
  (edge_prob 0.004) 1024-node graph make the sides meet deep and unevenly:
  routes of up to 40 hops and 443 refusals.
- The 1000 rows of a dense (demand 5) compare and of a sparse (edge_prob
  0.016, demand 50) one at 512 nodes, whose seed 2 refuses 11 rows (seed 1
  refuses none); the 1000 rows of a dense compare at 1024 nodes, whose kept
  layers are the largest. Every compare must also pass verify_claims, whose
  oracle advances all queried sources in one lockstep pass, each only until
  it reaches the last dst it queries in its component, and labels the full
  graph's components once on a run with refused rows; the very sparse
  (edge_prob 0.004, demand 50) 1024-node compare has 55 refusals and routes
  of up to 13 hops, and the 1024-node path (edge_prob 0, the generator's
  spanning chain alone, demand 5, infinity 1024) runs the pass 72 rounds
  deep and refuses 948 rows, the most of any compare.
- At demand 0.5, below every bandwidth, that path stays one 1023-hop chain:
  no refusals, and the pass runs 999 rounds deep; its verify_claims seconds
  are printed to keep that cost in view.
- A compare's searches all read the one gate it builds for its demand,
  never the bandwidth index select_route bisects: the dense 1024-node
  topology, replayed through run_comparison, must give the generated run's
  rows, no violations and no index. Its seconds and, on a second replay,
  its tracemalloc peak are printed.
- On the 1024-node path, at demand 5 and as the whole chain at demand 0.5,
  run_comparison's tracemalloc peak and the seconds of its 1000-row route
  pass, every row's search over the one gate, are printed: the path's
  searches step the most hop layers of any compare.

Outside the tier-1 testpaths; run from the repository root with
PYTHONPATH=src:tests python -m pytest -q tests_scale -rP
(-rP prints each test's timings and counts).
"""

import time
import tracemalloc
from dataclasses import replace
from functools import cache

import pytest

from fitroute import ExperimentConfig, GenParams, generate_topology, run_comparison
from fitroute.experiment import verify_claims
from fitroute.fitness import route

from helpers import check_routes_against_full_trees as check
from helpers import check_rows_against_full_trees as check_rows

COMPARES = [  # n, edge_prob, demand, seed, infinity
    (512, 0.15, 5.0, 1, 16),
    (512, 0.016, 50.0, 2, 16),
    (1024, 0.15, 5.0, 1, 16),
    (1024, 0.004, 50.0, 1, 16),
    (1024, 0.0, 5.0, 1, 1024),
]
CHAIN = ExperimentConfig(n=1024, seed=1, gen=GenParams(edge_prob=0.0),
                         query_count=1000, demand=0.5, infinity_metric=1024)
DENSE = ExperimentConfig(n=1024, seed=1, gen=GenParams(edge_prob=0.15),
                         query_count=1000, demand=5.0)


@cache
def checked_rows(cfg: ExperimentConfig):
    """check_rows(cfg), once per config: the dense 1024-node report is also
    the replay's expected rows."""
    return check_rows(cfg)


@pytest.mark.parametrize("n, edge_prob, demands", [
    (512, 0.15, (5.0, 5.0)),
    (512, 0.016, (1.0, 90.0)),
    (1024, 0.004, (1.0, 90.0)),
])
def test_select_route_equals_full_trees(n, edge_prob, demands):
    print(edge_prob, len(check(n, edge_prob, 1, 2000, demands)))


@pytest.mark.parametrize("n, edge_prob, demand, seed, infinity", COMPARES)
def test_compare_rows_equal_full_trees(n, edge_prob, demand, seed, infinity):
    cfg = ExperimentConfig(n=n, seed=seed, gen=GenParams(edge_prob=edge_prob),
                           query_count=1000, demand=demand,
                           infinity_metric=infinity)
    report = checked_rows(cfg)
    print(n, edge_prob, len(report.rows), report.summary.refusals)
    assert report.summary.violations == (), report.summary.violations
    assert demand < 50 and edge_prob > 0 or report.summary.refusals > 0


def test_whole_chain_compare_refuses_nothing():
    report = check_rows(CHAIN)
    assert report.summary.violations == () and report.summary.refusals == 0
    t = generate_topology(CHAIN.n, CHAIN.gen, CHAIN.seed)
    started = time.perf_counter()
    assert verify_claims(report, t) == ()
    print(f"1024-hop chain: verify_claims {time.perf_counter() - started:.2f} s")


def test_dense_replay_builds_no_bandwidth_index():
    t = generate_topology(DENSE.n, DENSE.gen, DENSE.seed)
    started = time.perf_counter()
    replayed = run_comparison(DENSE, t)
    seconds = time.perf_counter() - started
    assert replayed.rows == checked_rows(DENSE).rows
    assert replayed.summary.violations == (), replayed.summary.violations
    assert "bandwidth_index" not in vars(t)
    t = generate_topology(DENSE.n, DENSE.gen, DENSE.seed)
    tracemalloc.start()
    run_comparison(DENSE, t)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert "bandwidth_index" not in vars(t)
    print(f"dense 1024 replay: {seconds:.2f} s, tracemalloc peak {peak / 1e6:.1f} MB")


@pytest.mark.parametrize("cfg", [replace(CHAIN, demand=5.0), CHAIN],
                         ids=["demand 5", "demand 0.5"])
def test_path_compare_memory(cfg):
    t = generate_topology(cfg.n, cfg.gen, cfg.seed)
    tracemalloc.start()
    report = run_comparison(cfg, t)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    gate = t.gate(cfg.demand)
    started = time.perf_counter()
    outcomes = [route(t, row.src, cfg.weights, gate, row.dst) for row in report.rows]
    seconds = time.perf_counter() - started
    assert outcomes == [row.ff for row in report.rows]
    print(f"1024-node path at demand {cfg.demand}: tracemalloc peak "
          f"{peak / 1e6:.1f} MB, {len(outcomes)}-row route pass {seconds * 1e3:.0f} ms")
