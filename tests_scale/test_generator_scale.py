"""Generator agreement at scale: the batched generator and query stream
against their scalar references (tests/helpers.py) at 512 and 1024 nodes.

Generation takes all its draws, the permutation's, the pairs' and the
attributes', from SplitMix64 lanes stepped a batch at a time, tests each
pair's draw against the link threshold inside the lanes and stores its
link columns unchecked. The scalar reference, one next_u64 call per draw
and a checked QosLink per link, must equal it, every attribute's float and
the rng state after it included:
- at 1024 nodes, dense (79 207 links) and very sparse from the top seed;
- at 512 nodes, edge_prob 0 and 1, whose thresholds 0 (every draw flagged
  unlinked) and 2^64 - 1024 (all but the top 1024 draws linked) are the
  flag test's edge lanes.
The batched side builds no QosLink: its t.links stays unbuilt.

A compare's queries come off the same lanes and must equal the scalar
reference's 100 000 queries at 1024 nodes and at 2 nodes from the top
seed, where half of all dst draws are redrawn, so the stream reads about
98 batches past its first read.

Each side's seconds are printed (-rP). Outside the tier-1 testpaths; run
from the repository root with
PYTHONPATH=src:tests python -m pytest -q tests_scale -rP
"""

import time

import pytest

from fitroute import ExperimentConfig, GenParams
from fitroute.experiment import _draw_queries
from fitroute.topology import SplitMix64, format_topology, generate_topology_rng

from helpers import reference_queries, reference_topology_rng


@pytest.mark.parametrize("n, edge_prob, seed", [
    (1024, 0.15, 1), (1024, 0.004, 2**64 - 1), (512, 0.0, 3), (512, 1.0, 4),
])
def test_generation_equals_the_scalar_reference(n, edge_prob, seed):
    sides = []
    for generate in (generate_topology_rng, reference_topology_rng):
        rng = SplitMix64(seed)
        started = time.perf_counter()
        t = generate(n, GenParams(edge_prob=edge_prob), rng)
        sides.append((t, rng.state, time.perf_counter() - started))
    (t, state, batched_s), (ref, ref_state, reference_s) = sides
    print(n, edge_prob, seed, len(t.a), "links:",
          f"batched {batched_s:.2f} s, reference {reference_s:.2f} s")
    assert format_topology(t) == format_topology(ref) and t == ref
    assert state == ref_state
    assert "links" not in vars(t)


@pytest.mark.parametrize("n, seed", [(2, 2**64 - 1), (1024, 1)])
def test_queries_equal_the_scalar_reference(n, seed):
    cfg = ExperimentConfig(n=n, seed=seed, query_count=100_000)
    sides = []
    for draw in (_draw_queries, reference_queries):
        started = time.perf_counter()
        sides.append((draw(cfg, SplitMix64(seed)), time.perf_counter() - started))
    (queries, batched_s), (ref, reference_s) = sides
    print(n, "nodes,", len(queries), "queries:",
          f"batched {batched_s:.2f} s, reference {reference_s:.2f} s")
    assert queries == ref
