"""Replay at scale: a dense 1024-node topology file (79 648 links), written
by `gen-topology --nodes 1024 --seed 5`, parses to the generated topology
and to what the per-line reference parse (tests/helpers.py) builds through
checked QosLinks. The parse stores its columns with no QosLink built. The
seconds each parse and the generation take are printed (-rP), to keep
replay's cost in view.

Outside the tier-1 testpaths; run from the repository root with
PYTHONPATH=src:tests python -m pytest -q tests_scale -rP
"""

import time

from fitroute import generate_topology
from fitroute.cli import run_cli
from fitroute.topology import parse_topology

from helpers import reference_parse


def test_dense_1024_file_parses_to_the_generated_topology(tmp_path):
    path = tmp_path / "t1024.txt"
    assert run_cli(["gen-topology", "--nodes", "1024", "--seed", "5",
                    "--out", str(path)]) == 0
    text = path.read_text()
    started = time.perf_counter()
    t = parse_topology(text)
    parsed = time.perf_counter()
    g = generate_topology(1024, seed=5)
    generated = time.perf_counter()
    r = reference_parse(text)
    referenced = time.perf_counter()
    assert g == t == r
    assert "links" not in vars(t)
    print(f"dense 1024 file, {len(t.a)} links: parse_topology "
          f"{parsed - started:.2f} s, reference parse "
          f"{referenced - generated:.2f} s, generation "
          f"{generated - parsed:.2f} s")
