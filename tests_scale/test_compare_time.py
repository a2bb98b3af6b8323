"""Compare time against a calibrated clock: a `fitroute compare --queries
1000` run in-process (run_cli), its wall seconds divided by the median time
of perfbench/calibration.py's LONG loop timed just before and after it. The
loop is pure-Python search work that uses nothing from fitroute, so the
ratio follows the host's speed of the moment where seconds alone do not.

Each rung below runs three times at seed 1, and the best ratio of the three
must stay below its bound, set at about 3x the ratios measured when the
bound was set, on a shared 2-vCPU Xeon VM under Python 3.11. A compare that
got about three times slower, in a search, DV or an oracle, fails it. The
ratio and the run's seconds are printed (-rP).

- The 1024-node path (--edge-prob 0, the generator's spanning chain alone,
  --infinity 1024): DV converges in 1022 rounds and each row's search steps
  the deepest hop layers of any compare. PATH_BOUND: 283-348 over five test
  runs, median about 330, each compare about 1 s.
- The rest of the ladder (RUNGS): dense 1024 nodes (the defaults: edge_prob
  0.15, demand 5), sparse 1024 nodes (edge_prob 0.016, demand 50), the path
  at 256 and 512 nodes, and the 1024-node path at demand 0.5, where no link
  refuses and every row searches the chain, 2-3 s a compare.

Outside the tier-1 testpaths; run from the repository root with
PYTHONPATH=src:tests python -m pytest -q tests_scale -rP
"""

import gc
import io
import json
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from fitroute.cli import run_cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from calibration import LONG, LONG_RUNS  # noqa: E402


def compare_argv(*flags: str) -> list[str]:
    """A seed-1, 1000-query JSON compare with the given flags."""
    return ["compare", *flags, "--queries", "1000", "--seed", "1",
            "--format", "json"]


PATH_ARGV = compare_argv("--nodes", "1024", "--edge-prob", "0",
                         "--infinity", "1024")
PATH_BOUND = 1000

# name -> (argv, bound); beside each, the best-of-three ratios of three
# rounds measured when the bounds were set
RUNGS = {
    "dense 1024": (compare_argv("--nodes", "1024"), 600),  # 189-202
    "sparse 1024": (compare_argv("--nodes", "1024", "--edge-prob", "0.016",
                                 "--demand", "50"), 160),  # 47-53
    "path 256": (compare_argv("--nodes", "256", "--edge-prob", "0",
                              "--infinity", "1024"), 125),  # 40-42
    "path 512": (compare_argv("--nodes", "512", "--edge-prob", "0",
                              "--infinity", "1024"), 330),  # 101-115
    "path 1024 at demand 0.5": (PATH_ARGV + ["--demand", "0.5"], 2400),  # 553-829
}


def calibrated_run(argv: list[str]) -> tuple[float, float, str]:
    """(wall seconds over LONG's median seconds around them, wall seconds,
    stdout) of one run_cli(argv), which must exit 0."""
    out = io.StringIO()
    gc.collect()
    before = LONG.time_s(LONG_RUNS)
    started = time.perf_counter()
    with redirect_stdout(out):
        code = run_cli(argv)
    wall = time.perf_counter() - started
    after = LONG.time_s(LONG_RUNS)
    assert code == 0
    return wall * 2 / (before + after), wall, out.getvalue()


def check_within_bound(name: str, argv: list[str], bound: float) -> None:
    """The best calibrated ratio of three runs of argv, each reporting no
    claim violation, is below bound; prints it."""
    runs = [calibrated_run(argv) for _ in range(3)]
    assert all(json.loads(text)["summary"]["violations"] == [] for *_, text in runs)
    ratio, wall, _ = min(runs)
    print(f"{name} compare: {wall:.2f} s, {ratio:.0f}x LONG (bound {bound}x)")
    assert ratio < bound


def test_path_compare_within_its_calibrated_bound():
    check_within_bound("1024-node path", PATH_ARGV, PATH_BOUND)


@pytest.mark.parametrize("rung", RUNGS)
def test_ladder_rung_within_its_calibrated_bound(rung):
    check_within_bound(rung, *RUNGS[rung])
