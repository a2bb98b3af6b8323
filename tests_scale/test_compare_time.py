"""Compare time against a calibrated clock: a `fitroute compare --queries
1000` run in-process (run_cli), its wall seconds divided by the median time
of perfbench/calibration.py's LONG loop timed just before and after it. The
loop is pure-Python search work that uses nothing from fitroute, so the
ratio follows the host's speed of the moment where seconds alone do not.

- The 1024-node path (--edge-prob 0, the generator's spanning chain alone,
  --infinity 1024, seed 1): DV converges in 1022 rounds and each row's
  search steps the deepest hop layers of any compare. The best ratio of
  three runs must stay below PATH_BOUND, about 3x its median when the
  bound was set: 283-348 over five test runs, median about 330, on a
  shared 2-vCPU Xeon VM under Python 3.11, each compare about 1 s. A compare that got about three
  times slower, in a search, DV or an oracle, fails it. The ratio and the
  run's seconds are printed (-rP).

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

from fitroute.cli import run_cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from calibration import LONG, LONG_RUNS  # noqa: E402

PATH_ARGV = ["compare", "--nodes", "1024", "--edge-prob", "0", "--infinity", "1024",
             "--queries", "1000", "--seed", "1", "--format", "json"]
PATH_BOUND = 1000


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


def test_path_compare_within_its_calibrated_bound():
    runs = [calibrated_run(PATH_ARGV) for _ in range(3)]
    assert all(json.loads(text)["summary"]["violations"] == [] for *_, text in runs)
    ratio, wall, _ = min(runs)
    print(f"1024-node path compare: {wall:.2f} s, {ratio:.0f}x LONG "
          f"(bound {PATH_BOUND}x)")
    assert ratio < PATH_BOUND
