"""Run one fitroute benchmark workload and print its metrics.

    python3 perfbench/run.py --workload compare-dense --seed 7 --seconds 30 --trace 0

Imports fitroute from the `src/` directory beside this one, in this process,
on one thread. With `--trace 0` it prints the end-to-end metrics, with
`--trace 1` the per-layer metrics of a traced run. The human-readable lines
come first; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. The full record of the run
(environment, workload shape, report digest, each repetition's measured and
scaled time and calibration loop time and, when traced, every span) goes to perfbench/results/<workload>-seed<n>-trace<t>.json.
Exits with code 1, printing no result, when the fitroute sources are absent.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def load_program():
    """Put the checkout's own fitroute first on the import path."""
    package = SRC / "fitroute"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no fitroute sources at {package}")
    sys.path.insert(0, str(SRC))
    import fitroute
    if Path(fitroute.__file__).resolve().parent != package:
        sys.exit(f"perfbench: imported fitroute from {fitroute.__file__}, "
                 f"not from {package}")


def git_commit(root: Path) -> str | None:
    """HEAD's commit, read from root/.git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "commit": git_commit(ROOT),
    }


def main(argv: list[str] | None = None) -> int:
    load_program()
    from workloads import WORKLOADS, run

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    env = environment()
    w = WORKLOADS[args.workload]
    result = run(w, args.seed, args.seconds, bool(args.trace))

    print(f"workload {w.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("environment " + json.dumps(env))
    print("shape " + json.dumps(result.shape))
    print(f"digest {result.digest} over {len(result.reps)} repetitions")
    print(f"check attempted={result.attempted} failed={result.failed} "
          f"failed_ratio={result.failed / result.attempted:.6g}")
    for problem in result.problems[:20]:
        print(f"problem {problem}")
    for name, (value, unit) in result.metrics.items():
        print(f"metric {name} = {value!r} {unit}")

    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "shape": result.shape,
        "digest": result.digest,
        "repetitions": [{"unit": "pass" if r.latencies else "compare",
                         "traced": r.traced, "wall_s": r.wall, "scaled_s": r.scaled,
                         "calibration_s": r.calibration} for r in result.reps],
        "correct": result.correct, "attempted": result.attempted,
        "failed": result.failed, "problems": result.problems,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result.metrics.items()},
        "spans": [dataclasses.asdict(s) for s in result.spans],
    }
    out_dir = BENCH_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n")

    print(json.dumps({"correct": result.correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
