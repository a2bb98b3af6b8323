"""Tests of the benchmark itself: oracle, tracing and metric names.

    python -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_program()

import calibration  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fitroute import QosLink, RouteRequest, Topology, select_route  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# the benchmark's workloads at a size that runs in well under a second
TINY = {
    "compare-dense": dict(nodes=32, requests=20, queries=40),
    "compare-sparse": dict(nodes=48, edge_prob=0.05, requests=20, queries=40),
    "route-stream": dict(nodes=32, requests=60),
}


def tiny(name):
    return dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])


def triangle():
    """0-1-2 at 10 Mbps per link, plus a direct 0-2 link at 1 Mbps."""
    return Topology(3, (QosLink(0, 1, 10.0, 1.0, 0.0, 0.0),
                        QosLink(1, 2, 10.0, 1.0, 0.0, 0.0),
                        QosLink(0, 2, 1.0, 1.0, 0.0, 0.0)))


def test_oracle_accepts_the_engine_answers():
    t = triangle()
    g = oracle.graph_of(t)
    for demand in (0.5, 5.0, 50.0):
        for src in range(3):
            for dst in range(3):
                if src != dst:
                    req = RouteRequest(src, dst, demand)
                    assert oracle.outcome_problems(g, req, select_route(t, req)) == []


def test_oracle_flags_corrupted_outcomes():
    t = triangle()
    g = oracle.graph_of(t)
    req = RouteRequest(0, 2, 5.0)
    right = select_route(t, req)
    assert right.path == (0, 1, 2)
    wrong_hops = dataclasses.replace(right, hops=3)
    below_demand = dataclasses.replace(right, path=(0, 2), hops=1)
    assert any("path length" in p for p in oracle.outcome_problems(g, req, wrong_hops))
    problems = oracle.outcome_problems(g, req, below_demand)
    assert any("carries 1.0 < demand 5.0" in p for p in problems)
    assert any("pruned BFS distance 2" in p for p in problems)


def test_oracle_counts_corrupted_report_rows_as_failed():
    w = tiny("compare-sparse")
    t, _ = workloads.build_instance(w, seed=3)
    g = oracle.graph_of(t)
    _, output = workloads.compare_once(w.cli_args(3))(None)
    doc = json.loads(output[1])
    assert workloads._check_report(g, w, output, doc) == ([], {})

    routes = [i for i, r in enumerate(doc["rows"]) if r["ff_status"] == "route"]
    weak = next((a, b) for (a, b), bw in g.bandwidth.items() if bw < w.demand[0])
    doc["rows"][routes[0]]["ff_hops"] += 1
    doc["rows"][routes[1]].update(src=weak[0], dst=weak[1], ff_hops=1,
                                  ff_path=list(weak))
    doc["rows"][routes[2]]["dv_hops"] = 99
    problems, bad = workloads._check_report(g, w, output, doc)
    assert problems == []
    assert sorted(bad) == routes[:3]


def test_run_counts_a_corrupted_answer_in_every_repetition(monkeypatch):
    real = workloads.fitness.select_route

    def one_hop_short(t, req):
        out = real(t, req)
        return dataclasses.replace(out, hops=out.hops - 1) if req == victim else out

    w = tiny("route-stream")
    t, _ = workloads.build_instance(w, seed=6)
    victim = next(req for req in workloads.draw_requests(w, seed=6)
                  if real(t, req).status == "route")
    monkeypatch.setattr(workloads.fitness, "select_route", one_hop_short)
    result = workloads.run(w, seed=6, seconds=0, trace=False)
    assert not result.correct
    assert result.failed == len(result.reps)  # one bad answer per pass


def test_oracle_flags_report_wide_problems():
    w = tiny("compare-dense")
    _, (rc, text) = workloads.compare_once(w.cli_args(5))(None)
    doc = json.loads(text)
    doc["summary"]["violations"] = [{"row": 0, "claim": "min_hop", "detail": "x"}]
    doc["summary"]["refusals"] += 1
    problems, _ = workloads._check_report(
        oracle.graph_of(workloads.build_instance(w, 5)[0]), w, (1, text), doc)
    assert len(problems) == 4  # violations, partition, refusal count, exit code


def test_traced_run_restores_every_wrapped_function():
    before = [getattr(mod, attr) for mod, attr, _, _ in tracing.TRACED]
    for name in workloads.WORKLOADS:
        result = workloads.run(tiny(name), seed=1, seconds=0, trace=True)
        assert result.correct and result.spans
    assert [getattr(mod, attr) for mod, attr, _, _ in tracing.TRACED] == before


def test_tracer_restores_functions_when_a_call_raises():
    before = [getattr(mod, attr) for mod, attr, _, _ in tracing.TRACED]
    tracer = tracing.Tracer()
    with pytest.raises(ValueError):
        with tracer.installed():
            select_route(triangle(), RouteRequest(0, 7))
    assert [getattr(mod, attr) for mod, attr, _, _ in tracing.TRACED] == before


def test_self_time_excludes_children():
    spans = [tracing.Span(0, "cli.run_cli", 0.0, 10.0, None, 0, 0),
             tracing.Span(1, "experiment.run_comparison", 1.0, 9.0, 0, 0, 0),
             tracing.Span(2, "topology.bfs", 2.0, 3.0, 1, 0, 0),
             tracing.Span(3, "topology.bfs", 4.0, 6.0, 1, 0, 0)]
    assert tracing.self_times(spans) == {0: 2.0, 1: 5.0, 2: 1.0, 3: 2.0}


@pytest.mark.parametrize("trace", [False, True])
def test_emitted_metrics_are_the_declared_ones(trace):
    declared = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    for name in workloads.WORKLOADS:
        result = workloads.run(tiny(name), seed=2, seconds=0, trace=trace)
        assert result.correct, result.problems
        assert {k: unit for k, (_, unit) in result.metrics.items()} == declared


def test_declared_workloads_are_the_implemented_ones():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(TINY) == set(workloads.WORKLOADS)


def test_traced_and_untraced_reports_match():
    w = tiny("route-stream")
    plain = workloads.run(w, seed=4, seconds=0, trace=False)
    traced = workloads.run(w, seed=4, seconds=0, trace=True)
    assert plain.digest == traced.digest
    assert traced.failed == 0


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "route-stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_scaling_divides_out_a_slow_host():
    loop = calibration.Loop(10, 20, nominal_s=0.5)
    assert loop.scale(3.0, 0.5, 0.5) == 3.0
    assert loop.scale(3.0, 1.0, 1.0) == 1.5   # loop ran twice as slow
    assert loop.scale(3.0, 0.5, 1.5) == 1.5   # mean of the two sides
