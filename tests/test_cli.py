import dataclasses
import json

import pytest

from fitroute.topology import parse_topology
from fitroute.cli import run_cli
from fitroute.experiment import PLOT_HEADER


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- compare ---


def test_compare_defaults(capsys):
    code, out, err = run(capsys, "compare", "--nodes", "12", "--seed", "3",
                         "--queries", "6")
    assert code == 0
    assert "Distance vector" in out
    assert "Fitness function estimation" in out
    assert "summary:" in out
    assert err == ""


def test_compare_output_is_pure_function_of_args(capsys):
    argv = ("compare", "--nodes", "20", "--seed", "9", "--queries", "15",
            "--format", "json")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_compare_csv_format(capsys):
    code, out, _ = run(capsys, "compare", "--nodes", "10", "--seed", "1",
                       "--queries", "4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == PLOT_HEADER
    assert len(lines) == 5


def test_compare_json_format(capsys):
    code, out, _ = run(capsys, "compare", "--nodes", "10", "--seed", "1",
                       "--queries", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["n"] == 10
    assert len(doc["rows"]) == 4


def test_compare_explicit_queries(capsys):
    code, out, _ = run(capsys, "compare", "--nodes", "6", "--seed", "0",
                       "--query", "0:5", "--query", "5:0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [(r["src"], r["dst"]) for r in doc["rows"]] == [(0, 5), (5, 0)]


def test_compare_explicit_queries_echo_their_count(capsys):
    code, out, _ = run(capsys, "compare", "--nodes", "6", "--query", "0:3",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["query_count"] == doc["summary"]["rows"] == 1


def test_compare_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "compare", "--nodes", "8", "--queries", "3",
                       "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    json.loads(target.read_text())


@pytest.mark.parametrize("nodes", ["0", "1025", "-4"])
def test_compare_rejects_node_range(capsys, nodes):
    code, _, err = run(capsys, "compare", "--nodes", nodes)
    assert code == 2
    assert "1..1024" in err


@pytest.mark.parametrize("flags", [
    ("--weights", "nan,1,1"),
    ("--weights", "1,inf,1"),
    ("--demand", "nan"),
    ("--demand", "inf"),
    ("--bw", "1:inf"),
    ("--delay", "nan:20"),
])
def test_compare_rejects_non_finite_numbers(capsys, flags):
    code, out, err = run(capsys, "compare", "--nodes", "6", "--format", "json",
                         *flags)
    assert code == 2
    assert out == ""
    assert "fitroute: error:" in err


@pytest.mark.parametrize("link", ["0 1 10 nan 0 0", "0 1 inf 1 0 0"])
def test_compare_rejects_non_finite_topology_file(tmp_path, capsys, link):
    path = tmp_path / "topo.txt"
    path.write_text(f"n=2\n{link}\n")
    code, out, _ = run(capsys, "compare", "--topology", str(path))
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_compare_rejects_cost_overflow(capsys, fmt):
    code, out, err = run(capsys, "compare", "--nodes", "3", "--query", "0:1",
                         "--weights", "1e308,1e308,1",
                         "--delay", "1e308:1e308", "--format", fmt)
    assert code == 2
    assert out == ""
    assert "overflows" in err and "weights" in err


def test_compare_rejects_out_of_range_query(capsys):
    code, _, err = run(capsys, "compare", "--nodes", "4", "--query", "0:9")
    assert code == 2
    assert "outside" in err


def test_compare_rejects_malformed_query(capsys):
    code, _, err = run(capsys, "compare", "--nodes", "4", "--query", "05")
    assert code == 2


def test_unknown_flag_exits_2(capsys):
    assert run_cli(["compare", "--frobnicate"]) == 2


def test_missing_subcommand_exits_2(capsys):
    assert run_cli([]) == 2


def test_violations_exit_1(capsys, monkeypatch):
    import fitroute.cli as cli_mod
    from fitroute.experiment import Violation

    real = cli_mod.run_comparison

    def sabotaged(cfg, topology=None):
        report = real(cfg, topology)
        summary = dataclasses.replace(
            report.summary,
            violations=(Violation(0, "bandwidth", "injected for test"),))
        return dataclasses.replace(report, summary=summary)

    monkeypatch.setattr(cli_mod, "run_comparison", sabotaged)
    code, out, _ = run(capsys, "compare", "--nodes", "6", "--queries", "2")
    assert code == 1
    assert "violation:" in out


# --- gen-topology and replay ---


def test_gen_topology_round_trip(tmp_path, capsys):
    path = tmp_path / "topo.txt"
    code, _, _ = run(capsys, "gen-topology", "--nodes", "12", "--seed", "4",
                     "--out", str(path))
    assert code == 0
    t = parse_topology(path.read_text())
    assert t.n == 12


def test_gen_topology_stdout(capsys):
    code, out, _ = run(capsys, "gen-topology", "--nodes", "5", "--seed", "1")
    assert code == 0
    assert out.startswith("n=5\n")


def test_compare_replays_topology_file(tmp_path, capsys):
    path = tmp_path / "topo.txt"
    run(capsys, "gen-topology", "--nodes", "9", "--seed", "21",
        "--out", str(path))
    code, out, _ = run(capsys, "compare", "--topology", str(path),
                       "--queries", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["n"] == 9

    # replayed topology drives the fingerprint
    code2, out2, _ = run(capsys, "compare", "--nodes", "9", "--seed", "21",
                         "--queries", "5", "--format", "json")
    assert json.loads(out2)["fingerprint"] == doc["fingerprint"]


def test_replayed_file_draws_the_generated_queries(tmp_path, capsys):
    path = tmp_path / "topo.txt"
    run(capsys, "gen-topology", "--nodes", "40", "--seed", "3",
        "--out", str(path))
    code, replayed, _ = run(capsys, "compare", "--topology", str(path),
                            "--seed", "3", "--queries", "200", "--format", "csv")
    assert code == 0
    _, generated, _ = run(capsys, "compare", "--nodes", "40", "--seed", "3",
                          "--queries", "200", "--format", "csv")
    assert replayed == generated


def test_compare_replay_node_mismatch(tmp_path, capsys):
    path = tmp_path / "topo.txt"
    run(capsys, "gen-topology", "--nodes", "9", "--seed", "21",
        "--out", str(path))
    code, _, err = run(capsys, "compare", "--topology", str(path),
                       "--nodes", "10")
    assert code == 2


def test_compare_missing_topology_file(capsys):
    code, _, err = run(capsys, "compare", "--topology", "/no/such/file")
    assert code == 2


# --- demo-count-to-infinity ---


def test_demo_default_scenario(capsys):
    code, out, err = run(capsys, "demo-count-to-infinity")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "round,metric"
    assert lines[1] == "1,2"
    assert lines[14] == "14,INF"
    assert lines[15] == "# fitness estimation after the failure: unreachable"


def test_demo_probe_near_node(capsys):
    code, out, _ = run(capsys, "demo-count-to-infinity", "--probe", "1")
    assert code == 0
    assert out.splitlines()[1] == "1,3"


def test_demo_rejects_missing_link(capsys):
    code, _, err = run(capsys, "demo-count-to-infinity", "--fail", "0:2")
    assert code == 2
    assert "not a link" in err


def test_demo_rejects_bad_probe(capsys):
    code, _, err = run(capsys, "demo-count-to-infinity", "--probe", "9")
    assert code == 2


@pytest.mark.parametrize("rounds", ["0", "-3"])
def test_demo_rejects_max_rounds_below_one(capsys, rounds):
    code, out, err = run(capsys, "demo-count-to-infinity",
                         "--max-rounds", rounds)
    assert code == 2
    assert out == ""
    assert "max_rounds" in err


def test_demo_custom_topology(tmp_path, capsys):
    path = tmp_path / "topo.txt"
    run(capsys, "gen-topology", "--nodes", "6", "--seed", "2",
        "--out", str(path))
    t = parse_topology(path.read_text())
    a, b = t.links[0].pair
    code, out, _ = run(capsys, "demo-count-to-infinity",
                       "--topology", str(path), "--fail", f"{a}:{b}",
                       "--probe", "0", "--dest", str(t.n - 1))
    assert code == 0
    assert out.startswith("round,metric\n")
