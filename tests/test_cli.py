import dataclasses
import hashlib
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

from fitroute import RouteRequest, select_route
from fitroute.topology import format_topology, generate_topology, parse_topology
from fitroute.cli import run_cli
from fitroute.dv import fail_link_and_trace
from fitroute.experiment import PLOT_HEADER

from helpers import counting_link_builds


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


# SHA-256 of the JSON reports as the engine wrote them before link costs
# were memoised per topology and weights, with the "fingerprint" line
# rewritten to BLAKE2b-64; every ff_cost float is covered. The sparse run
# refuses 106 of its rows.
@pytest.mark.parametrize("argv, digest", [
    (("--nodes", "128"),
     "714b64ce7694bd961edfde304d32b7572a13003657b03b7b25ce1c4b706f8617"),
    (("--nodes", "256", "--edge-prob", "0.016", "--demand", "50"),
     "02add0fd76632a0e2ae4ab430240931c780640291678da8b7d6a4b50fcfcebda"),
], ids=["dense-n128", "sparse-n256"])
def test_compare_report_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, "compare", *argv, "--seed", "1",
                       "--queries", "1000", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def test_compare_rejects_weights_of_the_wrong_length(capsys):
    code, out, err = run(capsys, "compare", "--nodes", "4", "--weights", "1,2")
    assert (code, out) == (2, "")
    assert "fitroute: error: expected WD,WJ,WL, got '1,2'" in err


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


@pytest.mark.parametrize("infinity", ["1", "0", "-16"])
def test_compare_rejects_bad_infinity_before_generating(capsys, monkeypatch,
                                                       infinity):
    def no_generation(*args):
        raise AssertionError("generated a topology for a rejected config")

    monkeypatch.setattr("fitroute.experiment.generate_topology_rng",
                        no_generation)
    code, out, err = run(capsys, "compare", "--nodes", "1024",
                         "--infinity", infinity)
    assert code == 2
    assert out == ""
    assert f"infinity_metric must be an integer in 2..1024, got {infinity}" in err


def test_compare_rejects_infinity_above_max_nodes(capsys, monkeypatch):
    def no_generation(*args):
        raise AssertionError("generated a topology for a rejected config")

    monkeypatch.setattr("fitroute.experiment.generate_topology_rng",
                        no_generation)
    code, out, err = run(capsys, "compare", "--infinity", "1025")
    assert (code, out) == (2, "")
    assert "infinity_metric must be an integer in 2..1024, got 1025" in err


@pytest.mark.parametrize("queries", ["1000001", "99999999999999999999"])
def test_compare_rejects_query_count_above_bound(capsys, monkeypatch, queries):
    # every query is a report row; drawing 10^20 of them would fill memory
    def no_generation(*args):
        raise AssertionError("generated a topology for a rejected config")

    monkeypatch.setattr("fitroute.experiment.generate_topology_rng",
                        no_generation)
    code, out, err = run(capsys, "compare", "--nodes", "4", "--queries", queries)
    assert (code, out) == (2, "")
    assert f"query_count must be an integer in 0..1000000, got {queries}" in err


@pytest.mark.parametrize("command", [["compare", "--queries", "3"],
                                     ["gen-topology", "--nodes", "5"]])
@pytest.mark.parametrize("seed", ["-1", "18446744073709551616",
                                  "18446744073709551617"])
def test_seed_outside_u64_exits_2(capsys, command, seed):
    # 2^64 + 1 would give seed 1's run, echoing another seed
    code, out, err = run(capsys, *command, "--seed", seed)
    assert (code, out) == (2, "")
    assert f"seed must be an integer in [0, 2^64), got {seed}" in err


def test_compare_rejects_out_of_range_query(capsys):
    code, _, err = run(capsys, "compare", "--nodes", "4", "--query", "0:9")
    assert code == 2
    assert "dst of query (0, 9) must be an integer node id in [0, 4), got 9" in err


@pytest.mark.parametrize("argv", [["--query=-1:2"], ["--query", "-1:2"],
                                  ["--query", "0:1", "--query", "-1:2"]])
def test_compare_rejects_negative_query_node(capsys, argv):
    # argparse alone reads a bare "-1:2" as an option and never parses it
    code, out, err = run(capsys, "compare", "--nodes", "4", *argv)
    assert (code, out) == (2, "")
    assert "src of query (-1, 2) must be an integer node id in [0, 4), got -1" in err


def test_compare_rejects_malformed_query(capsys):
    code, _, err = run(capsys, "compare", "--nodes", "4", "--query", "05")
    assert code == 2


def test_unknown_flag_exits_2(capsys):
    assert run_cli(["compare", "--frobnicate"]) == 2


@pytest.mark.parametrize("argv", [
    ["demo-count-to-infinity", "--fail=--"], ["compare", "--nodes=--"],
    ["compare", "--query=--"], ["gen-topology", "--nodes", "4", "--bw=--"]])
def test_flag_equals_double_dash_exits_2(capsys, argv):
    # argparse alone turns `--fail=--` into an empty list, which crashed
    # the pair, range and node checks
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"argument {argv[-1][:-3]}: expected one argument" in err


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


@pytest.mark.parametrize("nodes, seed, gen, demand", [
    ("40", 3, (), "5"),
    # bandwidths within 1e-5 of the demand: a rounded file would refuse or
    # route rows the generated run does not
    *(("30", seed, ("--bw", "4.99999:5.00001"), "5") for seed in range(40)),
])
def test_replayed_json_report_equals_the_generated_one(tmp_path, capsys, nodes,
                                                       seed, gen, demand):
    path = tmp_path / "topo.txt"
    code, _, _ = run(capsys, "gen-topology", "--nodes", nodes, "--seed",
                     str(seed), *gen, "--out", str(path))
    assert code == 0
    argv = ("--seed", str(seed), "--queries", "50", "--demand", demand,
            "--format", "json", *gen)
    code, replayed, _ = run(capsys, "compare", "--topology", str(path), *argv)
    assert code == 0
    _, generated, _ = run(capsys, "compare", "--nodes", nodes, *argv)
    assert replayed == generated
    digest = hashlib.blake2b(path.read_bytes(), digest_size=8).hexdigest()
    assert json.loads(replayed)["fingerprint"] == digest


def test_replayed_split_topology_tables_name_the_unreachable_row(tmp_path,
                                                                 capsys):
    # node 2 has no link: both tables print row 0->2 as unreachable
    path = tmp_path / "topo.txt"
    path.write_text("n=3\n0 1 10 1 0 0\n")
    code, out, err = run(capsys, "compare", "--topology", str(path),
                         "--query", "0:2", "--query", "0:1")
    assert (code, err) == (0, "")
    dv, ff = out.split("\n\n")[1:3]
    for table in (dv, ff):
        assert table.splitlines()[2].split() == ["0", "2", "-", "unreachable"]
        assert table.splitlines()[3].split() == ["0", "1", "1", "0->1"]
    assert " unreachable=1 " in out.splitlines()[-1]


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


def test_demo_rejects_negative_link_end(capsys):
    # on the line 0-1-2, node -1 must not index the last node's links and
    # fail link 1-2
    code, out, err = run(capsys, "demo-count-to-infinity", "--fail=-1:1")
    assert (code, out) == (2, "")
    assert "-1:1 is not a link of the topology" in err


@pytest.mark.parametrize("command", [["compare", "--queries", "3"],
                                     ["gen-topology", "--nodes", "5"]])
@pytest.mark.parametrize("seed", ["0", "1"])
def test_loss_range_whose_top_draw_reads_1_exits_2_at_any_seed(capsys, command, seed):
    # lo + (hi - lo) rounds up to 1.0, the loss the top 1024 draws give:
    # the range is refused whatever the seed draws
    code, out, err = run(capsys, *command, "--seed", seed,
                         "--loss", "0.381887309488307:0.9999999999999999")
    assert (code, out) == (2, "")
    assert "fitroute: error: loss must lie in [0, 1), got 1.0" in err


@pytest.mark.parametrize("flag", ["--fail", "--fai"])
def test_demo_rejects_negative_link_end_as_two_tokens(capsys, flag):
    # argparse alone reads a bare "-1:1" as an option and never parses it
    code, out, err = run(capsys, "demo-count-to-infinity", flag, "-1:1")
    assert (code, out) == (2, "")
    assert "-1:1 is not a link of the topology" in err


RANGE_CASES = [
    ("--bw", "-5:10", "bandwidth must be finite and > 0, got -5.0"),
    ("--b", "-5:10", "bandwidth must be finite and > 0, got -5.0"),
    ("--delay", "-2:3", "delay and jitter must be finite and non-negative"),
    ("--jitter", "-1:0", "delay and jitter must be finite and non-negative"),
    ("--jit", "-1:0", "delay and jitter must be finite and non-negative"),
    ("--loss", "-0.5:0", "loss must lie in [0, 1), got -0.5"),
]
WEIGHTS_CASES = [
    ("--weights", "-1,1,1", "weights must be finite and non-negative"),
    ("--wei", "-1,1,1", "weights must be finite and non-negative"),
]


@pytest.mark.parametrize("command, flag, value, message",
                         [("compare", *case) for case in RANGE_CASES + WEIGHTS_CASES]
                         + [("gen-topology", *case) for case in RANGE_CASES])
def test_negative_range_and_weights_as_two_tokens(capsys, command, flag,
                                                  value, message):
    # argparse alone reads a bare "-5:10" or "-1,1,1" as an option, and
    # exits with "expected one argument" before any range check runs
    code, out, err = run(capsys, command, "--nodes", "4", flag, value)
    assert (code, out) == (2, "")
    assert f"fitroute: error: {message}" in err
    assert run(capsys, command, "--nodes", "4", f"{flag}={value}") == (
        code, out, err)


def test_demo_rejects_bad_probe(capsys):
    code, _, err = run(capsys, "demo-count-to-infinity", "--probe", "9")
    assert code == 2


def test_demo_has_no_round_cap(capsys):
    # the trace ends by itself within --infinity rounds
    code, out, err = run(capsys, "demo-count-to-infinity",
                         "--max-rounds", "64")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --max-rounds" in err


def test_demo_counts_all_the_way_to_a_high_infinity(capsys):
    # 2, 4, 4, 6, 6, ...: probe 0 reaches 100 at round 98
    code, out, _ = run(capsys, "demo-count-to-infinity", "--infinity", "100")
    lines = out.splitlines()
    assert code == 0
    assert lines[-2] == "98,INF" and len(lines) == 100


def test_demo_rejects_infinity_above_max_nodes(capsys, monkeypatch):
    # counting to 10^20 would take up to 10^20 rounds; fail before any
    # exchange round runs
    def no_rounds(*args):
        raise AssertionError("ran a trace for a rejected infinity")

    monkeypatch.setattr("fitroute.dv.exchange_round", no_rounds)
    code, out, err = run(capsys, "demo-count-to-infinity",
                         "--infinity", "100000000000000000000")
    assert (code, out) == (2, "")
    assert "infinity_metric must be an integer in 2..1024" in err


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


@pytest.mark.parametrize("argv", [
    [],
    ["--probe", "1"],
    ["--topology", "GENERATED", "--fail", "FIRST", "--probe", "0", "--dest", "39"],
])
def test_demo_verdict_reads_no_bandwidth_index(tmp_path, capsys, monkeypatch, argv):
    # the demo routes one demand-0 request over a gate of every link; the
    # bandwidth index select_route bisects is never built, and the verdict
    # is select_route's on the failed topology. The trace and the route
    # read the link columns: neither the topology nor the failed one builds
    # t.links
    path = tmp_path / "topo.txt"
    run(capsys, "gen-topology", "--nodes", "40", "--seed", "3", "--out", str(path))
    first = parse_topology(path.read_text()).links[0]
    argv = [{"GENERATED": str(path), "FIRST": f"{first.a}:{first.b}"}.get(arg, arg)
            for arg in argv]
    traces = []

    def keeping(t, a, b, probe, dest, **kwargs):
        traces.append((fail_link_and_trace(t, a, b, probe, dest, **kwargs),
                       probe, dest, t))
        return traces[-1][0]

    monkeypatch.setattr("fitroute.cli.fail_link_and_trace", keeping)
    built = counting_link_builds(monkeypatch)
    code, out, _ = run(capsys, "demo-count-to-infinity", *argv)
    [(trace, probe, dest, t)] = traces
    failed = trace.topology
    assert code == 0 and "bandwidth_index" not in vars(failed)
    assert "links" not in vars(t) and "links" not in vars(failed)
    # the only QosLinks built are the default line's two, or the file
    # parse's checks of its column minima and maxima
    assert len(built) == 2
    expected = select_route(failed, RouteRequest(probe, dest, 0.0))
    assert out.splitlines()[-1] == (
        f"# fitness estimation after the failure: {expected.status}")


# --- the whole grammar ---
# Every subcommand's flags, each value valid two times in three: the
# malformed ones are negative, huge, NaN and infinite numbers, words, and
# broken pairs and ranges. The topology file is a small generated one, the
# same with random lines added, or random lines or bytes alone. Node and
# query counts stay small, so an example runs in milliseconds; --nodes
# within 1..1024 is valid but slow. --queries above 10^6 exits 2 before a
# topology is generated, so it draws huge counts too. {dir} in a value is a
# fresh directory holding the drawn topology file.

WORDS = ("", "-", "--", ":", "x", "nan", "-nan", "inf", "-inf", "1e999",
         "0x10", "1_0", " 3", "1.5", "-0")
HUGE = (str(2**64), str(2**64 - 1), "9" * 40)
BAD_INTS = st.one_of(st.integers(-3, 0).map(str), st.sampled_from(WORDS + HUGE))
BAD_NUMBERS = st.one_of(st.integers(-3, 0).map(str),
                        st.floats().map(repr),  # NaN and infinities too
                        st.sampled_from(WORDS + HUGE + ("1e308", "5e-324")))


def valid_or_not(valid, invalid):
    return st.one_of(valid, valid, invalid)


def ints(lo, hi):
    return valid_or_not(st.integers(lo, hi).map(str), BAD_INTS)


def numbers(lo, hi):
    return valid_or_not(st.floats(lo, hi).map(repr), BAD_NUMBERS)


def ranges(lo, hi):
    bounds = st.tuples(st.floats(lo, hi), st.floats(lo, hi)).map(sorted)
    return valid_or_not(bounds.map("{0[0]!r}:{0[1]!r}".format), st.one_of(
        st.builds("{}:{}".format, BAD_NUMBERS, BAD_NUMBERS),
        st.sampled_from(WORDS + HUGE + ("1:2:3", "5:1"))))


NODE_PAIRS = valid_or_not(
    st.builds("{}:{}".format, st.integers(0, 5), st.integers(0, 5)),
    st.one_of(st.builds("{}:{}".format, BAD_INTS, BAD_INTS),
              st.sampled_from(WORDS + HUGE)))
FILES = valid_or_not(st.just("{dir}/topo.txt"),
                     st.sampled_from(("{dir}/missing.txt", "{dir}")))
GEN_FLAGS = {"--edge-prob": numbers(0.0, 1.0), "--bw": ranges(1e-3, 100.0),
             "--delay": ranges(0.0, 20.0), "--jitter": ranges(0.0, 5.0),
             "--loss": ranges(0.0, 0.5)}
GRAMMAR = {
    "compare": {
        "--nodes": ints(1, 24), "--seed": ints(0, 2**64 - 1),
        "--queries": ints(0, 40) | st.just(str(10**6 + 1)),
        "--query": NODE_PAIRS,
        "--demand": numbers(0.0, 120.0),
        "--weights": valid_or_not(
            st.lists(st.floats(0.0, 10.0).map(repr), min_size=3,
                     max_size=3).map(",".join),
            st.lists(BAD_NUMBERS, min_size=1, max_size=4).map(",".join)),
        "--infinity": ints(2, 40) | st.sampled_from(("1024", "1025")),
        "--format": st.sampled_from(("table", "csv", "json", "xml")),
        "--topology": FILES,
        "--out": valid_or_not(st.just("{dir}/out.txt"), FILES),
        **GEN_FLAGS},
    "demo-count-to-infinity": {
        "--topology": FILES, "--fail": NODE_PAIRS, "--probe": ints(0, 5),
        "--dest": ints(0, 5), "--infinity": ints(2, 40),
        "--out": valid_or_not(st.just("{dir}/out.txt"), FILES)},
    "gen-topology": {
        "--nodes": ints(1, 24), "--seed": ints(0, 2**64 - 1),
        "--out": valid_or_not(st.just("{dir}/out.txt"), FILES), **GEN_FLAGS},
}
RANDOM_LINES = st.lists(st.one_of(
    st.builds("n={}".format, st.one_of(st.integers(-1, 12).map(str),
                                       st.sampled_from(WORDS + HUGE))),
    st.builds("{} {} {} {} {} {}".format, BAD_INTS, BAD_INTS, BAD_NUMBERS,
              BAD_NUMBERS, BAD_NUMBERS, BAD_NUMBERS),
    st.text(max_size=20)), max_size=4).map("\n".join)
GENERATED = st.builds(lambda n, seed: format_topology(generate_topology(n, seed=seed)),
                      st.integers(1, 12), st.integers(0, 2**64 - 1))
TOPOLOGY_FILES = st.one_of(
    GENERATED, st.builds("{}{}\n".format, GENERATED, RANDOM_LINES),
    RANDOM_LINES, st.binary(max_size=40))


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    flags = GRAMMAR[command]
    argv = [command]
    if command == "gen-topology" and draw(st.booleans()):  # its one required flag
        argv += ["--nodes", draw(flags["--nodes"])]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=7)):
        value = draw(flags[flag])
        argv += draw(st.sampled_from(([flag, value], [f"{flag}={value}"])))
    return argv


def _report_has_no_violations(report):
    if report.startswith("{"):
        return json.loads(report)["summary"]["violations"] == []
    if report.startswith(PLOT_HEADER):
        return True  # csv rows carry no violation field; the exit code does
    return report.splitlines()[-1].endswith(" violations=0")


@settings(max_examples=300, deadline=None)
@given(cli_argvs(), TOPOLOGY_FILES)
def test_cli_grammar_exits_0_or_2_with_a_message(argv, topology_file):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "topo.txt")
        if isinstance(topology_file, bytes):
            path.write_bytes(topology_file)
        else:
            path.write_text(topology_file, encoding="utf-8")
        argv = [token.replace("{dir}", tmp) for token in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run_cli(argv)
        assert code in (0, 2), (argv, err.getvalue())
        event(f"{argv[0]} exits {code}")
        if code == 2:
            assert err.getvalue().strip() and out.getvalue() == ""
            return
        target = None
        for prev, token in zip(["", *argv], argv):  # the last --out wins
            if prev == "--out" or token.startswith("--out="):
                target = Path(token.removeprefix("--out="))
        report = out.getvalue() if target is None else target.read_text()
    if argv[0] == "compare":
        assert _report_has_no_violations(report), argv
    elif argv[0] == "gen-topology":
        parse_topology(report)
    else:
        assert report.splitlines()[-1].startswith(
            "# fitness estimation after the failure:")
