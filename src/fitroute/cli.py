"""Command-line front end.

Three subcommands: `compare` runs the paired-query experiment and prints the
two route tables (or CSV / JSON); `demo-count-to-infinity` converges the
distance-vector engine, fails a link and prints the round-by-round metric
trace next to the fitness engine's bounded verdict; `gen-topology` writes a
topology file for later replay. Output is a pure function of the argument
list.

Exit codes: 0 success, 1 claim violations in a comparison, 2 bad arguments.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .dv import fail_link_and_trace, format_trace
from .experiment import (
    ExperimentConfig,
    emit_plot_series,
    render_table,
    report_to_json,
    run_comparison,
)
from .fitness import DEFAULT_WEIGHTS, Weights, route
from .topology import (
    GenParams,
    QosLink,
    Topology,
    format_topology,
    generate_topology,
    parse_topology,
)


def _parse_range(text: str) -> tuple[float, float]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValueError(f"expected MIN:MAX, got {text!r}")
    return float(lo), float(hi)


def _parse_node_pair(text: str) -> tuple[int, int]:
    a, sep, b = text.partition(":")
    if not sep:
        raise ValueError(f"expected A:B, got {text!r}")
    return int(a), int(b)


def _parse_weights(text: str) -> Weights:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected WD,WJ,WL, got {text!r}")
    return Weights(float(parts[0]), float(parts[1]), float(parts[2]))


def _add_gen_flags(p: argparse.ArgumentParser):
    p.add_argument("--edge-prob", type=float, default=0.15,
                   help="probability of each extra link (default 0.15)")
    p.add_argument("--bw", metavar="MIN:MAX", default="1:100",
                   help="bandwidth range in Mbps (default 1:100)")
    p.add_argument("--delay", metavar="MIN:MAX", default="1:20",
                   help="delay range in ms (default 1:20)")
    p.add_argument("--jitter", metavar="MIN:MAX", default="0:5",
                   help="jitter range in ms (default 0:5)")
    p.add_argument("--loss", metavar="MIN:MAX", default="0:0.05",
                   help="loss probability range (default 0:0.05)")


def _gen_params(args) -> GenParams:
    return GenParams(
        edge_prob=args.edge_prob,
        bandwidth_range=_parse_range(args.bw),
        delay_range=_parse_range(args.delay),
        jitter_range=_parse_range(args.jitter),
        loss_range=_parse_range(args.loss),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fitroute",
        description="Deterministic QoS routing simulator: fitness-estimation "
                    "routing vs a distance-vector baseline.")
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser(
        "compare", help="run both engines over a seeded topology")
    compare.add_argument("--nodes", type=int, default=None,
                         help="node count, 1..1024 (default 16)")
    compare.add_argument("--seed", type=int, default=0,
                         help="0..2^64-1 (default 0)")
    compare.add_argument("--queries", type=int, default=20,
                         help="random query count, 0..10^6 (default 20)")
    compare.add_argument("--query", metavar="SRC:DST", action="append",
                         help="explicit query, repeatable; overrides --queries")
    compare.add_argument("--demand", type=float, default=5.0,
                         help="bandwidth demand in Mbps (default 5)")
    compare.add_argument("--weights", metavar="WD,WJ,WL", default="1,1,1",
                         help="delay,jitter,loss cost weights (default 1,1,1)")
    compare.add_argument("--infinity", type=int, default=16,
                         help="distance-vector unreachability cap, 2..1024 "
                              "(default 16)")
    compare.add_argument("--format", choices=("table", "csv", "json"),
                         default="table")
    compare.add_argument("--out", metavar="FILE", default=None,
                         help="write the report here instead of stdout")
    compare.add_argument("--topology", metavar="FILE", default=None,
                         help="replay a topology file instead of generating")
    _add_gen_flags(compare)

    demo = sub.add_parser(
        "demo-count-to-infinity",
        help="fail a link and trace the distance-vector metric climb")
    demo.add_argument("--topology", metavar="FILE", default=None,
                      help="topology file (default: 3-node line 0-1-2)")
    demo.add_argument("--fail", metavar="A:B", default="1:2",
                      help="link to fail (default 1:2)")
    demo.add_argument("--probe", type=int, default=0,
                      help="node whose metric is traced (default 0)")
    demo.add_argument("--dest", type=int, default=2,
                      help="destination being counted toward (default 2)")
    demo.add_argument("--infinity", type=int, default=16,
                      help="unreachability cap, 2..1024 (default 16)")
    demo.add_argument("--out", metavar="FILE", default=None)

    gen = sub.add_parser("gen-topology", help="write a topology file")
    gen.add_argument("--nodes", type=int, required=True,
                     help="node count, 1..1024")
    gen.add_argument("--seed", type=int, default=0,
                     help="0..2^64-1 (default 0)")
    gen.add_argument("--out", metavar="FILE", default=None)
    _add_gen_flags(gen)

    return parser


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_compare(args) -> int:
    topology = None
    if args.topology is not None:
        topology = parse_topology(Path(args.topology).read_text())
        n = topology.n if args.nodes is None else args.nodes
    else:
        n = 16 if args.nodes is None else args.nodes

    cfg = ExperimentConfig(
        n=n,
        seed=args.seed,
        gen=_gen_params(args),
        query_count=args.queries,
        explicit_queries=tuple(map(_parse_node_pair, args.query or ())) or None,
        demand=args.demand,
        weights=_parse_weights(args.weights),
        infinity_metric=args.infinity,
    )
    report = run_comparison(cfg, topology)

    if args.format == "csv":
        text = emit_plot_series(report)
    elif args.format == "json":
        text = report_to_json(report)
    else:
        s = report.summary
        lines = [
            f"topology: n={cfg.n} fingerprint={report.fingerprint:016x}",
            "",
            render_table(report, "dv").rstrip("\n"),
            "",
            render_table(report, "ff").rstrip("\n"),
            "",
            f"summary: rows={len(report.rows)} ff_wins={s.ff_wins} "
            f"ties={s.ties} ff_longer={s.ff_longer} refusals={s.refusals} "
            f"unreachable={s.unreachable} violations={len(s.violations)}",
        ]
        lines.extend(
            f"violation: row={v.row} claim={v.claim} detail={v.detail}"
            for v in s.violations)
        text = "\n".join(lines) + "\n"

    _emit(text, args.out)
    return 1 if report.summary.violations else 0


def _line_topology() -> Topology:
    # benign 3-node line 0-1-2; attributes are irrelevant to the hop metric
    return Topology(3, (
        QosLink(0, 1, 10.0, 1.0, 0.0, 0.0),
        QosLink(1, 2, 10.0, 1.0, 0.0, 0.0),
    ))


def _cmd_demo(args) -> int:
    if args.topology is not None:
        t = parse_topology(Path(args.topology).read_text())
    else:
        t = _line_topology()
    a, b = _parse_node_pair(args.fail)
    trace = fail_link_and_trace(t, a, b, args.probe, args.dest,
                                infinity_metric=args.infinity)
    # one request at demand 0: a gate over every link costs one pass over
    # the links, far less than the bandwidth index select_route bisects;
    # the trace has checked the probe and dest
    failed = trace.topology
    outcome = route(failed, args.probe, DEFAULT_WEIGHTS, failed.gate(0.0),
                    args.dest)
    text = (format_trace(trace)
            + f"# fitness estimation after the failure: {outcome.status}\n")
    _emit(text, args.out)
    return 0


def _cmd_gen(args) -> int:
    t = generate_topology(args.nodes, _gen_params(args), args.seed)
    _emit(format_topology(t), args.out)
    return 0


# the options whose values are pairs (A:B, SRC:DST), ranges (MIN:MAX) or
# weights (WD,WJ,WL), none of them a number argparse would take as a value
_PAIR_FLAGS = ("--fail", "--query", "--bw", "--delay", "--jitter", "--loss",
               "--weights")


def _attach_pair_values(argv: list[str]) -> list[str]:
    """`--fail -1:1` as `--fail=-1:1`, and so for every _PAIR_FLAGS option
    and its abbreviations: argparse reads a token that starts with '-' and
    is not a number as an option, so a pair, range or weights value whose
    first number is negative would not reach the checks that reject it."""
    out = []
    for token in argv:
        if (out and len(out[-1]) > 2
                and any(flag.startswith(out[-1]) for flag in _PAIR_FLAGS)
                and token[:1] == "-" and token[1:2].isdigit()):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = _attach_pair_values(sys.argv[1:] if argv is None else argv)
    try:
        for token in argv:  # argparse would read `--flag=--` as an empty list
            flag, _, value = token.partition("=")
            if token[:1] == "-" and value == "--":
                parser.error(f"argument {flag}: expected one argument")
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "demo-count-to-infinity":
            return _cmd_demo(args)
        return _cmd_gen(args)
    except (ValueError, OSError) as e:
        print(f"fitroute: error: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
