"""Command-line front end: ``python -m repro.cluster run|report|gate``.

``run``
    Execute one named cluster scenario and write its artifact set
    (merged trace, placement log, merged schedstat, report.json).
``report``
    Summarize a previously written artifact directory: control-tier
    counters, digests, and the head of the merged cluster schedstat.
``gate``
    The shard determinism gate: run the same scenario serially and
    sharded, each capturing per-host binlogs into a temporary directory,
    compare every shard-invariant digest and the binlog bytes, exit
    non-zero on any byte difference.  CI runs this over ``cluster_storm``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from typing import Dict, List, Optional

from repro.cluster.runner import run_cluster
from repro.cluster.scenario import CLUSTER_SCENARIOS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="sharded multi-host simulation with a placement tier")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scenario", default="cluster_mini", metavar="NAME",
                       choices=sorted(CLUSTER_SCENARIOS),
                       help="cluster scenario (default cluster_mini)")
        p.add_argument("--seed", type=int, default=42,
                       help="cluster seed (default 42)")
        p.add_argument("--quick", action="store_true",
                       help="CI-sized fleet and tenant count")

    run = sub.add_parser("run", help="run a scenario, write artifacts")
    add_common(run)
    run.add_argument("--shards", type=int, default=1,
                     help="worker processes to partition hosts across")
    run.add_argument("--out", default=None, metavar="DIR",
                     help="artifact directory (default clusterlab/<name>)")
    run.add_argument("--trace", action="store_true",
                     help="also capture one binlog per host incarnation "
                          "under <out>/binlogs/")

    report = sub.add_parser("report", help="summarize a run directory")
    report.add_argument("dir", help="artifact directory from a run")
    report.add_argument("--schedstat-lines", type=int, default=12,
                        help="schedstat preview lines (default 12)")

    gate = sub.add_parser(
        "gate", help="assert --shards N output is byte-identical to serial")
    add_common(gate)
    gate.add_argument("--shards", type=int, default=4,
                      help="sharded run's worker count (default 4)")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    spec = CLUSTER_SCENARIOS[args.scenario].build(args.quick)
    outdir = args.out or os.path.join("clusterlab", spec.name)
    trace_dir = os.path.join(outdir, "binlogs") if args.trace else None
    result = run_cluster(spec, args.seed, shards=args.shards,
                         trace_dir=trace_dir)
    paths = result.write(outdir)
    control = result.control["counters"]  # type: ignore[index]
    print("cluster %s: %d hosts, %d tenants, %d epochs, shards=%d"
          % (spec.name, len(spec.hosts), spec.tenants, spec.epochs,
             args.shards))
    print("  placements=%s completions=%s migrations=%s drains=%s "
          "hosts_down=%s hosts_up=%s"
          % (control["placements"], control["completions"],  # type: ignore[index]
             control["migrations"], control["drains"],  # type: ignore[index]
             control["hosts_down"], control["hosts_up"]))  # type: ignore[index]
    for name, digest in sorted(result.digests().items()):
        print("  %s: %s" % (name, digest))
    for name, path in sorted(paths.items()):
        print("  wrote %s" % path)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    report_path = os.path.join(args.dir, "report.json")
    try:
        with open(report_path) as fh:
            report = json.load(fh)
    except FileNotFoundError:
        print("no report.json under %s (run `repro.cluster run` first)"
              % args.dir, file=sys.stderr)
        return 2
    print("cluster %s: %s hosts, %s tenants, %s epochs, %s messages, "
          "shards=%s" % (report["cluster"], report["hosts"],
                         report["tenants"], report["epochs"],
                         report["messages"], report["shards"]))
    for key, value in sorted(report["control"]["counters"].items()):
        print("  %s=%s" % (key, value))
    print("  live_tenants=%s pending=%s"
          % (report["control"]["live_tenants"],
             report["control"]["pending"]))
    for name, digest in sorted(report["digests"].items()):
        print("  %s: %s" % (name, digest))
    sched_path = os.path.join(args.dir, "cluster-schedstat.txt")
    if os.path.exists(sched_path):
        print("merged cluster schedstat (head):")
        with open(sched_path) as fh:
            for index, line in enumerate(fh):
                if index >= args.schedstat_lines:
                    print("  ...")
                    break
                print("  " + line.rstrip("\n"))
    return 0


def _binlogs_digest(trace_dir: str) -> str:
    """sha256 over every per-host binlog's name and bytes."""
    lines = []
    for name in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, name), "rb") as fh:
            lines.append("%s %s\n"
                         % (name, hashlib.sha256(fh.read()).hexdigest()))
    return hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()


def _gate_digests(args: argparse.Namespace, shards: int) -> Dict[str, str]:
    """One traced run's shard-invariant digests, binlogs included."""
    spec = CLUSTER_SCENARIOS[args.scenario].build(args.quick)
    with tempfile.TemporaryDirectory() as trace_dir:
        result = run_cluster(spec, args.seed, shards=shards,
                             trace_dir=trace_dir)
        digests = result.digests()
        digests["binlogs"] = _binlogs_digest(trace_dir)
    return digests


def _cmd_gate(args: argparse.Namespace) -> int:
    serial_digests = _gate_digests(args, 1)
    sharded_digests = _gate_digests(args, args.shards)
    failed = False
    for name in sorted(serial_digests):
        ok = serial_digests[name] == sharded_digests[name]
        failed = failed or not ok
        print("%s %s: serial=%s shards%d=%s"
              % ("ok  " if ok else "FAIL", name,
                 serial_digests[name][:16], args.shards,
                 sharded_digests[name][:16]))
    if failed:
        print("shard determinism gate FAILED for %s (seed %d)"
              % (args.scenario, args.seed), file=sys.stderr)
        return 1
    print("shard determinism gate passed: %s is byte-identical at "
          "--shards 1 and --shards %d" % (args.scenario, args.shards))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "report":
        return _cmd_report(args)
    return _cmd_gate(args)
