"""Command-line interface: ``python -m repro.faultlab``.

Subcommands:

``run``
    Sweep a fault × workload campaign grid.  Exit status 0 when every
    cell passes its oracles, 1 when any cell fails (after shrinking,
    writing reproducers, and recording a binary trace of each failing
    cell next to its spec), 2 on usage errors.
``list``
    Print the available fault kinds and workload cells.
``replay``
    Re-run a single cell from a ``.json`` spec written next to a
    reproducer; exit 0 when the failure reproduces, 2 when it vanished.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.faultlab import campaign as _campaign
from repro.faultlab.faults import FAULTS, ensure_registered
from repro.faultlab.shrink import (record_cell_binlog, shrink_spec,
                                   write_reproducer)
from repro.faultlab.workloads import WORKLOADS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faultlab",
        description="Deterministic fault-injection campaigns for the "
                    "hierarchical SFQ scheduler.")
    sub = parser.add_subparsers(dest="command")

    run = sub.add_parser("run", help="run a campaign grid")
    run.add_argument("--seed", type=int, default=0,
                     help="campaign seed (default 0)")
    run.add_argument("--quick", action="store_true",
                     help="short horizons (CI smoke mode)")
    run.add_argument("--workers", type=int, default=0,
                     help="worker processes (0/1 = serial)")
    run.add_argument("--workload", action="append", dest="workloads",
                     metavar="NAME", help="restrict to this workload "
                     "cell (repeatable)")
    run.add_argument("--fault", action="append", dest="faults",
                     metavar="KIND", help="restrict to this fault kind "
                     "(repeatable)")
    run.add_argument("--out", metavar="PATH",
                     help="write the JSON campaign report here")
    run.add_argument("--repro-dir", metavar="DIR", default="faultlab-repros",
                     help="directory for failure reproducers "
                     "(default: faultlab-repros)")
    run.add_argument("--max-shrink", type=int, default=64,
                     help="cell re-runs budgeted per shrink (default 64)")
    run.add_argument("--no-shrink", action="store_true",
                     help="write reproducers for the unshrunk specs")

    sub.add_parser("list", help="list fault kinds and workload cells")

    replay = sub.add_parser("replay", help="re-run one cell from a spec")
    replay.add_argument("spec", metavar="SPEC_JSON",
                        help="path to a cell spec .json")
    return parser


def _cmd_list() -> int:
    for kind in _campaign.default_fault_kinds():
        ensure_registered(kind)
    print("fault kinds:")
    for kind in sorted(k for k in FAULTS if not k.startswith("selftest-")):
        cls = FAULTS[kind]
        doc = (cls.__doc__ or "").strip().splitlines()[0]
        print("  %-18s %s" % (kind, doc))
    print("workload cells:")
    for name in sorted(WORKLOADS):
        print("  %s" % name)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        specs = _campaign.default_grid(args.seed, quick=args.quick,
                                       workloads=args.workloads,
                                       fault_kinds=args.faults)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    report = _campaign.run_campaign(specs, workers=args.workers,
                                    seed=args.seed, quick=args.quick)
    rendered = _campaign.render_report(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    for cell in report["cells"]:  # type: ignore[union-attr]
        status = "ok" if cell["ok"] else "FAIL"
        print("%-28s %s" % (cell["id"], status))
        for failure in cell["failures"]:
            print("    %s: %s" % (failure["oracle"], failure["message"]))
    print("%d/%d cells passed" % (
        report["cell_count"] - report["failure_count"],  # type: ignore[operator]
        report["cell_count"]))
    if not report["failure_count"]:
        return 0
    for cell in report["cells"]:  # type: ignore[union-attr]
        if cell["ok"]:
            continue
        spec = cell["spec"]
        crashed = all(f["oracle"] == "worker-crash"
                      for f in cell["failures"])
        if crashed:
            # The cell died before producing a result; re-running subsets
            # of its faults cannot bisect an exception path, so keep the
            # full spec for the reproducer.
            print("cell %s crashed; skipping shrink" % cell["id"])
        elif not args.no_shrink and spec["faults"]:
            try:
                spec, attempts = shrink_spec(spec, args.max_shrink)
                print("shrunk %s in %d attempts" % (cell["id"], attempts))
            except ValueError:
                pass  # flaky-looking cell: keep the original spec
        path = write_reproducer(spec, args.repro_dir)
        print("reproducer: %s" % path)
        binlog = record_cell_binlog(spec, args.repro_dir)
        print("binlog:     %s" % binlog)
    return 1


def _cmd_replay(args: argparse.Namespace) -> int:
    with open(args.spec, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    result = _campaign.replay_spec(spec)
    for failure in result["failures"]:
        print("%s: %s" % (failure["oracle"], failure["message"]),
              file=sys.stderr)
    if result["ok"]:
        print("cell passed: failure no longer reproduces", file=sys.stderr)
        return 2
    print("failure reproduced (digest %s)" % result["digest"],
          file=sys.stderr)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Parse ``argv`` and dispatch to a subcommand; returns the exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "list":
        return _cmd_list()
    if args.command == "replay":
        return _cmd_replay(args)
    parser.print_help()
    return 2
