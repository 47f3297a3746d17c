"""Command-line interface: ``python -m repro.obs``.

Subcommands:

* ``demo`` — build a hierarchical example (the Figure-2 skeleton with a
  soft real-time MPEG-like decoder, two best-effort users, interactive
  load, and periodic device interrupts), run it with the full
  observability stack attached, print the per-node schedstat tree and the
  derived metrics, and optionally export a Perfetto-loadable Chrome trace
  (``--out trace.json``).
* ``report FILE`` — validate a previously exported Chrome-trace JSON and
  print per-track occupancy, instant counts, and counter-track summaries.
* ``record OUT`` — run the same demo scenario capturing only a binary
  trace (:mod:`repro.obs.binlog`): the cheap path that scales to
  million-event runs.  ``--defer`` keeps each record as emitted in
  memory and encodes at seal, for overhead-sensitive measurement runs.
* ``convert FILE`` — replay a binlog through the existing collectors:
  ``--chrome out.json`` (byte-identical to live collection),
  ``--schedstat`` (offline counter tree), ``--depth-gantt`` (hierarchy
  Gantt, time vs. depth).
* ``info FILE`` — validate a binlog (footer count + content hash) and
  print its summary: event/kind counts, string table size, time range.

All commands print to stdout and return a process exit code; file errors
(malformed JSON, truncated or corrupt binlogs) exit 1 with a one-line
diagnostic.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # imports stay local at runtime to avoid cycles
    from repro.core.structure import SchedulingStructure
    from repro.cpu.machine import Machine
    from repro.threads.thread import SimThread

from repro.obs import events as ev
from repro.obs.chrometrace import ChromeTraceBuilder, summarize_chrome_trace
from repro.obs.metrics import SchedulerMetrics
from repro.obs.schedstat import SchedStat, render_schedstat


def build_demo(duration_ms: int = 2000) -> Tuple[
        "Machine", "SchedulingStructure", List["SimThread"]]:
    """Build the demo machine; returns ``(machine, structure, threads)``.

    The scenario exercises every event source: a hierarchical SFQ tree
    (tag-update / vtime-advance), CPU-bound and interactive threads
    (dispatch / block / wake / charge), and a periodic interrupt source
    (interrupt / preempt-free pauses).
    """
    from repro.core.hierarchy import HierarchicalScheduler
    from repro.core.structure import SchedulingStructure
    from repro.cpu.interrupts import PeriodicInterruptSource
    from repro.cpu.machine import Machine
    from repro.schedulers.sfq_leaf import SfqScheduler
    from repro.sim.engine import Simulator
    from repro.sim.rng import make_rng
    from repro.threads.thread import SimThread
    from repro.units import MS
    from repro.workloads.dhrystone import DhrystoneWorkload
    from repro.workloads.interactive import InteractiveWorkload

    del duration_ms  # scenario shape is duration-independent
    structure = SchedulingStructure()
    structure.mknod("/soft-rt", 3, scheduler=SfqScheduler())
    structure.mknod("/best-effort", 6)
    structure.mknod("/best-effort/user1", 1, scheduler=SfqScheduler())
    structure.mknod("/best-effort/user2", 1, scheduler=SfqScheduler())

    engine = Simulator()
    machine = Machine(engine, HierarchicalScheduler(structure),
                      capacity_ips=100_000_000, default_quantum=10 * MS)
    machine.add_interrupt_source(
        PeriodicInterruptSource(period=25 * MS, service=500_000))

    threads = []
    for path, name in (("/soft-rt", "decoder"),
                       ("/best-effort/user1", "compile"),
                       ("/best-effort/user2", "render")):
        thread = SimThread(name, DhrystoneWorkload())
        structure.parse(path).attach_thread(thread)
        machine.spawn(thread)
        threads.append(thread)
    shell = SimThread("shell", InteractiveWorkload(
        burst_work=300_000, think_time=40 * MS,
        rng=make_rng(7, "obs-demo/shell")))
    structure.parse("/best-effort/user1").attach_thread(shell)
    machine.spawn(shell)
    threads.append(shell)
    return machine, structure, threads


def cmd_demo(args: argparse.Namespace) -> int:
    """Run the demo scenario with the observability stack attached."""
    from repro.units import MS

    machine, structure, threads = build_demo(args.duration_ms)
    stats = SchedStat()
    metrics = SchedulerMetrics()
    builder = ChromeTraceBuilder()
    with ev.BUS.subscription(stats), ev.BUS.subscription(metrics), \
            ev.BUS.subscription(builder):
        machine.run_until(args.duration_ms * MS)

    print(render_schedstat(structure, stats))
    print()
    print("-- metrics " + "-" * 45)
    print(metrics.registry.render())
    print()
    print("-- threads " + "-" * 45)
    for thread in threads:
        print("%-10s work=%-12d dispatches=%-6d blocks=%d"
              % (thread.name, thread.stats.work_done,
                 thread.stats.dispatches, thread.stats.blocks))
    print()
    print("events emitted: %d" % builder.event_count)
    if args.out:
        builder.write(args.out, indent=args.indent)
        payload = builder.to_dict()
        print("wrote %s (%d trace events) — open in ui.perfetto.dev"
              % (args.out, len(payload["traceEvents"])))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Validate and summarize an exported Chrome-trace JSON file."""
    try:
        with open(args.trace) as handle:
            payload = json.load(handle)
        summary = summarize_chrome_trace(payload)
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print("%s: %d trace events, valid Trace Event Format"
          % (args.trace, summary["events"]))
    print()
    print("%-28s %10s %14s" % ("track", "slices", "busy (us)"))
    for row in summary["tracks"]:
        print("%-28s %10d %14.1f"
              % (row["track"], row["slices"], row["busy_us"]))
    if summary["instants"]:
        print()
        print("instant events:")
        for name in sorted(summary["instants"]):
            print("  %-26s %d" % (name, summary["instants"][name]))
    if summary["counters"]:
        print()
        print("counter tracks:")
        for name in sorted(summary["counters"]):
            print("  %-26s %d samples" % (name, summary["counters"][name]))
    return 0


def cmd_record(args: argparse.Namespace) -> int:
    """Run the demo scenario capturing only a binary trace."""
    from repro.obs.binlog import BinaryTraceWriter
    from repro.units import MS

    machine, __, ___ = build_demo(args.duration_ms)
    with BinaryTraceWriter(args.out, defer=args.defer) as writer, \
            ev.BUS.subscription(writer):
        machine.run_until(args.duration_ms * MS)
    print("wrote %s: %d events, %d bytes (%s mode)"
          % (args.out, writer.event_count, os.path.getsize(args.out),
             "deferred" if args.defer else "streaming"))
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    """Replay a binlog through the existing collectors and renderers."""
    from repro.obs.binlog import BinaryTraceReader, BinlogError, replay
    from repro.obs.schedstat import render_schedstat_paths
    from repro.viz.depth_gantt import depth_gantt

    if not (args.chrome or args.schedstat or args.depth_gantt):
        print("error: pick at least one of --chrome/--schedstat/--depth-gantt",
              file=sys.stderr)
        return 2
    try:
        reader = BinaryTraceReader(args.binlog)
    except (OSError, BinlogError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if args.chrome:
        builder = ChromeTraceBuilder()
        replay(reader, builder)
        builder.write(args.chrome, indent=args.indent)
        print("wrote %s (%d events replayed) — open in ui.perfetto.dev"
              % (args.chrome, builder.event_count))
    if args.schedstat:
        stats = SchedStat()
        replay(reader, stats)
        print(render_schedstat_paths(stats))
    if args.depth_gantt:
        print(depth_gantt(reader, width=args.width))
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    """Validate a binlog and print its summary."""
    from repro.obs.binlog import BinaryTraceReader, BinlogError

    try:
        reader = BinaryTraceReader(args.binlog)
    except (OSError, BinlogError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    info = reader.info()
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    print("%s: valid %s" % (args.binlog, info["format"]))
    print("  events   %d" % info["events"])
    print("  size     %d bytes (%.1f bytes/event)"
          % (info["size_bytes"],
             info["size_bytes"] / info["events"] if info["events"] else 0.0))
    print("  strings  %d interned, %d schemas"
          % (info["strings"], info["schemas"]))
    if info["events"]:
        print("  time     %d .. %d ns"
              % (info["time_first_ns"], info["time_last_ns"]))
    for kind in sorted(info["kinds"]):
        print("  %-22s %d" % (kind, info["kinds"][kind]))
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability tools for the hierarchical scheduler "
                    "reproduction (see docs/OBSERVABILITY.md).")
    sub = parser.add_subparsers(dest="command")
    demo = sub.add_parser(
        "demo", help="run a hierarchical example with tracing attached")
    demo.add_argument("--duration-ms", type=int, default=2000,
                      help="simulated milliseconds to run (default 2000)")
    demo.add_argument("--out", default="",
                      help="write a Perfetto-loadable Chrome trace JSON here")
    demo.add_argument("--indent", type=int, default=0,
                      help="JSON indent for --out (default compact)")
    demo.set_defaults(func=cmd_demo)
    report = sub.add_parser(
        "report", help="validate and summarize an exported Chrome trace")
    report.add_argument("trace", help="path to a Chrome-trace JSON file")
    report.set_defaults(func=cmd_report)
    record = sub.add_parser(
        "record", help="run the demo scenario capturing only a binary trace")
    record.add_argument("out", help="binlog output path")
    record.add_argument("--duration-ms", type=int, default=2000,
                        help="simulated milliseconds to run (default 2000)")
    record.add_argument("--defer", action="store_true",
                        help="keep each record as emitted and encode at "
                             "seal (lowest capture overhead, unbounded "
                             "memory)")
    record.set_defaults(func=cmd_record)
    convert = sub.add_parser(
        "convert", help="replay a binlog through the existing collectors")
    convert.add_argument("binlog", help="path to a sealed binary trace")
    convert.add_argument("--chrome", default="",
                         help="write a Perfetto-loadable Chrome trace here")
    convert.add_argument("--indent", type=int, default=0,
                         help="JSON indent for --chrome (default compact)")
    convert.add_argument("--schedstat", action="store_true",
                         help="print the offline per-node schedstat tree")
    convert.add_argument("--depth-gantt", action="store_true",
                         help="print the hierarchy Gantt (time vs. depth)")
    convert.add_argument("--width", type=int, default=64,
                         help="Gantt chart width in cells (default 64)")
    convert.set_defaults(func=cmd_convert)
    info = sub.add_parser(
        "info", help="validate a binlog and print its summary")
    info.add_argument("binlog", help="path to a sealed binary trace")
    info.add_argument("--json", action="store_true",
                      help="print the summary as JSON")
    info.set_defaults(func=cmd_info)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    return args.func(args)
