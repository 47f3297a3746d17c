"""Observability: watch a hierarchical scheduler work, without changing it.

Builds the Figure-2 partitioning, attaches the full observability stack —
event bus subscribers for per-node schedstats, derived latency metrics,
a Perfetto-loadable Chrome trace, and a binary trace log — runs a mixed
workload under periodic interrupts, and prints what each collector saw.
The binlog is then replayed offline to show that recording loses
nothing, and rendered as a depth-axis hierarchy Gantt.  The same run
with no subscriber attached produces byte-identical scheduling, which is
the whole point: tracing is free when it is off.

Run:  python examples/observability.py
"""

import io

from repro import (
    DhrystoneWorkload,
    HierarchicalScheduler,
    Machine,
    MS,
    SchedulingStructure,
    SfqScheduler,
    SimThread,
    Simulator,
)
from repro.cpu.interrupts import PeriodicInterruptSource
from repro.obs import BUS, SchedulerMetrics
from repro.obs.binlog import BinaryTraceReader, BinaryTraceWriter, replay
from repro.obs.chrometrace import ChromeTraceBuilder
from repro.obs.schedstat import SchedStat, render_schedstat
from repro.sim.rng import make_rng
from repro.viz.depth_gantt import depth_gantt
from repro.workloads.interactive import InteractiveWorkload


def build():
    structure = SchedulingStructure()
    structure.mknod("/soft-rt", 3, scheduler=SfqScheduler())
    structure.mknod("/best-effort", 6)
    structure.mknod("/best-effort/user1", 1, scheduler=SfqScheduler())
    structure.mknod("/best-effort/user2", 1, scheduler=SfqScheduler())

    engine = Simulator()
    machine = Machine(engine, HierarchicalScheduler(structure),
                      capacity_ips=100_000_000, default_quantum=10 * MS)
    machine.add_interrupt_source(
        PeriodicInterruptSource(period=20 * MS, service=400_000))

    threads = []
    for path, name in (("/soft-rt", "decoder"),
                       ("/best-effort/user1", "compile"),
                       ("/best-effort/user2", "render")):
        thread = SimThread(name, DhrystoneWorkload())
        structure.parse(path).attach_thread(thread)
        machine.spawn(thread)
        threads.append(thread)
    editor = SimThread("editor", InteractiveWorkload(
        burst_work=250_000, think_time=30 * MS,
        rng=make_rng(13, "obs-example/editor")))
    structure.parse("/best-effort/user2").attach_thread(editor)
    machine.spawn(editor)
    threads.append(editor)
    return machine, structure, threads


def main() -> None:
    stats = SchedStat()
    metrics = SchedulerMetrics()
    trace = ChromeTraceBuilder()
    binlog = io.BytesIO()
    writer = BinaryTraceWriter(binlog)

    machine, structure, threads = build()
    with BUS.subscription(stats), BUS.subscription(metrics), \
            BUS.subscription(trace), BUS.subscription(writer):
        machine.run_until(1500 * MS)
    writer.close()

    print("=== per-node schedstats (a /proc/schedstat for the tree) ===")
    print(render_schedstat(structure, stats))

    print()
    print("=== derived metrics (latency histograms over the event stream) ===")
    print(metrics.registry.render())

    print()
    print("=== what each thread got ===")
    for thread in threads:
        print("  %-8s node work=%d dispatches=%d blocks=%d"
              % (thread.name, thread.stats.work_done,
                 thread.stats.dispatches, thread.stats.blocks))

    print()
    payload = trace.to_dict()
    print("Chrome trace ready: %d events across cpu/thread/vtime tracks;"
          % len(payload["traceEvents"]))
    print("ChromeTraceBuilder.write('trace.json') makes it loadable in "
          "ui.perfetto.dev.")

    print()
    print("=== binary trace: capture once, analyze forever ===")
    raw = binlog.getvalue()
    reader = BinaryTraceReader(io.BytesIO(raw))
    print("sealed binlog: %d events in %d bytes (%.1f bytes/event)"
          % (len(reader), len(raw), len(raw) / len(reader)))
    replayed = ChromeTraceBuilder()
    replay(reader, replayed)
    print("offline replay reproduces the live Chrome trace byte for "
          "byte: %s" % (replayed.to_json() == trace.to_json()))

    print()
    print("=== depth-axis hierarchy Gantt (root outward, ! = preempt) ===")
    print(depth_gantt(reader, width=64))


if __name__ == "__main__":
    main()
