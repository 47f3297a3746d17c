"""Golden-trace scenario builders shared by the determinism tests.

Each builder constructs a fixed workload, subscribes a collector to the
observability bus, runs the simulation, and returns the event stream as a
list of canonical text lines.  The streams are hashed into
``tests/fixtures/golden/*.json`` and the golden test asserts the current
tree reproduces them **byte-identically** — this is the contract that lets
hot-path optimizations (indexed heaps, batched event pops, guard caching)
land without any behavioural drift.

Regenerate fixtures with ``python -m tests.regen_goldens`` — but only when
a change is *supposed* to alter scheduling behaviour; the whole point of
the fixtures is that performance work must not.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from typing import Callable, Dict, List

import repro.threads.thread as thread_module
from repro.core.hierarchy import HierarchicalScheduler
from repro.core.structure import SchedulingStructure
from repro.cpu.flat import FlatScheduler
from repro.cpu.interrupts import PoissonInterruptSource
from repro.cpu.machine import Machine
from repro.devtools import enginediff
from repro.experiments.common import figure6_structure
from repro.obs import events as obs
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.sim.engine import Simulator
from repro.sim.rng import make_rng
from repro.smp.machine import SmpMachine
from repro.sync.mutex import Acquire, Release, SimMutex
from repro.sync.semaphore import Down, Notify, SimSemaphore, Up, WaitOn, WaitQueue
from repro.threads.segments import Compute, SegmentListWorkload, SleepFor
from repro.threads.states import ThreadState
from repro.threads.thread import SimThread
from repro.units import MS, SECOND
from repro.workloads.bursty import BurstyWorkload
from repro.workloads.dhrystone import DhrystoneWorkload
from repro.workloads.interactive import InteractiveWorkload

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures", "golden")

#: how many leading event lines each fixture keeps verbatim (for diffing)
HEAD_LINES = 40


def _reset_global_counters() -> None:
    """Pin the process-global tid sequence so streams ignore test order."""
    thread_module._tid_counter = itertools.count(1)


def _collect(run: Callable[[], None]) -> List[str]:
    _reset_global_counters()
    lines: List[str] = []
    with obs.BUS.subscription(
            lambda event: lines.append(enginediff.format_event(event))):
        run()
    return lines


def _enginediff_stream(name: str, duration: int) -> List[str]:
    """enginediff scenario ``name``, traced for ``duration`` ns."""

    def run() -> None:
        machine, __, ___ = enginediff.SCENARIOS[name]()
        machine.run_until(duration)

    return _collect(run)


# --- the scenarios -----------------------------------------------------------


def figure5_stream(duration: int = 2 * SECOND) -> List[str]:
    """Figure-5 SFQ arm: five equal dhrystones plus two interactive daemons."""
    return _enginediff_stream("figure5", duration)


def depth8_stream(duration: int = 500 * MS) -> List[str]:
    """Depth-8 float-tag hierarchy with churning leaves and CPU hogs."""
    return _enginediff_stream("depth8", duration)


def figure8_stream(duration: int = 2 * SECOND) -> List[str]:
    """Figure-8(a) replay: 2:6:1 hierarchy with bursty background load."""

    def run() -> None:
        structure, sfq1, sfq2, svr4 = figure6_structure(
            sfq1_weight=2, sfq2_weight=6, svr4_weight=1)
        engine = Simulator()
        machine = Machine(engine, HierarchicalScheduler(structure),
                          capacity_ips=100_000_000, default_quantum=20 * MS)
        for index in range(2):
            thread = SimThread("sfq1-%d" % index, DhrystoneWorkload(300, 10_000))
            sfq1.attach_thread(thread)
            machine.spawn(thread)
        for index in range(2):
            thread = SimThread("sfq2-%d" % index, DhrystoneWorkload(300, 10_000))
            sfq2.attach_thread(thread)
            machine.spawn(thread)
        for index in range(4):
            rng = make_rng(3, "bg/%d" % index)
            thread = SimThread(
                "bg-%d" % index,
                BurstyWorkload(mean_busy_work=20_000_000,
                               mean_idle_time=400 * MS, rng=rng))
            svr4.attach_thread(thread)
            machine.spawn(thread)
        machine.run_until(duration)

    return _collect(run)


def interrupt_stream(duration: int = 2 * SECOND) -> List[str]:
    """Interrupt-heavy uniprocessor run (pause/resume + deferred dispatch)."""

    def run() -> None:
        engine = Simulator()
        machine = Machine(engine, FlatScheduler(SfqScheduler()),
                          capacity_ips=100_000_000, default_quantum=10 * MS)
        machine.add_interrupt_source(PoissonInterruptSource(
            mean_interarrival=3 * MS, mean_service=200_000,
            rng=make_rng(7, "intr")))
        for index in range(4):
            machine.spawn(SimThread("dhry-%d" % index,
                                    DhrystoneWorkload(300, 5_000),
                                    weight=index + 1))
        machine.run_until(duration)

    return _collect(run)


def smp_stream(duration: int = 2 * SECOND) -> List[str]:
    """Four-CPU SMP run over a hierarchy with blocking interactive load."""

    def run() -> None:
        structure, sfq1, sfq2, svr4 = figure6_structure(
            sfq1_weight=1, sfq2_weight=2, svr4_weight=1)
        engine = Simulator()
        machine = SmpMachine(engine, HierarchicalScheduler(structure),
                             num_cpus=4, capacity_ips=100_000_000,
                             default_quantum=10 * MS)
        for index in range(6):
            thread = SimThread("cpu-%d" % index, DhrystoneWorkload(300, 10_000))
            (sfq1 if index % 2 else sfq2).attach_thread(thread)
            machine.spawn(thread)
        for index in range(4):
            rng = make_rng(5, "inter/%d" % index)
            thread = SimThread(
                "inter-%d" % index,
                InteractiveWorkload(burst_work=600_000, think_time=40 * MS,
                                    rng=rng))
            svr4.attach_thread(thread)
            machine.spawn(thread)
        machine.run_until(duration)

    return _collect(run)


def _sync_threads() -> List[SimThread]:
    """Workers contending for a mutex, fed through a semaphore and released
    together from a wait queue; the last lock is held at exit."""
    lock = SimMutex("lock")
    items = SimSemaphore("items")
    gate = WaitQueue("gate")
    threads = []
    for index in range(4):
        segments: List[object] = [WaitOn(gate)]
        for __ in range(3):
            segments += [Compute(100_000), Acquire(lock),
                         Compute(300_000 + 70_000 * index), Release(lock),
                         Down(items), SleepFor(2 * MS)]
        segments += [Acquire(lock), Compute(100_000)]
        threads.append(SimThread("worker-%d" % index,
                                 SegmentListWorkload(segments),
                                 weight=index + 1))
    producer: List[object] = [Compute(500_000), Notify(gate, 4)]
    for __ in range(12):
        producer += [Compute(600_000), Up(items)]
    producer.append(SleepFor(MS))
    threads.append(SimThread("producer", SegmentListWorkload(producer)))
    return threads


def _sync_stream(make_machine: Callable[..., object]) -> List[str]:
    """Run the sync workload to exit over a two-level SFQ hierarchy."""

    def run() -> None:
        structure = SchedulingStructure()
        structure.mknod("/a", 1)
        leaves = [structure.mknod("/a/x", 1, scheduler=SfqScheduler()),
                  structure.mknod("/a/y", 2, scheduler=SfqScheduler()),
                  structure.mknod("/b", 2, scheduler=SfqScheduler())]
        machine = make_machine(Simulator(), HierarchicalScheduler(structure))
        threads = _sync_threads()
        for index, thread in enumerate(threads):
            leaves[index % len(leaves)].attach_thread(thread)
            machine.spawn(thread, at=index * MS)
        machine.run_until(SECOND)
        stuck = [t.name for t in threads if t.state is not ThreadState.EXITED]
        assert not stuck, "sync scenario did not run to exit: %r" % stuck

    return _collect(run)


def sync_up_stream() -> List[str]:
    """Mutex, semaphore and wait-queue segments on one CPU."""
    return _sync_stream(lambda engine, scheduler: Machine(
        engine, scheduler, capacity_ips=100_000_000,
        default_quantum=2 * MS))


def sync_smp_stream() -> List[str]:
    """The same synchronization workload on a two-CPU SmpMachine."""
    return _sync_stream(lambda engine, scheduler: SmpMachine(
        engine, scheduler, num_cpus=2, capacity_ips=100_000_000,
        default_quantum=2 * MS))


#: fixture name -> stream builder
SCENARIOS: Dict[str, Callable[[], List[str]]] = {
    "figure5": figure5_stream,
    "figure8": figure8_stream,
    "interrupts": interrupt_stream,
    "smp": smp_stream,
    "depth8": depth8_stream,
    "sync_up": sync_up_stream,
    "sync_smp": sync_smp_stream,
}


def demo_binlog_bytes(duration_ms: int = 500) -> bytes:
    """The obs-demo workload captured as a sealed binlog.

    Byte-stable for the same reason the text streams are: global
    counters are pinned, the workload is seeded, and the binlog format
    has no timestamps or host state.  The committed copy
    (``obs_demo.binlog``) is the codec's golden fixture — writer-side
    encoding changes that alter the bytes must be intentional format
    changes, never silent drift.
    """
    import io

    from repro.obs.binlog import BinaryTraceWriter
    from repro.obs.cli import build_demo
    from repro.units import MS

    _reset_global_counters()
    machine, __, ___ = build_demo(duration_ms)
    buffer = io.BytesIO()
    writer = BinaryTraceWriter(buffer)
    with obs.BUS.subscription(writer):
        machine.run_until(duration_ms * MS)
    writer.close()
    return buffer.getvalue()


def binlog_fixture_path() -> str:
    return os.path.join(FIXTURE_DIR, "obs_demo.binlog")


def write_binlog_fixture() -> bytes:
    payload = demo_binlog_bytes()
    os.makedirs(FIXTURE_DIR, exist_ok=True)
    with open(binlog_fixture_path(), "wb") as handle:
        handle.write(payload)
    return payload


def stream_digest(lines: List[str]) -> str:
    """sha256 over the newline-joined canonical event lines."""
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURE_DIR, name + ".json")


def write_fixture(name: str, lines: List[str]) -> Dict[str, object]:
    payload = {
        "scenario": name,
        "events": len(lines),
        "sha256": stream_digest(lines),
        "head": lines[:HEAD_LINES],
    }
    os.makedirs(FIXTURE_DIR, exist_ok=True)
    with open(fixture_path(name), "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    return payload


def load_fixture(name: str) -> Dict[str, object]:
    with open(fixture_path(name), "r", encoding="utf-8") as handle:
        return json.load(handle)
