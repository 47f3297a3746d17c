"""Golden-trace scenario builders shared by the determinism tests.

Each run builds a fixed workload and simulates it; :func:`stream`
collects its event stream from the observability bus as a list of
canonical text lines.  Every run is hermetic: its simulator
numbers its own threads, so a stream never depends on what ran earlier
in the process.  The streams are hashed into
``tests/fixtures/golden/*.json`` and the golden test asserts the current
tree reproduces them **byte-identically** — this is the contract that lets
hot-path optimizations (indexed heaps, batched event pops, guard caching)
land without any behavioural drift.

Four of the scenarios also pin what a :class:`~repro.trace.recorder.Recorder`
keeps — every per-thread list plus the interrupt records — as digests in
``tests/fixtures/recorder/*.json``.  Three pin :func:`schedstat_lines`, a
dump of every counter after an *untraced* run, in
``tests/fixtures/schedstat/*.json``: with nothing on the bus the compiled
engine's burst-completion tick engages, which no traced stream exercises.

The fixtures are also the cross-engine contract: the suite runs under
``REPRO_ENGINE=compiled`` too, so the compiled engine must reproduce
what the pure engine recorded.  To see where one stream diverges, diff
``stream(name)`` from two processes, one per engine.

Regenerate fixtures with ``python -m tests.regen_goldens`` — but only when
a change is *supposed* to alter scheduling behaviour; the whole point of
the fixtures is that performance work must not.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.hierarchy import HierarchicalScheduler
from repro.core.structure import SchedulingStructure
from repro.core.tags import FLOAT
from repro.cpu.flat import FlatScheduler
from repro.cpu.interrupts import PoissonInterruptSource
from repro.cpu.machine import Machine
from repro.experiments.common import figure6_structure
from repro.obs import events as obs
from repro.obs.binlog import BinaryTraceWriter, replay
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.sim.engine import Simulator
from repro.sim.rng import make_rng
from repro.smp.machine import SmpMachine
from repro.sync.mutex import Acquire, Release, SimMutex
from repro.sync.semaphore import Down, Notify, SimSemaphore, Up, WaitOn, WaitQueue
from repro.threads.segments import Compute, SegmentListWorkload, SleepFor
from repro.threads.states import ThreadState
from repro.threads.thread import SimThread
from repro.trace.recorder import Recorder
from repro.units import MS, SECOND, US
from repro.workloads.bursty import BurstyWorkload
from repro.workloads.dhrystone import DhrystoneWorkload
from repro.workloads.interactive import InteractiveWorkload

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures", "golden")
RECORDER_FIXTURE_DIR = os.path.join(
    os.path.dirname(__file__), "fixtures", "recorder")
SCHEDSTAT_FIXTURE_DIR = os.path.join(
    os.path.dirname(__file__), "fixtures", "schedstat")

#: how many leading event lines each fixture keeps verbatim (for diffing)
HEAD_LINES = 40

def format_event(shape: obs.Shape, time: int, values: Tuple[Any, ...]
                 ) -> str:
    """One canonical text line per bus record (sorted fields, repr values)."""
    data = dict(zip(shape.fields, values))
    fields = ",".join("%s=%r" % (key, data[key]) for key in sorted(data))
    return "%s t=%d %s" % (shape.kind, time, fields)


def stream(name: str) -> List[str]:
    """Golden scenario ``name``'s stream, seen on the process bus (the
    run has no tracer)."""
    lines: List[str] = []
    with obs.BUS.subscription(
            lambda *record: lines.append(format_event(*record))):
        RUNS[name]()
    return lines


def collect_traced(run: Callable[[Any], Any]) -> List[str]:
    """The stream of ``run(tracer)``, seen by a collector passed as its
    machine's ``tracer``."""
    lines: List[str] = []
    run(lambda *record: lines.append(format_event(*record)))
    return lines


def _run_for(build: Callable[..., Machine],
             duration: int) -> Callable[..., Machine]:
    """A run of the machine ``build`` makes, for ``duration`` ns."""

    def run(tracer: Any = None) -> Machine:
        machine = build(tracer)
        machine.run_until(duration)
        return machine

    return run


# --- the scenarios -----------------------------------------------------------


def build_figure5(tracer: Any = None) -> Machine:
    """The paper's Figure-5 SFQ arm: a flat SFQ scheduler under five equal
    Dhrystones and two interactive daemons."""
    engine = Simulator()
    machine = Machine(engine, FlatScheduler(SfqScheduler()),
                      capacity_ips=100_000_000, default_quantum=20 * MS,
                      tracer=tracer)
    threads = []
    for index in range(5):
        threads.append(SimThread("dhry-%d" % index,
                                 DhrystoneWorkload(300, 10_000)))
    for index in range(2):
        rng = make_rng(11, "daemon/%d" % index)
        threads.append(SimThread(
            "daemon-%d" % index,
            InteractiveWorkload(burst_work=400_000, think_time=120 * MS,
                                rng=rng)))
    for thread in threads:
        machine.spawn(thread)
    return machine


def build_depth8(tracer: Any = None) -> Machine:
    """A depth-8 float-tag hierarchy with churning interactive leaves and
    CPU hogs: the shape that maximizes per-event chain walks."""
    structure = SchedulingStructure(FLOAT)
    leaves = []
    for top in range(4):
        node = structure.mknod("g%d" % top, 1 + top % 3)
        for level in range(2, 8):
            node = structure.mknod("c%d" % level, 1, parent=node)
        leaves.append(structure.mknod("leaf", 1, parent=node,
                                      scheduler=SfqScheduler(FLOAT)))
    engine = Simulator()
    machine = Machine(engine, HierarchicalScheduler(structure),
                      capacity_ips=100_000_000, default_quantum=2 * MS,
                      tracer=tracer)
    threads = []
    for index, leaf in enumerate(leaves):
        rng = make_rng(17, "churn/%d" % index)
        churn = SimThread(
            "churn-%d" % index,
            InteractiveWorkload(burst_work=150_000, think_time=8 * MS,
                                rng=rng))
        leaf.attach_thread(churn)
        threads.append(churn)
        if index % 2 == 0:
            hog = SimThread("hog-%d" % index, DhrystoneWorkload(300, 5_000))
            leaf.attach_thread(hog)
            threads.append(hog)
    for thread in threads:
        machine.spawn(thread)
    return machine


def build_figure8_irq(tracer: Any = None) -> Machine:
    """The paper's Figure-8 SFQ1:SFQ2:SVR4 = 2:6:1 tree with exact tags
    and Poisson interrupts.

    The one scenario that runs the compiled engine, burst-completion tick
    included, over mixed ``int``/``Fraction`` tags on a hierarchy: charges
    that ``6`` does not divide leave SFQ-2's tags non-integral.
    """
    structure, sfq1, sfq2, svr4 = figure6_structure(
        sfq1_weight=2, sfq2_weight=6, svr4_weight=1)
    engine = Simulator()
    machine = Machine(engine, HierarchicalScheduler(structure),
                      capacity_ips=100_000_000, default_quantum=20 * MS,
                      tracer=tracer)
    machine.add_interrupt_source(PoissonInterruptSource(
        mean_interarrival=10 * MS, mean_service=100 * US,
        rng=make_rng(23, "figure8/intr")))
    threads = []
    for leaf, prefix in ((sfq1, "sfq1"), (sfq2, "sfq2")):
        for index in range(2):
            thread = SimThread("%s-%d" % (prefix, index),
                               DhrystoneWorkload(300, 10_000))
            leaf.attach_thread(thread)
            threads.append(thread)
    for index in range(2):
        thread = SimThread("bg-%d" % index, BurstyWorkload(
            mean_busy_work=20_000_000, mean_idle_time=400 * MS,
            rng=make_rng(23, "figure8/bg/%d" % index)))
        svr4.attach_thread(thread)
        threads.append(thread)
    for thread in threads:
        machine.spawn(thread)
    return machine


def run_figure8(tracer: Any = None) -> Machine:
    """Figure-8(a) replay: 2:6:1 hierarchy with bursty background load."""
    structure, sfq1, sfq2, svr4 = figure6_structure(
        sfq1_weight=2, sfq2_weight=6, svr4_weight=1)
    engine = Simulator()
    machine = Machine(engine, HierarchicalScheduler(structure),
                      capacity_ips=100_000_000, default_quantum=20 * MS,
                      tracer=tracer)
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
    machine.run_until(2 * SECOND)
    return machine


def run_interrupts(tracer: Optional[Recorder] = None) -> Machine:
    """Interrupt-heavy uniprocessor run (pause/resume + deferred dispatch)."""
    engine = Simulator()
    machine = Machine(engine, FlatScheduler(SfqScheduler()),
                      capacity_ips=100_000_000, default_quantum=10 * MS,
                      tracer=tracer)
    machine.add_interrupt_source(PoissonInterruptSource(
        mean_interarrival=3 * MS, mean_service=200_000,
        rng=make_rng(7, "intr")))
    for index in range(4):
        machine.spawn(SimThread("dhry-%d" % index,
                                DhrystoneWorkload(300, 5_000),
                                weight=index + 1))
    machine.run_until(2 * SECOND)
    return machine


def run_smp(tracer: Optional[Recorder] = None) -> SmpMachine:
    """Four-CPU SMP run over a hierarchy with blocking interactive load."""
    structure, sfq1, sfq2, svr4 = figure6_structure(
        sfq1_weight=1, sfq2_weight=2, svr4_weight=1)
    engine = Simulator()
    machine = SmpMachine(engine, HierarchicalScheduler(structure),
                         num_cpus=4, capacity_ips=100_000_000,
                         default_quantum=10 * MS, tracer=tracer)
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
    machine.run_until(2 * SECOND)
    return machine


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


def _run_sync(make_machine: Callable[..., Any]) -> Any:
    """Run the sync workload to exit over a two-level SFQ hierarchy."""
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
    return machine


def run_sync_up(tracer: Optional[Recorder] = None) -> Machine:
    """Mutex, semaphore and wait-queue segments on one CPU."""
    return _run_sync(lambda engine, scheduler: Machine(
        engine, scheduler, capacity_ips=100_000_000,
        default_quantum=2 * MS, tracer=tracer))


def run_sync_smp(tracer: Optional[Recorder] = None) -> SmpMachine:
    """The same synchronization workload on a two-CPU SmpMachine."""
    return _run_sync(lambda engine, scheduler: SmpMachine(
        engine, scheduler, num_cpus=2, capacity_ips=100_000_000,
        default_quantum=2 * MS, tracer=tracer))


#: every golden scenario: fixture name -> a run that builds its machine
#: with the given ``tracer``, runs it and returns it
RUNS: Dict[str, Callable[..., Any]] = {
    "figure5": _run_for(build_figure5, 2 * SECOND),
    "depth8": _run_for(build_depth8, 2 * SECOND),
    "figure8": run_figure8,
    "figure8_irq": _run_for(build_figure8_irq, 2 * SECOND),
    "interrupts": run_interrupts,
    "smp": run_smp,
    "sync_up": run_sync_up,
    "sync_smp": run_sync_smp,
}

#: the golden scenarios whose Recorder view is pinned as well
RECORDER_NAMES = ("interrupts", "smp", "sync_up", "sync_smp")

#: the golden scenarios whose untraced counters are pinned as well
SCHEDSTAT_NAMES = ("depth8", "figure5", "figure8_irq")


def demo_binlog_bytes(duration_ms: int = 500, defer: bool = False) -> bytes:
    """The obs-demo workload captured as a sealed binlog.

    Byte-stable for the same reason the text streams are: the run
    numbers its own threads, the workload is seeded, and the binlog
    format has no timestamps or host state.  The committed copy
    (``obs_demo.binlog``) is the codec's golden fixture — writer-side
    encoding changes that alter the bytes must be intentional format
    changes, never silent drift.  ``defer`` selects the writer's capture
    mode; both must produce the committed bytes.
    """
    from repro.obs.cli import build_demo

    machine, __, ___ = build_demo(duration_ms)
    buffer = io.BytesIO()
    writer = BinaryTraceWriter(buffer, defer=defer)
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


def _write_json(path: str, payload: Dict[str, object]) -> Dict[str, object]:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    return payload


def _read_json(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURE_DIR, name + ".json")


def write_fixture(name: str, lines: List[str]) -> Dict[str, object]:
    return _write_json(fixture_path(name), {
        "scenario": name,
        "events": len(lines),
        "sha256": stream_digest(lines),
        "head": lines[:HEAD_LINES],
    })


def load_fixture(name: str) -> Dict[str, object]:
    return _read_json(fixture_path(name))


# --- Recorder fixtures -------------------------------------------------------

#: every per-thread list a Recorder keeps
TRACE_LISTS = ("slices", "dispatches", "runnables", "blocks", "wakes",
               "segment_completions", "charges")


def recorder_lines(recorder: Recorder) -> List[str]:
    """Canonical text of what ``recorder`` holds: each thread's lifecycle
    instants and lists in tid order, then the interrupt records."""
    lines: List[str] = []
    for tid in sorted(recorder.threads):
        trace = recorder.threads[tid]
        lines.append("thread %d spawned_at=%r exited_at=%r"
                     % (tid, trace.spawned_at, trace.exited_at))
        lines.extend("thread %d %s=%r" % (tid, name, getattr(trace, name))
                     for name in TRACE_LISTS)
    lines.append("interrupts=%r" % (recorder.interrupts,))
    return lines


def tracer_recorder(name: str) -> Recorder:
    """Golden scenario ``name`` run with ``tracer=Recorder()``."""
    recorder = Recorder()
    RUNS[name](recorder)
    return recorder


def bus_recorder(name: str) -> Recorder:
    """Golden scenario ``name`` with a Recorder subscribed to the process
    bus for the whole build and run."""
    recorder = Recorder()
    with obs.BUS.subscription(recorder):
        RUNS[name]()
    return recorder


def replayed_recorder(name: str) -> Recorder:
    """A Recorder fed by ``binlog.replay`` of golden scenario ``name``."""
    buffer = io.BytesIO()
    with BinaryTraceWriter(buffer) as writer, obs.BUS.subscription(writer):
        RUNS[name]()
    recorder = Recorder()
    replay(io.BytesIO(buffer.getvalue()), recorder)
    return recorder


#: how a pinned Recorder is filled: mode -> builder(scenario name)
RECORDER_MODES: Dict[str, Callable[[str], Recorder]] = {
    "tracer": tracer_recorder,
    "bus": bus_recorder,
    "replay": replayed_recorder,
}


def recorder_fixture_path(name: str) -> str:
    return os.path.join(RECORDER_FIXTURE_DIR, name + ".json")


def write_recorder_fixture(name: str,
                           recorder: Recorder) -> Dict[str, object]:
    return _write_json(recorder_fixture_path(name), {
        "scenario": name,
        "threads": len(recorder.threads),
        "interrupts": len(recorder.interrupts),
        "sha256": stream_digest(recorder_lines(recorder)),
    })


def load_recorder_fixture(name: str) -> Dict[str, object]:
    return _read_json(recorder_fixture_path(name))


# --- schedstat fixtures ------------------------------------------------------


def schedstat_lines(name: str) -> List[str]:
    """Golden scenario ``name`` run untraced, as a canonical dump of its
    engine, machine and per-thread counters.

    With nothing on the bus, the compiled burst-completion tick engages;
    a fast path that drops or double-counts anything changes a line here.
    """
    machine = RUNS[name]()
    engine = machine.engine
    stats = machine.stats
    lines = [
        "engine events_fired=%d now=%d pending=%d"
        % (engine.events_fired, engine.now, engine.pending_events),
        "machine busy_time=%d interrupt_time=%d overhead_time=%d "
        "dispatches=%d context_switches=%d interrupts=%d pauses=%d "
        "preemptions=%d"
        % (stats.busy_time, stats.interrupt_time, stats.overhead_time,
           stats.dispatches, stats.context_switches, stats.interrupts,
           stats.pauses, stats.preemptions),
    ]
    for thread in machine.threads:
        t = thread.stats
        markers = ",".join(
            "%s=%d" % (key, t.markers[key]) for key in sorted(t.markers))
        lines.append(
            "thread %s state=%s remaining=%d work_done=%d cpu_time=%d "
            "dispatches=%d preemptions=%d blocks=%d wakeups=%d "
            "segments=%d exited_at=%r markers=[%s]"
            % (thread.name, thread.state.value, thread.remaining_work,
               t.work_done, t.cpu_time, t.dispatches, t.preemptions,
               t.blocks, t.wakeups, t.segments_completed, t.exited_at,
               markers))
    return lines


def schedstat_fixture_path(name: str) -> str:
    return os.path.join(SCHEDSTAT_FIXTURE_DIR, name + ".json")


def write_schedstat_fixture(name: str,
                            lines: List[str]) -> Dict[str, object]:
    return _write_json(schedstat_fixture_path(name), {
        "scenario": name,
        "sha256": stream_digest(lines),
        "lines": lines,
    })


def load_schedstat_fixture(name: str) -> Dict[str, object]:
    return _read_json(schedstat_fixture_path(name))
