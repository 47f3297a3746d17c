"""The benchmark's four workloads: build, drive, digest, check.

Every workload is a function of its seed.  ``build(seed)`` creates the
simulation (host time spent there is the ``setup_s`` metric), the returned
run's ``drive()`` takes it from the first simulated event to the horizon
and returns the host seconds that took (``run_s``), and ``outcome()`` reads
the model afterwards: a digest of the model statistics, the
seed-independent output checks, and the counts the reports need.

The digest follows ``repro.devtools.enginediff``'s schedstat probe, keyed
by thread *name*, but leaves out ``events_fired`` and ``pending_events``:
those are simulator bookkeeping that a valid optimisation may change
without changing a single scheduling decision.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Any, Callable, Dict, List, Tuple, Union

from repro.cluster import runner as cluster_runner
from repro.cluster.runner import run_cluster
from repro.cluster.scenario import storm_spec
from repro.core.hierarchy import HierarchicalScheduler
from repro.core.structure import SchedulingStructure
from repro.core.tags import FLOAT
from repro.cpu.interrupts import PoissonInterruptSource
from repro.cpu.machine import Machine
from repro.experiments.common import figure6_structure
from repro.obs.binlog import BinaryTraceReader, BinaryTraceWriter
from repro.obs.events import BUS
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.sim.engine import Simulator
from repro.sim.rng import make_rng
from repro.smp.machine import SmpMachine
from repro.threads.segments import Compute, SegmentListWorkload, SleepFor
from repro.threads.states import ThreadState
from repro.threads.thread import SimThread
from repro.units import MS, SECOND, US
from repro.workloads.bursty import BurstyWorkload
from repro.workloads.dhrystone import DhrystoneWorkload
from repro.workloads.interactive import InteractiveWorkload

#: the seed whose digests are recorded in ``expected.json``
DEFAULT_SEED = 1

#: instructions per second of every simulated CPU (the paper's ~100 MIPS)
CAPACITY = 100_000_000

#: (check name, passed) pairs, in the order they ran
Checks = List[Tuple[str, bool]]


class Outcome:
    """What a finished run reports: digest, checks, and model counts."""

    __slots__ = ("digest", "checks", "counts")

    def __init__(self, digest: str, checks: Checks,
                 counts: Dict[str, int]) -> None:
        #: sha256 of the model statistics (seed-dependent)
        self.digest = digest
        #: seed-independent output checks
        self.checks = checks
        #: model counts: ``dispatches`` (the dispatches_per_s numerator),
        #: and what the per-layer report reads (events, interrupts, ...)
        self.counts = counts


# --- single-host runs --------------------------------------------------------


def _sha256(lines: List[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


class HostRun:
    """One machine driven to a fixed horizon."""

    #: set-up host seconds spent inside ``drive`` (only the fleet has any)
    pool_setup_s = 0.0

    def __init__(self, engine: Simulator, machine: Union[Machine, SmpMachine],
                 horizon: int) -> None:
        self.engine = engine
        self.machine = machine
        self.horizon = horizon

    def drive(self) -> float:
        """Run from the first simulated event to the horizon; host seconds."""
        start = time.perf_counter()
        self.machine.run_until(self.horizon)
        return time.perf_counter() - start

    def _stat_lines(self) -> List[str]:
        machine = self.machine
        lines = ["engine now=%d" % self.engine.now]
        if isinstance(machine, Machine):
            stats = machine.stats
            lines.append(
                "machine busy_time=%d interrupt_time=%d overhead_time=%d "
                "dispatches=%d context_switches=%d interrupts=%d pauses=%d "
                "preemptions=%d"
                % (stats.busy_time, stats.interrupt_time,
                   stats.overhead_time, stats.dispatches,
                   stats.context_switches, stats.interrupts, stats.pauses,
                   stats.preemptions))
        else:
            lines.append("smp cpus=%d busy_time=%d dispatches=%d"
                         % (machine.num_cpus, machine.busy_time,
                            machine.dispatches))
        for thread in sorted(machine.threads, key=lambda t: t.name):
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

    def _counts(self) -> Dict[str, int]:
        machine = self.machine
        if isinstance(machine, Machine):
            stats = machine.stats
            dispatches = stats.dispatches
            switches = stats.context_switches
            interrupts = stats.interrupts
        else:
            # every SMP dispatch withdraws and re-submits its thread, so
            # each one is a switch; the SMP model has no interrupts
            dispatches = switches = machine.dispatches
            interrupts = 0
        return {"events": self.engine.events_fired,
                "pending": self.engine.pending_events,
                "dispatches": dispatches,
                "context_switches": switches,
                "interrupts": interrupts}

    def _checks(self) -> Checks:
        machine = self.machine
        threads = machine.threads
        if isinstance(machine, Machine):
            stats = machine.stats
            busy, dispatches, cpus = stats.busy_time, stats.dispatches, 1
            used = busy + stats.interrupt_time + stats.overhead_time
        else:
            busy, dispatches = machine.busy_time, machine.dispatches
            cpus = machine.num_cpus
            used = busy
        return [
            ("clock_at_horizon", self.engine.now == self.horizon),
            ("cpu_time_conserved",
             sum(t.stats.cpu_time for t in threads) == busy),
            ("dispatches_conserved",
             sum(t.stats.dispatches for t in threads) == dispatches),
            ("capacity_respected", used <= self.engine.now * cpus),
            ("made_progress", dispatches > 0),
        ]

    def outcome(self) -> Outcome:
        """Digest, checks and counts of the finished run."""
        return Outcome(_sha256(self._stat_lines()), self._checks(),
                       self._counts())


# --- paper_exact -------------------------------------------------------------

#: simulated seconds of the Figure-8 replay
PAPER_HORIZON = 300 * SECOND


def build_paper_exact(seed: int) -> HostRun:
    """Figure 8's SFQ1:SFQ2:SVR4 = 2:6:1 tree, exact tags, one CPU.

    Two Dhrystones per SFQ leaf, four bursty background threads in the
    SVR4 leaf, and a Poisson interrupt source stealing CPU time.
    """
    structure, sfq1, sfq2, svr4 = figure6_structure(
        sfq1_weight=2, sfq2_weight=6, svr4_weight=1)
    engine = Simulator()
    machine = Machine(engine, HierarchicalScheduler(structure),
                      capacity_ips=CAPACITY, default_quantum=20 * MS)
    machine.add_interrupt_source(PoissonInterruptSource(
        mean_interarrival=10 * MS, mean_service=100 * US,
        rng=make_rng(seed, "paper/intr")))
    for leaf, prefix in ((sfq1, "sfq1"), (sfq2, "sfq2")):
        for index in range(2):
            thread = SimThread("%s-%d" % (prefix, index),
                               DhrystoneWorkload(300, 10_000))
            leaf.attach_thread(thread)
            machine.spawn(thread)
    for index in range(4):
        thread = SimThread("bg-%d" % index, BurstyWorkload(
            mean_busy_work=20_000_000, mean_idle_time=400 * MS,
            rng=make_rng(seed, "paper/bg/%d" % index)))
        svr4.attach_thread(thread)
        machine.spawn(thread)
    return HostRun(engine, machine, PAPER_HORIZON)


# --- deep_float --------------------------------------------------------------

#: simulated seconds of the depth-8 churn
DEEP_HORIZON = 40 * SECOND


def build_deep_float(seed: int) -> HostRun:
    """Depth-8 tree (fanout 8 at the top two levels), float tags.

    64 leaves at depth 8, one churning interactive thread each, plus a
    CPU hog in every eighth leaf: every dispatch walks eight SFQ queues.
    """
    structure = SchedulingStructure(FLOAT)
    leaves = []
    for top in range(8):
        group = structure.mknod("g%d" % top, 1 + top % 3)
        for mid in range(8):
            node = structure.mknod("m%d" % mid, 1 + mid % 2, parent=group)
            for level in range(3, 8):
                node = structure.mknod("c%d" % level, 1, parent=node)
            leaves.append(structure.mknod(
                "leaf", 1, parent=node, scheduler=SfqScheduler(FLOAT)))
    engine = Simulator()
    machine = Machine(engine, HierarchicalScheduler(structure),
                      capacity_ips=CAPACITY, default_quantum=2 * MS)
    for index, leaf in enumerate(leaves):
        churn = SimThread("churn-%d" % index, InteractiveWorkload(
            burst_work=150_000, think_time=8 * MS,
            rng=make_rng(seed, "deep/churn/%d" % index)))
        leaf.attach_thread(churn)
        machine.spawn(churn)
        if index % 8 == 0:
            hog = SimThread("hog-%d" % index, DhrystoneWorkload(300, 5_000))
            leaf.attach_thread(hog)
            machine.spawn(hog)
    return HostRun(engine, machine, DEEP_HORIZON)


# --- churn_traced ------------------------------------------------------------

#: threads admitted over the run
CHURN_POPULATION = 8_000
#: simulated window the arrivals are spread over
CHURN_WINDOW = 1 * SECOND


class ChurnRun(HostRun):
    """An admission storm captured to a deferred binlog for the whole run.

    Sealing the log is part of the run phase, as it is under
    ``perfkit --trace`` or ``obs record``.
    """

    def __init__(self, engine: Simulator, machine: SmpMachine, horizon: int,
                 binlog_path: str) -> None:
        super().__init__(engine, machine, horizon)
        self.binlog_path = binlog_path

    def drive(self) -> float:
        start = time.perf_counter()
        writer = BinaryTraceWriter(self.binlog_path, defer=True)
        try:
            with BUS.subscription(writer):
                self.machine.run_until(self.horizon)
        finally:
            writer.close()
        return time.perf_counter() - start

    def outcome(self) -> Outcome:
        result = super().outcome()
        threads = self.machine.threads
        try:
            reader = BinaryTraceReader(self.binlog_path)
            kinds = reader.info()["kinds"]
            size = reader.info()["size_bytes"]
            sealed = True
        except (OSError, ValueError):
            kinds, size, sealed = {}, 0, False
        finally:
            if os.path.exists(self.binlog_path):
                os.remove(self.binlog_path)
        result.checks.extend([
            ("all_threads_exited",
             all(t.state is ThreadState.EXITED for t in threads)),
            ("binlog_sealed", sealed),
            ("binlog_dispatches",
             kinds.get("dispatch") == result.counts["dispatches"]),
            ("binlog_spawns", kinds.get("spawn") == len(threads)),
            ("binlog_exits", kinds.get("exit") == sum(
                t.state is ThreadState.EXITED for t in threads)),
        ])
        result.counts["binlog_bytes"] = size
        return result


def build_churn_traced(seed: int, binlog_path: str) -> ChurnRun:
    """Spawn -> compute -> sleep -> compute -> exit, on a 4-CPU SMP box.

    8 groups x 4 float SFQ leaves.  Arrivals are evenly spaced with a
    seeded jitter; burst sizes and sleeps are drawn from the seed.
    """
    structure = SchedulingStructure(FLOAT)
    leaves = []
    for group in range(8):
        node = structure.mknod("g%d" % group, 1 + group % 4)
        for leaf in range(4):
            leaves.append(structure.mknod(
                "l%d" % leaf, 1, parent=node, scheduler=SfqScheduler(FLOAT)))
    engine = Simulator()
    machine = SmpMachine(engine, HierarchicalScheduler(structure),
                         num_cpus=4, capacity_ips=CAPACITY,
                         default_quantum=1 * MS)
    rng = make_rng(seed, "churn")
    spacing = CHURN_WINDOW // CHURN_POPULATION
    for index in range(CHURN_POPULATION):
        thread = SimThread(
            "storm-%d" % index,
            SegmentListWorkload([
                Compute(rng.randrange(20_000, 60_000)),
                SleepFor(rng.randrange(1 * MS, 3 * MS)),
                Compute(rng.randrange(20_000, 60_000))]),
            weight=1 + rng.randrange(5))
        leaves[index % len(leaves)].attach_thread(thread)
        machine.spawn(thread, at=index * spacing + rng.randrange(spacing))
    # arrivals, then every thread's work on four CPUs, with slack
    total_work_ns = CHURN_POPULATION * 120_000 * SECOND // CAPACITY
    horizon = CHURN_WINDOW + total_work_ns + SECOND
    return ChurnRun(engine, machine, horizon, binlog_path)


# --- fleet_sharded -----------------------------------------------------------

#: (uniprocessor hosts, 4-CPU hosts, tenants, epochs) of the storm fleet
FLEET_SHAPE = (4, 4, 8_000, 16)
#: shard worker processes
FLEET_SHARDS = 2


class FleetRun:
    """A ``storm_spec`` fleet through ``run_cluster`` with shard workers.

    The shard pool is built inside ``run_cluster``; ``drive`` marks the
    moment it is ready so its cost lands in set-up, not in the run.
    """

    def __init__(self, seed: int, shards: int) -> None:
        self.spec = storm_spec(*FLEET_SHAPE)
        self.seed = seed
        self.shards = shards
        self.result: Any = None
        #: host seconds spent building the shard pool inside run_cluster
        self.pool_setup_s = 0.0

    def drive(self) -> float:
        """Run the cluster; host seconds from the pool being ready to the
        horizon."""
        make_shards = cluster_runner.make_shards
        marks: List[float] = []

        def timed_make_shards(*args: Any, **kwargs: Any) -> Any:
            pool = make_shards(*args, **kwargs)
            marks.append(time.perf_counter())
            return pool

        cluster_runner.make_shards = timed_make_shards
        try:
            start = time.perf_counter()
            self.result = run_cluster(self.spec, seed=self.seed,
                                      shards=self.shards)
            end = time.perf_counter()
        finally:
            cluster_runner.make_shards = make_shards
        self.pool_setup_s = marks[0] - start
        return end - marks[0]

    def outcome(self) -> Outcome:
        result = self.result
        digests = result.digests()
        hosts = result.hosts
        counters = result.control["counters"]
        dispatches = sum(int(host["dispatches"]) for host in hosts)
        events = sum(int(host["events"]) for host in hosts)
        tenants = sum(len(host["tenants"]) for host in hosts)
        checks = [
            ("all_tenants_placed",
             int(counters.get("placements", 0)) >= self.spec.tenants),
            ("tenant_threads_reported", tenants >= self.spec.tenants),
            ("clock_at_horizon", all(
                int(host["sim_ns"]) == self.spec.horizon_ns
                for host in hosts)),
            ("made_progress", dispatches > 0),
        ]
        digest = hashlib.sha256(json.dumps(
            digests, sort_keys=True).encode("utf-8")).hexdigest()
        return Outcome(digest, checks,
                       {"events": events, "dispatches": dispatches,
                        "messages": len(result.log)})


def build_fleet_sharded(seed: int, shards: int = FLEET_SHARDS) -> FleetRun:
    """The fleet spec; the shard pool itself is built when driven."""
    return FleetRun(seed, shards)


# --- registry ----------------------------------------------------------------


class Workload:
    """A named workload, its tag mode, and how many builds one sample times."""

    __slots__ = ("name", "tag_mode", "setups", "build")

    def __init__(self, name: str, tag_mode: str, setups: int,
                 build: Callable[..., Any]) -> None:
        self.name = name
        self.tag_mode = tag_mode
        #: builds timed per sample: millisecond-scale set-ups are built
        #: several times; the fleet's pool is built inside run_cluster, once
        self.setups = setups
        self.build = build


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("paper_exact", "exact", 15, build_paper_exact),
    Workload("deep_float", "float", 15, build_deep_float),
    Workload("churn_traced", "float", 3, build_churn_traced),
    Workload("fleet_sharded", "float", 1, build_fleet_sharded),
)}


def build(name: str, seed: int, scratch_dir: str) -> Any:
    """Build workload ``name`` at ``seed`` (binlogs go to ``scratch_dir``)."""
    if name == "churn_traced":
        path = os.path.join(scratch_dir, "churn-%d.binlog" % os.getpid())
        return build_churn_traced(seed, path)
    return WORKLOADS[name].build(seed)
