"""Workload cells: the simulations faults are injected into.

Each builder fills a fresh simulator with a self-contained simulation —
machine (with a tracing :class:`~repro.trace.recorder.Recorder` and a
collect-mode SCHEDSAN wrapper), threads, and optionally a scheduling
structure and QoS manager — and returns a :class:`CellContext` the
campaign runner arms faults against and the oracles evaluate.

The cells are sized for fault campaigns and instrumented for the
oracles:

* every cell carries same-leaf *fair pairs* of CPU-bound threads for the
  SFQ fairness-bound oracle;
* most cells carry a periodic *probe* thread whose actual release and
  completion times feed the paper's eq. (8) delay-bound oracle;
* the QoS cell records every admission decision (with the inputs the
  decision was made from) for the admission-consistency oracle.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.hierarchy import HierarchicalScheduler
from repro.core.structure import SchedulingStructure
from repro.cpu.flat import FlatScheduler
from repro.cpu.machine import Machine
from repro.devtools.schedsan import SchedsanScheduler
from repro.errors import AdmissionError
from repro.experiments.common import figure6_structure
from repro.qos.manager import QosManager
from repro.qos.spec import BEST_EFFORT, HARD_RT, SOFT_RT, QosRequest
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.sim.engine import Simulator
from repro.sim.rng import Stream
from repro.threads.segments import Compute, SleepUntil, Workload
from repro.threads.thread import SimThread
from repro.trace.recorder import Recorder
from repro.units import MS, SECOND, work_from_time
from repro.workloads.bursty import BurstyWorkload
from repro.workloads.dhrystone import DhrystoneWorkload
from repro.workloads.interactive import InteractiveWorkload

#: capacity of every cell's CPU (the paper's ~100 MIPS machine)
CAPACITY = 100_000_000


class PeriodicProbe(Workload):
    """A periodic thread that records its actual release times.

    Each period it computes ``work`` instructions.  ``releases`` holds the
    time each request actually became runnable (after any timer faults),
    and the recorder's ``segment_completions`` holds the matching
    completion times — together exactly the inputs eq. (8) bounds.
    """

    def __init__(self, period: int, work: int, start: int = 0) -> None:
        self.period = period
        self.work = work
        self.start = start
        self.releases: List[int] = []
        self._k = 0
        self._pending = False

    def next_segment(self, now: int, thread: "SimThread"):
        if self._pending:
            self._pending = False
            self.releases.append(now)
            return Compute(self.work)
        release = self.start + self._k * self.period
        self._k += 1
        self._pending = True
        return SleepUntil(release)

    def reset(self) -> None:
        self.releases = []
        self._k = 0
        self._pending = False


class CellContext:
    """One built cell: the simulation plus everything the oracles need."""

    def __init__(self, name: str, engine: Simulator, machine: Machine,
                 structure: Optional[SchedulingStructure],
                 recorder: Recorder, horizon: int, default_quantum: int,
                 fair_pairs: Optional[List[Tuple[str, str]]] = None,
                 probe_name: Optional[str] = None,
                 probe_fraction: float = 0.0,
                 root_weight_total: int = 0,
                 qos: Optional[QosManager] = None,
                 admission_log: Optional[List[Dict[str, object]]] = None
                 ) -> None:
        self.name = name
        self.engine = engine
        self.machine = machine
        self.structure = structure
        self.recorder = recorder
        self.horizon = horizon
        self.capacity_ips = machine.capacity_ips
        self.default_quantum = default_quantum
        self.fair_pairs = fair_pairs or []
        self.probe_name = probe_name
        self.probe_fraction = probe_fraction
        self.root_weight_total = root_weight_total
        self.qos = qos
        self.admission_log = admission_log if admission_log is not None else []

    @property
    def quantum_work(self) -> int:
        """The default quantum in instructions (the fairness bound's l̂)."""
        return work_from_time(self.default_quantum, self.capacity_ips)

    def thread(self, name: str) -> SimThread:
        """Look up a thread by (unique within a cell) name."""
        for candidate in self.machine.threads:
            if candidate.name == name:
                return candidate
        raise KeyError("no thread named %r in cell %s" % (name, self.name))

    def violations(self) -> List[object]:
        """SCHEDSAN violations collected so far (collect mode)."""
        return list(getattr(self.machine.scheduler, "violations", ()))


def _sanitized(inner) -> SchedsanScheduler:
    """Wrap a top scheduler for collect-mode auditing.

    ``Machine`` applies ``maybe_wrap`` at construction, which is
    idempotent — so even under ``REPRO_SCHEDSAN=1`` the cell keeps this
    collect-mode wrapper and a violation never aborts a campaign cell.
    """
    return SchedsanScheduler(inner, mode="collect")


def _probe_fraction_flat(machine: Machine, probe: SimThread) -> float:
    total = sum(t.weight for t in machine.threads)
    return probe.weight / total


def _probe_fraction_tree(probe: SimThread) -> float:
    """Reserved share of a thread: weight products up the tree."""
    leaf = probe.leaf
    fraction = probe.weight / sum(t.weight for t in leaf.threads)
    node = leaf
    while node.parent is not None:
        siblings = node.parent.children.values()
        fraction *= node.weight / sum(child.weight for child in siblings)
        node = node.parent
    return fraction


# --- cells -------------------------------------------------------------------


def flat_mix(engine: Simulator, stream: Stream,
             quick: bool) -> CellContext:
    """Flat SFQ: three weighted hogs, one interactive daemon, one probe."""
    horizon = (2 if quick else 6) * SECOND
    quantum = 20 * MS
    machine = Machine(engine, _sanitized(FlatScheduler(SfqScheduler())),
                      capacity_ips=CAPACITY, default_quantum=quantum,
                      tracer=Recorder())
    for name, weight in (("hog-a", 1), ("hog-b", 2), ("hog-c", 3)):
        machine.spawn(SimThread(name, DhrystoneWorkload(300, 10_000),
                                weight=weight))
    machine.spawn(SimThread(
        "daemon-0", InteractiveWorkload(burst_work=400_000,
                                        think_time=120 * MS,
                                        rng=stream.rng("daemon/0"))))
    probe = machine.spawn(SimThread(
        "probe", PeriodicProbe(period=50 * MS, work=500_000, start=10 * MS),
        weight=2))
    return CellContext(
        "flat_mix", engine, machine, None, machine.tracer, horizon, quantum,
        fair_pairs=[("hog-a", "hog-b"), ("hog-a", "hog-c")],
        probe_name="probe", probe_fraction=_probe_fraction_flat(machine, probe))


def hierarchy_mix(engine: Simulator, stream: Stream,
                  quick: bool) -> CellContext:
    """The paper's Figure-6 hierarchy under mixed load."""
    horizon = (2 if quick else 6) * SECOND
    quantum = 20 * MS
    structure, sfq1, sfq2, svr4 = figure6_structure(
        sfq1_weight=2, sfq2_weight=6, svr4_weight=1)
    machine = Machine(engine, _sanitized(HierarchicalScheduler(structure)),
                      capacity_ips=CAPACITY, default_quantum=quantum,
                      tracer=Recorder())
    for name, weight, leaf in (("hog-a", 1, sfq1), ("hog-b", 2, sfq1),
                               ("hog-c", 1, sfq2), ("hog-d", 3, sfq2)):
        thread = SimThread(name, DhrystoneWorkload(300, 10_000), weight=weight)
        leaf.attach_thread(thread)
        machine.spawn(thread)
    for index in range(2):
        thread = SimThread(
            "bg-%d" % index,
            BurstyWorkload(mean_busy_work=10_000_000,
                           mean_idle_time=300 * MS,
                           rng=stream.rng("bg/%d" % index)))
        svr4.attach_thread(thread)
        machine.spawn(thread)
    probe = SimThread("probe",
                      PeriodicProbe(period=50 * MS, work=400_000,
                                    start=10 * MS),
                      weight=2)
    sfq2.attach_thread(probe)
    machine.spawn(probe)
    root_total = sum(child.weight
                     for child in structure.root.children.values())
    return CellContext(
        "hierarchy_mix", engine, machine, structure, machine.tracer, horizon,
        quantum,
        fair_pairs=[("hog-a", "hog-b"), ("hog-c", "hog-d")],
        probe_name="probe", probe_fraction=_probe_fraction_tree(probe),
        root_weight_total=root_total)


def deep_tree(engine: Simulator, stream: Stream,
              quick: bool) -> CellContext:
    """A deep chain hierarchy: dispatch walks several SFQ levels."""
    horizon = (2 if quick else 6) * SECOND
    quantum = 10 * MS
    structure = SchedulingStructure()
    leaves = []
    for top in range(2):
        node = structure.mknod("g%d" % top, 1 + top)
        for level in range(2):
            node = structure.mknod("c%d" % level, 1, parent=node)
        leaves.append(structure.mknod("leaf", 1, parent=node,
                                      scheduler=SfqScheduler()))
    machine = Machine(engine, _sanitized(HierarchicalScheduler(structure)),
                      capacity_ips=CAPACITY, default_quantum=quantum,
                      tracer=Recorder())
    for name, weight, leaf in (("hog-a", 1, leaves[0]), ("hog-b", 2, leaves[0]),
                               ("hog-c", 1, leaves[1])):
        thread = SimThread(name, DhrystoneWorkload(300, 10_000), weight=weight)
        leaf.attach_thread(thread)
        machine.spawn(thread)
    for index in range(2):
        thread = SimThread(
            "churny-%d" % index,
            InteractiveWorkload(burst_work=200_000, think_time=20 * MS,
                                rng=stream.rng("churny/%d" % index)))
        leaves[index % 2].attach_thread(thread)
        machine.spawn(thread)
    probe = SimThread("probe",
                      PeriodicProbe(period=60 * MS, work=300_000,
                                    start=10 * MS),
                      weight=2)
    leaves[1].attach_thread(probe)
    machine.spawn(probe)
    root_total = sum(child.weight
                     for child in structure.root.children.values())
    return CellContext(
        "deep_tree", engine, machine, structure, machine.tracer, horizon,
        quantum,
        fair_pairs=[("hog-a", "hog-b")],
        probe_name="probe", probe_fraction=_probe_fraction_tree(probe),
        root_weight_total=root_total)


def _submit_logged(manager: QosManager, log: List[Dict[str, object]],
                   request: QosRequest, workload: Workload,
                   weight: int = 1) -> Optional[SimThread]:
    """Submit a request, recording the decision and its inputs."""
    entry: Dict[str, object] = {"name": request.name,
                                "class": request.service_class}
    if request.service_class == HARD_RT:
        tasks = [(r.period, r.wcet) for r in manager._hard_tasks]
        tasks.append((request.period, request.wcet))
        entry["tasks"] = tasks
        entry["share"] = manager._class_fraction(manager.hard_leaf)
    elif request.service_class == SOFT_RT:
        entry["means"] = ([r.mean_demand for r in manager._soft_tasks]
                          + [request.mean_demand])
        entry["stds"] = ([r.std_demand for r in manager._soft_tasks]
                         + [request.std_demand])
        entry["share_ips"] = (manager._class_fraction(manager.soft_leaf)
                              * manager.machine.capacity_ips)
        entry["sigmas"] = manager.overbooking_sigmas
    try:
        thread = manager.submit(request, workload, weight=weight)
        entry["admitted"] = True
    except AdmissionError as exc:
        thread = None
        entry["admitted"] = False
        entry["reason"] = str(exc)
    log.append(entry)
    return thread


def qos_mix(engine: Simulator, stream: Stream,
            quick: bool) -> CellContext:
    """The paper's §4 QoS classes with admission control in the loop.

    A handful of lifecycle arrivals, with every decision recorded.
    """
    horizon = (2 if quick else 6) * SECOND
    quantum = 20 * MS
    structure = SchedulingStructure()
    machine = Machine(engine, _sanitized(HierarchicalScheduler(structure)),
                      capacity_ips=CAPACITY, default_quantum=quantum,
                      tracer=Recorder())
    manager = QosManager(machine, structure, class_weights=(1, 3, 6))
    log: List[Dict[str, object]] = []
    # Two feasible hard real-time tasks (3 ms of CPU every 100 ms each:
    # well inside the class's 10% share under the RMA bound) ...
    for index in range(2):
        _submit_logged(
            manager, log,
            QosRequest("hard-%d" % index, HARD_RT, period=100 * MS,
                       wcet=3 * MS),
            PeriodicProbe(period=100 * MS, work=300_000, start=5 * MS))
    # ... one infeasible one (90% of the CPU: must be denied) ...
    _submit_logged(
        manager, log,
        QosRequest("hard-greedy", HARD_RT, period=100 * MS, wcet=90 * MS),
        PeriodicProbe(period=100 * MS, work=9_000_000))
    # ... two feasible soft real-time decoders and one over-demanding one.
    for index in range(2):
        _submit_logged(
            manager, log,
            QosRequest("soft-%d" % index, SOFT_RT, mean_demand=5e6,
                       std_demand=1e6),
            BurstyWorkload(mean_busy_work=500_000, mean_idle_time=80 * MS,
                           rng=stream.rng("soft/%d" % index)))
    _submit_logged(
        manager, log,
        QosRequest("soft-greedy", SOFT_RT, mean_demand=8e7, std_demand=1e6),
        BurstyWorkload(mean_busy_work=8_000_000, mean_idle_time=10 * MS,
                       rng=stream.rng("soft/greedy")))
    # Best effort is never denied; two weighted hogs share one user leaf.
    _submit_logged(manager, log,
                   QosRequest("hog-a", BEST_EFFORT, user="alice"),
                   DhrystoneWorkload(300, 10_000), weight=1)
    _submit_logged(manager, log,
                   QosRequest("hog-b", BEST_EFFORT, user="alice"),
                   DhrystoneWorkload(300, 10_000), weight=2)
    root_total = sum(child.weight
                     for child in structure.root.children.values())
    return CellContext(
        "qos_mix", engine, machine, structure, machine.tracer, horizon,
        quantum,
        fair_pairs=[("hog-a", "hog-b")],
        root_weight_total=root_total, qos=manager, admission_log=log)


#: cell name -> builder(engine, stream, quick); the cell runs on ``engine``
WORKLOADS: Dict[str, Callable[[Simulator, Stream, bool], CellContext]] = {
    "flat_mix": flat_mix,
    "hierarchy_mix": hierarchy_mix,
    "deep_tree": deep_tree,
    "qos_mix": qos_mix,
}

#: cells that have a scheduling structure (node churn applies)
STRUCTURED_CELLS = ("hierarchy_mix", "deep_tree", "qos_mix")
