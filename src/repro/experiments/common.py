"""Shared scaffolding for the experiment harnesses."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.hierarchy import HierarchicalScheduler
from repro.core.node import LeafNode
from repro.core.structure import SchedulingStructure
from repro.cpu.costs import SchedulingCostModel
from repro.cpu.flat import FlatScheduler
from repro.cpu.machine import Machine
from repro.schedulers.base import LeafScheduler
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.schedulers.svr4 import Svr4TimeSharing
from repro.sim.engine import Simulator
from repro.threads.thread import SimThread
from repro.trace.recorder import Recorder
from repro.viz.table import format_table
from repro.workloads.dhrystone import DhrystoneWorkload

#: a SPARCstation 10-class CPU: ~100 MIPS
DEFAULT_CAPACITY_IPS = 100_000_000


class ExperimentResult:
    """Tabular outcome of one experiment run."""

    def __init__(self, name: str, headers: Sequence[str],
                 rows: Sequence[Sequence[object]],
                 notes: Optional[List[str]] = None,
                 series: Optional[Dict[str, Sequence[float]]] = None) -> None:
        self.name = name
        self.headers = list(headers)
        self.rows = [list(row) for row in rows]
        self.notes = notes or []
        self.series = series or {}

    def render(self) -> str:
        """The table plus notes as printable text."""
        parts = [format_table(self.headers, self.rows, title=self.name)]
        for note in self.notes:
            parts.append("note: %s" % note)
        return "\n".join(parts)

    def column(self, header: str) -> List[object]:
        """All values of the named column."""
        index = self.headers.index(header)
        return [row[index] for row in self.rows]


class HierarchicalSetup:
    """A machine driving a scheduling structure, with a recorder attached."""

    def __init__(self, structure: SchedulingStructure,
                 capacity_ips: int = DEFAULT_CAPACITY_IPS,
                 default_quantum: Optional[int] = None,
                 cost_model: Optional[SchedulingCostModel] = None,
                 preempt_policy: str = "none") -> None:
        from repro.units import MS
        self.structure = structure
        self.engine = Simulator()
        self.recorder = Recorder()
        self.scheduler = HierarchicalScheduler(structure, preempt_policy)
        self.machine = Machine(
            self.engine, self.scheduler, capacity_ips=capacity_ips,
            default_quantum=default_quantum or 20 * MS,
            cost_model=cost_model, tracer=self.recorder)

    def spawn(self, thread: SimThread, leaf: LeafNode,
              at: Optional[int] = None) -> SimThread:
        """Attach ``thread`` to ``leaf`` and start it on the machine."""
        leaf.attach_thread(thread)
        return self.machine.spawn(thread, at=at)


class FlatSetup:
    """A machine driving one leaf scheduler directly (unmodified kernel)."""

    def __init__(self, leaf_scheduler: LeafScheduler,
                 capacity_ips: int = DEFAULT_CAPACITY_IPS,
                 default_quantum: Optional[int] = None,
                 cost_model: Optional[SchedulingCostModel] = None) -> None:
        from repro.units import MS
        self.engine = Simulator()
        self.recorder = Recorder()
        self.leaf_scheduler = leaf_scheduler
        self.scheduler = FlatScheduler(leaf_scheduler)
        self.machine = Machine(
            self.engine, self.scheduler, capacity_ips=capacity_ips,
            default_quantum=default_quantum or 20 * MS,
            cost_model=cost_model, tracer=self.recorder)

    def spawn(self, thread: SimThread, at: Optional[int] = None) -> SimThread:
        """Start ``thread`` on the flat machine."""
        return self.machine.spawn(thread, at=at)


def figure6_structure(sfq1_weight: int = 2, sfq2_weight: int = 6,
                      svr4_weight: int = 1, interposed_depth: int = 0
                      ) -> Tuple[SchedulingStructure, LeafNode, LeafNode, LeafNode]:
    """The paper's Figure 6 scheduling structure.

    Root children SFQ-1, SFQ-2 (SFQ leaves) and SVR4 (time-sharing leaf).
    ``interposed_depth`` inserts a chain of pass-through internal nodes
    between the root and SFQ-1 (the Figure 7(b) depth experiment).
    Returns ``(structure, sfq1, sfq2, svr4)``.
    """
    structure = SchedulingStructure()
    parent = structure.root
    for level in range(interposed_depth):
        parent = structure.mknod("level%d" % level, sfq1_weight
                                 if level == 0 else 1, parent=parent)
    if interposed_depth:
        sfq1 = structure.mknod("SFQ-1", 1, parent=parent,
                               scheduler=SfqScheduler())
    else:
        sfq1 = structure.mknod("SFQ-1", sfq1_weight, parent=parent,
                               scheduler=SfqScheduler())
    sfq2 = structure.mknod("/SFQ-2", sfq2_weight, scheduler=SfqScheduler())
    svr4 = structure.mknod("/SVR4", svr4_weight, scheduler=Svr4TimeSharing())
    return structure, sfq1, sfq2, svr4


def spawn_dhrystones(setup, leaf: Optional[LeafNode], count: int,
                     prefix: str = "dhry", weight: int = 1,
                     loop_cost: int = 300, batch: int = 10_000
                     ) -> List[SimThread]:
    """Spawn ``count`` Dhrystone threads on a hierarchical or flat setup."""
    threads = []
    for index in range(count):
        thread = SimThread("%s-%d" % (prefix, index),
                           DhrystoneWorkload(loop_cost, batch), weight=weight)
        if leaf is not None:
            setup.spawn(thread, leaf)
        else:
            setup.spawn(thread)
        threads.append(thread)
    return threads
