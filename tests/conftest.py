"""Shared test fixtures and builders."""

from __future__ import annotations

import os

import pytest

from repro.core.hierarchy import HierarchicalScheduler
from repro.core.structure import SchedulingStructure
from repro.cpu.flat import FlatScheduler
from repro.cpu.machine import Machine
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.sim.engine import Simulator
from repro.threads.segments import Compute, SegmentListWorkload
from repro.threads.thread import SimThread
from repro.trace.recorder import Recorder
from repro.units import MS
from repro.workloads.dhrystone import DhrystoneWorkload


class Harness:
    """A hierarchical machine with one SFQ leaf, ready for thread spawns."""

    def __init__(self, capacity_ips: int = 1_000_000,
                 default_quantum: int = 10 * MS) -> None:
        self.structure = SchedulingStructure()
        self.leaf = self.structure.mknod("/apps", 1, scheduler=SfqScheduler())
        self.engine = Simulator()
        self.recorder = Recorder()
        self.scheduler = HierarchicalScheduler(self.structure)
        self.machine = Machine(self.engine, self.scheduler,
                               capacity_ips=capacity_ips,
                               default_quantum=default_quantum,
                               tracer=self.recorder)

    def spawn_dhrystone(self, name: str, weight: int = 1,
                        leaf=None) -> SimThread:
        thread = SimThread(name, DhrystoneWorkload(loop_cost=100, batch=10),
                           weight=weight)
        (leaf or self.leaf).attach_thread(thread)
        self.machine.spawn(thread)
        return thread

    def spawn_segments(self, name: str, segments, weight: int = 1,
                       leaf=None, params=None) -> SimThread:
        thread = SimThread(name, SegmentListWorkload(segments), weight=weight,
                           params=params)
        (leaf or self.leaf).attach_thread(thread)
        self.machine.spawn(thread)
        return thread


class FlatHarness:
    """A flat machine around a given leaf scheduler."""

    def __init__(self, leaf_scheduler, capacity_ips: int = 1_000_000,
                 default_quantum: int = 10 * MS) -> None:
        self.engine = Simulator()
        self.recorder = Recorder()
        self.leaf_scheduler = leaf_scheduler
        self.machine = Machine(self.engine, FlatScheduler(leaf_scheduler),
                               capacity_ips=capacity_ips,
                               default_quantum=default_quantum,
                               tracer=self.recorder)

    def spawn_segments(self, name: str, segments, weight: int = 1,
                       params=None) -> SimThread:
        thread = SimThread(name, SegmentListWorkload(segments), weight=weight,
                           params=params)
        self.machine.spawn(thread)
        return thread

    def spawn_dhrystone(self, name: str, weight: int = 1,
                        params=None) -> SimThread:
        thread = SimThread(name, DhrystoneWorkload(loop_cost=100, batch=10),
                           weight=weight, params=params)
        self.machine.spawn(thread)
        return thread


@pytest.fixture(autouse=True, scope="session")
def obs_bus_subscriber():
    """With ``REPRO_OBS=1``, keep a counting subscriber on every run's bus
    for the whole session, so every emit site actually runs (and every
    result the suite asserts on is produced with instrumentation active —
    the observability analogue of the SCHEDSAN suite run).

    Every run's bus means the process bus and each private bus a machine
    makes for its ``tracer=``, so a traced run carries a second
    subscriber too.  A bus a test builds itself is left as it is.
    """
    if os.environ.get("REPRO_OBS", "") in ("", "0"):
        yield None
        return
    from repro.cpu.machine import MachineBase
    from repro.obs import events as ev

    counts: dict = {}

    def count(shape: ev.Shape, time: int, values: tuple) -> None:
        counts[shape.kind] = counts.get(shape.kind, 0) + 1

    build_machine = MachineBase.__init__

    def build_counted(self, engine, *args, **kwargs) -> None:
        shared = engine.bus
        build_machine(self, engine, *args, **kwargs)
        if engine.bus is not shared:  # the run bus this machine made
            engine.bus.subscribe(count)

    ev.BUS.subscribe(count)
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(MachineBase, "__init__", build_counted)
            yield counts
    finally:
        ev.BUS.unsubscribe(count)
    assert counts, "REPRO_OBS=1 run saw no events at all"


@pytest.fixture
def harness() -> Harness:
    return Harness()


@pytest.fixture
def engine() -> Simulator:
    return Simulator()


def compute(work: int) -> Compute:
    return Compute(work)
