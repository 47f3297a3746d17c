"""Exact work counts: host-independent numbers that pin how much the
simulator does.

Wall time varies from host to host; the number of events fired, dispatches
taken and pauses served does not.  A change that alters one of these counts
changes the work per simulated second, so it must say why.
"""

import pytest

from repro.core.hierarchy import HierarchicalScheduler
from repro.core.structure import SchedulingStructure
from repro.core.tags import FLOAT
from repro.cpu.machine import Machine
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.sim.engine import Simulator
from repro.threads.segments import Compute, SegmentListWorkload, SleepFor
from repro.threads.states import ThreadState
from repro.threads.thread import SimThread
from repro.units import MS, SECOND

from tests import goldens

STORM_THREADS = 20_000


class TestScaleStorm:
    """20k short-lived threads over 2048 float SFQ leaves."""

    def test_storm_runs_every_thread_to_exit(self):
        structure = SchedulingStructure(FLOAT)
        leaves = []
        for group in range(64):
            node = structure.mknod("g%d" % group, 1 + group % 4)
            for index in range(32):
                leaves.append(structure.mknod(
                    "l%d" % index, 1, parent=node,
                    scheduler=SfqScheduler(FLOAT)))
        engine = Simulator()
        machine = Machine(engine, HierarchicalScheduler(structure),
                          capacity_ips=100_000_000, default_quantum=1 * MS)
        # arrivals spread over 2 simulated seconds, so admission, dispatch,
        # sleep and exit overlap
        spacing = 2 * SECOND // STORM_THREADS
        threads = []
        for index in range(STORM_THREADS):
            thread = SimThread(
                "storm-%d" % index,
                SegmentListWorkload([Compute(20_000), SleepFor(5 * MS),
                                     Compute(20_000)]),
                weight=1 + index % 7)
            leaves[index % len(leaves)].attach_thread(thread)
            threads.append(thread)
        attached = [len(leaf.threads) for leaf in leaves]
        for index, thread in enumerate(threads):
            machine.spawn(thread, at=index * spacing)
        assert [leaf.scheduler.queue.arena.capacity
                for leaf in leaves] == attached

        machine.run_until(35 * SECOND)
        # one spawn per thread but the first, then a wakeup and two
        # completions each
        assert engine.events_fired == 79_999
        assert machine.stats.dispatches == 40_000
        assert all(t.state is ThreadState.EXITED for t in threads)
        assert all(len(leaf.scheduler.queue.arena) == 0 for leaf in leaves)
        assert [leaf.scheduler.queue.arena.capacity
                for leaf in leaves] == attached
        assert machine.stats.idle_time(engine.now) >= 0


class TestEnginediffCounts:
    """Three golden scenarios, untraced; ``figure8`` is the golden
    ``figure8_irq`` run."""

    @pytest.mark.parametrize("scenario, horizon, counts", [
        ("figure5", 2 * SECOND, (169, 3, 150, 150, 0, 0, 22, 20)),
        ("depth8", 500 * MS, (473, 3, 341, 309, 0, 0, 135, 133)),
        ("figure8", 2 * SECOND, (329, 2, 121, 121, 206, 204, 3, 3)),
    ])
    def test_counts(self, scenario, horizon, counts):
        build = {"figure5": goldens.build_figure5,
                 "depth8": goldens.build_depth8,
                 "figure8": goldens.build_figure8_irq}[scenario]
        machine = build()
        machine.run_until(horizon)
        engine = machine.engine
        stats = machine.stats
        per_thread = [thread.stats for thread in machine.threads]
        assert (engine.events_fired, engine.pending_events, stats.dispatches,
                stats.context_switches, stats.interrupts, stats.pauses,
                sum(s.blocks for s in per_thread),
                sum(s.wakeups for s in per_thread)) == counts
