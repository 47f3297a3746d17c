"""Exact work counts: host-independent numbers that pin how much the
simulator does.

Wall time varies from host to host; the number of events fired, dispatches
taken and pauses served does not.  A change that alters one of these counts
changes the work per simulated second, so it must say why.
"""

import pytest

import repro.core.hierarchy as hierarchy_module
import repro.schedulers.sfq_leaf as sfq_leaf_module
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

#: the golden scenarios counted here; ``figure8`` is ``figure8_irq``
_BUILDS = {"figure5": goldens.build_figure5,
           "depth8": goldens.build_depth8,
           "figure8": goldens.build_figure8_irq}


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
        machine = _BUILDS[scenario]()
        machine.run_until(horizon)
        engine = machine.engine
        stats = machine.stats
        per_thread = [thread.stats for thread in machine.threads]
        assert (engine.events_fired, engine.pending_events, stats.dispatches,
                stats.context_switches, stats.interrupts, stats.pauses,
                sum(s.blocks for s in per_thread),
                sum(s.wakeups for s in per_thread)) == counts


_WALKS = ("pick_leaf", "charge_chain", "wake_chain", "sleep_chain")
_QUEUE_OPS = ("queue_pick", "queue_charge", "queue_set_runnable",
              "queue_set_blocked")


class TestHotPathCounts:
    """Calls of the hierarchy's four walks and the SFQ leaf's four queue
    operations, counted where their callers look them up (as the
    benchmark's per-layer tracer does), with the chain levels they cover:
    ``len(chain)`` per walk and ``depth - 1`` per descent."""

    @pytest.mark.parametrize("scenario, horizon, walks, levels, queue_ops", [
        ("figure5", 2 * SECOND, (0, 0, 0, 0), 0, (150, 149, 27, 22)),
        ("depth8", 500 * MS, (341, 340, 78, 75), 6_672, (341, 340, 139, 135)),
        ("figure8", 2 * SECOND, (121, 120, 4, 1), 246, (115, 114, 4, 0)),
    ])
    def test_counts(self, monkeypatch, scenario, horizon, walks, levels,
                    queue_ops):
        calls = dict.fromkeys(_WALKS + _QUEUE_OPS, 0)
        covered = [0]

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                result = original(*args)
                if name == "pick_leaf":
                    covered[0] += result[1] - 1
                elif name in _WALKS:
                    covered[0] += len(args[0])
                return result

            monkeypatch.setattr(module, name, wrapper)

        for name in _WALKS:
            counted(hierarchy_module, name)
        for name in _QUEUE_OPS:
            counted(sfq_leaf_module, name)
        _BUILDS[scenario]().run_until(horizon)
        assert tuple(calls[name] for name in _WALKS) == walks
        assert covered[0] == levels
        assert tuple(calls[name] for name in _QUEUE_OPS) == queue_ops
