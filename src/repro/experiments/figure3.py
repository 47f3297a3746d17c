"""EXP-F3 — Figure 3 and the §3 worked example: SFQ tag evolution.

Two threads A (weight 1) and B (weight 2) with 10 ms quanta; B blocks at
t=60 ms, A blocks at t=90 ms, A returns at 110 ms, B at 115 ms.  The paper
walks through the virtual time, start tags, and finish tags; this harness
replays the scenario on the real machine + SFQ queue and reports the tag
state at each charge — the golden unit test asserts the exact values.
"""

from __future__ import annotations

from typing import List

from repro.core.hierarchy import HierarchicalScheduler
from repro.core.structure import SchedulingStructure
from repro.cpu.machine import Machine
from repro.experiments.common import ExperimentResult
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.sim.engine import Simulator
from repro.threads.segments import Compute, SegmentListWorkload, SleepUntil
from repro.threads.thread import SimThread
from repro.trace.recorder import Recorder
from repro.trace.timeline import merge_timeline
from repro.units import MS


class _TagLoggingSfq(SfqScheduler):
    """An SFQ leaf that snapshots tags after every charge."""

    def __init__(self) -> None:
        super().__init__()
        self.log: List[List[object]] = []
        self._threads: List[SimThread] = []

    def add_thread(self, thread: SimThread) -> None:
        super().add_thread(thread)
        self._threads.append(thread)

    def charge(self, thread: SimThread, work: int, now: int) -> None:
        super().charge(thread, work, now)
        row = [now // MS, thread.name, float(self.queue.virtual_time)]
        for t in self._threads:
            if t in self.queue:
                row.append(float(self.queue.start_tag(t)))
                row.append(float(self.queue.finish_tag(t)))
            else:  # exited threads keep their last logged tags
                row.append("-")
                row.append("-")
        self.log.append(row)


def run() -> ExperimentResult:
    """Replay the worked example; one row per completed quantum."""
    # Capacity chosen so a 10 ms quantum is exactly 10 work units, making
    # the tags match the paper's numbers literally.
    capacity = 1000
    structure = SchedulingStructure()
    leaf_scheduler = _TagLoggingSfq()
    leaf = structure.mknod("/example", 1, scheduler=leaf_scheduler)
    engine = Simulator()
    recorder = Recorder()
    machine = Machine(engine, HierarchicalScheduler(structure),
                      capacity_ips=capacity, default_quantum=10 * MS,
                      tracer=recorder)
    # A: 50 units (blocks at 90 ms), returns at 110 ms for 30 more.
    # B: 40 units (blocks at 60 ms), returns at 115 ms for 40 more.
    thread_a = SimThread("A", SegmentListWorkload(
        [Compute(50), SleepUntil(110 * MS), Compute(30)]), weight=1)
    thread_b = SimThread("B", SegmentListWorkload(
        [Compute(40), SleepUntil(115 * MS), Compute(40)]), weight=2)
    leaf.attach_thread(thread_a)
    leaf.attach_thread(thread_b)
    machine.spawn(thread_a)
    machine.spawn(thread_b)
    machine.run_until(400 * MS)

    timeline = [
        (t0 // MS, t1 // MS, thread.name)
        for t0, t1, thread in merge_timeline(recorder, [thread_a, thread_b])
    ]
    notes = [
        "execution order (ms): %s" % (timeline,),
        "A ran %d units, B ran %d units"
        % (thread_a.stats.work_done, thread_b.stats.work_done),
    ]
    return ExperimentResult(
        "Figure 3: SFQ virtual time / start tag / finish tag evolution",
        ["t ms", "ran", "v", "S_A", "F_A", "S_B", "F_B"],
        leaf_scheduler.log, notes=notes)


def main() -> None:
    """Regenerate this experiment at full scale and print it."""
    print(run().render())


if __name__ == "__main__":
    from repro.entry import run_main
    run_main(main)
