"""EXP-AB1 — ablation: fairness under fluctuating capacity (§6 claims).

The paper's central argument for SFQ over WFQ/FQS is that WFQ's virtual
time assumes a constant-rate server, so when interrupts steal CPU the tags
drift from the service actually delivered and fairness breaks; SFQ's
self-clocked start tags do not drift.

Scenario: thread A is continuously backlogged; thread B alternates between
backlogged and sleeping phases.  A heavy periodic interrupt source steals
~25% of the CPU in coarse 25 ms chunks.  Each wakeup of B re-reads the
scheduler's virtual time, so any drift between virtual time and delivered
service shows up as a normalized service gap between A and B.  We measure
the exact maximal gap (see :mod:`repro.analysis.fairness`) under SFQ, WFQ,
FQS, and SCFQ, normalized to the SFQ fairness bound.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.fairness import max_normalized_service_gap, sfq_fairness_bound
from repro.cpu.interrupts import PeriodicInterruptSource
from repro.experiments.common import ExperimentResult, FlatSetup
from repro.schedulers.fairqueue import FqsScheduler, ScfqScheduler, WfqScheduler
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.threads.thread import SimThread
from repro.workloads.phased import PhasedWorkload
from repro.units import MS, SECOND

#: modest CPU so work numbers stay readable
CAPACITY = 10_000_000
QUANTUM = 10 * MS
QUANTUM_WORK = CAPACITY * QUANTUM // SECOND


def _schedulers() -> Dict[str, object]:
    return {
        "SFQ": SfqScheduler(),
        "WFQ": WfqScheduler(QUANTUM_WORK, CAPACITY),
        "FQS": FqsScheduler(QUANTUM_WORK, CAPACITY),
        "SCFQ": ScfqScheduler(QUANTUM_WORK),
    }


def run(duration: int = 20 * SECOND) -> ExperimentResult:
    """Max normalized service gap of each algorithm under fluctuation."""
    rows = []
    gaps = {}
    for name, scheduler in _schedulers().items():
        setup = FlatSetup(scheduler, capacity_ips=CAPACITY,
                          default_quantum=QUANTUM)
        batch = QUANTUM_WORK
        thread_a = SimThread(
            "A", PhasedWorkload(on=SECOND, cycle=SECOND, batch=batch),
            weight=1)
        thread_b = SimThread(
            "B", PhasedWorkload(on=700 * MS, cycle=SECOND, batch=batch),
            weight=2)
        setup.spawn(thread_a)
        setup.spawn(thread_b)
        # 25 ms stolen out of every 100 ms, in one coarse chunk: a strongly
        # fluctuating (but FC) effective server.
        setup.machine.add_interrupt_source(
            PeriodicInterruptSource(period=100 * MS, service=25 * MS))
        setup.machine.run_until(duration)
        gap = max_normalized_service_gap(setup.recorder, thread_a, thread_b,
                                         duration)
        gaps[name] = gap
        bound = sfq_fairness_bound(QUANTUM_WORK, 1, QUANTUM_WORK, 2)
        rows.append([name, gap, gap / bound])
    notes = [
        "gap normalized to the SFQ fairness bound l̂_A/w_A + l̂_B/w_B",
        "paper shape: SFQ stays within its bound; the constant-rate virtual "
        "clocks (WFQ/FQS) drift under fluctuation",
        "SFQ gap %.0f vs WFQ gap %.0f" % (gaps["SFQ"], gaps["WFQ"]),
    ]
    return ExperimentResult(
        "Ablation AB1: fairness under fluctuating CPU bandwidth",
        ["algorithm", "max normalized gap", "gap / SFQ bound"], rows,
        notes=notes)


def main() -> None:
    """Regenerate this experiment at full scale and print it."""
    print(run().render())


if __name__ == "__main__":
    from repro.entry import run_main
    run_main(main)
