"""EXP-AB6 — ablation: QoS under overload (paper §1).

The paper motivates SFQ for VBR video precisely because overbooking leads
to overload, and "EDF and RMA schedulers do not provide any QoS guarantee
when CPU bandwidth is overbooked" while SFQ "guarantees fair allocation of
resources even in presence of overload".

Four periodic video-like tasks with heterogeneous periods demand 130% of
the CPU.  Each runs once under an SFQ leaf (weights proportional to
demand) and once under an EDF leaf.  For each task we measure the
*achieved fraction of its demand*; the shape to reproduce is

* SFQ: every task achieves the same ~1/1.3 = 77% of its demand
  (graceful, proportional degradation — CoV near 0);
* EDF: earliest-deadline tasks monopolize and the others starve
  unpredictably (high CoV across tasks).
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.stats import coefficient_of_variation
from repro.experiments.common import ExperimentResult, FlatSetup
from repro.schedulers.edf import EdfScheduler
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.threads.thread import SimThread
from repro.units import MS, SECOND
from repro.workloads.periodic import PeriodicWorkload

CAPACITY = 10_000_000
QUANTUM = 10 * MS

#: (period ns, utilization): totals 1.30 of the CPU
TASKS = (
    (50 * MS, 0.30),
    (80 * MS, 0.35),
    (120 * MS, 0.30),
    (200 * MS, 0.35),
)


def _spawn_tasks(setup: FlatSetup) -> List[SimThread]:
    threads = []
    for index, (period, utilization) in enumerate(TASKS):
        cost = round(CAPACITY * utilization * period / SECOND)
        workload = PeriodicWorkload(period=period, cost=cost)
        weight = round(utilization * 100)
        thread = SimThread("task-%d" % index, workload, weight=weight,
                           params={"period": period})
        setup.spawn(thread)
        threads.append(thread)
    return threads


def _achieved_fractions(threads: List[SimThread], duration: int
                        ) -> List[float]:
    fractions = []
    for thread, (__, utilization) in zip(threads, TASKS):
        demand = CAPACITY * utilization * duration / SECOND
        fractions.append(thread.stats.work_done / demand)
    return fractions


def run(duration: int = 20 * SECOND) -> ExperimentResult:
    """Achieved demand fraction per task under SFQ vs EDF at 130% load."""
    results: Dict[str, List[float]] = {}
    for name, scheduler in [("SFQ", SfqScheduler()),
                            ("EDF", EdfScheduler(quantum=QUANTUM))]:
        setup = FlatSetup(scheduler, capacity_ips=CAPACITY,
                          default_quantum=QUANTUM)
        threads = _spawn_tasks(setup)
        setup.machine.run_until(duration)
        results[name] = _achieved_fractions(threads, duration)

    rows = []
    for index, (period, utilization) in enumerate(TASKS):
        rows.append(["task-%d" % index, period // MS, utilization,
                     results["SFQ"][index], results["EDF"][index]])
    sfq_cov = coefficient_of_variation(results["SFQ"])
    edf_cov = coefficient_of_variation(results["EDF"])
    rows.append(["CoV across tasks", "", "", sfq_cov, edf_cov])
    notes = [
        "demand totals 130% of the CPU: overload by design",
        "SFQ: every task achieves ~1/1.3 = 0.77 of demand (CoV %.3f)"
        % sfq_cov,
        "EDF: unpredictable split under overload (CoV %.3f)" % edf_cov,
    ]
    return ExperimentResult(
        "Ablation AB6: graceful degradation under 130% overload",
        ["task", "period ms", "demand", "SFQ achieved", "EDF achieved"],
        rows, notes=notes)


def main() -> None:
    """Regenerate this experiment at full scale and print it."""
    print(run().render())


if __name__ == "__main__":
    from repro.entry import run_main
    run_main(main)
