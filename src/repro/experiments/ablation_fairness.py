"""EXP-AB3 — ablation: the SFQ fairness theorem on randomized workloads.

Three threads with distinct weights run randomized bursty workloads on an
interrupt-perturbed CPU under SFQ with exact (Fraction) tags.  For every
pair we compute the exact maximal normalized service gap over all
both-runnable subintervals and compare it to the theorem's bound
``l̂_f/w_f + l̂_m/w_m``.  The measured/bound ratio must stay at or below 1.
"""

from __future__ import annotations

import itertools

from repro.analysis.fairness import max_normalized_service_gap, sfq_fairness_bound
from repro.cpu.interrupts import PoissonInterruptSource
from repro.experiments.common import ExperimentResult, FlatSetup
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.sim.rng import make_rng
from repro.threads.thread import SimThread
from repro.units import MS, SECOND
from repro.workloads.bursty import BurstyWorkload

CAPACITY = 10_000_000
QUANTUM = 10 * MS
QUANTUM_WORK = CAPACITY * QUANTUM // SECOND


def run(duration: int = 20 * SECOND, seed: int = 42) -> ExperimentResult:
    """Measured gap vs theorem bound for every thread pair."""
    setup = FlatSetup(SfqScheduler(), capacity_ips=CAPACITY,
                      default_quantum=QUANTUM)
    weights = [1, 2, 5]
    threads = []
    for index, weight in enumerate(weights):
        rng = make_rng(seed, "bursty/%d" % index)
        workload = BurstyWorkload(mean_busy_work=5 * QUANTUM_WORK,
                                  mean_idle_time=80 * MS, rng=rng)
        thread = SimThread("w%d" % weight, workload, weight=weight)
        setup.spawn(thread)
        threads.append(thread)
    setup.machine.add_interrupt_source(PoissonInterruptSource(
        mean_interarrival=20 * MS, mean_service=2 * MS,
        rng=make_rng(seed, "intr"), exponential_service=True))
    setup.machine.run_until(duration)

    rows = []
    worst = 0.0
    for a, b in itertools.combinations(threads, 2):
        gap = max_normalized_service_gap(setup.recorder, a, b, duration)
        bound = sfq_fairness_bound(QUANTUM_WORK, a.weight,
                                   QUANTUM_WORK, b.weight)
        ratio = gap / bound
        worst = max(worst, ratio)
        rows.append(["%s vs %s" % (a.name, b.name), gap, bound, ratio])
    notes = [
        "worst measured/bound ratio %.3f (theorem requires <= 1)" % worst,
        "exact Fraction tag arithmetic; gaps computed over every "
        "both-runnable subinterval",
    ]
    return ExperimentResult(
        "Ablation AB3: SFQ fairness theorem on randomized workloads",
        ["pair", "measured gap", "theorem bound", "ratio"], rows,
        notes=notes)


def main() -> None:
    """Regenerate this experiment at full scale and print it."""
    print(run().render())


if __name__ == "__main__":
    from repro.entry import run_main
    run_main(main)
