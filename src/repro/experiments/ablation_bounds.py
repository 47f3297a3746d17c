"""EXP-AB2 — ablation: measured completion times vs the eq. (8) delay bound.

A low-rate periodic thread shares an SFQ-scheduled CPU with backlogged
competitors while a periodic interrupt source makes the CPU a
Fluctuation-Constrained server with *analytically known* parameters.  Each
job is one SFQ quantum (its cost is below the quantum), so the paper's
delay guarantee applies directly:

    completion(q_j) <= EAT(q_j) + (sum of others' max quanta + delta)/C + l_j/C

We verify the bound for every job and report the worst margin.
"""

from __future__ import annotations

from repro.analysis.bounds import sfq_completion_bounds
from repro.analysis.fc_server import fc_params_for_periodic_interrupts
from repro.cpu.interrupts import PeriodicInterruptSource
from repro.experiments.common import ExperimentResult, FlatSetup
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.threads.thread import SimThread
from repro.units import MS, SECOND
from repro.workloads.dhrystone import DhrystoneWorkload
from repro.workloads.periodic import PeriodicWorkload

CAPACITY = 10_000_000
QUANTUM = 10 * MS
QUANTUM_WORK = CAPACITY * QUANTUM // SECOND


def run(duration: int = 20 * SECOND, period: int = 200 * MS,
        job_cost: int = QUANTUM_WORK // 2,
        competitors: int = 3) -> ExperimentResult:
    """Verify eq. (8) for every completed job of the periodic thread."""
    setup = FlatSetup(SfqScheduler(), capacity_ips=CAPACITY,
                      default_quantum=QUANTUM)
    # Weights as rates: the periodic thread reserves 1/(1+competitors) of
    # the fluctuating capacity — comfortably above its demand.
    workload = PeriodicWorkload(period=period, cost=job_cost)
    rt_thread = SimThread("periodic", workload, weight=1)
    setup.spawn(rt_thread)
    backlogged = []
    for index in range(competitors):
        thread = SimThread("bg-%d" % index,
                           DhrystoneWorkload(batch=QUANTUM_WORK // 300 + 1),
                           weight=1)
        setup.spawn(thread)
        backlogged.append(thread)
    interrupt_period, interrupt_service = 50 * MS, 5 * MS
    setup.machine.add_interrupt_source(
        PeriodicInterruptSource(interrupt_period, interrupt_service))
    setup.machine.run_until(duration)

    fc = fc_params_for_periodic_interrupts(CAPACITY, interrupt_period,
                                           interrupt_service)
    trace = setup.recorder.trace_of(rt_thread)
    completions = trace.segment_completions
    jobs = min(len(completions), len(workload.releases))
    arrivals = workload.releases[:jobs]
    lengths = [job_cost] * jobs
    # The thread's reserved rate: its weight share of the FC rate.
    total_weight = 1 + competitors
    rate = fc.rate_ips / total_weight
    bounds = sfq_completion_bounds(
        arrivals, lengths, rate,
        other_max_quanta=[QUANTUM_WORK] * competitors,
        capacity_ips=fc.rate_ips, burstiness=fc.burstiness)

    rows = []
    worst_margin = float("inf")
    violations = 0
    for index in range(jobs):
        measured = completions[index]
        bound = bounds[index]
        margin = bound - measured
        worst_margin = min(worst_margin, margin)
        if margin < 0:
            violations += 1
        if index < 10 or margin == worst_margin:
            rows.append([index, measured / MS, bound / MS, margin / MS])
    notes = [
        "jobs checked: %d, bound violations: %d" % (jobs, violations),
        "worst margin %.2f ms (positive = bound holds)" % (worst_margin / MS),
        "FC params: rate %.0f inst/s, burstiness %.0f inst"
        % (fc.rate_ips, fc.burstiness),
    ]
    return ExperimentResult(
        "Ablation AB2: measured completions vs SFQ delay bound (eq. 8)",
        ["job", "completed ms", "bound ms", "margin ms"], rows, notes=notes)


def main() -> None:
    """Regenerate this experiment at full scale and print it."""
    print(run().render())


if __name__ == "__main__":
    from repro.entry import run_main
    run_main(main)
