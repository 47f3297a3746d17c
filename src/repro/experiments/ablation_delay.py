"""EXP-AB9 — ablation: delay for low-throughput (interactive) threads (§6).

The paper derives that SFQ's delay bound beats WFQ's whenever a thread's
reserved rate is below ``C / Q`` and concludes: "SFQ provides lower delay
to low throughput applications.  Since interactive applications are low
throughput in nature, this feature of SFQ is highly desirable for CPU
scheduling."  SCFQ likewise inflates the bound by ``(Q−1)·l̂/C``.

Scenario: one interactive thread (short bursts, long think times, low
weight) against eight backlogged CPU hogs.  Measured: the distribution of
wake-to-burst-completion response times under SFQ, WFQ, FQS, and SCFQ.
Shape: SFQ's mean and tail response times are the smallest of the
finish-tag schedulers; the paper's analytical penalties
(:func:`repro.analysis.bounds.wfq_delay_penalty`) give the direction.
"""

from __future__ import annotations

from repro.analysis.stats import mean, percentile
from repro.cpu.interrupts import PeriodicInterruptSource
from repro.experiments.common import ExperimentResult, FlatSetup
from repro.schedulers.fairqueue import FqsScheduler, ScfqScheduler, WfqScheduler
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.sim.rng import make_rng
from repro.threads.thread import SimThread
from repro.trace.metrics import response_times
from repro.units import MS, SECOND
from repro.workloads.dhrystone import DhrystoneWorkload
from repro.workloads.interactive import InteractiveWorkload

CAPACITY = 10_000_000
QUANTUM = 10 * MS
QUANTUM_WORK = CAPACITY * QUANTUM // SECOND
HOGS = 8


def _schedulers():
    return {
        "SFQ": SfqScheduler(),
        "WFQ": WfqScheduler(QUANTUM_WORK, CAPACITY),
        "FQS": FqsScheduler(QUANTUM_WORK, CAPACITY),
        "SCFQ": ScfqScheduler(QUANTUM_WORK),
    }


def run(duration: int = 30 * SECOND, seed: int = 41) -> ExperimentResult:
    """Interactive response-time distribution under each fair scheduler."""
    rows = []
    means = {}
    for name, scheduler in _schedulers().items():
        setup = FlatSetup(scheduler, capacity_ips=CAPACITY,
                          default_quantum=QUANTUM)
        interactive = SimThread(
            "editor",
            InteractiveWorkload(burst_work=QUANTUM_WORK // 4,
                                think_time=100 * MS,
                                rng=make_rng(seed, "think")),
            weight=1)
        setup.spawn(interactive)
        for index in range(HOGS):
            setup.spawn(SimThread("hog-%d" % index, DhrystoneWorkload(),
                                  weight=1))
        # mild interrupt load, as everywhere in the paper's environment
        setup.machine.add_interrupt_source(
            PeriodicInterruptSource(period=20 * MS, service=1 * MS))
        setup.machine.run_until(duration)
        times = [t / MS for t in
                 response_times(setup.recorder, interactive)]
        means[name] = mean(times)
        rows.append([name, len(times), mean(times),
                     percentile(times, 95), max(times)])
    notes = [
        "one low-weight interactive thread vs %d backlogged hogs" % HOGS,
        "wake-to-completion times in ms; bursts are ~1/4 quantum",
        "paper §6: SFQ's delay bound beats WFQ's for low-throughput "
        "threads (Q > C/r_f) and SCFQ's by (Q-1)*l̂/C",
    ]
    return ExperimentResult(
        "Ablation AB9: interactive response times across fair schedulers",
        ["algorithm", "bursts", "mean ms", "p95 ms", "max ms"],
        rows, notes=notes)


def main() -> None:
    """Regenerate this experiment at full scale and print it."""
    print(run().render())


if __name__ == "__main__":
    from repro.entry import run_main
    run_main(main)
