"""EXT-SMP — extension: SFQ on a multiprocessor (beyond the paper).

The paper is uniprocessor; its direct follow-on literature (Surplus Fair
Scheduling, Chandra et al. 2000) begins from how start-time fair queuing
behaves on SMPs.  This extension experiment reproduces both halves of
that observation on our 2-CPU machine:

* **feasible weights** — three equal-weight threads on two CPUs: each
  receives 2/3 of a CPU, exactly the weighted share of total capacity;
* **infeasible weight** — weights 10:1:1 on two CPUs: thread A's nominal
  share (10/12 of 2 CPUs = 1.67 CPUs) exceeds what one sequential thread
  can consume.  A saturates at 1.0 CPU while B and C split the second
  CPU — so B and C receive 5x their nominal share and A runs at 60% of
  its own: the weight semantics silently break, which is what Surplus
  Fair Scheduling was invented to fix.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.hierarchy import HierarchicalScheduler
from repro.core.structure import SchedulingStructure
from repro.experiments.common import ExperimentResult
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.sim.engine import Simulator
from repro.smp.machine import SmpMachine
from repro.threads.thread import SimThread
from repro.trace.recorder import Recorder
from repro.units import MS, SECOND
from repro.workloads.dhrystone import DhrystoneWorkload

CAPACITY = 10_000_000  # per CPU
QUANTUM = 10 * MS


def _run(weights: List[int], duration: int, num_cpus: int = 2
         ) -> Dict[str, float]:
    structure = SchedulingStructure()
    leaf = structure.mknod("/apps", 1, scheduler=SfqScheduler())
    engine = Simulator()
    machine = SmpMachine(engine, HierarchicalScheduler(structure),
                         num_cpus=num_cpus, capacity_ips=CAPACITY,
                         default_quantum=QUANTUM, tracer=Recorder())
    threads = []
    for index, weight in enumerate(weights):
        thread = SimThread("t%d" % index,
                           DhrystoneWorkload(loop_cost=100, batch=1000),
                           weight=weight)
        leaf.attach_thread(thread)
        machine.spawn(thread)
        threads.append(thread)
    machine.run_until(duration)
    cpu_seconds = duration / SECOND
    return {
        thread.name: thread.stats.work_done / (CAPACITY * cpu_seconds)
        for thread in threads
    }


def run(duration: int = 10 * SECOND) -> ExperimentResult:
    """Per-thread CPU consumption (in CPUs) for both weight regimes."""
    feasible = _run([1, 1, 1], duration)
    infeasible = _run([10, 1, 1], duration)
    rows = []
    for name, share in feasible.items():
        rows.append(["feasible 1:1:1", name, "%.3f" % (1 * 2 / 3),
                     share])
    nominal = {"t0": 10 * 2 / 12, "t1": 1 * 2 / 12, "t2": 1 * 2 / 12}
    for name, share in infeasible.items():
        rows.append(["infeasible 10:1:1", name, "%.3f" % nominal[name],
                     share])
    notes = [
        "consumption in CPUs on a 2-CPU machine (2.0 = whole machine)",
        "feasible weights: every thread gets its weighted share of total "
        "capacity",
        "infeasible weight: t0 cannot exceed 1.0 CPU; t1/t2 receive far "
        "more than their nominal share — the SMP-SFQ anomaly that "
        "motivated Surplus Fair Scheduling",
    ]
    return ExperimentResult(
        "Extension: SFQ on 2 CPUs — feasible vs infeasible weights",
        ["regime", "thread", "nominal CPUs", "measured CPUs"],
        rows, notes=notes)


def main() -> None:
    """Regenerate this experiment at full scale and print it."""
    print(run().render())


if __name__ == "__main__":
    from repro.entry import run_main
    run_main(main)
