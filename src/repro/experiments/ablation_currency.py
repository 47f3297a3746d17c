"""EXP-AB7 — ablation: hierarchical SFQ vs ticket currencies (§6).

The paper credits Waldspurger & Weihl's currency framework with expressing
hierarchical partitioning but criticizes it: allocation is randomized (so
fair only over large intervals), ticket values are recomputed on every
block/unblock, and it cannot host different scheduling algorithms per
class.  This ablation builds the same two-class split (class A with two
threads and class B with one thread, 50:50 at the top) in both frameworks
and measures the per-window share error of class A, plus the number of
re-valuations the currency scheduler performed.
"""

from __future__ import annotations

from typing import List

from repro.analysis.stats import mean
from repro.core.hierarchy import HierarchicalScheduler
from repro.core.structure import SchedulingStructure
from repro.cpu.machine import Machine
from repro.currency.lottery import CurrencyLottery
from repro.experiments.common import ExperimentResult
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.sim.engine import Simulator
from repro.sim.rng import make_rng
from repro.threads.thread import SimThread
from repro.trace.metrics import node_work
from repro.trace.recorder import Recorder
from repro.units import MS, SECOND
from repro.workloads.dhrystone import DhrystoneWorkload
from repro.workloads.phased import PhasedWorkload

CAPACITY = 10_000_000
QUANTUM = 10 * MS


ON_PHASE = 700 * MS
CYCLE = SECOND


def _workloads(seed: int):
    """Class A: two steady threads; class B: one deterministic on/off."""
    phased = PhasedWorkload(on=ON_PHASE, cycle=CYCLE,
                            batch=CAPACITY * QUANTUM // SECOND)
    return DhrystoneWorkload(), DhrystoneWorkload(), phased


def _share_errors(recorder: Recorder, class_a, class_b, duration: int,
                  window: int) -> List[float]:
    """Per-window |share(A) - 0.5| over windows fully inside B-on phases."""
    errors = []
    t = 0
    while t + window <= duration:
        # keep only windows entirely within [0, ON_PHASE) of their cycle
        if (t % CYCLE) + window <= ON_PHASE:
            wa = node_work(recorder, class_a, t, t + window)
            wb = node_work(recorder, class_b, t, t + window)
            total = wa + wb
            if total > 0:
                errors.append(abs(wa / total - 0.5))
        t += window
    return errors


def _run_sfq(duration: int, seed: int):
    structure = SchedulingStructure()
    leaf_a = structure.mknod("/classA", 1, scheduler=SfqScheduler())
    leaf_b = structure.mknod("/classB", 1, scheduler=SfqScheduler())
    engine = Simulator()
    recorder = Recorder()
    machine = Machine(engine, HierarchicalScheduler(structure),
                      capacity_ips=CAPACITY, default_quantum=QUANTUM,
                      tracer=recorder)
    wl_a1, wl_a2, wl_b = _workloads(seed)
    a1, a2 = SimThread("a1", wl_a1), SimThread("a2", wl_a2)
    b1 = SimThread("b1", wl_b)
    leaf_a.attach_thread(a1)
    leaf_a.attach_thread(a2)
    leaf_b.attach_thread(b1)
    for thread in (a1, a2, b1):
        machine.spawn(thread)
    machine.run_until(duration)
    return recorder, [a1, a2], [b1], None


def _run_currency(duration: int, seed: int):
    scheduler = CurrencyLottery(rng=make_rng(seed, "lottery"))
    engine = Simulator()
    recorder = Recorder()
    machine = Machine(engine, scheduler, capacity_ips=CAPACITY,
                      default_quantum=QUANTUM, tracer=recorder)
    currency_a = scheduler.create_currency("classA", funding=100)
    currency_b = scheduler.create_currency("classB", funding=100)
    wl_a1, wl_a2, wl_b = _workloads(seed)
    a1, a2 = SimThread("a1", wl_a1), SimThread("a2", wl_a2)
    b1 = SimThread("b1", wl_b)
    scheduler.bind(a1, currency_a)
    scheduler.bind(a2, currency_a)
    scheduler.bind(b1, currency_b)
    for thread in (a1, a2, b1):
        machine.spawn(thread)
    machine.run_until(duration)
    return recorder, [a1, a2], [b1], scheduler


def run(duration: int = 30 * SECOND, seed: int = 23) -> ExperimentResult:
    """Per-window class-share error: hierarchical SFQ vs currencies."""
    rows = []
    for name, runner in [("hierarchical SFQ", _run_sfq),
                         ("ticket currencies", _run_currency)]:
        recorder, class_a, class_b, scheduler = runner(duration, seed)
        for window in (100 * MS, 500 * MS):
            errors = _share_errors(recorder, class_a, class_b, duration,
                                   window)
            label = "%.1f s" % (window / SECOND)
            rows.append([name, label, mean(errors), max(errors)])
        if scheduler is not None:
            revals = scheduler.revaluations
    notes = [
        "share error = |class A share - 0.5| per window, counted while "
        "class B is active",
        "currency scheduler performed %d ticket re-valuations "
        "(one per block/unblock — the paper's overhead point)" % revals,
        "the currency framework cannot host per-class schedulers at all "
        "(every thread is lottery-scheduled), which is the paper's main "
        "qualitative criticism",
    ]
    return ExperimentResult(
        "Ablation AB7: hierarchical SFQ vs ticket-currency lottery",
        ["framework", "window", "mean share error", "max share error"],
        rows, notes=notes)


def main() -> None:
    """Regenerate this experiment at full scale and print it."""
    print(run().render())


if __name__ == "__main__":
    from repro.entry import run_main
    run_main(main)
