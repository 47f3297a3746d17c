"""EXP-AB4 — ablation: exact tags versus float tags.

SFQ tags are sums of ``length/weight`` terms.  This repository defaults to
exact rational arithmetic (an ``int`` when integral, else a
``fractions.Fraction``; the fairness theorem then holds with zero epsilon
in tests); a kernel would use fixed/floating point.  This
ablation runs the same three-thread scenario under both modes and reports

* whether the two runs dispatch identically (they should, until float
  rounding flips a tie), and
* the wall-clock cost of each mode's scheduling arithmetic (also measured
  by ``benchmarks/bench_overhead.py``).
"""

from __future__ import annotations

import time

from repro.core.tags import TagMath
from repro.experiments.common import ExperimentResult, FlatSetup
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.sim.rng import make_rng
from repro.threads.thread import SimThread
from repro.trace.timeline import execution_order
from repro.units import MS, SECOND
from repro.workloads.bursty import BurstyWorkload

CAPACITY = 10_000_000
QUANTUM = 10 * MS


def _run_mode(exact: bool, duration: int, seed: int):
    setup = FlatSetup(SfqScheduler(tag_math=TagMath(exact=exact)),
                      capacity_ips=CAPACITY, default_quantum=QUANTUM)
    threads = []
    for index, weight in enumerate([1, 3, 7]):
        rng = make_rng(seed, "load/%d" % index)
        workload = BurstyWorkload(mean_busy_work=CAPACITY // 20,
                                  mean_idle_time=50 * MS, rng=rng)
        thread = SimThread("w%d" % weight, workload, weight=weight)
        setup.spawn(thread)
        threads.append(thread)
    start = time.perf_counter()
    setup.machine.run_until(duration)
    elapsed = time.perf_counter() - start
    order = execution_order(setup.recorder, threads)
    work = {t.name: t.stats.work_done for t in threads}
    return order, work, elapsed


def run(duration: int = 10 * SECOND, seed: int = 9) -> ExperimentResult:
    """Compare exact vs float tag arithmetic on one scenario."""
    exact_order, exact_work, exact_time = _run_mode(True, duration, seed)
    float_order, float_work, float_time = _run_mode(False, duration, seed)

    same_order = exact_order == float_order
    rows = [
        ["dispatch sequences identical", same_order, ""],
        ["scheduled slices", len(exact_order), len(float_order)],
        ["wall-clock s", exact_time, float_time],
    ]
    for name in exact_work:
        rows.append(["work %s" % name, exact_work[name], float_work[name]])
    notes = [
        "float mode cost ratio %.2fx vs exact"
        % (float_time / exact_time if exact_time else 1.0),
        "divergent dispatches would indicate float rounding flipped a "
        "tag comparison",
    ]
    return ExperimentResult(
        "Ablation AB4: exact (Fraction) vs float tag arithmetic",
        ["metric", "exact", "float"], rows, notes=notes)


def main() -> None:
    """Regenerate this experiment at full scale and print it."""
    print(run().render())


if __name__ == "__main__":
    from repro.entry import run_main
    run_main(main)
