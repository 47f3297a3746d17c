"""EXP-AB5 — ablation: fairness timescales of lottery, stride, and SFQ.

The paper's §6 notes that lottery scheduling "achieved fairness only over
large time-intervals" while its deterministic successor (stride) behaves
like WFQ.  Two always-backlogged threads with weights 1:2 run under each
algorithm; for a sweep of window sizes we measure the mean relative error
of the per-window throughput ratio against the ideal 2.0.

Expected shape: lottery's error shrinks like 1/sqrt(window) and dominates
at small windows; stride and SFQ are near-exact at every window.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.stats import mean
from repro.experiments.common import ExperimentResult, FlatSetup
from repro.schedulers.lottery import LotteryScheduler
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.schedulers.stride import StrideScheduler
from repro.sim.rng import make_rng
from repro.threads.thread import SimThread
from repro.trace.metrics import throughput_series
from repro.units import MS, SECOND
from repro.workloads.dhrystone import DhrystoneWorkload

CAPACITY = 10_000_000
QUANTUM = 10 * MS


def _ratio_errors(recorder, thread_a, thread_b, window: int,
                  duration: int) -> List[float]:
    sa = throughput_series(recorder, thread_a, window, duration)
    sb = throughput_series(recorder, thread_b, window, duration)
    errors = []
    for wa, wb in zip(sa, sb):
        if wa > 0:
            errors.append(abs(wb / wa - 2.0) / 2.0)
        else:
            errors.append(1.0)
    return errors


def run(duration: int = 30 * SECOND, seed: int = 17) -> ExperimentResult:
    """Window-size sweep of proportional-share error for each algorithm."""
    windows = [100 * MS, 500 * MS, SECOND, 5 * SECOND]
    algorithms = {
        "lottery": lambda: LotteryScheduler(rng=make_rng(seed, "lottery")),
        "stride": StrideScheduler,
        "SFQ": SfqScheduler,
    }
    results: Dict[str, List[float]] = {}
    for name, factory in algorithms.items():
        setup = FlatSetup(factory(), capacity_ips=CAPACITY,
                          default_quantum=QUANTUM)
        thread_a = SimThread("A", DhrystoneWorkload(), weight=1)
        thread_b = SimThread("B", DhrystoneWorkload(), weight=2)
        setup.spawn(thread_a)
        setup.spawn(thread_b)
        setup.machine.run_until(duration)
        results[name] = [
            mean(_ratio_errors(setup.recorder, thread_a, thread_b, window,
                               duration))
            for window in windows
        ]
    rows = []
    for index, window in enumerate(windows):
        rows.append(["%.1f s" % (window / SECOND),
                     results["lottery"][index],
                     results["stride"][index],
                     results["SFQ"][index]])
    notes = [
        "mean relative error of the per-window throughput ratio vs ideal 2.0",
        "paper shape: lottery is fair only over long windows; stride and "
        "SFQ are deterministic and near-exact",
    ]
    return ExperimentResult(
        "Ablation AB5: fairness timescale of lottery vs stride vs SFQ",
        ["window", "lottery err", "stride err", "SFQ err"], rows,
        notes=notes)


def main() -> None:
    """Regenerate this experiment at full scale and print it."""
    print(run().render())


if __name__ == "__main__":
    from repro.entry import run_main
    run_main(main)
