"""EXP-F5 — Figure 5: predictability of time-sharing versus SFQ.

Five identical Dhrystone threads run (a) under the SVR4 time-sharing
scheduler with equal initial user priority and (b) under SFQ with equal
weights — both as the whole machine, as in the paper, in "multiuser mode"
(a pair of daemon-like interactive threads perturb the run in both cases).

The paper's Figure 5 shows TS throughput varying significantly across the
identical threads while SFQ gives them all the same throughput.  We report
per-thread loop counts, their spread, and the coefficient of variation of
windowed throughput — the shape to reproduce is CoV(TS) >> CoV(SFQ) ~ 0.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.analysis.stats import coefficient_of_variation
from repro.experiments.common import (
    DEFAULT_CAPACITY_IPS,
    ExperimentResult,
    FlatSetup,
    spawn_dhrystones,
)
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.schedulers.svr4 import Svr4TimeSharing
from repro.sim.rng import make_rng
from repro.threads.thread import SimThread
from repro.trace.metrics import throughput_series
from repro.units import MS, SECOND
from repro.workloads.dhrystone import loops_completed
from repro.workloads.interactive import InteractiveWorkload


def _add_daemons(setup: FlatSetup, seed: int, svr4: bool) -> None:
    """Two system-daemon-like interactive threads (multiuser mode)."""
    for index in range(2):
        rng = make_rng(seed, "daemon/%d" % index)
        workload = InteractiveWorkload(
            burst_work=400_000, think_time=120 * MS, rng=rng)
        params = {"priority": 55} if svr4 else {}
        daemon = SimThread("daemon-%d" % index, workload, weight=1,
                           params=params)
        setup.spawn(daemon)


def build_arm(scheduler) -> FlatSetup:
    """One of the experiment's two machines, built and still empty.

    It traces into ``setup.recorder`` on a private run bus; a caller may
    subscribe more collectors to ``setup.engine.bus`` before
    :func:`run_arm` spawns the first thread.
    """
    return FlatSetup(scheduler, capacity_ips=DEFAULT_CAPACITY_IPS,
                     default_quantum=20 * MS)


def run_arm(setup: FlatSetup, threads: int, duration: int,
            seed: int) -> List[SimThread]:
    """Spawn ``threads`` Dhrystones and the two daemons on ``setup`` and
    run it for ``duration``; returns the Dhrystone threads."""
    workers = spawn_dhrystones(setup, None, threads, prefix="dhry")
    _add_daemons(setup, seed,
                 isinstance(setup.leaf_scheduler, Svr4TimeSharing))
    setup.machine.run_until(duration)
    return workers


def _mean_window_cov(setup: FlatSetup, workers: List[SimThread], window: int,
                     duration: int) -> float:
    """Average across-thread CoV of per-window throughput."""
    from repro.analysis.stats import mean
    per_thread = [
        throughput_series(setup.recorder, t, window, duration)
        for t in workers
    ]
    covs = []
    for index in range(len(per_thread[0])):
        covs.append(coefficient_of_variation(
            [series[index] for series in per_thread]))
    return mean(covs)


def compare(ts: Tuple[FlatSetup, List[SimThread]],
            sfq: Tuple[FlatSetup, List[SimThread]],
            duration: int) -> ExperimentResult:
    """The Figure-5 table from the TS and SFQ arms' ``(setup, workers)``,
    each run for ``duration``."""
    ts_setup, ts_workers = ts
    sfq_setup, sfq_workers = sfq
    ts_loops = [loops_completed(t) for t in ts_workers]
    sfq_loops = [loops_completed(t) for t in sfq_workers]

    # Across-thread spread per window: for each window, the CoV of the five
    # per-thread throughputs — the unpredictability Figure 5 plots —
    # averaged over windows.
    window = duration // 30
    ts_window_cov = _mean_window_cov(ts_setup, ts_workers, window, duration)
    sfq_window_cov = _mean_window_cov(sfq_setup, sfq_workers, window, duration)

    rows = []
    for index in range(len(ts_workers)):
        rows.append(["thread-%d" % index, ts_loops[index], sfq_loops[index]])
    rows.append(["min", min(ts_loops), min(sfq_loops)])
    rows.append(["max", max(ts_loops), max(sfq_loops)])
    rows.append(["CoV (final loops)", coefficient_of_variation(ts_loops),
                 coefficient_of_variation(sfq_loops)])
    rows.append(["CoV (windowed)", ts_window_cov, sfq_window_cov])

    notes = [
        "TS spread max/min = %.3f; SFQ spread max/min = %.3f"
        % (max(ts_loops) / max(1, min(ts_loops)),
           max(sfq_loops) / max(1, min(sfq_loops))),
        "paper shape: TS throughput varies significantly across identical "
        "threads; SFQ throughput is uniform",
    ]
    return ExperimentResult(
        "Figure 5: Dhrystone loops under SVR4 time-sharing vs SFQ",
        ["metric", "SVR4 TS", "SFQ"], rows, notes=notes)


def run(threads: int = 5, duration: int = 30 * SECOND,
        seed: int = 11) -> ExperimentResult:
    """Compare per-thread throughput spread under TS and SFQ."""
    arms = []
    for scheduler in (Svr4TimeSharing(), SfqScheduler()):
        setup = build_arm(scheduler)
        arms.append((setup, run_arm(setup, threads, duration, seed)))
    return compare(arms[0], arms[1], duration)


def main() -> None:
    """Regenerate this experiment at full scale and print it."""
    print(run().render())


if __name__ == "__main__":
    from repro.entry import run_main
    run_main(main)
