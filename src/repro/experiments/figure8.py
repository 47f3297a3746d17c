"""EXP-F8 — Figure 8: hierarchical partitioning and isolation.

(a) Figure 6 structure with weights SFQ-1 : SFQ-2 : SVR4 = 2 : 6 : 1, two
    Dhrystone threads in each SFQ node, and a fluctuating population of
    bursty background threads in the SVR4 node (standing in for "all the
    other threads in the system").  The paper shows the aggregate
    throughputs of SFQ-1 and SFQ-2 in the ratio 1:3 per interval, despite
    the fluctuation in what the SVR4 node leaves available.

(b) SFQ-1 (two Dhrystone threads, SFQ leaf) and SVR4 (one Dhrystone
    thread, time-sharing leaf) with equal weights: both nodes progress and
    receive the *same* node throughput — heterogeneous leaf schedulers are
    isolated from each other.
"""

from __future__ import annotations

from repro.analysis.stats import mean
from repro.experiments.common import (
    DEFAULT_CAPACITY_IPS,
    ExperimentResult,
    HierarchicalSetup,
    figure6_structure,
    spawn_dhrystones,
)
from repro.sim.rng import make_rng
from repro.threads.thread import SimThread
from repro.trace.metrics import node_work
from repro.units import MS, SECOND
from repro.workloads.bursty import BurstyWorkload


def run_partitioning(duration: int = 20 * SECOND, window: int = SECOND,
                     seed: int = 3) -> ExperimentResult:
    """Figure 8(a): 1:3 aggregate split under fluctuating background load."""
    structure, sfq1, sfq2, svr4 = figure6_structure(
        sfq1_weight=2, sfq2_weight=6, svr4_weight=1)
    setup = HierarchicalSetup(structure, capacity_ips=DEFAULT_CAPACITY_IPS,
                              default_quantum=20 * MS)
    group1 = spawn_dhrystones(setup, sfq1, 2, prefix="sfq1")
    group2 = spawn_dhrystones(setup, sfq2, 2, prefix="sfq2")
    # Fluctuating "rest of the system" in the SVR4 node.
    for index in range(4):
        rng = make_rng(seed, "bg/%d" % index)
        background = SimThread(
            "bg-%d" % index,
            BurstyWorkload(mean_busy_work=20_000_000,
                           mean_idle_time=400 * MS, rng=rng))
        setup.spawn(background, svr4)
    setup.machine.run_until(duration)

    rows = []
    ratios = []
    t = 0
    while t + window <= duration:
        w1 = node_work(setup.recorder, group1, t, t + window)
        w2 = node_work(setup.recorder, group2, t, t + window)
        ratio = w2 / w1 if w1 else float("inf")
        ratios.append(ratio)
        rows.append([t // SECOND, w1, w2, ratio])
        t += window
    notes = [
        "mean SFQ-2/SFQ-1 ratio %.3f (weights say 3.0)" % mean(ratios),
        "background (SVR4 node) load fluctuates; the 1:3 split should hold "
        "per window anyway",
    ]
    return ExperimentResult(
        "Figure 8(a): aggregate throughput of SFQ-1 and SFQ-2 (weights 2:6)",
        ["t s", "SFQ-1 work", "SFQ-2 work", "ratio"], rows, notes=notes,
        series={"ratio": ratios})


def run_isolation(duration: int = 20 * SECOND,
                  window: int = SECOND) -> ExperimentResult:
    """Figure 8(b): equal-weight SFQ and SVR4 nodes get equal throughput."""
    structure, sfq1, __, svr4 = figure6_structure(
        sfq1_weight=1, sfq2_weight=1, svr4_weight=1)
    setup = HierarchicalSetup(structure, capacity_ips=DEFAULT_CAPACITY_IPS,
                              default_quantum=20 * MS)
    sfq_threads = spawn_dhrystones(setup, sfq1, 2, prefix="sfq1")
    svr4_threads = spawn_dhrystones(setup, svr4, 1, prefix="svr4")
    setup.machine.run_until(duration)

    rows = []
    ratios = []
    t = 0
    while t + window <= duration:
        w_sfq = node_work(setup.recorder, sfq_threads, t, t + window)
        w_svr = node_work(setup.recorder, svr4_threads, t, t + window)
        ratio = w_sfq / w_svr if w_svr else float("inf")
        ratios.append(ratio)
        rows.append([t // SECOND, w_sfq, w_svr, ratio])
        t += window
    notes = [
        "mean SFQ-1/SVR4 node ratio %.3f (equal weights say 1.0)"
        % mean(ratios),
        "note SFQ-2 is idle, so its share is redistributed 1:1 — residual "
        "bandwidth is shared fairly (paper requirement 1)",
    ]
    return ExperimentResult(
        "Figure 8(b): equal-weight nodes with heterogeneous leaf schedulers",
        ["t s", "SFQ-1 node work", "SVR4 node work", "ratio"], rows,
        notes=notes, series={"ratio": ratios})


def main() -> None:
    """Regenerate this experiment at full scale and print it."""
    print(run_partitioning().render())
    print()
    print(run_isolation().render())


if __name__ == "__main__":
    from repro.entry import run_main
    run_main(main)
