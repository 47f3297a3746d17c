"""EXP-F9 — Figure 9: hard real-time threads inside the hierarchy.

Two periodic threads run under a rate-monotonic leaf (the paper put them
in the RT class of the SVR4 node): thread1 computes 10 ms every 60 ms,
thread2 computes 150 ms every 960 ms.  An MPEG decoder runs in SFQ-1; the
RT and SFQ-1 nodes have equal weights.  All quanta are 25 ms.

Reported per round for thread1 (as in the paper):

* **scheduling latency** — how long after its release the thread first got
  the CPU; bounded by one scheduling quantum (Figure 9(a));
* **slack** — deadline minus completion; always positive means no deadline
  was missed (Figure 9(b)).
"""

from __future__ import annotations

from repro.experiments.common import (
    DEFAULT_CAPACITY_IPS,
    ExperimentResult,
    HierarchicalSetup,
)
from repro.core.structure import SchedulingStructure
from repro.schedulers.rma import RmaScheduler
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.threads.thread import SimThread
from repro.trace.metrics import latency_slack
from repro.units import MS, SECOND
from repro.workloads.mpeg import MpegDecodeWorkload, MpegVbrModel
from repro.workloads.periodic import PeriodicWorkload


def run(duration: int = 20 * SECOND, quantum: int = 25 * MS,
        capacity_ips: int = DEFAULT_CAPACITY_IPS) -> ExperimentResult:
    """Run the Figure 9 scenario and report thread1's latency and slack."""
    structure = SchedulingStructure()
    rt_leaf = structure.mknod("/SVR4-RT", 1,
                              scheduler=RmaScheduler(quantum=quantum))
    sfq_leaf = structure.mknod("/SFQ-1", 1, scheduler=SfqScheduler())
    setup = HierarchicalSetup(structure, capacity_ips=capacity_ips,
                              default_quantum=quantum)

    def work_of(ms: float) -> int:
        return round(capacity_ips * ms / 1000.0)

    wl1 = PeriodicWorkload(period=60 * MS, cost=work_of(10))
    wl2 = PeriodicWorkload(period=960 * MS, cost=work_of(150))
    thread1 = SimThread("thread1", wl1, params={"period": 60 * MS})
    thread2 = SimThread("thread2", wl2, params={"period": 960 * MS})
    # The Berkeley player of the paper displays frames, so its decoding is
    # paced by the display clock rather than flat out (see DESIGN.md).
    decoder = SimThread("mpeg",
                        MpegDecodeWorkload(MpegVbrModel(seed=5, mean_cost=500_000),
                                           paced=True))
    setup.spawn(thread1, rt_leaf)
    setup.spawn(thread2, rt_leaf)
    setup.spawn(decoder, sfq_leaf)
    setup.machine.run_until(duration)

    results = latency_slack(setup.recorder, thread1, wl1)
    rows = [
        [index, latency / MS, slack / MS]
        for index, latency, slack in results
    ]
    latencies = [latency for __, latency, __ in results]
    slacks = [slack for __, __, slack in results]
    notes = [
        "rounds measured: %d" % len(results),
        "max scheduling latency %.2f ms (quantum is %.0f ms)"
        % (max(latencies) / MS, quantum / MS),
        "min slack %.2f ms (all positive => no deadline missed)"
        % (min(slacks) / MS),
        "MPEG decoder decoded %d frames meanwhile (isolation holds)"
        % decoder.stats.markers.get("frames", 0),
    ]
    return ExperimentResult(
        "Figure 9: scheduling latency and slack of thread1 (10 ms / 60 ms)",
        ["round", "latency ms", "slack ms"], rows, notes=notes,
        series={"latency_ms": [l / MS for l in latencies],
                "slack_ms": [s / MS for s in slacks]})


def main() -> None:
    """Regenerate this experiment at full scale and print it."""
    result = run()
    # The per-round table is long; print the summary and a sparkline.
    from repro.viz.ascii_chart import sparkline
    print(result.name)
    for note in result.notes:
        print("note:", note)
    print("latency:", sparkline(result.series["latency_ms"]))
    print("slack:  ", sparkline(result.series["slack_ms"]))


if __name__ == "__main__":
    from repro.entry import run_main
    run_main(main)
