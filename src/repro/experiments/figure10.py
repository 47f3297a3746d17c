"""EXP-F10 — Figure 10: SFQ as a leaf scheduler for MPEG decoders.

Two threads running the MPEG player are assigned to node SFQ-1 with
weights 5 and 10.  The paper plots frames decoded against time and finds
the weight-10 thread decodes twice as many frames as the other in any
interval.  Frame decode costs are drawn from the same VBR model (different
streams), so the 2x ratio emerges from CPU shares, not workload identity.
"""

from __future__ import annotations

from repro.core.structure import SchedulingStructure
from repro.experiments.common import (
    DEFAULT_CAPACITY_IPS,
    ExperimentResult,
    HierarchicalSetup,
)
from repro.analysis.stats import mean
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.threads.thread import SimThread
from repro.units import MS, SECOND
from repro.workloads.mpeg import MpegDecodeWorkload, MpegVbrModel


def run(duration: int = 20 * SECOND, window: int = 2 * SECOND,
        weights=(5, 10), seed: int = 21) -> ExperimentResult:
    """Frames decoded over time by two decoders with weights 5 and 10."""
    structure = SchedulingStructure()
    leaf = structure.mknod("/SFQ-1", 1, scheduler=SfqScheduler())
    setup = HierarchicalSetup(structure, capacity_ips=DEFAULT_CAPACITY_IPS,
                              default_quantum=20 * MS)
    # Both players decode the same video (as in the paper), so the frame
    # ratio reflects CPU shares, not differing stream complexity.
    model = MpegVbrModel(seed=seed)
    video = model.frame_costs(50_000)
    threads = []
    for weight in weights:
        thread = SimThread("player-%d" % weight,
                           MpegDecodeWorkload(video), weight=weight)
        setup.spawn(thread, leaf)
        threads.append(thread)
    setup.machine.run_until(duration)

    # Frames decoded = segment completions (one segment per frame).
    rows = []
    ratios = []
    t = window
    traces = [setup.recorder.trace_of(thread) for thread in threads]
    while t <= duration:
        counts = [
            sum(1 for c in trace.segment_completions if c <= t)
            for trace in traces
        ]
        ratio = counts[1] / counts[0] if counts[0] else float("inf")
        ratios.append(ratio)
        rows.append([t // SECOND, counts[0], counts[1], ratio])
        t += window
    notes = [
        "mean frames ratio %.3f (weights say %.1f)"
        % (mean(ratios), weights[1] / weights[0]),
        "total frames: %s" % {t.name: t.stats.markers.get("frames", 0)
                              for t in threads},
    ]
    return ExperimentResult(
        "Figure 10: frames decoded over time (weights %d and %d)" % weights,
        ["t s", "frames w=%d" % weights[0], "frames w=%d" % weights[1],
         "ratio"],
        rows, notes=notes, series={"ratio": ratios})


def main() -> None:
    """Regenerate this experiment at full scale and print it."""
    print(run().render())


if __name__ == "__main__":
    from repro.entry import run_main
    run_main(main)
