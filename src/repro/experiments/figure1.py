"""EXP-F1 — Figure 1: variation in MPEG frame decompression times.

The paper's Figure 1 plots per-frame decode time of an MPEG sequence to
motivate two claims: cost varies *frame-to-frame* (tens of milliseconds —
the GOP structure) and *scene-to-scene* (seconds — content complexity).
This harness generates a synthetic VBR trace and quantifies both
timescales:

* per-frame-type mean decode times (I > P > B);
* coefficient of variation across all frames (frame-level variability);
* coefficient of variation of per-second averages (scene-level
  variability) — nonzero only because scene complexity drifts.
"""

from __future__ import annotations

from repro.analysis.stats import coefficient_of_variation, mean, stdev
from repro.experiments.common import DEFAULT_CAPACITY_IPS, ExperimentResult
from repro.workloads.mpeg import MpegVbrModel


def run(frames: int = 3000, seed: int = 7,
        capacity_ips: int = DEFAULT_CAPACITY_IPS) -> ExperimentResult:
    """Generate a VBR trace and summarize its two-timescale variability."""
    model = MpegVbrModel(seed=seed)
    costs = model.frame_costs(frames)
    # decode time in ms on the reference CPU
    times_ms = [cost / capacity_ips * 1000.0 for cost in costs]

    by_type = {"I": [], "P": [], "B": []}
    for index, t in enumerate(times_ms):
        by_type[model.frame_type(index)].append(t)

    # scene-level: average decode time over one-second blocks of video
    frames_per_second = model.frame_rate
    second_means = [
        mean(times_ms[i:i + frames_per_second])
        for i in range(0, len(times_ms) - frames_per_second + 1,
                       frames_per_second)
    ]

    rows = [
        ["all frames", len(times_ms), mean(times_ms), stdev(times_ms),
         coefficient_of_variation(times_ms)],
    ]
    for ftype in "IPB":
        values = by_type[ftype]
        rows.append(["%s frames" % ftype, len(values), mean(values),
                     stdev(values), coefficient_of_variation(values)])
    rows.append(["per-second means", len(second_means), mean(second_means),
                 stdev(second_means),
                 coefficient_of_variation(second_means)])

    notes = [
        "frame-level CoV %.3f (frame-to-frame variability, tens of ms)"
        % coefficient_of_variation(times_ms),
        "scene-level CoV %.3f (scene-to-scene variability, seconds)"
        % coefficient_of_variation(second_means),
        "video duration %.1f s at %d fps"
        % (frames / model.frame_rate, model.frame_rate),
    ]
    return ExperimentResult(
        "Figure 1: MPEG decode-time variability",
        ["group", "n", "mean ms", "stdev ms", "CoV"],
        rows, notes=notes,
        series={"decode_ms": times_ms, "per_second_ms": second_means})


def main() -> None:
    """Regenerate this experiment at full scale and print it."""
    result = run()
    print(result.render())
    from repro.viz.ascii_chart import sparkline
    print("per-frame decode time:", sparkline(result.series["decode_ms"]))
    print("per-second mean:      ", sparkline(result.series["per_second_ms"]))


if __name__ == "__main__":
    from repro.entry import run_main
    run_main(main)
