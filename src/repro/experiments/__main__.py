"""Run every experiment and print a full report.

Usage::

    python -m repro.experiments            # all figures + ablations
    python -m repro.experiments --quick    # reduced durations (~1 s)
    python -m repro.experiments figure8 ab6  # a selection

The per-figure modules remain runnable on their own
(``python -m repro.experiments.figure8``).
"""

from __future__ import annotations

import sys
import time

from repro.experiments import (
    ablation_bounds,
    ablation_currency,
    ablation_delay,
    ablation_fairness,
    ablation_fluctuation,
    ablation_lottery,
    ablation_overload,
    ablation_reserves,
    ablation_tagmath,
    extension_smp,
    figure1,
    figure3,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
)
from repro.units import SECOND

#: name -> (full-scale runner, quick runner)
EXPERIMENTS = {
    "figure1": (lambda: figure1.run(frames=3000),
                lambda: figure1.run(frames=600)),
    "figure3": (figure3.run, figure3.run),
    "figure5": (lambda: figure5.run(duration=30 * SECOND),
                lambda: figure5.run(duration=10 * SECOND)),
    "figure6": (figure6.run, figure6.run),
    "figure7a": (lambda: figure7.run_thread_sweep(20, 5 * SECOND),
                 lambda: figure7.run_thread_sweep(6, 2 * SECOND)),
    "figure7b": (lambda: figure7.run_depth_sweep(30, 5, 5, 5 * SECOND),
                 lambda: figure7.run_depth_sweep(20, 10, 3, 2 * SECOND)),
    "figure8a": (lambda: figure8.run_partitioning(duration=20 * SECOND),
                 lambda: figure8.run_partitioning(duration=8 * SECOND)),
    "figure8b": (lambda: figure8.run_isolation(duration=20 * SECOND),
                 lambda: figure8.run_isolation(duration=8 * SECOND)),
    "figure9": (lambda: figure9.run(duration=20 * SECOND),
                lambda: figure9.run(duration=8 * SECOND)),
    "figure10": (lambda: figure10.run(duration=20 * SECOND),
                 lambda: figure10.run(duration=8 * SECOND)),
    "figure11": (figure11.run, figure11.run),
    "ab1": (lambda: ablation_fluctuation.run(duration=20 * SECOND),
            lambda: ablation_fluctuation.run(duration=8 * SECOND)),
    "ab2": (lambda: ablation_bounds.run(duration=20 * SECOND),
            lambda: ablation_bounds.run(duration=8 * SECOND)),
    "ab3": (lambda: ablation_fairness.run(duration=20 * SECOND),
            lambda: ablation_fairness.run(duration=8 * SECOND)),
    "ab4": (lambda: ablation_tagmath.run(duration=10 * SECOND),
            lambda: ablation_tagmath.run(duration=4 * SECOND)),
    "ab5": (lambda: ablation_lottery.run(duration=30 * SECOND),
            lambda: ablation_lottery.run(duration=10 * SECOND)),
    "ab6": (lambda: ablation_overload.run(duration=20 * SECOND),
            lambda: ablation_overload.run(duration=8 * SECOND)),
    "ab7": (lambda: ablation_currency.run(duration=30 * SECOND),
            lambda: ablation_currency.run(duration=10 * SECOND)),
    "ab8": (lambda: ablation_reserves.run(duration=30 * SECOND),
            lambda: ablation_reserves.run(duration=12 * SECOND)),
    "ab9": (lambda: ablation_delay.run(duration=30 * SECOND),
            lambda: ablation_delay.run(duration=10 * SECOND)),
    "smp": (lambda: extension_smp.run(duration=10 * SECOND),
            lambda: extension_smp.run(duration=4 * SECOND)),
}


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    args = list(sys.argv[1:] if argv is None else argv)
    quick = "--quick" in args
    if quick:
        args.remove("--quick")
    names = args or list(EXPERIMENTS)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        print("unknown experiment(s): %s" % ", ".join(unknown))
        print("available: %s" % ", ".join(EXPERIMENTS))
        return 2
    for name in names:
        full, reduced = EXPERIMENTS[name]
        runner = reduced if quick else full
        started = time.perf_counter()
        result = runner()
        elapsed = time.perf_counter() - started
        print("=" * 72)
        print("[%s] regenerated in %.2f s" % (name, elapsed))
        print(result.render())
        print()
    return 0


if __name__ == "__main__":
    from repro.entry import run_main
    run_main(main)
