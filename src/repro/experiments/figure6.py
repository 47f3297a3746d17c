"""EXP-F6 — Figure 6: the scheduling structure used for the experiments.

Figure 6 in the paper is a diagram, not a measurement: the tree with
nodes SFQ-1, SFQ-2, and SVR4 under the root that Figures 7-9 run on.
This module builds that structure (via the same builder every other
experiment uses) and renders it, so the reproduction has a one-command
counterpart for every numbered figure.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, figure6_structure
from repro.viz.tree import render_structure


def run(sfq1_weight: int = 2, sfq2_weight: int = 6,
        svr4_weight: int = 1) -> ExperimentResult:
    """Build and describe the Figure 6 structure."""
    structure, sfq1, sfq2, svr4 = figure6_structure(
        sfq1_weight, sfq2_weight, svr4_weight)
    rows = []
    for node in structure.iter_nodes():
        if node.parent is None:
            continue
        kind = ("leaf:%s" % node.scheduler.algorithm
                if node.is_leaf else "internal")
        rows.append([node.path, node.weight, kind])
    notes = [
        "rendered tree:",
    ] + render_structure(structure).splitlines()
    return ExperimentResult(
        "Figure 6: scheduling structure used for the experiments",
        ["node", "weight", "kind"], rows, notes=notes)


def main() -> None:
    """Regenerate this experiment at full scale and print it."""
    result = run()
    print(result.render())


if __name__ == "__main__":
    from repro.entry import run_main
    run_main(main)
