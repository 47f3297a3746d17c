"""EXP-F7 — Figure 7: overhead of the hierarchical scheduler.

(a) Ratio of aggregate Dhrystone throughput under the hierarchical
    scheduler (threads in node SFQ-1 of the Figure 6 structure) to the
    "unmodified kernel" (flat SVR4 machine), as the thread count grows
    1..20.  The paper measures within 1%.
(b) The same ratio as pass-through internal nodes are interposed between
    the root and SFQ-1 (depth 0..30).  The paper measures within 0.2%.

On a simulator, overhead exists only if modelled: both machines charge a
per-dispatch cost from the same :class:`LinearCostModel`, with the
hierarchical machine paying an additional per-tree-level term — so the
reported ratios reflect the algorithmic cost difference, not Python speed.
(Wall-clock costs of this implementation's pick/charge path are measured
separately by the pytest benchmarks.)
"""

from __future__ import annotations

from repro.cpu.costs import LinearCostModel
from repro.experiments.common import (
    DEFAULT_CAPACITY_IPS,
    ExperimentResult,
    FlatSetup,
    HierarchicalSetup,
    figure6_structure,
    spawn_dhrystones,
)
from repro.schedulers.svr4 import Svr4TimeSharing
from repro.units import MS, SECOND, US
from repro.workloads.dhrystone import loops_completed


def _total_loops_hierarchical(threads: int, depth: int, duration: int,
                              quantum: int, cost_model: LinearCostModel) -> int:
    structure, sfq1, __, __ = figure6_structure(interposed_depth=depth)
    setup = HierarchicalSetup(structure, capacity_ips=DEFAULT_CAPACITY_IPS,
                              default_quantum=quantum, cost_model=cost_model)
    workers = spawn_dhrystones(setup, sfq1, threads)
    setup.machine.run_until(duration)
    return sum(loops_completed(t) for t in workers)


def _total_loops_flat(threads: int, duration: int, quantum: int,
                      cost_model: LinearCostModel) -> int:
    setup = FlatSetup(Svr4TimeSharing(), capacity_ips=DEFAULT_CAPACITY_IPS,
                      default_quantum=quantum, cost_model=cost_model)
    workers = spawn_dhrystones(setup, None, threads)
    setup.machine.run_until(duration)
    return sum(loops_completed(t) for t in workers)


def run_thread_sweep(max_threads: int = 20, duration: int = 5 * SECOND,
                     quantum: int = 20 * MS) -> ExperimentResult:
    """Figure 7(a): overhead ratio versus number of threads."""
    cost_model = LinearCostModel(base_ns=2 * US, per_level_ns=1 * US,
                                 context_switch_ns=10 * US)
    rows = []
    for threads in range(1, max_threads + 1):
        hier = _total_loops_hierarchical(threads, 0, duration, quantum,
                                         cost_model)
        flat = _total_loops_flat(threads, duration, quantum, cost_model)
        rows.append([threads, hier, flat, hier / flat])
    ratios = [row[3] for row in rows]
    notes = [
        "worst ratio %.4f (paper: within 1%% of unmodified kernel)"
        % min(ratios),
    ]
    return ExperimentResult(
        "Figure 7(a): hierarchical/unmodified throughput vs thread count",
        ["threads", "hier loops", "flat loops", "ratio"], rows, notes=notes,
        series={"ratio": ratios})


def run_depth_sweep(max_depth: int = 30, step: int = 5, threads: int = 5,
                    duration: int = 5 * SECOND,
                    quantum: int = 20 * MS) -> ExperimentResult:
    """Figure 7(b): throughput versus depth of the hierarchy."""
    cost_model = LinearCostModel(base_ns=2 * US, per_level_ns=1 * US,
                                 context_switch_ns=10 * US)
    baseline = None
    rows = []
    for depth in range(0, max_depth + 1, step):
        loops = _total_loops_hierarchical(threads, depth, duration, quantum,
                                          cost_model)
        if baseline is None:
            baseline = loops
        rows.append([depth, loops, loops / baseline])
    ratios = [row[2] for row in rows]
    notes = [
        "deepest/shallowest throughput ratio %.4f (paper: within 0.2%%)"
        % min(ratios),
    ]
    return ExperimentResult(
        "Figure 7(b): throughput vs depth of hierarchy",
        ["interposed depth", "loops", "ratio vs depth 0"], rows, notes=notes,
        series={"ratio": ratios})


def main() -> None:
    """Regenerate this experiment at full scale and print it."""
    print(run_thread_sweep().render())
    print()
    print(run_depth_sweep().render())


if __name__ == "__main__":
    from repro.entry import run_main
    run_main(main)
