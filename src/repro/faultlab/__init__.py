"""faultlab: deterministic fault-injection campaigns for the scheduler.

The paper's central claim is that SFQ stays fair and bounded *even when
CPU bandwidth fluctuates* (§4, the FC/EBF analysis).  faultlab turns that
claim into an adversarial, machine-checked one:

* :mod:`repro.faultlab.faults` — a library of **deterministic fault
  injectors** (interrupt storms, capacity collapse, scheduling-cost
  spikes, thread crash/hang/straggler faults, clock-granularity jitter,
  lost/late timers, mass node churn through the ``hsfq`` API), each
  drawing randomness from a seeded :class:`repro.sim.rng.Stream`
  substream so injectors never collide on RNG state;
* :mod:`repro.faultlab.workloads` — self-contained **workload cells**
  (flat SFQ, the Figure-6 hierarchy, a deep chain and the QoS classes),
  each with a tracing recorder, a collect-mode SCHEDSAN wrapper, and a
  periodic probe thread for the delay-bound oracle;
* :mod:`repro.faultlab.oracles` — per-cell **oracles**: SCHEDSAN
  invariants, the analytical fairness/delay bounds from
  :mod:`repro.analysis` with fault-adjusted slack, QoS admission
  consistency, and liveness (no starved runnable thread);
* :mod:`repro.faultlab.campaign` — the **campaign runner**
  (``python -m repro.faultlab``) sweeping fault × workload grids across
  a multiprocessing pool with per-cell derived seeds, producing a
  byte-stable JSON report;
* :mod:`repro.faultlab.shrink` — the **shrinker**: on oracle failure it
  minimizes the fault schedule (drop faults, then halve parameters) and
  writes a standalone reproducer script replayable from its seed.

Every injection is emitted as a ``fault-inject`` event on the
observability bus when a subscriber is attached, so faults show up on
Perfetto timelines next to the scheduling activity they perturb.  See
docs/ROBUSTNESS.md.
"""

from repro.faultlab.campaign import (
    CellSpec,
    default_grid,
    replay_spec,
    run_campaign,
    run_cell,
)
from repro.faultlab.faults import FAULTS, FaultContext, FaultInjector
from repro.faultlab.oracles import evaluate_cell
from repro.faultlab.shrink import (record_cell_binlog, shrink_spec,
                                   write_reproducer)
from repro.faultlab.workloads import WORKLOADS, CellContext

__all__ = [
    "FAULTS",
    "WORKLOADS",
    "CellContext",
    "CellSpec",
    "FaultContext",
    "FaultInjector",
    "default_grid",
    "evaluate_cell",
    "record_cell_binlog",
    "replay_spec",
    "run_campaign",
    "run_cell",
    "shrink_spec",
    "write_reproducer",
]
