"""Cross-engine equivalence gate (``python -m repro.devtools.enginediff``).

The compiled engine (``REPRO_ENGINE=compiled``) is only allowed to be
*faster* than the pure-python reference — never different.  This tool
replays two canonical workloads under both engines in separate
subprocesses and byte-compares two probes per workload:

``trace``
    The full observability-bus event stream (tracing active, so both
    engines run their traced paths).  One formatted line per event.

``schedstat``
    An untraced run — the regime where the compiled turbo tick/wake
    paths actually engage — followed by a canonical dump of every
    machine, engine, and per-thread counter.  If a compiled fast path
    drops or double-counts anything, it shows up here.

Workloads:

``figure5``
    The paper's Figure-5 SFQ arm (flat scheduler, mixed dhrystone and
    interactive load) — the fixture the golden-trace suite also pins.

``depth8``
    A depth-8 hierarchy with churning interactive leaves and CPU hogs —
    the shape that maximizes per-event chain walks, and the one the
    perfkit ``deep_hierarchy`` scenario benchmarks.

Exit status is non-zero on any divergence, and the differing streams are
written to the output directory (default ``build/enginediff``) so CI can
upload them as a diff artifact.
"""

from __future__ import annotations

import argparse
import difflib
import itertools
import os
import subprocess
import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.hierarchy import HierarchicalScheduler
from repro.core.structure import SchedulingStructure
from repro.core.tags import FLOAT
from repro.cpu.flat import FlatScheduler
from repro.cpu.machine import Machine
from repro.obs import events as obs
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.sim.engine import Simulator
from repro.sim.rng import make_rng
from repro.threads.thread import SimThread
from repro.units import MS, SECOND
from repro.workloads.dhrystone import DhrystoneWorkload
from repro.workloads.interactive import InteractiveWorkload

__all__ = ["SCENARIOS", "PROBES", "emit", "format_event", "run_gate", "main"]

ENGINES = ("pure", "compiled")
PROBES = ("trace", "schedstat")

#: machine run produced by a scenario builder: (machine, threads, horizon)
ScenarioRun = Tuple[Machine, List[SimThread], int]


def _reset_global_counters() -> None:
    """Pin the process-global tid sequence so streams ignore import order."""
    import repro.threads.thread as thread_module

    thread_module._tid_counter = itertools.count(1)


def _figure5() -> ScenarioRun:
    engine = Simulator()
    machine = Machine(engine, FlatScheduler(SfqScheduler()),
                      capacity_ips=100_000_000, default_quantum=20 * MS)
    threads = []
    for index in range(5):
        threads.append(SimThread("dhry-%d" % index,
                                 DhrystoneWorkload(300, 10_000)))
    for index in range(2):
        rng = make_rng(11, "daemon/%d" % index)
        threads.append(SimThread(
            "daemon-%d" % index,
            InteractiveWorkload(burst_work=400_000, think_time=120 * MS,
                                rng=rng)))
    for thread in threads:
        machine.spawn(thread)
    return machine, threads, 2 * SECOND


def _depth8() -> ScenarioRun:
    structure = SchedulingStructure(FLOAT)
    leaves = []
    for top in range(4):
        node = structure.mknod("g%d" % top, 1 + top % 3)
        for level in range(2, 8):
            node = structure.mknod("c%d" % level, 1, parent=node)
        leaves.append(structure.mknod("leaf", 1, parent=node,
                                      scheduler=SfqScheduler(FLOAT)))
    engine = Simulator()
    machine = Machine(engine, HierarchicalScheduler(structure),
                      capacity_ips=100_000_000, default_quantum=2 * MS)
    threads = []
    for index, leaf in enumerate(leaves):
        rng = make_rng(17, "churn/%d" % index)
        churn = SimThread(
            "churn-%d" % index,
            InteractiveWorkload(burst_work=150_000, think_time=8 * MS,
                                rng=rng))
        leaf.attach_thread(churn)
        threads.append(churn)
        if index % 2 == 0:
            hog = SimThread("hog-%d" % index, DhrystoneWorkload(300, 5_000))
            leaf.attach_thread(hog)
            threads.append(hog)
    for thread in threads:
        machine.spawn(thread)
    return machine, threads, 2 * SECOND


SCENARIOS: Dict[str, Callable[[], ScenarioRun]] = {
    "figure5": _figure5,
    "depth8": _depth8,
}


def format_event(event: obs.Event) -> str:
    """One canonical text line per bus event (sorted fields, repr values)."""
    fields = ",".join(
        "%s=%r" % (key, event.data[key]) for key in sorted(event.data))
    return "%s t=%d %s" % (event.kind, event.time, fields)


def _trace_lines(builder: Callable[[], ScenarioRun]) -> List[str]:
    _reset_global_counters()
    lines: List[str] = []
    with obs.BUS.subscription(
            lambda event: lines.append(format_event(event))):
        machine, __, horizon = builder()
        machine.run_until(horizon)
    return lines


def _schedstat_lines(builder: Callable[[], ScenarioRun]) -> List[str]:
    _reset_global_counters()
    machine, threads, horizon = builder()
    machine.run_until(horizon)
    engine = machine.engine
    stats = machine.stats
    lines = [
        "engine events_fired=%d now=%d pending=%d"
        % (engine.events_fired, engine.now, engine.pending_events),
        "machine busy_time=%d interrupt_time=%d overhead_time=%d "
        "dispatches=%d context_switches=%d interrupts=%d pauses=%d "
        "preemptions=%d"
        % (stats.busy_time, stats.interrupt_time, stats.overhead_time,
           stats.dispatches, stats.context_switches, stats.interrupts,
           stats.pauses, stats.preemptions),
    ]
    for thread in threads:
        t = thread.stats
        markers = ",".join(
            "%s=%d" % (key, t.markers[key]) for key in sorted(t.markers))
        lines.append(
            "thread %s state=%s remaining=%d work_done=%d cpu_time=%d "
            "dispatches=%d preemptions=%d blocks=%d wakeups=%d "
            "segments=%d exited_at=%r markers=[%s]"
            % (thread.name, thread.state.value, thread.remaining_work,
               t.work_done, t.cpu_time, t.dispatches, t.preemptions,
               t.blocks, t.wakeups, t.segments_completed, t.exited_at,
               markers))
    return lines


def emit(scenario: str, probe: str) -> str:
    """Canonical text for one (scenario, probe) cell, current engine."""
    builder = SCENARIOS[scenario]
    if probe == "trace":
        lines = _trace_lines(builder)
    elif probe == "schedstat":
        lines = _schedstat_lines(builder)
    else:
        raise ValueError("unknown probe %r (expected one of %r)"
                         % (probe, PROBES))
    return "\n".join(lines) + "\n"


def _run_cell(engine: str, scenario: str, probe: str) -> bytes:
    env = dict(os.environ)
    env["REPRO_ENGINE"] = engine
    result = subprocess.run(
        [sys.executable, "-m", "repro.devtools.enginediff",
         "--emit", "%s:%s" % (scenario, probe)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if result.returncode != 0:
        raise RuntimeError(
            "enginediff cell %s/%s failed under REPRO_ENGINE=%s:\n%s"
            % (scenario, probe, engine,
               result.stderr.decode("utf-8", "replace")))
    return result.stdout


def run_gate(out_dir: str, scenarios: List[str]) -> int:
    """Replay ``scenarios`` under both engines; return the mismatch count.

    Matching cells print one OK line each; differing cells dump both
    streams plus a unified diff under ``out_dir``.
    """
    os.makedirs(out_dir, exist_ok=True)
    mismatches = 0
    for scenario in scenarios:
        for probe in PROBES:
            pure = _run_cell("pure", scenario, probe)
            compiled = _run_cell("compiled", scenario, probe)
            if pure == compiled:
                print("OK   %-8s %-9s %7d bytes identical"
                      % (scenario, probe, len(pure)))
                continue
            mismatches += 1
            base = os.path.join(out_dir, "%s_%s" % (scenario, probe))
            with open(base + ".pure.txt", "wb") as handle:
                handle.write(pure)
            with open(base + ".compiled.txt", "wb") as handle:
                handle.write(compiled)
            diff = difflib.unified_diff(
                pure.decode("utf-8", "replace").splitlines(keepends=True),
                compiled.decode("utf-8", "replace").splitlines(keepends=True),
                fromfile="%s/%s pure" % (scenario, probe),
                tofile="%s/%s compiled" % (scenario, probe))
            with open(base + ".diff", "w", encoding="utf-8") as handle:
                handle.writelines(diff)
            print("DIFF %-8s %-9s engines diverge -> %s.diff"
                  % (scenario, probe, base))
    return mismatches


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status (1 = diverged)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.enginediff",
        description="byte-compare the pure and compiled engines")
    parser.add_argument("--emit", metavar="SCENARIO:PROBE",
                        help="internal: print one cell for the current "
                             "engine and exit")
    parser.add_argument("--scenario", choices=sorted(SCENARIOS),
                        action="append",
                        help="limit to one scenario (repeatable; "
                             "default: all)")
    parser.add_argument("--out", default=os.path.join("build", "enginediff"),
                        help="directory for diff artifacts "
                             "(default: build/enginediff)")
    args = parser.parse_args(argv)
    if args.emit:
        scenario, _, probe = args.emit.partition(":")
        sys.stdout.write(emit(scenario, probe))
        return 0
    scenarios = args.scenario or sorted(SCENARIOS)
    mismatches = run_gate(args.out, scenarios)
    if mismatches:
        print("enginediff: %d cell(s) diverged" % mismatches)
        return 1
    print("enginediff: engines byte-identical across %d scenario(s)"
          % len(scenarios))
    return 0


if __name__ == "__main__":
    sys.exit(main())
