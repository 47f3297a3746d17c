"""The campaign runner: fault × workload grids with per-cell seeds.

A *cell* is one (workload, fault schedule, seed) triple.  ``run_cell``
builds the cell's simulation, arms its faults, drives it to the horizon,
and evaluates every oracle; ``run_campaign`` sweeps a grid of cells
across a multiprocessing pool.  Everything is deterministic:

* each cell's seed is derived from the campaign seed and the cell id via
  :func:`repro.sim.rng.derive_seed`, so cells never share RNG state and
  adding a cell never perturbs another;
* cell digests are keyed by thread *names*, never tids;
* reports carry no timestamps or host state — the same campaign seed
  produces a byte-identical report on every run, which CI and the
  acceptance tests assert.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
from typing import Dict, List, Optional, Sequence

from repro.devtools import schedsan
from repro.faultlab.faults import (
    CLUSTER_FAULT_KINDS,
    FAULTS,
    FaultContext,
    build_fault,
    ensure_registered,
)
from repro.faultlab.oracles import evaluate_cell
from repro.faultlab.workloads import STRUCTURED_CELLS, WORKLOADS
from repro.sim.engine import Simulator
from repro.sim.rng import Stream, derive_seed
from repro.threads.states import ThreadState

#: schema version of campaign reports and cell specs
CAMPAIGN_FORMAT = 1

#: the composite schedule every workload also runs
COMPOSITE_KINDS = ("interrupt-storm", "cost-spike", "thread-crash")


class CellSpec:
    """A JSON-able description of one campaign cell."""

    def __init__(self, workload: str, faults: List[Dict[str, object]],
                 seed: int, quick: bool, cell_id: str) -> None:
        self.workload = workload
        self.faults = faults
        self.seed = seed
        self.quick = quick
        self.cell_id = cell_id

    def to_dict(self) -> Dict[str, object]:
        """The wire/report form of this spec."""
        return {"format": CAMPAIGN_FORMAT, "id": self.cell_id,
                "workload": self.workload, "faults": self.faults,
                "seed": self.seed, "quick": self.quick}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CellSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        return cls(workload=str(data["workload"]),
                   faults=list(data.get("faults", ())),  # type: ignore[arg-type]
                   seed=int(data["seed"]),  # type: ignore[arg-type]
                   quick=bool(data.get("quick", True)),
                   cell_id=str(data["id"]))


def default_fault_kinds() -> List[str]:
    """Grid fault kinds: everything registered except self-test and
    cluster-only faults (``host-churn`` needs a cluster context)."""
    return sorted(kind for kind in FAULTS
                  if not kind.startswith("selftest-")
                  and kind not in CLUSTER_FAULT_KINDS)


def default_grid(seed: int, quick: bool = True,
                 workloads: Optional[Sequence[str]] = None,
                 fault_kinds: Optional[Sequence[str]] = None
                 ) -> List[CellSpec]:
    """The standard sweep: baseline + each fault + a composite, per cell."""
    selected = sorted(workloads) if workloads else sorted(WORKLOADS)
    kinds = list(fault_kinds) if fault_kinds else default_fault_kinds()
    specs = []

    def add(workload: str, label: str,
            faults: List[Dict[str, object]]) -> None:
        cell_id = "%s+%s" % (workload, label)
        specs.append(CellSpec(workload, faults, derive_seed(seed, cell_id),
                              quick, cell_id))

    for workload in selected:
        if workload not in WORKLOADS:
            raise ValueError("unknown workload %r (have: %s)"
                             % (workload, ", ".join(sorted(WORKLOADS))))
        add(workload, "none", [])
        for kind in kinds:
            ensure_registered(kind)
            if kind not in FAULTS:
                raise ValueError("unknown fault kind %r (have: %s)"
                                 % (kind, ", ".join(sorted(FAULTS))))
            if kind == "node-churn" and workload not in STRUCTURED_CELLS:
                continue
            add(workload, kind, [{"kind": kind, "params": {}}])
        composite = [{"kind": kind, "params": {}} for kind in COMPOSITE_KINDS]
        add(workload, "composite", composite)
    return specs


def _cell_digest(ctx, fault_log: List[Dict[str, object]],
                 violations: List[object]) -> str:
    """A name-keyed sha256 over everything the simulation produced.

    Deliberately excludes tids and wall-clock state; two runs of the same
    spec must digest identically regardless of what ran before them in
    the process.
    """
    threads = []
    for thread in sorted(ctx.machine.threads, key=lambda t: t.name):
        trace = ctx.recorder.trace_of(thread)
        threads.append({
            "name": thread.name,
            "state": thread.state.name,
            "work": thread.stats.work_done,
            "slices": len(trace.slices),
            "dispatches": thread.stats.dispatches,
            "exited_at": thread.stats.exited_at,
        })
    stats = ctx.machine.stats
    payload = {
        "threads": threads,
        "faults": fault_log,
        "violations": [getattr(v, "rule", str(v)) for v in violations],
        "machine": {
            "dispatches": stats.dispatches,
            "context_switches": stats.context_switches,
            "interrupts": stats.interrupts,
            "preemptions": stats.preemptions,
            "busy_time": stats.busy_time,
            "interrupt_time": stats.interrupt_time,
            "overhead_time": stats.overhead_time,
        },
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def run_cell(spec_dict: Dict[str, object],
             engine: Optional[Simulator] = None) -> Dict[str, object]:
    """Build, fault, run, and judge one cell; returns a JSON-able result.

    Top-level by design: multiprocessing workers import and call it.
    The cell runs on ``engine`` when given, so a caller can subscribe to
    its run bus before the cell spawns anything.
    """
    spec = CellSpec.from_dict(spec_dict)
    root = Stream(spec.seed, spec.cell_id)
    builder = WORKLOADS[spec.workload]
    ctx = builder(engine if engine is not None else Simulator(),
                  root.substream("workload"), spec.quick)

    base = FaultContext(ctx.machine, ctx.engine, ctx.structure,
                        root.substream("faults"), ctx.horizon)
    faults = []
    for index, fault_spec in enumerate(spec.faults):
        ensure_registered(str(fault_spec["kind"]))  # type: ignore[index]
        fault = build_fault(fault_spec)  # type: ignore[arg-type]
        fault.arm(base.for_fault(index, fault.kind))
        faults.append(fault)

    ctx.machine.run_until(ctx.horizon)

    failures = evaluate_cell(ctx, faults)
    violations = ctx.violations()
    alive = sum(1 for t in ctx.machine.threads
                if t.state is not ThreadState.EXITED)
    return {
        "id": spec.cell_id,
        "spec": spec.to_dict(),
        "ok": not failures,
        "failures": failures,
        "counters": {
            "events": ctx.engine.events_fired,
            "dispatches": ctx.machine.stats.dispatches,
            "interrupts": ctx.machine.stats.interrupts,
            "injections": len(base.log),
            "violations": len(violations),
            "threads_alive": alive,
        },
        "digest": _cell_digest(ctx, base.log, violations),
    }


def replay_spec(spec_dict: Dict[str, object]) -> Dict[str, object]:
    """Re-run one cell from its spec (what reproducer scripts call)."""
    return run_cell(spec_dict)


def _crash_result(spec_dict: Dict[str, object],
                  exc: BaseException) -> Dict[str, object]:
    """A structured report cell for a worker that crashed.

    A crash must surface as an ordinary oracle failure — never as a
    missing or half-written cell that turns the report render into a
    KeyError.  The digest is derived from the spec and the exception
    type only, so a crash reproduces byte-identically.
    """
    cell_id = str(spec_dict.get("id", "?"))
    token = "worker-crash:%s:%s" % (cell_id, type(exc).__name__)
    return {
        "id": cell_id,
        "spec": spec_dict,
        "ok": False,
        "failures": [{
            "oracle": "worker-crash",
            "message": "cell crashed before producing a result: %s: %s"
                       % (type(exc).__name__, exc),
        }],
        "counters": {
            "events": 0,
            "dispatches": 0,
            "interrupts": 0,
            "injections": 0,
            "violations": 0,
            "threads_alive": 0,
        },
        "digest": hashlib.sha256(token.encode("utf-8")).hexdigest(),
    }


def run_cell_guarded(spec_dict: Dict[str, object]) -> Dict[str, object]:
    """:func:`run_cell` with crash containment and the isolation twin.

    This is what the campaign pool actually maps over.  Any exception
    escaping the cell becomes a structured ``worker-crash`` failure
    (:func:`_crash_result`); under ``REPRO_SCHEDSAN=1`` the cell is
    additionally bracketed by a :class:`~repro.devtools.schedsan
    .IsolationGuard`.  Lazily registered fault kinds are resolved
    *before* the snapshot — growing the registry is an import-time
    effect, not a leak.
    """
    guard = None
    if schedsan.enabled():
        for fault_spec in spec_dict.get("faults", ()):  # type: ignore[attr-defined]
            ensure_registered(str(fault_spec["kind"]))
        guard = schedsan.IsolationGuard(
            "cell %s" % spec_dict.get("id", "?"))
    try:
        result = run_cell(spec_dict)
    except Exception as exc:
        return _crash_result(spec_dict, exc)
    if guard is not None:
        guard.verify()
    return result


def run_campaign(specs: Sequence[CellSpec], workers: int = 0,
                 seed: int = 0, quick: bool = True) -> Dict[str, object]:
    """Run every cell (optionally across a worker pool); build the report.

    ``workers <= 1`` runs serially in-process (tests, debugging); the
    report is identical either way — results are keyed and sorted by
    cell id, and digests are process-independent.  Under
    ``REPRO_SCHEDSAN=1`` every cell and the merge itself run inside
    isolation guards; the report bytes do not change.
    """
    spec_dicts = [spec.to_dict() for spec in specs]
    guard = None
    if schedsan.enabled():
        for spec in specs:
            for fault_spec in spec.faults:
                ensure_registered(str(fault_spec["kind"]))
        guard = schedsan.IsolationGuard("campaign merge")
    if workers and workers > 1:
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(run_cell_guarded, spec_dicts)
    else:
        results = [run_cell_guarded(spec) for spec in spec_dicts]
    results.sort(key=lambda r: r["id"])  # type: ignore[arg-type,return-value]
    if guard is not None:
        guard.verify()
    failures = sum(1 for r in results if not r["ok"])
    return {
        "format": CAMPAIGN_FORMAT,
        "seed": seed,
        "quick": quick,
        "cells": results,
        "cell_count": len(results),
        "failure_count": failures,
    }


def render_report(report: Dict[str, object]) -> str:
    """Canonical byte-stable JSON rendering of a campaign report."""
    return json.dumps(report, sort_keys=True, indent=1) + "\n"
