"""Orchestration: run every pass over a project and filter suppressions.

schedflow reuses schedlint's suppression machinery wholesale — the
``# schedflow: disable=...`` / ``# noqa:`` comments, multi-line
statement spans, file-level disables, and the fixture-module directive
all behave identically across both tools.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.devtools.schedlint import (
    Finding,
    _span_for,
    _statement_spans,
    _suppressed,
    _suppressions,
)
from repro.devtools.schedflow.parallel import ParallelPass
from repro.devtools.schedflow.project import ProjectIndex
from repro.devtools.schedflow.shared import SharedStatePass
from repro.devtools.schedflow.taint import TaintPass
from repro.devtools.schedflow.unitrules import UnitsPass

__all__ = ["RULES", "analyze_project", "analyze_paths"]

#: the rule catalogue: code -> (name, summary); drives --list-rules and SARIF
RULES: Dict[str, Tuple[str, str]] = {
    "SF101": ("taint-to-state",
              "host time/entropy/env value flows into simulator state"),
    "SF102": ("taint-to-sim-api",
              "host time/entropy/env value reaches the simulation event API"),
    "SF201": ("mixed-units",
              "arithmetic or comparison between different units"),
    "SF202": ("float-tag-compare",
              "==/!= between a virtual-time tag and a float literal"),
    "SF203": ("wrong-unit-argument",
              "argument unit conflicts with the callee's declared unit"),
    "SF204": ("direct-weight-store",
              ".weight store bypassing set_weight (see SCHEDSAN "
              "dormant-weight-warp)"),
    "SF205": ("magic-time-literal",
              "1_000_000_000-style literal instead of a units constant"),
    "SF301": ("ownership",
              "owned scheduler state stored outside its owning module"),
    "SF302": ("hsfq-use-after-rmnod",
              "hsfq call on a node id after hsfq_rmnod removed it"),
    "SF401": ("worker-shared-write",
              "module-level mutable state written from worker context"),
    "SF402": ("unordered-merge",
              "completion-order-dependent merge of pool results"),
    "SF403": ("fork-unsafe-rng",
              "worker-context RNG bypassing derive_seed/Stream.substream"),
    "SF404": ("unpicklable-boundary",
              "lambda or nested function crossing a pool boundary"),
    "SF405": ("emit-context-mutation",
              "event-bus subscriber mutating foreign state from emit "
              "context"),
    "SF406": ("worker-env-read",
              "os.environ/os.getenv read inside a pool entrypoint"),
}

_PASSES = (TaintPass, UnitsPass, SharedStatePass, ParallelPass)


def analyze_project(index: ProjectIndex,
                    select: Optional[Iterable[str]] = None) -> List[Finding]:
    """Run all passes; returns deduped, suppression-filtered findings."""
    wanted = set(select) if select is not None else None
    raw: List[Finding] = []
    for pass_cls in _PASSES:
        raw.extend(pass_cls(index).run())

    # fixed-point passes visit statements repeatedly; dedup per site
    seen = set()
    findings: List[Finding] = []
    for finding in raw:
        if wanted is not None and finding.code not in wanted:
            continue
        key = (finding.path, finding.line, finding.col,
               finding.code, finding.message)
        if key not in seen:
            seen.add(key)
            findings.append(finding)

    # per-file suppression filtering, shared with schedlint
    by_path: Dict[str, List[Finding]] = {}
    for finding in findings:
        by_path.setdefault(finding.path, []).append(finding)
    kept: List[Finding] = []
    for entry in index.entries:
        batch = by_path.pop(entry.path, [])
        if not batch:
            continue
        per_line, whole_file = _suppressions(entry.source)
        spans = _statement_spans(entry.tree) if per_line else ()
        for finding in batch:
            span = _span_for(finding.line, spans) if per_line else None
            if not _suppressed(finding, per_line, whole_file, span):
                kept.append(finding)
    for batch in by_path.values():  # findings in files we did not parse
        kept.extend(batch)
    kept.sort(key=Finding.sort_key)
    return kept


def analyze_paths(paths: Iterable[str],
                  select: Optional[Iterable[str]] = None) -> List[Finding]:
    """Load ``paths`` as one project and analyze it."""
    return analyze_project(ProjectIndex.load(paths), select=select)
