"""schedflow: interprocedural dataflow analysis for the scheduler codebase.

Where schedlint (PR 1) checks one statement at a time, schedflow builds a
per-function control-flow graph and a project-wide call graph over
``src/repro/`` and runs fixed-point dataflow passes across function
boundaries.  Five rule families guard the properties the paper's
guarantees rest on:

========  ==============================================================
code       meaning
========  ==============================================================
SF101      host time/entropy/env value flows into simulator state
SF102      host time/entropy/env value flows into a simulator API call
SF201      mixed-unit arithmetic or comparison (e.g. seconds + instructions)
SF202      ``==``/``!=`` between a virtual-time tag and a float literal
SF203      wrong-unit argument to a unit-typed signature
SF204      direct ``.weight = ...`` mutation bypassing ``set_weight``
SF205      magic time literal (1_000_000_000) instead of ``units.SECOND``
SF301      owned scheduler state written outside its owning module
SF302      hsfq path operated on after ``hsfq_rmnod`` removed it
SF401      module-level mutable state written from worker-pool context
SF402      completion-order-dependent merge of pool results
SF403      fork-unsafe RNG use bypassing ``derive_seed``/``substream``
SF404      lambda or nested function crossing a pool boundary
SF405      event-bus subscriber mutating foreign state from emit context
SF406      ``os.environ`` read inside a worker-pool entrypoint
SF501      C layout enums disagree with the Python ``_cview``/``_state``
SF502      pure-engine arena mutation with no compiled-twin counterpart
SF503      C fast path skips an observability gate its bailout checks
SF504      C-API refcount leak, unchecked NULL or borrowed-ref escape
SF505      ``PyArg_Parse*``/``Py_BuildValue`` format/type mismatch
========  ==============================================================

The SF4xx family (``repro.devtools.schedflow.parallel``) computes a
may-happen-in-parallel relation from the call graph plus every pool
``submit``/``map`` site, then checks that nothing mutable escapes a
worker boundary except through the deterministic merge paths faultlab
established.  Its runtime twin is SCHEDSAN's isolation guard
(``REPRO_SCHEDSAN=1``): what the pass proves cannot be written, the
guard asserts was not written.

SF204 is the static face of SCHEDSAN's dormant-weight-change invariant
(``repro.devtools.schedsan``, rule ``dormant-weight-warp``): a weight
written directly while a node is dormant warps v(t) in a way §3 of the
paper forbids; ``set_weight`` is the sanctioned mutator that SCHEDSAN can
observe.

schedflow shares schedlint's suppression syntax (``# schedflow:
disable=SF201``, ``# noqa: SF201``, file-level ``disable-file=``), its
``# schedlint-fixture-module:`` directive, and its exit-code convention
(0 clean / 1 findings / 2 crash).  The CLI adds ``--sarif`` output for
GitHub inline annotations and ``--baseline`` files for adopting the
tool on a tree with pre-existing findings.
"""

from __future__ import annotations

from repro.devtools.schedflow.engine import (
    RULES,
    analyze_paths,
    analyze_project,
)

__all__ = ["RULES", "analyze_paths", "analyze_project"]
