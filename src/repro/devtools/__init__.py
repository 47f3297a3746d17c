"""Correctness tooling for the reproduction.

Three layers guard the properties everything else relies on —
determinism of the simulator and the SFQ / leaf-scheduler contracts:

* :mod:`repro.devtools.schedlint` — a static (AST) checker with per-rule
  codes (``SL001``...), run as ``python -m repro.devtools.schedlint src/``.
  It catches the regressions a diff reviewer cannot see: wall-clock reads,
  unseeded randomness, unordered-set iteration in dispatch paths, float
  drift in tag arithmetic, and leaf schedulers silently departing from the
  :class:`~repro.schedulers.base.LeafScheduler` contract.
* :mod:`repro.devtools.schedflow` — a whole-program dataflow checker
  (``SF101``...), run as ``python -m repro.devtools.schedflow src/repro``.
  It follows facts across functions: host taint, units, shared state
  and worker-pool safety.
* :mod:`repro.devtools.schedsan` — SCHEDSAN, an opt-in runtime sanitizer
  (``REPRO_SCHEDSAN=1``) that audits every scheduler interaction a machine
  makes and reports invariant violations with the offending node path and
  simulation time.

No layer imports anything outside the standard library, and none
costs anything when not in use: the two checkers run offline, SCHEDSAN
is a no-op unless the environment variable is set.
"""
