"""repro.obs — runtime observability for the hierarchical scheduler.

The package provides four layers, designed so that an un-instrumented run
pays (almost) nothing:

* :mod:`repro.obs.events` — the **event bus** of typed, timestamped
  ``(shape, time, values)`` records (dispatch, preempt, block, wake,
  charge, tag-update, vtime-advance, interrupt, sanitizer-violation,
  ...), which every subscriber takes as emitted.  Each run emits on its
  simulator's bus (the process-wide ``BUS`` unless a tracer gave the
  run a private one).  Emit sites in the machines, the hierarchy, and
  the fair-queuing baselines are guarded by ``self._bus.active``, so
  with no subscriber attached nothing is built and simulation results
  are byte-identical to an un-instrumented build.
* :mod:`repro.obs.metrics` — counters, gauges, and fixed-bucket latency
  histograms with a ``snapshot()`` API, plus :class:`SchedulerMetrics`, a
  bus capture consumer that derives dispatch latency, run delay, and
  quantum statistics from the record stream.
* :mod:`repro.obs.schedstat` — per-node cumulative scheduling statistics
  rendered as a ``/proc/schedstat``-style text tree from the live
  scheduling structure.
* :mod:`repro.obs.chrometrace` — Trace Event Format (Chrome tracing /
  Perfetto) export of an event stream; the JSON loads directly in
  ``ui.perfetto.dev``.

``python -m repro.obs demo`` runs a hierarchical example with everything
attached; ``python -m repro.obs report trace.json`` summarizes a previously
exported trace.  See ``docs/OBSERVABILITY.md``.

Only the dependency-free submodules are imported here (the emit sites in
``repro.core`` and the machines import :mod:`repro.obs.events`, so this
package initializer must not import them back).
"""

from repro.obs.events import BUS, EventBus
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SchedulerMetrics,
)

__all__ = [
    "BUS", "EventBus",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "SchedulerMetrics",
]
