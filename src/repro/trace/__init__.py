"""Tracing and measurement.

* :mod:`repro.trace.recorder` — an event-bus subscriber recording
  execution slices, lifecycle events, and interrupts;
* :mod:`repro.trace.metrics` — service curves, windowed throughput,
  response times, and real-time latency/slack series;
* :mod:`repro.trace.timeline` — execution order reconstruction (Gantt-like)
  used by the Figure 3 golden test and the text charts.
"""

from repro.trace.metrics import (
    cumulative_work_series,
    latency_slack,
    response_times,
    throughput_series,
)
from repro.trace.recorder import Recorder
from repro.trace.timeline import execution_order, merge_timeline

__all__ = [
    "Recorder",
    "throughput_series",
    "cumulative_work_series",
    "response_times",
    "latency_slack",
    "execution_order",
    "merge_timeline",
]
