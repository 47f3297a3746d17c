"""Metrics: counters, gauges, and fixed-bucket histograms.

The registry is deliberately minimal — the ``/proc``-file school of
telemetry, not a time-series database: metrics are named, cumulative, and
cheap to update, and :meth:`MetricsRegistry.snapshot` returns plain dicts
ready for JSON or table rendering.

:class:`SchedulerMetrics` is an event-bus capture consumer that derives the
latency distributions the paper reasons about (dispatch latency from
runnable to CPU, run delay from wakeup to CPU, per-charge service quanta)
from the structured event stream, so any instrumented run gets them for
free::

    metrics = SchedulerMetrics()
    with BUS.subscription(metrics):
        machine.run_until(horizon)
    print(metrics.registry.render())
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs import events as ev

#: default histogram bucket upper bounds for nanosecond latencies
#: (10 us .. 1 s, roughly logarithmic)
DEFAULT_LATENCY_BUCKETS_NS: Tuple[int, ...] = (
    10_000, 100_000, 1_000_000, 2_000_000, 5_000_000, 10_000_000,
    20_000_000, 50_000_000, 100_000_000, 500_000_000, 1_000_000_000,
)

#: the kinds a :class:`SchedulerMetrics` folds
_FOLDED = frozenset((ev.RUNNABLE, ev.WAKE, ev.DISPATCH, ev.CHARGE,
                     ev.PREEMPT, ev.INTERRUPT, ev.VIOLATION, ev.EXIT))

#: default bucket upper bounds for per-quantum work (instructions)
DEFAULT_WORK_BUCKETS: Tuple[int, ...] = (
    1_000, 10_000, 100_000, 500_000, 1_000_000, 2_000_000, 5_000_000,
    10_000_000,
)


class Counter:
    """A monotonically increasing named value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counter increments must be non-negative")
        self.value += amount

    def __repr__(self) -> str:
        return "Counter(%s=%d)" % (self.name, self.value)


class Gauge:
    """A named value that can move in both directions."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def set(self, value: float) -> None:
        """Replace the gauge's current value."""
        self.value = value

    def __repr__(self) -> str:
        return "Gauge(%s=%r)" % (self.name, self.value)


class Histogram:
    """A fixed-bucket histogram of non-negative observations.

    ``bounds`` are inclusive upper edges of the buckets, strictly
    increasing; one implicit overflow bucket catches everything larger.
    Only bucket counts are stored (plus min/max/sum), so memory is O(len
    (bounds)) regardless of observation count — the standard
    kernel-histogram trade-off: percentiles are estimates interpolated
    within a bucket, exact at bucket edges.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total",
                 "min_value", "max_value")

    def __init__(self, name: str,
                 bounds: Sequence[int] = DEFAULT_LATENCY_BUCKETS_NS) -> None:
        bounds = tuple(bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError("bucket bounds must be strictly increasing")
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1: overflow bucket
        self.count = 0
        self.total = 0
        self.min_value: Optional[float] = None
        self.max_value: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one observation (must be non-negative)."""
        if value < 0:
            raise ValueError("histogram observations must be non-negative")
        index = bisect.bisect_left(self.bounds, value)
        self.counts[index] += 1
        self.count += 1
        self.total += value
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        if self.count == 0:
            return 0.0
        return self.total / self.count

    def percentile(self, p: float) -> float:
        """Estimated value at percentile ``p`` (0..100).

        Walks the cumulative bucket counts to the target rank and
        interpolates linearly inside the containing bucket; the overflow
        bucket reports the maximum observed value.  Exact whenever all
        observations in the containing bucket sit on its upper edge (the
        property the tests pin down).
        """
        if not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100], got %r" % (p,))
        if self.count == 0:
            return 0.0
        target = p / 100.0 * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= target and bucket_count > 0:
                if index >= len(self.bounds):  # overflow bucket
                    return float(self.max_value or 0)
                lower = self.bounds[index - 1] if index > 0 else 0
                upper = self.bounds[index]
                fraction = (target - previous) / bucket_count
                return lower + (upper - lower) * min(1.0, max(0.0, fraction))
        return float(self.max_value or 0)

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict view: counts per bucket plus summary statistics."""
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min_value,
            "max": self.max_value,
            "mean": self.mean,
            "buckets": [
                {"le": bound, "count": count}
                for bound, count in zip(self.bounds, self.counts)
            ] + [{"le": "inf", "count": self.counts[-1]}],
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def __repr__(self) -> str:
        return "Histogram(%s, n=%d)" % (self.name, self.count)


class MetricsRegistry:
    """A named collection of counters, gauges, and histograms.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: asking twice
    for the same name returns the same object, asking for an existing name
    as a different type raises.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    def _get_or_create(self, name: str, kind: type, *args: Any) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name, *args)
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise ValueError(
                "metric %r already registered as %s"
                % (name, type(metric).__name__))
        return metric

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str,
                  bounds: Sequence[int] = DEFAULT_LATENCY_BUCKETS_NS
                  ) -> Histogram:
        """Get or create the histogram called ``name``.

        ``bounds`` applies only at creation; a second call returns the
        existing histogram unchanged.
        """
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(name, bounds)
            self._metrics[name] = metric
        elif not isinstance(metric, Histogram):
            raise ValueError(
                "metric %r already registered as %s"
                % (name, type(metric).__name__))
        return metric

    def names(self) -> List[str]:
        """Sorted names of every registered metric."""
        return sorted(self._metrics)

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict view of every metric, keyed by name."""
        out: Dict[str, Any] = {}
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                out[name] = metric.snapshot()
            else:
                out[name] = metric.value
        return out

    def render(self) -> str:
        """Human-readable multi-line report of every metric."""
        lines: List[str] = []
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                lines.append(
                    "%-32s n=%-8d mean=%-12.1f p50=%-12.1f p95=%-12.1f "
                    "p99=%.1f" % (name, metric.count, metric.mean,
                                  metric.percentile(50), metric.percentile(95),
                                  metric.percentile(99)))
            else:
                lines.append("%-32s %s" % (name, metric.value))
        return "\n".join(lines)


class SchedulerMetrics:
    """Capture consumer deriving scheduler metrics from the bus records.

    Maintains, in a :class:`MetricsRegistry`:

    * ``sched.dispatches`` / ``sched.preemptions`` / ``sched.charges`` /
      ``sched.interrupts`` / ``sched.violations`` — counters;
    * ``sched.overhead_ns`` / ``sched.interrupt_ns`` — cumulative stolen
      time counters;
    * ``sched.dispatch_latency_ns`` — histogram of runnable→dispatch
      delays (the paper's scheduling-delay quantity, Figure 9's x-axis);
    * ``sched.run_delay_ns`` — histogram of wakeup→dispatch delays;
    * ``sched.quantum_work`` — histogram of per-charge service lengths;
    * ``sched.quantum_overrun_work`` — histogram of work charged beyond
      the granted quantum (0 everywhere in this simulator; the metric
      exists so a regressing machine shows up immediately).

    Subscribe it to a bus (``BUS.subscription(metrics)``) and read
    ``metrics.registry`` afterwards.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._runnable_at: Dict[int, int] = {}
        self._woke_at: Dict[int, int] = {}
        self._granted: Dict[int, int] = {}
        reg = self.registry
        self._dispatches = reg.counter("sched.dispatches")
        self._preemptions = reg.counter("sched.preemptions")
        self._charges = reg.counter("sched.charges")
        self._interrupts = reg.counter("sched.interrupts")
        self._violations = reg.counter("sched.violations")
        self._overhead = reg.counter("sched.overhead_ns")
        self._interrupt_ns = reg.counter("sched.interrupt_ns")
        self._dispatch_latency = reg.histogram("sched.dispatch_latency_ns")
        self._run_delay = reg.histogram("sched.run_delay_ns")
        self._quantum_work = reg.histogram("sched.quantum_work",
                                           DEFAULT_WORK_BUCKETS)
        self._overrun = reg.histogram("sched.quantum_overrun_work",
                                      DEFAULT_WORK_BUCKETS)

    def capture(self, shape: ev.Shape, time: int, values: Tuple[Any, ...]
                ) -> None:
        """Record entry point: fold one record into the registry."""
        kind = shape.kind
        if kind not in _FOLDED:
            return
        data = dict(zip(shape.fields, values))
        if kind == ev.RUNNABLE:
            self._runnable_at.setdefault(data["tid"], time)
        elif kind == ev.WAKE:
            self._woke_at[data["tid"]] = time
        elif kind == ev.DISPATCH:
            tid = data["tid"]
            self._dispatches.inc()
            self._overhead.inc(data.get("overhead_ns", 0))
            runnable_at = self._runnable_at.pop(tid, None)
            if runnable_at is not None:
                self._dispatch_latency.observe(time - runnable_at)
            woke_at = self._woke_at.pop(tid, None)
            if woke_at is not None:
                self._run_delay.observe(time - woke_at)
            self._granted[tid] = data.get("quantum_work", 0)
        elif kind == ev.CHARGE:
            tid = data["tid"]
            work = data["work"]
            self._charges.inc()
            self._quantum_work.observe(work)
            granted = self._granted.pop(tid, None)
            if granted:
                self._overrun.observe(max(0, work - granted))
        elif kind == ev.PREEMPT:
            self._preemptions.inc()
        elif kind == ev.INTERRUPT:
            self._interrupts.inc()
            self._interrupt_ns.inc(data.get("service", 0))
        elif kind == ev.VIOLATION:
            self._violations.inc()
        else:  # ev.EXIT
            tid = data.get("tid")
            self._runnable_at.pop(tid, None)
            self._woke_at.pop(tid, None)
            self._granted.pop(tid, None)
