"""Per-layer spans for the traced run, recorded from the benchmark's side.

:class:`LayerTracer` replaces the public entry points of each simulator
layer with wrappers that keep spans on an in-memory stack and count calls.
A span's *self time* is its duration minus the time covered by its child
spans, so every host second inside a wrapped call lands in exactly one
layer.  Nothing is written while the run is in progress; :meth:`report`
reads the totals afterwards.

Each name is wrapped where its caller looks it up: a class attribute for
method calls (``scheduler.pick_next``), the importing module's global for
functions imported by name (``repro.core.hierarchy`` binds ``charge_chain``
and friends at import time, so patching ``repro.core.sfq`` would miss
them).  :meth:`uninstall` puts every original object back, and
:meth:`installed` lists ``(owner, name, original)`` so a test can check
that it did.

Layers (named after their modules):

``sim``        Simulator.at/after/cancel/run_until (sim/engine, sim/events)
``machine``    every event callback, plus Machine/SmpMachine spawn/run_until
``hierarchy``  HierarchicalScheduler's TopScheduler methods
``sfq``        the queue_* and chain functions, SfqQueue membership
``tags``       TagMath and fractions.Fraction arithmetic
``leaf``       every LeafScheduler subclass's protocol methods
``workload``   every Workload subclass's next_segment
``obs``        EventBus.emit (``obs``) and BinaryTraceWriter.close
               (``obs_seal``)
``cluster``    shard-pool epochs/finalize, the outbox merge, the control
               tier's barrier
"""

from __future__ import annotations

import fractions
import time
from collections import defaultdict
from typing import Any, Callable, DefaultDict, Dict, List, Optional, Tuple

import repro.core.hierarchy as hierarchy_module
import repro.schedulers  # noqa: F401  (registers every LeafScheduler)
import repro.schedulers.sfq_leaf as sfq_leaf_module
import repro.workloads  # noqa: F401  (registers every Workload)
from repro.cluster import runner as cluster_runner
from repro.cluster.control import ControlTier
from repro.cluster.shards import ProcessShards, SerialShards
from repro.cluster.spec import TenantWorkload  # noqa: F401  (a Workload)
from repro.core.hierarchy import HierarchicalScheduler
from repro.core.sfq import SfqQueue
from repro.core.tags import TagMath
from repro.cpu.machine import Machine
from repro.obs.binlog import BinaryTraceWriter
from repro.obs.events import EventBus
from repro.schedulers.base import LeafScheduler
from repro.sim.engine import Simulator
from repro.smp.machine import SmpMachine
from repro.threads.segments import Workload

#: a hook run inside the span with the call's arguments and its result
Note = Callable[[Tuple[Any, ...], Any], None]

_HIERARCHY_METHODS = ("admit", "retire", "thread_runnable", "thread_blocked",
                      "pick_next", "charge", "quantum_for", "should_preempt",
                      "has_runnable", "move_thread")
_LEAF_METHODS = ("add_thread", "remove_thread", "on_runnable", "on_block",
                 "pick_next", "charge", "has_runnable", "quantum_for",
                 "should_preempt")
_CHAIN_FUNCTIONS = ("charge_chain", "wake_chain", "sleep_chain")
_QUEUE_FUNCTIONS = ("queue_pick", "queue_charge", "queue_set_runnable",
                    "queue_set_blocked")
_FRACTION_OPS = ("__new__", "__add__", "__radd__", "__sub__", "__rsub__",
                 "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                 "__eq__", "__lt__", "__le__", "__gt__", "__ge__")


def _subclasses(base: type) -> List[type]:
    """``base`` and every class derived from it, in a stable order."""
    found: List[type] = []
    pending = [base]
    while pending:
        cls = pending.pop(0)
        if cls not in found:
            found.append(cls)
            pending.extend(sorted(cls.__subclasses__(),
                                  key=lambda c: (c.__module__, c.__qualname__)))
    return found


class LayerTracer:
    """Span stack, per-layer self time, and counters for one traced run."""

    def __init__(self, cluster_only: bool = False) -> None:
        #: layer -> host seconds not covered by a child span
        self.self_s: DefaultDict[str, float] = defaultdict(float)
        #: counter name -> count
        self.counts: DefaultDict[str, int] = defaultdict(int)
        #: total key -> summed inclusive seconds, and the longest single call
        self.total_s: DefaultDict[str, float] = defaultdict(float)
        self.max_s: DefaultDict[str, float] = defaultdict(float)
        #: only the cluster tier's parent-side calls (the hosts run in
        #: shard worker processes this tracer cannot see)
        self.cluster_only = cluster_only
        self._stack: List[List[float]] = []
        self._installed: List[Tuple[Any, str, Any]] = []

    # --- spans ------------------------------------------------------------

    def wrap(self, layer: str, fn: Callable[..., Any],
             counter: Optional[str] = None, total: Optional[str] = None,
             note: Optional[Note] = None) -> Callable[..., Any]:
        """``fn`` inside a span of ``layer``; optionally counted/totalled."""
        stack = self._stack
        self_s = self.self_s
        counts = self.counts
        total_s = self.total_s
        max_s = self.max_s
        clock = time.perf_counter

        def span(*args: Any, **kwargs: Any) -> Any:
            if counter is not None:
                counts[counter] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    note(args, result)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if total is not None:
                    total_s[total] += elapsed
                    if elapsed > max_s[total]:
                        max_s[total] = elapsed

        return span

    def _patch(self, owner: Any, name: str, layer: str, **options: Any) -> None:
        original = vars(owner)[name]
        if isinstance(original, staticmethod):
            replacement: Any = staticmethod(
                self.wrap(layer, original.__func__, **options))
        else:
            replacement = self.wrap(layer, original, **options)
        self._installed.append((owner, name, original))
        setattr(owner, name, replacement)

    def _patch_methods(self, classes: List[type], names: Tuple[str, ...],
                       layer: str, counters: Dict[str, str]) -> None:
        for cls in classes:
            for name in names:
                if name in vars(cls):
                    self._patch(cls, name, layer, counter=counters.get(name))

    # --- installation -----------------------------------------------------

    def install(self) -> "LayerTracer":
        """Wrap every layer's entry points; returns self."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        self._install_cluster()
        if not self.cluster_only:
            self._install_sim()
            self._install_scheduler()
            self._install_model()
        return self

    def uninstall(self) -> None:
        """Put back every original object, newest patch first."""
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    def installed(self) -> List[Tuple[Any, str, Any]]:
        """``(owner, name, original)`` for every live patch."""
        return list(self._installed)

    def _install_sim(self) -> None:
        wrap = self.wrap
        at, after = Simulator.at, Simulator.after

        # every event callback runs inside a "machine" span
        def traced_at(sim: Simulator, time_ns: int, callback: Any,
                      arg: Any = None, priority: int = 0) -> Any:
            return at(sim, time_ns, wrap("machine", callback), arg, priority)

        def traced_after(sim: Simulator, delay: int, callback: Any,
                         arg: Any = None, priority: int = 0) -> Any:
            return after(sim, delay, wrap("machine", callback), arg, priority)

        for name, replacement in (("at", traced_at), ("after", traced_after)):
            self._installed.append((Simulator, name, vars(Simulator)[name]))
            setattr(Simulator, name, self.wrap("sim", replacement,
                                               counter="sim.pushes"))
        self._patch(Simulator, "cancel", "sim")
        self._patch(Simulator, "run_until", "sim")
        for cls in (Machine, SmpMachine):
            self._patch(cls, "spawn", "machine")
            self._patch(cls, "run_until", "machine")

    def _install_scheduler(self) -> None:
        counts = self.counts

        def note_depth(args: Tuple[Any, ...], thread: Any) -> None:
            if thread is not None:
                counts["hierarchy.levels"] += args[0].decision_depth

        for name in _HIERARCHY_METHODS:
            self._patch(HierarchicalScheduler, name, "hierarchy",
                        counter={"pick_next": "hierarchy.picks",
                                 "charge": "hierarchy.charges",
                                 "thread_runnable": "hierarchy.wakes",
                                 "thread_blocked": "hierarchy.blocks",
                                 }.get(name),
                        note=note_depth if name == "pick_next" else None)

        def note_chain(args: Tuple[Any, ...], result: Any) -> None:
            counts["sfq.chain_levels"] += len(args[0])

        def note_descent(args: Tuple[Any, ...], result: Any) -> None:
            counts["sfq.chain_levels"] += result[1] - 1

        for name in _CHAIN_FUNCTIONS:
            self._patch(hierarchy_module, name, "sfq",
                        counter="sfq.chain_calls", note=note_chain)
        self._patch(hierarchy_module, "pick_leaf", "sfq",
                    counter="sfq.chain_calls", note=note_descent)
        self._patch(hierarchy_module, "build_ancestor_chain", "sfq")
        for module in (hierarchy_module, sfq_leaf_module):
            for name in _QUEUE_FUNCTIONS:
                if name in vars(module):
                    self._patch(module, name, "sfq", counter="sfq.queue_ops")
        self._patch(SfqQueue, "add", "sfq", counter="sfq.adds")
        self._patch(SfqQueue, "remove", "sfq", counter="sfq.removes")
        self._patch(SfqQueue, "has_runnable", "sfq")
        self._patch(SfqQueue, "is_runnable", "sfq")
        self._patch_methods(_subclasses(LeafScheduler), _LEAF_METHODS, "leaf",
                            {"pick_next": "leaf.picks",
                             "charge": "leaf.charges"})

    def _install_model(self) -> None:
        self._patch(TagMath, "zero", "tags")
        self._patch(TagMath, "ratio", "tags")
        self._patch(TagMath, "advance", "tags", counter="tags.advances")
        for name in _FRACTION_OPS:
            self._patch(fractions.Fraction, name, "tags",
                        counter="tags.fraction_ops")
        self._patch_methods(_subclasses(Workload), ("next_segment",),
                            "workload", {"next_segment": "workload.segments"})
        self._patch(EventBus, "emit", "obs", counter="obs.emits")
        self._patch(BinaryTraceWriter, "close", "obs_seal")

    def _install_cluster(self) -> None:
        for cls in (ProcessShards, SerialShards):
            self._patch(cls, "epoch", "cluster", counter="cluster.epochs",
                        total="cluster.epoch")
            self._patch(cls, "finalize", "cluster", total="cluster.finalize")
        self._patch(cluster_runner, "merge_outboxes", "cluster",
                    total="cluster.merge")
        self._patch(ControlTier, "barrier", "cluster", total="cluster.control")

    # --- reporting --------------------------------------------------------

    def report(self, counts: Dict[str, float]) -> Dict[str, float]:
        """Per-layer metrics, given the model ``counts`` of the run.

        ``counts`` supplies what the model itself tracks (events fired,
        dispatches, interrupts, binlog size, cluster messages); the rest
        comes from the spans.
        """
        span_counts = self.counts
        self_s = self.self_s
        pushes = span_counts["sim.pushes"]
        events = counts.get("events", 0)
        dispatches = counts.get("dispatches", 0)
        # every push either fired, is still pending, or was cancelled
        cancelled = pushes - events - counts.get("pending", 0)
        return {
            "sim.events": events,
            "sim.pushes": pushes,
            "sim.cancel_ratio": cancelled / pushes if pushes else 0.0,
            "sim.self_s": self_s["sim"],
            "machine.dispatches": dispatches,
            "machine.context_switches": counts.get("context_switches", 0),
            "machine.interrupts": counts.get("interrupts", 0),
            "machine.self_s": self_s["machine"],
            "machine.self_ns_per_dispatch":
                self_s["machine"] * 1e9 / dispatches
                if dispatches and not self.cluster_only else 0.0,
            "hierarchy.picks": span_counts["hierarchy.picks"],
            "hierarchy.charges": span_counts["hierarchy.charges"],
            "hierarchy.wakes": span_counts["hierarchy.wakes"],
            "hierarchy.blocks": span_counts["hierarchy.blocks"],
            "hierarchy.levels": span_counts["hierarchy.levels"],
            "hierarchy.self_s": self_s["hierarchy"],
            "sfq.chain_calls": span_counts["sfq.chain_calls"],
            "sfq.chain_levels": span_counts["sfq.chain_levels"],
            "sfq.queue_ops": span_counts["sfq.queue_ops"],
            "sfq.adds": span_counts["sfq.adds"],
            "sfq.removes": span_counts["sfq.removes"],
            "sfq.self_s": self_s["sfq"],
            "tags.advances": span_counts["tags.advances"],
            "tags.fraction_ops": span_counts["tags.fraction_ops"],
            "tags.self_s": self_s["tags"],
            "leaf.picks": span_counts["leaf.picks"],
            "leaf.charges": span_counts["leaf.charges"],
            "leaf.self_s": self_s["leaf"],
            "workload.segments": span_counts["workload.segments"],
            "workload.self_s": self_s["workload"],
            "obs.emits": span_counts["obs.emits"],
            "obs.emit_s": self_s["obs"],
            "obs.seal_s": self_s["obs_seal"],
            "obs.bytes": counts.get("binlog_bytes", 0),
            "cluster.epochs": span_counts["cluster.epochs"],
            "cluster.messages": counts.get("messages", 0),
            "cluster.epoch_s": self.total_s["cluster.epoch"],
            "cluster.epoch_max_s": self.max_s["cluster.epoch"],
            "cluster.merge_s": self.total_s["cluster.merge"],
            "cluster.control_s": self.total_s["cluster.control"],
            "cluster.finalize_s": self.total_s["cluster.finalize"],
        }


def unit_of(metric: str) -> str:
    """The unit :meth:`LayerTracer.report` gives ``metric`` in."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ns_per_dispatch"):
        return "ns"
    return {"sim.cancel_ratio": "ratio", "obs.bytes": "bytes"}.get(
        metric, "count")


def is_count(metric: str) -> bool:
    """True for the deterministic metrics, which repeat exactly."""
    return unit_of(metric) not in ("s", "ns")
