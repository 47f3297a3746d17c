"""Deterministic fault injectors.

Every injector is constructed from a flat dict of JSON-able parameters
(so fault schedules round-trip through campaign reports and reproducer
scripts) and armed against a :class:`FaultContext` before the simulation
starts.  All randomness comes from the context's seeded
:class:`repro.sim.rng.Stream` substream — two arms of the same injector
with the same seed produce the same injection schedule, byte for byte.

Injection semantics worth knowing:

* **Crash/hang/straggler** faults act through workload wrappers, so they
  take effect at the victim's next *segment boundary* — the machine owns
  all mid-burst accounting and a fault may not corrupt it.
* **Jitter/timer-loss** faults transform sleep segments as the victim's
  workload emits them (granularity rounding, seeded delays).
* **Node churn** drives the paper's ``hsfq_mknod``/``hsfq_move``/
  ``hsfq_rmnod`` API under load, moving live (non-running) threads
  through a temporary leaf.
* Windowed CPU-stealing faults report a ``denial_slack`` (the worst
  contiguous time they may deny the CPU to threads) that the oracles add
  to their analytical thresholds.

Each injection is appended to the context's fault log and, when the
run's event bus has subscribers, emitted as a ``fault-inject`` event so
it appears on Perfetto timelines.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Dict, List, Type

from repro.cpu.costs import SchedulingCostModel
from repro.cpu.interrupts import PeriodicInterruptSource, PoissonInterruptSource
from repro.errors import SchedulingError, StructureError
from repro.hsfq import HSFQ_LEAF, SCHED_SFQ, hsfq_mknod, hsfq_move, hsfq_rmnod
from repro.obs import events as obs
from repro.threads.segments import Compute, Exit, SleepFor, SleepUntil, Workload
from repro.threads.states import ThreadState
from repro.units import MS

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpu.machine import Machine
    from repro.sim.engine import Simulator
    from repro.sim.rng import Stream
    from repro.threads.thread import SimThread

#: kind -> injector class; see ``register_fault``
FAULTS: Dict[str, Type["FaultInjector"]] = {}


def register_fault(cls: Type["FaultInjector"]) -> Type["FaultInjector"]:
    """Class decorator adding an injector to the :data:`FAULTS` registry."""
    if not cls.kind:
        raise ValueError("fault class %r has no kind" % (cls,))
    if cls.kind in FAULTS:
        raise ValueError("duplicate fault kind %r" % (cls.kind,))
    FAULTS[cls.kind] = cls
    return cls


class FaultContext:
    """Everything an injector may touch, plus the injection log.

    ``stream`` is the cell's fault substream; each injector derives its
    own child via ``stream.substream(...)`` so injectors never share RNG
    state.  ``log`` accumulates JSON-able injection records keyed by
    simulation time — the campaign digests it, and the shrinker's
    reproducers replay it exactly.
    """

    def __init__(self, machine: "Machine", engine: "Simulator",
                 structure, stream: "Stream", horizon: int) -> None:
        self.machine = machine
        self.engine = engine
        self.structure = structure
        self.stream = stream
        self.horizon = horizon
        self.log: List[Dict[str, object]] = []

    def record(self, fault: str, action: str, **fields: object) -> None:
        """Log one injection (and emit it on the run's event bus)."""
        entry: Dict[str, object] = {"time": self.engine.now, "fault": fault,
                                    "action": action}
        entry.update(fields)
        self.log.append(entry)
        bus = self.engine.bus
        if bus.active:
            # each injector adds its own fields, so the shape is per call
            shape = obs.Shape(obs.FAULT_INJECT,
                              ("fault", "action") + tuple(fields))
            bus.emit(shape, self.engine.now, fault, action, *fields.values())

    def alive_threads(self) -> List["SimThread"]:
        """Threads not yet exited, in deterministic name order.

        Thread names are unique within a cell, so the order (and hence
        every seeded victim draw) does not depend on spawn order.
        """
        return sorted(
            (t for t in self.machine.threads
             if t.state is not ThreadState.EXITED),
            key=lambda t: t.name)

    def for_fault(self, index: int, kind: str) -> "FaultContext":
        """A per-injector view: own RNG substream, shared injection log.

        Keying the substream by grid position *and* kind means two
        injectors of the same kind in one schedule still draw
        independently.
        """
        child = FaultContext(self.machine, self.engine, self.structure,
                             self.stream.substream("%d/%s" % (index, kind)),
                             self.horizon)
        child.log = self.log
        return child


class FaultInjector:
    """Base class: a fault built from params, armed against a context.

    ``SHRINKABLE`` maps integer parameter names to their lower bounds —
    the shrinker halves them toward the bound while the failure still
    reproduces.  ``victim_names`` (populated during the run) names
    threads whose service the fault deliberately destroyed; oracles
    exclude them from fairness/liveness checks.
    """

    kind = ""
    #: parameter defaults; subclasses override
    DEFAULTS: Dict[str, object] = {}
    #: shrinkable integer params -> minimum value
    SHRINKABLE: Dict[str, int] = {}

    def __init__(self, **params: object) -> None:
        unknown = set(params) - set(self.DEFAULTS)
        if unknown:
            raise ValueError("unknown %s params: %s"
                             % (self.kind, ", ".join(sorted(unknown))))
        self.params: Dict[str, object] = dict(self.DEFAULTS)
        self.params.update(params)
        self.victim_names: List[str] = []
        #: threads whose *demand* the fault inflated (still scheduled
        #: normally, but they may overrun any admitted budget)
        self.overrun_names: List[str] = []

    @classmethod
    def from_params(cls, params: Dict[str, object]) -> "FaultInjector":
        """Build an injector from a JSON-able parameter dict."""
        return cls(**params)

    def arm(self, ctx: FaultContext) -> None:
        """Schedule this fault's injections against ``ctx``."""
        raise NotImplementedError

    def denial_slack(self) -> int:
        """Worst contiguous time (ns) this fault may deny the CPU."""
        return 0

    def extra_root_weight(self) -> int:
        """Weight this fault may add at the hierarchy root (dilutes shares)."""
        return 0


def build_fault(spec: Dict[str, object]) -> FaultInjector:
    """Instantiate a fault from ``{"kind": ..., "params": {...}}``."""
    kind = spec["kind"]
    try:
        cls = FAULTS[kind]  # type: ignore[index]
    except KeyError:
        raise ValueError("unknown fault kind %r" % (kind,)) from None
    return cls.from_params(dict(spec.get("params", {})))  # type: ignore[arg-type]


# --- CPU-bandwidth faults ----------------------------------------------------


@register_fault
class InterruptStormFault(FaultInjector):
    """A windowed Poisson interrupt storm (the paper's §3.1 fluctuation)."""

    kind = "interrupt-storm"
    DEFAULTS = {"start_ns": 200 * MS, "duration_ns": 800 * MS,
                "mean_interarrival_ns": 400_000, "mean_service_ns": 120_000}
    SHRINKABLE = {"duration_ns": 1 * MS, "mean_service_ns": 1_000}

    def arm(self, ctx: FaultContext) -> None:
        start = int(self.params["start_ns"])  # type: ignore[arg-type]
        duration = int(self.params["duration_ns"])  # type: ignore[arg-type]
        rng = ctx.stream.substream(self.kind).rng("arrivals")
        source = PoissonInterruptSource(
            mean_interarrival=int(self.params["mean_interarrival_ns"]),  # type: ignore[arg-type]
            mean_service=int(self.params["mean_service_ns"]),  # type: ignore[arg-type]
            rng=rng, exponential_service=True)

        def begin() -> None:
            ctx.record(self.kind, "start", duration_ns=duration)
            ctx.machine.add_interrupt_source(source)

        def end() -> None:
            source.stop()
            ctx.record(self.kind, "stop")

        ctx.engine.at(start, begin)
        ctx.engine.at(start + duration, end)

    def denial_slack(self) -> int:
        return int(self.params["duration_ns"])  # type: ignore[arg-type]


@register_fault
class CapacityCollapseFault(FaultInjector):
    """Periodic interrupts stealing a fixed fraction of the CPU for a window.

    With period ``P`` and stolen fraction ``f`` the effective CPU drops
    to an FC server of rate ``C * (1 - f)`` during the window — the
    regime the paper's fluctuation-constrained bounds are stated for.
    """

    kind = "capacity-collapse"
    DEFAULTS = {"start_ns": 300 * MS, "duration_ns": 600 * MS,
                "period_ns": 2 * MS, "stolen_pct": 60}
    SHRINKABLE = {"duration_ns": 1 * MS, "stolen_pct": 1}

    def arm(self, ctx: FaultContext) -> None:
        start = int(self.params["start_ns"])  # type: ignore[arg-type]
        duration = int(self.params["duration_ns"])  # type: ignore[arg-type]
        period = int(self.params["period_ns"])  # type: ignore[arg-type]
        pct = min(99, max(0, int(self.params["stolen_pct"])))  # type: ignore[arg-type]
        service = min(period - 1, period * pct // 100)
        if service <= 0:
            return
        source = PeriodicInterruptSource(period=period, service=service)

        def begin() -> None:
            ctx.record(self.kind, "start", duration_ns=duration,
                       stolen_pct=pct)
            ctx.machine.add_interrupt_source(source)

        def end() -> None:
            source.stop()
            ctx.record(self.kind, "stop")

        ctx.engine.at(start, begin)
        ctx.engine.at(start + duration, end)

    def denial_slack(self) -> int:
        return int(self.params["duration_ns"])  # type: ignore[arg-type]


class _SpikedCostModel(SchedulingCostModel):
    """Window-aware wrapper multiplying dispatch costs during the spike."""

    def __init__(self, inner: SchedulingCostModel, engine: "Simulator",
                 start: int, end: int, multiplier: int, extra_ns: int) -> None:
        self.inner = inner
        self.engine = engine
        self.start = start
        self.end = end
        self.multiplier = multiplier
        self.extra_ns = extra_ns

    def dispatch_cost(self, depth: int, switched: bool) -> int:
        cost = self.inner.dispatch_cost(depth, switched)
        if self.start <= self.engine.now < self.end:
            return cost * self.multiplier + self.extra_ns
        return cost


@register_fault
class CostSpikeFault(FaultInjector):
    """Scheduling decisions suddenly become expensive (Figure 7 gone wrong)."""

    kind = "cost-spike"
    DEFAULTS = {"start_ns": 250 * MS, "duration_ns": 500 * MS,
                "multiplier": 8, "extra_ns": 40_000}
    SHRINKABLE = {"duration_ns": 1 * MS, "multiplier": 1, "extra_ns": 0}

    def arm(self, ctx: FaultContext) -> None:
        start = int(self.params["start_ns"])  # type: ignore[arg-type]
        duration = int(self.params["duration_ns"])  # type: ignore[arg-type]
        ctx.machine.cost_model = _SpikedCostModel(
            ctx.machine.cost_model, ctx.engine, start, start + duration,
            int(self.params["multiplier"]),  # type: ignore[arg-type]
            int(self.params["extra_ns"]))  # type: ignore[arg-type]
        ctx.engine.at(start, partial(ctx.record, self.kind, "start"))
        ctx.engine.at(start + duration, partial(ctx.record, self.kind, "stop"))

    def denial_slack(self) -> int:
        return int(self.params["duration_ns"])  # type: ignore[arg-type]


# --- thread-level faults -----------------------------------------------------


class _CrashedWorkload(Workload):
    """Replacement workload: the thread exits at its next segment boundary."""

    def next_segment(self, now: int, thread: "SimThread") -> Exit:
        return Exit()


class _HangWorkload(Workload):
    """One long sleep injected before the inner workload continues."""

    def __init__(self, inner: Workload, hang_ns: int) -> None:
        self.inner = inner
        self.hang_ns = hang_ns
        self._hung = False

    def next_segment(self, now: int, thread: "SimThread"):
        if not self._hung:
            self._hung = True
            return SleepFor(self.hang_ns)
        return self.inner.next_segment(now, thread)


class _StragglerWorkload(Workload):
    """Inflates every Compute segment by a fixed factor."""

    def __init__(self, inner: Workload, factor: int) -> None:
        self.inner = inner
        self.factor = factor

    def next_segment(self, now: int, thread: "SimThread"):
        segment = self.inner.next_segment(now, thread)
        if isinstance(segment, Compute):
            return Compute(segment.work * self.factor)
        return segment


class _VictimFault(FaultInjector):
    """Shared machinery: pick ``count`` seeded victims at ``at_ns``."""

    #: name prefixes never chosen as victims (oracle probes)
    PROTECTED = ("probe",)

    def _pick_victims(self, ctx: FaultContext, count: int) -> List["SimThread"]:
        candidates = [t for t in ctx.alive_threads()
                      if not t.name.startswith(self.PROTECTED)]
        if not candidates:
            return []
        rng = ctx.stream.substream(self.kind).rng("victims")
        count = min(count, len(candidates))
        return rng.sample(candidates, count)


@register_fault
class ThreadCrashFault(_VictimFault):
    """Victims exit at their next segment boundary."""

    kind = "thread-crash"
    DEFAULTS = {"at_ns": 400 * MS, "count": 1}
    SHRINKABLE = {"count": 1}

    def arm(self, ctx: FaultContext) -> None:
        def strike() -> None:
            for victim in self._pick_victims(ctx, int(self.params["count"])):  # type: ignore[arg-type]
                victim.workload = _CrashedWorkload()
                self.victim_names.append(victim.name)
                ctx.record(self.kind, "crash", thread=victim.name)

        ctx.engine.at(int(self.params["at_ns"]), strike)  # type: ignore[arg-type]


@register_fault
class ThreadHangFault(_VictimFault):
    """Victims stall in one long sleep, then resume their workload."""

    kind = "thread-hang"
    DEFAULTS = {"at_ns": 350 * MS, "hang_ns": 700 * MS, "count": 1}
    SHRINKABLE = {"hang_ns": 1 * MS, "count": 1}

    def arm(self, ctx: FaultContext) -> None:
        def strike() -> None:
            hang_ns = int(self.params["hang_ns"])  # type: ignore[arg-type]
            for victim in self._pick_victims(ctx, int(self.params["count"])):  # type: ignore[arg-type]
                victim.workload = _HangWorkload(victim.workload, hang_ns)
                self.victim_names.append(victim.name)
                ctx.record(self.kind, "hang", thread=victim.name,
                           hang_ns=hang_ns)

        ctx.engine.at(int(self.params["at_ns"]), strike)  # type: ignore[arg-type]


@register_fault
class StragglerFault(_VictimFault):
    """Victims' compute segments inflate by ``factor`` — SFQ must still be fair.

    Victims are *not* excluded from the fairness oracle: a straggler is
    just a heavier CPU-bound thread, and the fairness theorem is agnostic
    to demand.
    """

    kind = "straggler"
    DEFAULTS = {"at_ns": 300 * MS, "factor": 6, "count": 1}
    SHRINKABLE = {"factor": 1, "count": 1}

    def arm(self, ctx: FaultContext) -> None:
        def strike() -> None:
            factor = max(1, int(self.params["factor"]))  # type: ignore[arg-type]
            for victim in self._pick_victims(ctx, int(self.params["count"])):  # type: ignore[arg-type]
                victim.workload = _StragglerWorkload(victim.workload, factor)
                self.overrun_names.append(victim.name)
                ctx.record(self.kind, "straggle", thread=victim.name,
                           factor=factor)

        ctx.engine.at(int(self.params["at_ns"]), strike)  # type: ignore[arg-type]


# --- timer faults ------------------------------------------------------------


class _JitteredWorkload(Workload):
    """Rounds sleeps up to a granularity and adds seeded jitter/loss delays."""

    def __init__(self, inner: Workload, granularity_ns: int, jitter_ns: int,
                 loss_pct: int, loss_delay_ns: int, rng) -> None:
        self.inner = inner
        self.granularity_ns = max(1, granularity_ns)
        self.jitter_ns = jitter_ns
        self.loss_pct = loss_pct
        self.loss_delay_ns = loss_delay_ns
        self.rng = rng

    def _delay(self) -> int:
        delay = 0
        if self.jitter_ns > 0:
            delay += self.rng.randrange(self.jitter_ns + 1)
        if self.loss_pct > 0 and self.rng.randrange(100) < self.loss_pct:
            delay += self.loss_delay_ns
        return delay

    def _stretch(self, duration: int) -> int:
        gran = self.granularity_ns
        rounded = -(-duration // gran) * gran  # round up to the granularity
        return rounded + self._delay()

    def next_segment(self, now: int, thread: "SimThread"):
        segment = self.inner.next_segment(now, thread)
        if isinstance(segment, SleepFor):
            return SleepFor(self._stretch(segment.duration))
        if isinstance(segment, SleepUntil):
            if segment.wakeup <= now:
                return segment
            return SleepUntil(now + self._stretch(segment.wakeup - now))
        return segment


@register_fault
class ClockJitterFault(FaultInjector):
    """Every sleep rounds up to a coarse clock granularity, plus jitter."""

    kind = "clock-jitter"
    DEFAULTS = {"at_ns": 0, "granularity_ns": 10 * MS, "jitter_ns": 2 * MS}
    SHRINKABLE = {"granularity_ns": 1, "jitter_ns": 0}

    def arm(self, ctx: FaultContext) -> None:
        def strike() -> None:
            rng = ctx.stream.substream(self.kind).rng("jitter")
            for thread in ctx.alive_threads():
                thread.workload = _JitteredWorkload(
                    thread.workload,
                    int(self.params["granularity_ns"]),  # type: ignore[arg-type]
                    int(self.params["jitter_ns"]),  # type: ignore[arg-type]
                    0, 0, rng)
            ctx.record(self.kind, "engage",
                       granularity_ns=self.params["granularity_ns"])

        ctx.engine.at(int(self.params["at_ns"]), strike)  # type: ignore[arg-type]


@register_fault
class TimerLossFault(FaultInjector):
    """A fraction of timer events is lost and re-delivered late."""

    kind = "timer-loss"
    DEFAULTS = {"at_ns": 0, "loss_pct": 20, "loss_delay_ns": 50 * MS}
    SHRINKABLE = {"loss_pct": 1, "loss_delay_ns": 1 * MS}

    def arm(self, ctx: FaultContext) -> None:
        def strike() -> None:
            rng = ctx.stream.substream(self.kind).rng("loss")
            for thread in ctx.alive_threads():
                thread.workload = _JitteredWorkload(
                    thread.workload, 1, 0,
                    int(self.params["loss_pct"]),  # type: ignore[arg-type]
                    int(self.params["loss_delay_ns"]),  # type: ignore[arg-type]
                    rng)
            ctx.record(self.kind, "engage", loss_pct=self.params["loss_pct"])

        ctx.engine.at(int(self.params["at_ns"]), strike)  # type: ignore[arg-type]


# --- structural faults -------------------------------------------------------


@register_fault
class NodeChurnFault(FaultInjector):
    """Mass node churn through the hsfq API under load.

    Each round creates a temporary root-level leaf with ``hsfq_mknod``,
    moves a seeded non-running thread into it with ``hsfq_move``, and
    half an interval later moves the thread home and removes the leaf
    with ``hsfq_rmnod``.  Requires a hierarchical cell; a no-op (with a
    log record) on flat cells.
    """

    kind = "node-churn"
    DEFAULTS = {"start_ns": 200 * MS, "rounds": 6, "interval_ns": 150 * MS,
                "leaf_weight": 1}
    SHRINKABLE = {"rounds": 1, "interval_ns": 2 * MS}

    def arm(self, ctx: FaultContext) -> None:
        if ctx.structure is None:
            ctx.engine.at(int(self.params["start_ns"]),  # type: ignore[arg-type]
                          partial(ctx.record, self.kind, "skipped"))
            return
        start = int(self.params["start_ns"])  # type: ignore[arg-type]
        interval = int(self.params["interval_ns"])  # type: ignore[arg-type]
        for index in range(int(self.params["rounds"])):  # type: ignore[arg-type]
            ctx.engine.at(start + index * interval,
                          partial(self._round, ctx, index))

    def _round(self, ctx: FaultContext, index: int) -> None:
        structure = ctx.structure
        rng = ctx.stream.substream(self.kind).rng("round/%d" % index)
        movable = [t for t in ctx.alive_threads()
                   if t.state is not ThreadState.RUNNING
                   and t.leaf is not None
                   and not t.name.startswith(_VictimFault.PROTECTED)]
        if not movable:
            ctx.record(self.kind, "no-movable", round=index)
            return
        victim = rng.choice(movable)
        home_id = victim.leaf.node_id
        try:
            temp_id = hsfq_mknod(
                structure, "churn-%d" % index, parent=structure.root.node_id,
                weight=int(self.params["leaf_weight"]),  # type: ignore[arg-type]
                flag=HSFQ_LEAF, sid=SCHED_SFQ)
            hsfq_move(structure, victim, temp_id)
        except (StructureError, SchedulingError) as exc:
            ctx.record(self.kind, "move-failed", round=index,
                       error=type(exc).__name__)
            return
        if victim.name not in self.victim_names:
            self.victim_names.append(victim.name)
        ctx.record(self.kind, "churn-out", round=index, thread=victim.name)
        half = max(1, int(self.params["interval_ns"]) // 2)  # type: ignore[arg-type]
        ctx.engine.after(half, partial(self._restore, ctx, index, victim,
                                       home_id, temp_id))

    def _restore(self, ctx: FaultContext, index: int, victim: "SimThread",
                 home_id: int, temp_id: int) -> None:
        try:
            hsfq_move(ctx.structure, victim, home_id)
            hsfq_rmnod(ctx.structure, temp_id)
        except (StructureError, SchedulingError) as exc:
            # A running victim cannot be moved home this instant; retry
            # shortly.  Deterministic: retry time depends only on sim state.
            ctx.record(self.kind, "restore-retry", round=index,
                       error=type(exc).__name__)
            ctx.engine.after(1 * MS, partial(self._restore, ctx, index, victim,
                                             home_id, temp_id))
            return
        ctx.record(self.kind, "churn-home", round=index, thread=victim.name)

    def extra_root_weight(self) -> int:
        return int(self.params["leaf_weight"])  # type: ignore[arg-type]

    def denial_slack(self) -> int:
        # While churned out, the victim competes at the temporary leaf's
        # (possibly tiny) share; treat the whole churn window as slack.
        rounds = int(self.params["rounds"])  # type: ignore[arg-type]
        interval = int(self.params["interval_ns"])  # type: ignore[arg-type]
        return rounds * interval


@register_fault
class HostChurnFault(FaultInjector):
    """Whole-host churn: take hosts down (and back up) at epoch barriers.

    The cluster analogue of :class:`NodeChurnFault`, one tier up — where
    node churn drives ``hsfq_mknod``/``hsfq_rmnod`` under load, host
    churn drives the placement tier's drain/fail-over/rejoin path.  Only
    meaningful when armed against a
    :class:`~repro.cluster.churn.ClusterFaultContext`; on a single-host
    cell (no ``cluster`` attribute) it skips with a log record, exactly
    like node churn skips on flat cells.

    The schedule is drawn entirely at arm time from the context's seeded
    stream: ``downs`` distinct hosts (never the whole fleet) each get a
    down epoch in ``[first_epoch, last_epoch]`` (``last_epoch`` 0 means
    ``epochs - 3``) and come back up ``min_down_epochs..max_down_epochs``
    epochs after their drain barrier — or stay down if that lands past
    the horizon.
    """

    kind = "host-churn"
    DEFAULTS = {"downs": 1, "first_epoch": 2, "last_epoch": 0,
                "min_down_epochs": 2, "max_down_epochs": 4}
    SHRINKABLE = {"downs": 1, "max_down_epochs": 1}

    def arm(self, ctx: FaultContext) -> None:
        cluster = getattr(ctx, "cluster", None)
        if cluster is None:
            ctx.record(self.kind, "skipped")
            return
        rng = ctx.stream.substream(self.kind).rng("schedule")
        hosts = cluster.host_names()
        downs = min(int(self.params["downs"]), max(0, len(hosts) - 1))  # type: ignore[arg-type]
        if downs <= 0 or cluster.epochs < 5:
            ctx.record(self.kind, "skipped", reason="cluster-too-small")
            return
        min_down = max(1, int(self.params["min_down_epochs"]))  # type: ignore[arg-type]
        max_down = max(min_down, int(self.params["max_down_epochs"]))  # type: ignore[arg-type]
        latest_down = cluster.epochs - 3
        last = int(self.params["last_epoch"])  # type: ignore[arg-type]
        if last > 0:
            latest_down = min(latest_down, last)
        first = min(int(self.params["first_epoch"]), latest_down)  # type: ignore[arg-type]
        schedule = getattr(ctx, "churn")
        for host in sorted(rng.sample(hosts, downs)):
            down = rng.randrange(first, latest_down + 1)
            up = down + 1 + rng.randrange(min_down, max_down + 1)
            schedule.append((down, "down", host))
            ctx.record(self.kind, "host-down", host=host, epoch=down)
            if up < cluster.epochs:
                schedule.append((up, "up", host))
                ctx.record(self.kind, "host-up", host=host, epoch=up)


#: fault kinds that only act on a cluster context (excluded from the
#: single-host campaign grid, like self-test faults)
CLUSTER_FAULT_KINDS = ("host-churn",)


def _selftest_faults() -> None:
    """Import the self-test injectors (registered but not in default grids)."""
    import repro.faultlab.selftest  # noqa: F401  (import registers)


_SELFTEST_KINDS = ("selftest-double-charge",)


def ensure_registered(kind: str) -> None:
    """Make sure ``kind`` is importable — self-test faults load lazily."""
    if kind not in FAULTS and kind in _SELFTEST_KINDS:
        _selftest_faults()
