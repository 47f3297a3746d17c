"""The observability event bus: typed, timestamped structured events.

The bus is the kernel-tracepoint analogue of this reproduction: emit sites
are compiled into the machines, the hierarchy, the ``hsfq`` system-call
layer, the fair-queuing baselines, SCHEDSAN and faultlab, but every site
is guarded by :attr:`EventBus.active`::

    if self._bus.active:
        self._bus.emit(DISPATCH_SHAPE, now, thread.tid, thread.name, ...)

Every record a site emits has a :class:`Shape`, declared once below: the
event kind plus its field names, in order.  Sites pass the field values
positionally, so with no subscriber attached the guard is a single
attribute read and nothing is built, and traced-off runs are
byte-identical to an un-instrumented build.

The record ``(shape, time, values)`` is the only form an event takes.
Subscribers are invoked synchronously, in subscription order, each with
the record exactly as it was emitted: through the subscriber's
``capture(shape, time, values)`` method if it has one (the binlog
writer, the :class:`~repro.trace.recorder.Recorder`, the obs
collectors), otherwise by calling the subscriber itself with the same
three arguments.  A binlog replays the same records through the same
lookup (:func:`capture_of`), so a replayed consumer runs the code a live
one runs.  A subscriber must observe, never mutate, simulation state.

Every site of a run emits on that run's bus, ``Simulator.bus``: the
machine installs it on its scheduler (which hands it to the leaves that
emit), as it installs the clock.  A run's bus is the process-wide
default :data:`BUS`, unless a machine's ``tracer=`` gave the run a
private bus with the tracer subscribed; then the tracer sees the run's
whole stream and subscribers on :data:`BUS` see none of it.  Scripts
and tests that subscribe temporarily should use
:meth:`EventBus.subscription` so a bus is always left clean.
"""

from __future__ import annotations

import contextlib
from typing import (
    Any,
    Callable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

# --- event kinds (the catalogue; see docs/OBSERVABILITY.md) ------------------

#: thread created and admitted to its scheduler
SPAWN = "spawn"
#: thread became eligible to run
RUNNABLE = "runnable"
#: thread was given a CPU
DISPATCH = "dispatch"
#: a contiguous run of execution finished (timestamp = slice end)
SLICE = "slice"
#: the running thread was preempted mid-quantum
PREEMPT = "preempt"
#: thread blocked (wake == -1 means a sync wait)
BLOCK = "block"
#: thread woke up
WAKE = "wake"
#: a completed quantum was charged to the scheduler
CHARGE = "charge"
#: thread exited
EXIT = "exit"
#: an interrupt stole CPU time
INTERRUPT = "interrupt"
#: an SFQ (or fair-queuing) start/finish tag was restamped (tags as
#: floats, for reporting only)
TAG_UPDATE = "tag-update"
#: a queue's virtual time moved forward
VTIME_ADVANCE = "vtime-advance"
#: SCHEDSAN detected an invariant violation
VIOLATION = "sanitizer-violation"
#: a scheduling-structure node was created (hsfq_mknod)
NODE_CREATE = "node-create"
#: a scheduling-structure node was removed (hsfq_rmnod)
NODE_REMOVE = "node-remove"
#: a thread was moved between leaves (hsfq_move)
THREAD_MOVE = "thread-move"
#: a node's weight changed (hsfq_admin SETWEIGHT)
WEIGHT_CHANGE = "weight-change"
#: faultlab injected a fault (fields: fault, action, plus fault-specific)
FAULT_INJECT = "fault-inject"

#: every event kind the instrumented tree can emit
KINDS = (
    SPAWN, RUNNABLE, DISPATCH, SLICE, PREEMPT, BLOCK, WAKE, CHARGE, EXIT,
    INTERRUPT, TAG_UPDATE, VTIME_ADVANCE, VIOLATION, NODE_CREATE,
    NODE_REMOVE, THREAD_MOVE, WEIGHT_CHANGE, FAULT_INJECT,
)


class Shape:
    """One record shape: an event kind and its field names, in order.

    Emit sites pass a shape and the field values positionally; the bus
    and the capture consumers key on the shape object itself (by identity,
    so a lookup hashes no strings).  The catalogue's shapes are declared
    once, below; a site whose fields vary may build a shape per call.
    """

    __slots__ = ("kind", "fields")

    def __init__(self, kind: str, fields: Sequence[str]) -> None:
        self.kind = kind
        self.fields: Tuple[str, ...] = tuple(fields)

    def __repr__(self) -> str:
        return "Shape(%r, %r)" % (self.kind, self.fields)


# --- record shapes (the catalogue; see docs/OBSERVABILITY.md) ----------------

SPAWN_SHAPE = Shape(SPAWN, ("tid", "name", "node", "weight"))
RUNNABLE_SHAPE = Shape(RUNNABLE, ("tid", "node"))
DISPATCH_SHAPE = Shape(DISPATCH, ("tid", "name", "node", "cpu", "depth",
                                  "switched", "overhead_ns", "quantum_work"))
SLICE_SHAPE = Shape(SLICE, ("tid", "name", "node", "cpu", "start", "work"))
PREEMPT_SHAPE = Shape(PREEMPT, ("tid", "node"))
BLOCK_SHAPE = Shape(BLOCK, ("tid", "node", "wake"))
WAKE_SHAPE = Shape(WAKE, ("tid", "node"))
#: ``segment_done``: the dispatch finished a workload segment
CHARGE_SHAPE = Shape(CHARGE, ("tid", "node", "work", "segment_done"))
EXIT_SHAPE = Shape(EXIT, ("tid", "node"))
INTERRUPT_SHAPE = Shape(INTERRUPT, ("cpu", "service"))
#: the hierarchy's tag restamp
TAG_UPDATE_SHAPE = Shape(TAG_UPDATE, ("node", "start", "finish", "work"))
#: the fair-queue baselines' tag restamp, which names the thread
FQ_TAG_UPDATE_SHAPE = Shape(TAG_UPDATE, ("node", "tid", "start", "finish",
                                         "work"))
VTIME_ADVANCE_SHAPE = Shape(VTIME_ADVANCE, ("node", "v"))
VIOLATION_SHAPE = Shape(VIOLATION, ("rule", "node", "message"))
NODE_CREATE_SHAPE = Shape(NODE_CREATE, ("node", "weight", "leaf", "sid"))
NODE_REMOVE_SHAPE = Shape(NODE_REMOVE, ("node",))
THREAD_MOVE_SHAPE = Shape(THREAD_MOVE, ("tid", "name", "node", "source"))
WEIGHT_CHANGE_SHAPE = Shape(WEIGHT_CHANGE, ("node", "weight", "old_weight"))

#: every declared shape (faultlab builds its ``fault-inject`` shapes per
#: call, since each injector adds its own fields)
SHAPES = (
    SPAWN_SHAPE, RUNNABLE_SHAPE, DISPATCH_SHAPE, SLICE_SHAPE, PREEMPT_SHAPE,
    BLOCK_SHAPE, WAKE_SHAPE, CHARGE_SHAPE, EXIT_SHAPE, INTERRUPT_SHAPE,
    TAG_UPDATE_SHAPE, FQ_TAG_UPDATE_SHAPE, VTIME_ADVANCE_SHAPE,
    VIOLATION_SHAPE, NODE_CREATE_SHAPE, NODE_REMOVE_SHAPE, THREAD_MOVE_SHAPE,
    WEIGHT_CHANGE_SHAPE,
)

#: one record as emitted: its shape, its time, its values in field order
Record = Tuple[Shape, int, Tuple[Any, ...]]
#: a record entry point: ``capture(shape, time, values)``
Capture = Callable[[Shape, int, Tuple[Any, ...]], None]
#: an object with a :data:`Capture` method named ``capture``, or a
#: :data:`Capture` itself
Subscriber = Any


def capture_of(subscriber: Subscriber) -> Capture:
    """The entry point a record reaches ``subscriber`` through: its
    ``capture`` method if it has one, else the subscriber itself.

    Raises :class:`TypeError` for an object that is neither.
    """
    capture: Capture = getattr(subscriber, "capture", subscriber)
    if not callable(capture):
        raise TypeError("subscriber needs a capture method or must be "
                        "callable, got %r" % (subscriber,))
    return capture


class EventBus:
    """A low-overhead synchronous pub/sub bus for shaped records.

    Subscribers are invoked in subscription order; the order — and
    everything else about the bus — is deterministic.  Subscriber
    exceptions propagate to the emit site: the bus is a development tool
    and must not silently swallow errors.
    """

    __slots__ = ("_subscribers", "active", "_captures", "_capture")

    def __init__(self) -> None:
        self._subscribers: List[Subscriber] = []
        #: True when at least one subscriber is attached.  A plain attribute
        #: (not a property) kept in sync by subscribe/unsubscribe/clear: emit
        #: sites sit on per-dispatch paths and guard with ``BUS.active``, so
        #: the disabled cost must be a single attribute load — no descriptor
        #: call, no list truth test.  Never assign it from outside the bus.
        self.active: bool = False
        #: each subscriber's entry point (see :func:`capture_of`), in
        #: subscription order; rebuilt on every change
        self._captures: Tuple[Capture, ...] = ()
        #: the sole subscriber's entry point: emit then calls it with no
        #: loop at all (the ``tracer=`` and binlog cases)
        self._capture: Optional[Capture] = None

    def _refresh(self) -> None:
        captures = tuple(map(capture_of, self._subscribers))
        self._captures = captures
        self._capture = captures[0] if len(captures) == 1 else None
        self.active = bool(captures)

    def subscribe(self, subscriber: Subscriber) -> Subscriber:
        """Attach ``subscriber`` (an object with a ``capture`` method, or
        a callable taking ``(shape, time, values)``); returns it."""
        capture_of(subscriber)
        self._subscribers.append(subscriber)
        self._refresh()
        return subscriber

    def unsubscribe(self, subscriber: Subscriber) -> None:
        """Detach ``subscriber``; unknown subscribers are ignored."""
        try:
            self._subscribers.remove(subscriber)
        except ValueError:
            pass
        self._refresh()

    @contextlib.contextmanager
    def subscription(self, subscriber: Subscriber) -> Iterator[Subscriber]:
        """Context manager: subscribe on entry, always unsubscribe on exit.

        The recommended way to attach collectors in tests and scripts::

            with BUS.subscription(collector):
                machine.run_until(horizon)
        """
        self.subscribe(subscriber)
        try:
            yield subscriber
        finally:
            self.unsubscribe(subscriber)

    def clear(self) -> None:
        """Detach every subscriber (end-of-session cleanup)."""
        del self._subscribers[:]
        self._refresh()

    def subscriber_count(self) -> int:
        """How many subscribers are attached.

        SCHEDSAN's isolation guard fingerprints this to detect worker
        code leaking subscriptions across a pool merge.
        """
        return len(self._subscribers)

    def emit(self, shape: Shape, time: int, *values: Any) -> None:
        """Deliver one record of ``shape`` at ``time`` to every subscriber.

        ``values`` are the shape's fields, positionally and in order.
        Every subscriber is handed ``(shape, time, values)`` as they are;
        nothing is built for it.  Hot paths still guard with
        :attr:`active`: the call itself packs ``values``.
        """
        capture = self._capture
        if capture is not None:
            capture(shape, time, values)
            return
        for capture in self._captures:
            capture(shape, time, values)


#: the process-wide default bus every emit site uses
BUS = EventBus()
