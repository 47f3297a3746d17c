"""The observability event bus: typed, timestamped structured events.

The bus is the kernel-tracepoint analogue of this reproduction: emit sites
are compiled into the machines, the hierarchy, the ``hsfq`` system-call
layer, the fair-queuing baselines, SCHEDSAN and faultlab, but every site
is guarded by :attr:`EventBus.active`::

    if self._bus.active:
        self._bus.emit(DISPATCH, now, tid=thread.tid, node=leaf.path, ...)

With no subscriber attached the guard is a single attribute read and no
event object (or keyword dict) is ever constructed, so traced-off runs are
byte-identical to an un-instrumented build.  Subscribers are plain
callables invoked synchronously, in subscription order, with one
:class:`Event`; they must observe, never mutate, simulation state.

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
from typing import Any, Callable, Dict, Iterator, List, Optional

# --- event kinds (the catalogue; see docs/OBSERVABILITY.md) ------------------

#: thread created and admitted to its scheduler
SPAWN = "spawn"
#: thread became eligible to run
RUNNABLE = "runnable"
#: thread was given a CPU (fields: tid, node, cpu, depth, switched,
#: overhead_ns, quantum_work)
DISPATCH = "dispatch"
#: a contiguous run of execution finished (fields: tid, node, cpu, start, work)
SLICE = "slice"
#: the running thread was preempted mid-quantum
PREEMPT = "preempt"
#: thread blocked (fields: tid, node, wake; wake == -1 means a sync wait)
BLOCK = "block"
#: thread woke up
WAKE = "wake"
#: a completed quantum was charged to the scheduler (fields: tid, node, work)
CHARGE = "charge"
#: thread exited
EXIT = "exit"
#: an interrupt stole CPU time (fields: cpu, service)
INTERRUPT = "interrupt"
#: an SFQ (or fair-queuing) start/finish tag was restamped
#: (fields: node, start, finish, weight; tags as floats, for reporting only)
TAG_UPDATE = "tag-update"
#: a queue's virtual time moved forward (fields: node, v)
VTIME_ADVANCE = "vtime-advance"
#: SCHEDSAN detected an invariant violation (fields: rule, node, message)
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

Subscriber = Callable[["Event"], None]

#: bound allocator used by the emit hot path (see :meth:`EventBus.emit`)
_new_event = object.__new__


class Event:
    """One structured event: a kind, a simulation timestamp, and fields.

    ``time`` is integer simulation nanoseconds; ``data`` is a flat dict of
    event-kind-specific fields (see the kind constants above, or
    docs/OBSERVABILITY.md for the full catalogue).
    """

    __slots__ = ("kind", "time", "data")

    def __init__(self, kind: str, time: int, data: Dict[str, Any]) -> None:
        self.kind = kind
        self.time = time
        self.data = data

    def get(self, key: str, default: Any = None) -> Any:
        """Field accessor with a default, like ``dict.get``."""
        return self.data.get(key, default)

    def __repr__(self) -> str:
        return "Event(%s, t=%d, %r)" % (self.kind, self.time, self.data)


class EventBus:
    """A low-overhead synchronous pub/sub bus for :class:`Event` objects.

    Subscribers are invoked in subscription order; the order — and
    everything else about the bus — is deterministic.  Subscriber
    exceptions propagate to the emit site: the bus is a development tool
    and must not silently swallow errors.
    """

    __slots__ = ("_subscribers", "active", "_raw", "_raw_table")

    def __init__(self) -> None:
        self._subscribers: List[Subscriber] = []
        #: True when at least one subscriber is attached.  A plain attribute
        #: (not a property) kept in sync by subscribe/unsubscribe/clear: emit
        #: sites sit on per-dispatch paths and guard with ``BUS.active``, so
        #: the disabled cost must be a single attribute load — no descriptor
        #: call, no list truth test.  Never assign it from outside the bus.
        self.active: bool = False
        #: Raw-consumer fast path: when the *only* subscriber exposes an
        #: ``emit_raw(kind, time, data)`` method (the binlog writer does),
        #: emit hands it the fields directly and never allocates an Event.
        #: If it additionally exposes ``raw_encoders`` — a live dict
        #: mapping event kind to an ``encoder(time, data)`` callable —
        #: emit dispatches per kind with no intermediate frame at all,
        #: falling back to ``emit_raw`` for kinds the dict lacks.  Both
        #: are kept in sync by subscribe/unsubscribe/clear, like
        #: ``active``.
        self._raw: Optional[Callable[[str, int, Dict[str, Any]], None]] = None
        self._raw_table: Optional[Dict[str, Callable[[int, Dict[str, Any]],
                                                     None]]] = None

    def _refresh_raw(self) -> None:
        subscribers = self._subscribers
        if len(subscribers) == 1:
            only = subscribers[0]
            self._raw = getattr(only, "emit_raw", None)
            self._raw_table = (getattr(only, "raw_encoders", None)
                               if self._raw is not None else None)
        else:
            self._raw = None
            self._raw_table = None

    def subscribe(self, subscriber: Subscriber) -> Subscriber:
        """Attach ``subscriber`` (a callable taking one event); returns it."""
        if not callable(subscriber):
            raise TypeError("subscriber must be callable, got %r" % (subscriber,))
        self._subscribers.append(subscriber)
        self.active = True
        self._refresh_raw()
        return subscriber

    def unsubscribe(self, subscriber: Subscriber) -> None:
        """Detach ``subscriber``; unknown subscribers are ignored."""
        try:
            self._subscribers.remove(subscriber)
        except ValueError:
            pass
        self.active = bool(self._subscribers)
        self._refresh_raw()

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
        self.active = False
        self._raw = None
        self._raw_table = None

    def subscriber_count(self) -> int:
        """How many subscribers are attached.

        SCHEDSAN's isolation guard fingerprints this to detect worker
        code leaking subscriptions across a pool merge.
        """
        return len(self._subscribers)

    def emit(self, kind: str, time: int, **data: Any) -> None:
        """Deliver ``Event(kind, time, data)`` to every subscriber.

        A no-op when no subscriber is attached — but note the keyword dict
        has already been built by the call itself, which is why hot paths
        guard with :attr:`active` instead of calling unconditionally.
        """
        table = self._raw_table
        if table is not None:
            encoder = table.get(kind)
            if encoder is not None:
                encoder(time, data)
            else:
                self._raw(kind, time, data)  # type: ignore[misc]
            return
        raw = self._raw
        if raw is not None:
            raw(kind, time, data)
            return
        subscribers = self._subscribers
        if not subscribers:
            return
        # Per-dispatch path: build the Event without the __init__ call.
        # Each emit site pays for this, so a plain constructor's extra
        # frame is measurable (~4x) at the bench_obs_overhead event rate.
        event: Event = _new_event(Event)
        event.kind = kind
        event.time = time
        event.data = data
        for subscriber in subscribers:
            subscriber(event)


#: the process-wide default bus every emit site uses
BUS = EventBus()
