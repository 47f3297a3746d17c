"""SCHEDSAN: an opt-in runtime sanitizer for scheduler invariants.

Set ``REPRO_SCHEDSAN=1`` and every machine (uniprocessor and SMP) wraps
its top-level scheduler in an *auditing observer*.  The wrapper delegates
every call unchanged — it never mutates tags, queues, or eligibility — and
after each call verifies the invariants the paper's correctness argument
rests on:

* **virtual-time monotonicity** — no internal node's SFQ virtual time
  ever decreases;
* **start/finish tag rules** — a newly runnable node is stamped
  ``S = max(v, F)`` exactly, and a charge of ``l`` at weight ``w``
  advances ``F`` to exactly ``S + l/w`` (computed with the queue's own
  :class:`~repro.core.tags.TagMath`, so both exact and float modes
  verify);
* **dispatch protocol** — ``charge`` follows a matching ``pick_next``
  (at most one charge per dispatch), charged work is non-negative, and
  ``pick_next`` returns a runnable thread without dequeuing it;
* **no lost wakeups** — after ``thread_runnable`` the thread's leaf (and
  the hierarchy as a whole) reports runnable work;
* **work conservation** — a scheduler claiming runnable work must
  produce a thread when asked;
* **dormant weight changes** (paper §3) — changing a node's weight while
  it is dormant must not warp its recorded start/finish tags (and hence
  v(t)); the new weight may only take effect at the next stamping.  The
  static twin of this rule is schedflow's SF204 (direct ``.weight =``
  stores bypassing ``set_weight``): mutations the sanitizer can observe
  are exactly the sanctioned ones.

Violations are reported with the offending node path and the simulation
time.  By default the first violation raises :class:`SchedsanError` (a
:class:`~repro.errors.SchedulingError`, so machine-level expectations keep
holding); set ``REPRO_SCHEDSAN_MODE=collect`` to accumulate violations on
``machine.scheduler.violations`` instead and keep running.

The sanitizer is an observer, not a referee of leaf-internal policy: it
checks the *contract* every leaf must honour, not whether EDF picked the
right deadline.  Leaf-policy correctness stays with the conformance tests.

Worker isolation (the SF4xx runtime twin)
-----------------------------------------

Under ``REPRO_SCHEDSAN=1`` faultlab additionally brackets every pooled
cell — and the campaign's merge — with an :class:`IsolationGuard`:
:func:`shared_state_fingerprint` snapshots the process-wide registries
(fault kinds, workloads), the event bus's subscriber count, and the
global ``random`` state before the work, and :meth:`IsolationGuard.verify`
asserts the snapshot still holds afterwards.  What schedflow's
SF401—SF406 prove *statically* cannot leak across a pool boundary, the
guard asserts *dynamically* did not leak; results still flow back only
through return values, so guarded reports stay byte-identical to
unguarded ones.
"""

from __future__ import annotations

import hashlib
import os
import random
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.cpu.interface import TopScheduler
from repro.errors import SchedulingError
from repro.obs import events as obs

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.node import InternalNode, LeafNode, Node
    from repro.threads.thread import SimThread

#: environment switch: any non-empty value other than "0" enables SCHEDSAN
ENV_ENABLE = "REPRO_SCHEDSAN"
#: "raise" (default) or "collect"
ENV_MODE = "REPRO_SCHEDSAN_MODE"

#: cap on collected violations, so a hot loop cannot exhaust memory
MAX_COLLECTED = 1000

_NODE_ID = attrgetter("node_id")
_WEIGHT = attrgetter("weight")


class SchedsanError(SchedulingError):
    """A scheduler invariant violation detected by SCHEDSAN."""


class Violation:
    """One detected invariant violation."""

    __slots__ = ("rule", "path", "time", "message")

    def __init__(self, rule: str, path: str, time: int, message: str) -> None:
        self.rule = rule
        self.path = path
        self.time = time
        self.message = message

    def __repr__(self) -> str:
        return "Violation(%s at %s, t=%d)" % (self.rule, self.path, self.time)

    def __str__(self) -> str:
        return "SCHEDSAN[%s] at node %s, t=%dns: %s" % (
            self.rule, self.path, self.time, self.message)


def enabled() -> bool:
    """True when the ``REPRO_SCHEDSAN`` environment variable turns us on."""
    return os.environ.get(ENV_ENABLE, "") not in ("", "0")


def maybe_wrap(scheduler: TopScheduler) -> TopScheduler:
    """Wrap ``scheduler`` in a :class:`SchedsanScheduler` when enabled.

    Idempotent: an already-wrapped scheduler is returned unchanged, so a
    machine handed a sanitized scheduler does not double-audit.
    """
    if not enabled() or isinstance(scheduler, SchedsanScheduler):
        return scheduler
    return SchedsanScheduler(scheduler)


class SchedsanScheduler(TopScheduler):
    """Auditing proxy around any :class:`TopScheduler`.

    Generic dispatch-protocol checks apply to every scheduler; the
    tree-walking SFQ audits engage when the inner scheduler exposes a
    scheduling structure (i.e. is a
    :class:`~repro.core.hierarchy.HierarchicalScheduler`).
    """

    def __init__(self, inner: TopScheduler, mode: Optional[str] = None) -> None:
        self._inner = inner
        if mode is None:
            mode = os.environ.get(ENV_MODE, "raise")
        if mode not in ("raise", "collect"):
            raise ValueError("unknown SCHEDSAN mode %r" % (mode,))
        self._mode = mode
        #: violations found so far (all of them in collect mode, the
        #: fatal one in raise mode)
        self.violations: List[Violation] = []
        self._clock: Callable[[], int] = lambda: 0
        #: tids of threads picked but not yet charged
        self._in_service: Dict[int, str] = {}
        #: node_id -> last observed virtual time, per internal node
        self._last_v: Dict[int, object] = {}
        #: parent node_id -> its last sweep: the children's weights keyed
        #: by node_id, then copies of the queue's ent/run/start/fin
        #: columns; drives the dormant-weight-change invariant
        self._sweeps: Dict[int, Tuple[Dict[int, int], List[Any], List[int],
                                      List[Any], List[Any]]] = {}

    # --- plumbing ---------------------------------------------------------

    @property
    def inner(self) -> TopScheduler:
        """The wrapped scheduler."""
        return self._inner

    @property
    def clock(self) -> Callable[[], int]:
        """Simulation clock; installed by the machine, shared with the
        wrapped scheduler when it wants one."""
        return self._clock

    @clock.setter
    def clock(self, fn: Callable[[], int]) -> None:
        self._clock = fn
        if hasattr(self._inner, "clock"):
            self._inner.clock = fn  # type: ignore[attr-defined]

    def attach_bus(self, bus: obs.EventBus) -> None:
        """Installed by the machine; shared with the wrapped scheduler."""
        self._bus = bus
        self._inner.attach_bus(bus)

    def __getattr__(self, name: str) -> Any:
        # Delegate anything beyond the TopScheduler protocol (e.g.
        # ``structure``, ``preempt_policy``, ``leaf_scheduler``).
        return getattr(self._inner, name)

    def _violate(self, rule: str, path: str, now: Optional[int],
                 message: str) -> None:
        time = self._clock() if now is None else now
        violation = Violation(rule, path, time, message)
        if self._bus.active:
            self._bus.emit(obs.VIOLATION_SHAPE, time, rule, path, message)
        if len(self.violations) < MAX_COLLECTED:
            self.violations.append(violation)
        if self._mode == "raise":
            raise SchedsanError(str(violation))

    # --- tree helpers ------------------------------------------------------

    def _structure(self) -> Any:
        return getattr(self._inner, "structure", None)

    def _leaf_of(self, thread: "SimThread") -> Any:
        """The leaf scheduler serving ``thread``, when discoverable."""
        leaf = getattr(thread, "leaf", None)
        if leaf is not None:
            return leaf.scheduler
        return getattr(self._inner, "leaf_scheduler", None)

    def _leaf_path(self, thread: "SimThread") -> str:
        leaf = getattr(thread, "leaf", None)
        if leaf is not None:
            return leaf.path
        return "/"

    def _ancestry(
            self, thread: "SimThread",
    ) -> List[Tuple["Node", "InternalNode"]]:
        """(node, parent) pairs from the thread's leaf up to the root."""
        pairs: List[Tuple["Node", "InternalNode"]] = []
        node = getattr(thread, "leaf", None)
        if node is None or self._structure() is None:
            return pairs
        while node.parent is not None:
            pairs.append((node, node.parent))
            node = node.parent
        return pairs

    def _check_virtual_time(self, parent: "InternalNode",
                            now: Optional[int]) -> None:
        v = parent.queue.virtual_time
        last = self._last_v.get(parent.node_id)
        if last is not None and v < last:  # type: ignore[operator]
            self._violate(
                "virtual-time-monotonicity", parent.path, now,
                "virtual time moved backwards: %r -> %r" % (last, v))
        self._last_v[parent.node_id] = v
        self._check_dormant_weights(parent, now)

    def _check_dormant_weights(self, parent: "InternalNode",
                               now: Optional[int]) -> None:
        """Paper §3: a weight change while a node is dormant must not warp
        its recorded tags.

        Each sweep snapshots every child's weight, runnable bit, ``S`` and
        ``F``.  If two consecutive observations both find the child dormant
        but the weight changed *and* the tags moved, something recomputed
        ``S``/``F`` eagerly from the new weight — the warp the paper
        forbids (the change may only take effect at the next stamping).
        Only a child whose weight changed can trip the rule, so only those
        are examined one by one; the rest of the snapshot is C-level
        copies: the weights keyed by ``node_id`` and the queue's columns.
        A child that was not queued at the last sweep has nothing to
        compare with.  Cross-link: schedflow's SF204 flags the unsanctioned
        ``.weight`` stores that make such warps invisible to this check.
        """
        queue = parent.queue
        arena = queue.arena
        children = parent.children.values()
        weights = dict(zip(map(_NODE_ID, children), map(_WEIGHT, children)))
        last = self._sweeps.get(parent.node_id)
        self._sweeps[parent.node_id] = (weights, arena.ent[:], arena.run[:],
                                        arena.start[:], arena.fin[:])
        if last is None or weights == last[0]:
            return
        old_weights, old_ent, old_run, old_start, old_fin = last
        for child in children:
            weight = child.weight
            old_weight = old_weights.get(child.node_id, weight)
            if weight == old_weight or child not in queue:
                continue
            try:
                old_slot = old_ent.index(child)
            except ValueError:
                continue
            slot = queue.slot_of(child)
            if arena.run[slot] or old_run[old_slot]:
                continue
            start = arena.start[slot]
            finish = arena.fin[slot]
            if start != old_start[old_slot] or finish != old_fin[old_slot]:
                self._violate(
                    "dormant-weight-warp", child.path, now,
                    "weight changed %d -> %d while dormant and the "
                    "tags warped (S: %r -> %r, F: %r -> %r); dormant "
                    "weight changes take effect at the next stamping, "
                    "never retroactively"
                    % (old_weight, weight, old_start[old_slot], start,
                       old_fin[old_slot], finish))

    def _sweep_virtual_time(self, thread: "SimThread",
                            now: Optional[int]) -> None:
        for __, parent in self._ancestry(thread):
            self._check_virtual_time(parent, now)

    # --- TopScheduler protocol, audited -----------------------------------

    def admit(self, thread: "SimThread") -> None:
        self._inner.admit(thread)

    def retire(self, thread: "SimThread", now: int) -> None:
        ancestry = self._ancestry(thread)
        self._inner.retire(thread, now)
        self._in_service.pop(thread.tid, None)
        for __, parent in ancestry:
            self._check_virtual_time(parent, now)

    def thread_runnable(self, thread: "SimThread", now: int) -> None:
        ancestry = self._ancestry(thread)
        before = []
        for node, parent in ancestry:
            in_queue = node in parent.queue
            before.append((
                node.runnable,
                parent.queue.finish_tag(node) if in_queue else None,
                parent.queue.virtual_time,
            ))
        self._inner.thread_runnable(thread, now)

        leaf_sched = self._leaf_of(thread)
        if leaf_sched is not None and not leaf_sched.has_runnable():
            self._violate(
                "lost-wakeup", self._leaf_path(thread), now,
                "thread %r was made runnable but its leaf scheduler reports "
                "no runnable work" % (thread.name,))
        if not self._inner.has_runnable():
            self._violate(
                "lost-wakeup", self._leaf_path(thread), now,
                "thread %r was made runnable but the scheduler reports no "
                "runnable work" % (thread.name,))

        for (node, parent), (was_runnable, finish_before, v_before) in zip(
                ancestry, before):
            self._check_virtual_time(parent, now)
            if was_runnable or not node.runnable:
                continue  # not newly stamped by this wakeup
            expected = finish_before
            if expected is None or v_before > expected:  # type: ignore[operator]
                expected = v_before
            start = parent.queue.start_tag(node)
            if start != expected:
                self._violate(
                    "start-tag-rule", node.path, now,
                    "stamped S=%r; the SFQ rule S = max(v, F) requires %r "
                    "(v=%r, F=%r)" % (start, expected, v_before, finish_before))

    def thread_blocked(self, thread: "SimThread", now: int) -> None:
        self._inner.thread_blocked(thread, now)
        self._sweep_virtual_time(thread, now)

    def pick_next(self, now: int) -> Optional["SimThread"]:
        had_runnable = self._inner.has_runnable()
        thread = self._inner.pick_next(now)
        if thread is None:
            if had_runnable:
                self._violate(
                    "work-conservation", "/", now,
                    "scheduler reported runnable work but pick_next "
                    "returned None")
            return None
        if not thread.is_runnable:
            self._violate(
                "picked-non-runnable", self._leaf_path(thread), now,
                "pick_next returned %r in state %s" % (
                    thread.name, thread.state.value))
        leaf_sched = self._leaf_of(thread)
        if leaf_sched is not None and not leaf_sched.has_runnable():
            self._violate(
                "pick-dequeued", self._leaf_path(thread), now,
                "pick_next of %r left its leaf scheduler empty: the picked "
                "thread must stay queued until charge" % (thread.name,))
        self._in_service[thread.tid] = self._leaf_path(thread)
        self._sweep_virtual_time(thread, now)
        return thread

    def charge(self, thread: "SimThread", work: int, now: int) -> None:
        if work < 0:
            self._violate(
                "negative-work", self._leaf_path(thread), now,
                "charge of %d instructions for %r" % (work, thread.name))
        if thread.tid not in self._in_service:
            self._violate(
                "charge-without-dispatch", self._leaf_path(thread), now,
                "charge of %d for %r without a matching pick_next (the "
                "contract is exactly one charge per dispatch)"
                % (work, thread.name))
        else:
            del self._in_service[thread.tid]

        ancestry = self._ancestry(thread)
        before = []
        for node, parent in ancestry:
            in_queue = node in parent.queue
            before.append((
                parent.queue.start_tag(node) if in_queue else None,
                node.weight,
                parent.queue.virtual_time,
            ))
        self._inner.charge(thread, work, now)
        for (node, parent), (start_before, weight, __) in zip(ancestry, before):
            self._check_virtual_time(parent, now)
            if start_before is None:
                continue
            expected = parent.queue.tags.advance(start_before, work, weight)
            finish = parent.queue.finish_tag(node)
            if finish != expected:
                self._violate(
                    "finish-tag-rule", node.path, now,
                    "charge of %d at weight %d advanced F to %r; the SFQ "
                    "rule F = S + l/w requires %r (S=%r)"
                    % (work, weight, finish, expected, start_before))

    def quantum_for(self, thread: "SimThread") -> Optional[int]:
        return self._inner.quantum_for(thread)

    def should_preempt(self, current: "SimThread", candidate: "SimThread",
                       now: int) -> bool:
        return self._inner.should_preempt(current, candidate, now)

    def has_runnable(self) -> bool:
        return self._inner.has_runnable()

    @property
    def decision_depth(self) -> int:
        return self._inner.decision_depth


# --- worker isolation: the runtime twin of schedflow SF401—SF406 -------------


class IsolationError(SchedsanError):
    """Shared process state changed across a worker/merge boundary."""


def shared_state_fingerprint() -> Tuple[Tuple[str, object], ...]:
    """Snapshot every process-wide surface a pool worker could dirty.

    The imports are lazy (and the fingerprint degrades gracefully when
    faultlab is absent) so this module keeps its zero-dependency import
    graph; the labels name what leaked when a mismatch is reported.
    """
    entries: List[Tuple[str, object]] = []
    try:
        from repro.faultlab.faults import FAULTS
        entries.append(("faultlab.faults.FAULTS", tuple(sorted(FAULTS))))
    except ImportError:  # pragma: no cover - faultlab is always present
        pass
    try:
        from repro.faultlab.workloads import WORKLOADS
        entries.append(
            ("faultlab.workloads.WORKLOADS", tuple(sorted(WORKLOADS))))
    except ImportError:  # pragma: no cover - faultlab is always present
        pass
    entries.append(("obs.events.BUS.subscribers",
                    obs.BUS.subscriber_count()))
    state = repr(
        random.getstate())  # schedlint: disable=SL002,SF403 (reads only)
    entries.append(("random.global_state",
                    hashlib.sha256(state.encode("utf-8")).hexdigest()))
    return tuple(entries)


class IsolationGuard:
    """Assert that a block of work left shared process state untouched.

    Snapshot at construction, :meth:`verify` after the work::

        guard = IsolationGuard("cell baseline+none")
        result = run_cell(spec)
        guard.verify()

    An object (not a module global) on purpose: a module-level snapshot
    would itself be the shared mutable state SF401 bans.
    """

    __slots__ = ("context", "_before")

    def __init__(self, context: str) -> None:
        self.context = context
        self._before = shared_state_fingerprint()

    def verify(self) -> None:
        """Raise :class:`IsolationError` naming every leaked surface."""
        after = shared_state_fingerprint()
        if after == self._before:
            return
        before_map = dict(self._before)
        leaked = sorted(label for label, value in after
                        if before_map.get(label) != value)
        raise IsolationError(
            "SCHEDSAN[worker-isolation] %s: shared state mutated across "
            "the boundary: %s; worker results must flow back through "
            "return values only" % (self.context, ", ".join(leaked)))
