"""Simulated mutexes and the Acquire/Release workload segments.

A thread's workload acquires a mutex by yielding ``Acquire(mutex)`` and
releases it with ``Release(mutex)``.  Contended acquisition blocks the
thread (no timeout); release grants the mutex to the head waiter FIFO and
wakes it.

Priority-inversion avoidance (paper §4): when ``donate_weight`` is enabled
on the mutex, a blocking waiter *donates* its weight to the current holder
for as long as it waits — "the blocking thread will have a weight (and
hence, the CPU allocation) that is at least as large as the weight of the
blocked thread."  Donations stack (multiple waiters) and are withdrawn on
grant.  Donation only affects proportional-share leaf schedulers, which
read weights at tag-stamping time; it is exactly the mechanism the paper
proposes for SFQ leaves.

The paper notes inter-class synchronization is undesirable (it voids QoS
guarantees); this implementation permits it but donation still applies —
the *weight* moves with the thread's number, wherever the holder runs.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Optional

from repro.errors import SchedulingError

if TYPE_CHECKING:  # pragma: no cover
    from repro.threads.thread import SimThread


class Acquire:
    """Workload segment: acquire ``mutex`` (blocking if held)."""

    __slots__ = ("mutex",)

    def __init__(self, mutex: "SimMutex") -> None:
        self.mutex = mutex

    def __repr__(self) -> str:
        return "Acquire(%s)" % self.mutex.name


class Release:
    """Workload segment: release ``mutex`` (must be the holder)."""

    __slots__ = ("mutex",)

    def __init__(self, mutex: "SimMutex") -> None:
        self.mutex = mutex

    def __repr__(self) -> str:
        return "Release(%s)" % self.mutex.name


class SimMutex:
    """A FIFO mutex with optional weight donation."""

    def __init__(self, name: str = "mutex", donate_weight: bool = False) -> None:
        self.name = name
        self.donate_weight = donate_weight
        self.holder: Optional["SimThread"] = None
        self.waiters: Deque["SimThread"] = deque()
        #: live donations: waiter -> donated amount (to current holder)
        self._donations: Dict["SimThread", int] = {}

    @property
    def locked(self) -> bool:
        """True while some thread holds the mutex."""
        return self.holder is not None

    def try_acquire(self, thread: "SimThread") -> bool:
        """Take the mutex if free; returns False when the caller must wait."""
        if self.holder is None:
            self.holder = thread
            return True
        if self.holder is thread:
            raise SchedulingError(
                "thread %r re-acquired mutex %r (not reentrant)"
                % (thread, self.name))
        return False

    def enqueue_waiter(self, thread: "SimThread") -> None:
        """Register a blocked waiter; applies weight donation if enabled."""
        self.waiters.append(thread)
        if self.donate_weight and self.holder is not None:
            amount = thread.weight
            self._donations[thread] = amount
            self.holder.set_weight(self.holder.weight + amount)

    def release(self, thread: "SimThread") -> Optional["SimThread"]:
        """Release by ``thread``; returns the next holder (now granted).

        Withdraws every live donation from the old holder; the new holder
        then receives fresh donations from the waiters still queued behind
        it.
        """
        if self.holder is not thread:
            raise SchedulingError(
                "thread %r released mutex %r held by %r"
                % (thread, self.name, self.holder))
        if self._donations:
            returned = sum(self._donations.values())
            thread.set_weight(max(1, thread.weight - returned))
            self._donations.clear()
        if not self.waiters:
            self.holder = None
            return None
        new_holder = self.waiters.popleft()
        self.holder = new_holder
        if self.donate_weight:
            for waiter in self.waiters:
                self._donations[waiter] = waiter.weight
            boost = sum(self._donations.values())
            if boost:
                new_holder.set_weight(new_holder.weight + boost)
        return new_holder

    def drop_waiter(self, thread: "SimThread") -> None:
        """Remove a waiter that will never be granted (exit/teardown)."""
        if thread in self.waiters:
            self.waiters.remove(thread)
            amount = self._donations.pop(thread, 0)
            if amount and self.holder is not None:
                self.holder.set_weight(max(1, self.holder.weight - amount))

    def __repr__(self) -> str:
        return "SimMutex(%r, holder=%s, waiters=%d)" % (
            self.name, self.holder.name if self.holder else None,
            len(self.waiters))
