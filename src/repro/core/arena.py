"""Columnar per-entity scheduling state (the SFQ arena).

Every :class:`~repro.core.sfq.SfqQueue` keeps its per-entity state — start
and finish tags, the runnable bit, the lazy-deletion heap version, and the
arrival sequence — in the flat parallel lists of one :class:`SfqArena`,
indexed by a dense integer *slot*.  Objects (tree nodes, threads) appear
only at the API edge: the queue maps ``id(entity)`` to a slot once per
operation and everything below that line is list indexing, which is what
lets the hot paths (the cached ancestor chains and the per-dispatch
descent in :mod:`repro.core.sfq`) run over raw columns without touching
Python attribute protocol.

Slots are recycled through a free list on removal (``hsfq_rmnod``, thread
exit).  Two invariants make recycling safe:

* **Version monotonicity.**  A slot's heap-version column only ever
  increases — :meth:`release` bumps it and :meth:`alloc` never resets it —
  so heap entries enqueued for a previous occupant of the slot can never
  validate against the new occupant.
* **Generation hygiene.**  :meth:`alloc` rewrites the tag columns to zero
  and stamps a fresh arrival sequence, so no start/finish tag (and, since
  weights are always read live from the entity, no weight either) leaks
  from one occupant of a slot to the next.

The columns are **never rebound**: they grow in place via ``append`` so
cached references to the list objects (the chain caches and each queue's
column view) stay valid for the lifetime of the arena.
"""

from __future__ import annotations

from typing import Any, Iterator, List

__all__ = ["SfqArena"]


class SfqArena:
    """Flat parallel columns of per-entity SFQ state, slot-indexed.

    Columns (all the same length, one row per slot):

    ======== ==========================================================
    ``ent``  the entity object (``None`` while the slot is free)
    ``start``  SFQ start tag ``S``
    ``fin``    SFQ finish tag ``F``
    ``run``    runnable bit (int 0/1)
    ``ver``    lazy-deletion heap version (monotonic per slot)
    ``seq``    arrival sequence for deterministic tie-breaks
    ======== ==========================================================
    """

    __slots__ = ("ent", "start", "fin", "run", "ver", "seq", "free")

    def __init__(self) -> None:
        self.ent: List[Any] = []
        self.start: List[Any] = []
        self.fin: List[Any] = []
        self.run: List[int] = []
        self.ver: List[int] = []
        self.seq: List[int] = []
        #: recycled slot indices, LIFO (hot reuse keeps columns compact)
        self.free: List[int] = []

    def alloc(self, entity: Any, zero: Any, arrival_seq: int) -> int:
        """Claim a slot for ``entity``; tags reset to ``zero``.

        Reuses the most recently freed slot when one exists, otherwise
        appends a new row to every column.  The heap-version column is
        deliberately *not* reset on reuse (see module docstring).
        """
        free = self.free
        if free:
            slot = free.pop()
            self.ent[slot] = entity
            self.start[slot] = zero
            self.fin[slot] = zero
            self.run[slot] = 0
            self.seq[slot] = arrival_seq
            return slot
        slot = len(self.ent)
        self.ent.append(entity)
        self.start.append(zero)
        self.fin.append(zero)
        self.run.append(0)
        self.ver.append(0)
        self.seq.append(arrival_seq)
        return slot

    def release(self, slot: int) -> None:
        """Return ``slot`` to the free list; stale heap entries die here.

        Bumping the version invalidates any heap entry still pointing at
        the slot, and dropping the entity reference lets the object (and
        anything it pins) be collected immediately.
        """
        self.ent[slot] = None
        self.ver[slot] += 1
        self.run[slot] = 0
        self.free.append(slot)

    # --- introspection (tests, sanitizers, linear-scan oracles) -----------

    def __len__(self) -> int:
        """Number of live (allocated) slots."""
        return len(self.ent) - len(self.free)

    @property
    def capacity(self) -> int:
        """Total rows ever grown, live or free."""
        return len(self.ent)

    def live_slots(self) -> Iterator[int]:
        """Yield every allocated slot, in slot order."""
        for slot, entity in enumerate(self.ent):
            if entity is not None:
                yield slot

    def __repr__(self) -> str:
        return "SfqArena(live=%d, capacity=%d)" % (len(self), self.capacity)
