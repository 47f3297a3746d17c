"""The Start-time Fair Queuing queue.

An :class:`SfqQueue` schedules *entities* — anything with a positive
``weight`` attribute (scheduling-structure nodes, threads).  It implements
the three rules of the paper's Section 3:

1. when an entity requests service (becomes runnable), stamp it with a start
   tag ``S = max(v, F)`` where ``F`` is its finish tag (initially 0);
2. when a service quantum of length ``l`` completes, advance the finish tag
   ``F = S + l / w`` (and restamp ``S = F`` if the entity stays runnable —
   at completion ``v`` equals the entity's own start tag, so
   ``max(v, F) = F``);
3. dispatch in increasing start-tag order, breaking ties by arrival
   sequence (deterministic; the paper allows arbitrary tie-breaks).

Virtual time ``v`` follows the paper exactly: while the queue is busy it is
the start tag of the entity in service; when the queue goes idle it jumps to
the maximum finish tag ever assigned.  No runnable start tag is ever below
``v`` (stamping takes ``max(v, F)``, a charge only raises a start tag, and
``v`` moves only to the minimum runnable start or, when idle, to the
maximum finish), so a pick simply sets ``v`` to the picked start tag.

Tags come from the queue's :class:`~repro.core.tags.TagMath`: canonical
rationals in exact mode (an ``int`` when integral, else a ``Fraction``),
floats in float mode.

The queue never needs quantum lengths in advance — lengths are supplied at
:meth:`charge` time, which is the property that makes SFQ usable for CPU
scheduling (threads may block before exhausting their quantum).

Storage layout (since the columnar-arena refactor)
--------------------------------------------------
Per-entity state lives in the flat parallel columns of a
:class:`~repro.core.arena.SfqArena`, indexed by a dense slot id; the queue
object is a façade that maps ``id(entity)`` to a slot at the API edge and
then works purely on lists.  The dispatch heap holds ``(start, seq,
version, slot)`` tuples and deletes lazily: bumping a slot's version
invalidates its entry, which a pick pops once it reaches the top.  A
charge that finds the in-service entry still at the top re-keys it in
place (one ``heapreplace``) instead of pushing a second entry; the valid
entries and their keys are the same either way.  Mutable queue scalars
(virtual time, max finish tag, runnable count and the solo slot) sit in
the four-element ``_state`` list, so the cached ancestor chains and the
descent read and write them by index, without attribute protocol.  The
descent reaches each level through its node's ``view``: the queue's heap,
state vector and arena columns in one tuple, unpacked once per level.
Queues with a single registered entity run in *solo* mode: ordering is
trivial, so the heap stays empty, stamping skips heap pushes entirely and
the chain walks leave the slot's heap version alone — observable
behaviour (picks, tags, virtual time) is identical, which the
golden-trace suite pins.

Module-level hot functions
--------------------------
The hierarchy imports :func:`pick_leaf`, :func:`charge_chain`,
:func:`wake_chain`, :func:`sleep_chain` and :func:`build_ancestor_chain`,
and the SFQ leaf scheduler the ``queue_*`` per-queue operations, as
module-level names rather than calling methods.  The benchmark's
per-layer tracer (``perfbench/spans.py``) patches those names in the
importing modules to count ``sfq.chain_calls`` and ``sfq.queue_ops``.
"""

from __future__ import annotations

from heapq import heappop, heappush, heapreplace
from typing import Any, Dict, List, Optional, Tuple

from repro.core.arena import SfqArena
from repro.core.tags import EXACT, Tag, TagMath
from repro.errors import SchedulingError

# Indices into SfqQueue._state.
_VT = 0    # virtual time v
_MF = 1    # maximum finish tag ever assigned
_RC = 2    # count of runnable entities
_SOLO = 3  # the solo slot (SfqQueue._solo, mirrored for pick_leaf)


class SfqQueue:
    """A single SFQ scheduling queue over weighted entities."""

    __slots__ = ("tags", "arena", "_slots", "_heap", "_state", "_solo",
                 "_float_fast", "_cview", "_arrivals")

    def __init__(self, tag_math: Optional[TagMath] = None) -> None:
        self.tags = tag_math if tag_math is not None else EXACT
        self.arena = arena = SfqArena()
        #: entities added so far: the tie-break sequence between equal
        #: start tags (an int, not a counter object, because every tree
        #: node builds a queue)
        self._arrivals = 0
        #: id(entity) -> slot; the only object-keyed structure on the queue
        self._slots: Dict[int, int] = {}
        self._heap: List[Tuple[Tag, int, int, int]] = []
        zero = self.tags.zero()
        self._state: List[Any] = [zero, zero, 0, -1]
        #: the single live slot while exactly one entity is registered
        #: (solo mode: empty heap, no pushes), else -1
        self._solo = -1
        # Hot-path specialization: stock float-mode tag math is inlined in
        # charge() (`start + length / weight` — the exact expression
        # TagMath.advance computes), skipping two calls per charge per tree
        # level.  Exact mode and custom TagMath objects take the slow path.
        self._float_fast = (type(self.tags) is TagMath
                            and not self.tags.exact)
        # Column view for the per-dispatch descent (pick_leaf), unpacked
        # once per level: stable references to the heap, state vector and
        # arena columns, none of which are ever rebound (the solo slot
        # changes, so the descent reads it from the state vector).
        self._cview: Tuple[Any, ...] = (self._heap, self._state, arena.ent,
                                        arena.start, arena.run, arena.ver)

    # --- membership ---------------------------------------------------

    def add(self, entity: Any) -> None:
        """Register ``entity`` (initially not runnable, finish tag 0).

        New entities start with ``F = 0``; their first stamping takes
        ``max(v, 0) = v``, so a late joiner does not receive catch-up credit
        for the time before it arrived.
        """
        key = id(entity)
        slots = self._slots
        if key in slots:
            raise SchedulingError("entity %r already in SFQ queue" % (entity,))
        arena = self.arena
        slot = arena.alloc(entity, self.tags.zero(), self._arrivals)
        self._arrivals += 1
        slots[key] = slot
        count = len(slots)
        if count == 1:
            self._solo = slot
            self._state[_SOLO] = slot
        elif count == 2:
            # Leaving solo mode: restore the invariant that every runnable
            # entity has a valid heap entry.
            solo = self._solo
            self._solo = -1
            self._state[_SOLO] = -1
            if arena.run[solo]:
                version = arena.ver[solo] + 1
                arena.ver[solo] = version
                heappush(self._heap,
                         (arena.start[solo], arena.seq[solo], version, solo))

    def remove(self, entity: Any) -> None:
        """Deregister ``entity``; it must not be runnable."""
        slot = self._slot_of(entity)
        arena = self.arena
        if arena.run[slot]:
            raise SchedulingError(
                "cannot remove runnable entity %r from SFQ queue" % (entity,))
        del self._slots[id(entity)]
        arena.release(slot)  # bumps the version: stale heap entries die
        count = len(self._slots)
        if count == 1:
            # Entering solo mode: the heap is no longer consulted, so drop
            # it in place (the cview/chain references stay valid).
            remaining = next(iter(self._slots.values()))
            del self._heap[:]
            self._solo = remaining
            self._state[_SOLO] = remaining
        elif count == 0:
            del self._heap[:]
            self._solo = -1
            self._state[_SOLO] = -1

    def __contains__(self, entity: Any) -> bool:
        return id(entity) in self._slots

    def __len__(self) -> int:
        return len(self._slots)

    # --- introspection --------------------------------------------------

    @property
    def virtual_time(self) -> Tag:
        """Current virtual time ``v`` of this queue."""
        return self._state[_VT]

    @property
    def runnable_count(self) -> int:
        """Number of entities currently eligible for service."""
        return self._state[_RC]

    def has_runnable(self) -> bool:
        """True when at least one entity is eligible for service."""
        return self._state[_RC] > 0

    def start_tag(self, entity: Any) -> Tag:
        """Current start tag of ``entity`` (for tests and tracing)."""
        return self.arena.start[self._slot_of(entity)]

    def finish_tag(self, entity: Any) -> Tag:
        """Current finish tag of ``entity`` (for tests and tracing)."""
        return self.arena.fin[self._slot_of(entity)]

    def is_runnable(self, entity: Any) -> bool:
        """True if ``entity`` is currently marked runnable in this queue."""
        return bool(self.arena.run[self._slot_of(entity)])

    # --- the three SFQ rules ---------------------------------------------

    def set_runnable(self, entity: Any) -> None:
        """Rule 1: stamp a newly eligible entity with ``S = max(v, F)``."""
        slot = self._slots.get(id(entity))
        if slot is None:
            slot = self._slot_of(entity)
        arena = self.arena
        if arena.run[slot]:
            return
        arena.run[slot] = 1
        state = self._state
        state[_RC] += 1
        start = arena.fin[slot]
        if start < state[_VT]:
            start = state[_VT]
        arena.start[slot] = start
        version = arena.ver[slot] + 1
        arena.ver[slot] = version
        if self._solo < 0:
            heappush(self._heap, (start, arena.seq[slot], version, slot))

    def set_blocked(self, entity: Any) -> None:
        """Mark an entity ineligible; updates idle virtual time if needed."""
        slot = self._slots.get(id(entity))
        if slot is None:
            slot = self._slot_of(entity)
        arena = self.arena
        if not arena.run[slot]:
            return
        arena.run[slot] = 0
        arena.ver[slot] += 1  # lazy-remove from heap
        state = self._state
        state[_RC] -= 1
        if state[_RC] == 0:
            # Paper rule: when the server goes idle, v jumps to the maximum
            # finish tag assigned to any entity.
            if state[_MF] > state[_VT]:
                state[_VT] = state[_MF]

    def pick(self) -> Optional[Any]:
        """Rule 3: return the runnable entity with the smallest start tag.

        The entity stays queued; it is "in service" until the next
        :meth:`charge`.  Returns ``None`` when nothing is runnable.
        """
        arena = self.arena
        state = self._state
        solo = self._solo
        if solo >= 0:
            if not arena.run[solo]:
                return None
            state[_VT] = arena.start[solo]
            return arena.ent[solo]
        heap = self._heap
        run = arena.run
        ver = arena.ver
        slot = -1
        while heap:
            head = heap[0]
            candidate = head[3]
            if run[candidate] and head[2] == ver[candidate]:
                slot = candidate
                break
            heappop(heap)
        if slot < 0:
            return None
        # valid entries carry the entity's current start tag, and no
        # runnable start tag is below v, so v simply becomes the head's
        state[_VT] = head[0]
        return arena.ent[slot]

    def charge(self, entity: Any, length: int, weight: Optional[int] = None) -> None:
        """Rule 2: account ``length`` units of completed service.

        ``weight`` defaults to ``entity.weight`` read *now*, so dynamic
        weight changes (Figure 11) take effect at the next charge.
        """
        if length < 0:
            raise SchedulingError("negative charge length %d" % length)
        slot = self._slots.get(id(entity))
        if slot is None:
            slot = self._slot_of(entity)
        if weight is None:
            weight = entity.weight
        arena = self.arena
        if self._float_fast:
            if weight <= 0:
                raise ValueError("weight must be positive, got %r" % (weight,))
            # float-mode TagMath.advance, inlined:
            finish = arena.start[slot] + length / weight  # schedlint: disable=SL004
        else:
            finish = self.tags.advance(arena.start[slot], length, weight)
        arena.fin[slot] = finish
        state = self._state
        if finish > state[_MF]:
            state[_MF] = finish
        if arena.run[slot]:
            # Still hungry: the next quantum is requested immediately, and
            # at this instant v equals this entity's start tag, so the new
            # start tag is simply the finish tag.
            arena.start[slot] = finish
            version = arena.ver[slot] + 1
            arena.ver[slot] = version
            if self._solo < 0:
                heap = self._heap
                entry = (finish, arena.seq[slot], version, slot)
                # A runnable entity always has its current entry in the
                # heap, so the heap is not empty.  Right after a pick that
                # entry usually still heads the heap: re-key it in place
                # rather than leave it behind for the next pick to pop.
                head = heap[0]
                if head[3] == slot and head[2] == version - 1:
                    heapreplace(heap, entry)
                else:
                    heappush(heap, entry)

    # --- internals -----------------------------------------------------

    def _slot_of(self, entity: Any) -> int:
        try:
            return self._slots[id(entity)]
        except KeyError:
            raise SchedulingError("entity %r not in SFQ queue" % (entity,)) from None

    def slot_of(self, entity: Any) -> int:
        """The live arena slot of ``entity`` (chain-cache support).

        The slot stays valid until the entity is removed from this queue;
        callers caching it must invalidate on removal (``mknod`` and
        ``rmnod`` drop the hierarchy's cached chains).
        """
        return self._slot_of(entity)


# --- module-level per-queue operations ---------------------------------------
#
# The leaf SFQ scheduler calls these module-level names instead of the
# bound methods, so the benchmark's per-layer tracer can patch them where
# repro.schedulers.sfq_leaf imports them, as it patches the hierarchy's
# chain walks below.

queue_pick = SfqQueue.pick
queue_charge = SfqQueue.charge  # called without a weight: read live
queue_set_runnable = SfqQueue.set_runnable
queue_set_blocked = SfqQueue.set_blocked


#: one ancestor level of a cached chain (see :func:`build_ancestor_chain`)
ChainEntry = Tuple[Any, ...]

# Indices into a chain entry (the walks below unpack it in this order).
_CH_QUEUE = 0
_CH_FLOAT = 1
_CH_SOLO = 2
_CH_HEAP = 3
_CH_STATE = 4
_CH_START = 5
_CH_FIN = 6
_CH_RUN = 7
_CH_VER = 8
_CH_SEQ = 9
_CH_SLOT = 10
_CH_ENTITY = 11
_CH_PARENT = 12


def build_ancestor_chain(leaf: Any) -> List[ChainEntry]:
    """Precompute one flat entry per ancestor of ``leaf``.

    Each entry pre-resolves everything the chain walks touch — the
    ancestor's queue object, its solo slot, heap, state vector, the arena
    columns, the child's slot — so the per-level work is pure list
    indexing.  The chain mirrors the leaf-to-root walks the hierarchy
    performs on charge and eligibility changes, and stays valid until the
    tree shape changes (``mknod`` and ``rmnod`` drop every cached chain;
    solo membership also only changes with the shape, so baking it here
    is safe).
    """
    chain: List[ChainEntry] = []
    node = leaf
    while node.parent is not None:
        parent = node.parent
        queue = parent.queue
        arena = queue.arena
        chain.append((queue, queue._float_fast, queue._solo, queue._heap,
                      queue._state, arena.start, arena.fin, arena.run,
                      arena.ver, arena.seq, queue.slot_of(node), node,
                      parent))
        node = parent
    return chain


def charge_chain(chain: List[ChainEntry], length: int) -> None:
    """Apply :meth:`SfqQueue.charge` along a precomputed ancestor chain.

    Semantically identical to calling ``queue.charge(entity, length)``
    level by level — weights are still read live at charge time, so
    dynamic weight changes keep Figure-11 behaviour — but with the per-call
    record lookups hoisted into the cached chain.  Preconditions (enforced
    by the machine and structure, not re-checked here): ``length >= 0``
    and every entity registered with a positive weight.

    The three walks leave a solo queue's heap versions alone: a solo queue
    holds no heap entries, and :meth:`SfqQueue.add` bumps the version of
    a runnable solo slot when the queue leaves solo mode, so versions
    still never decrease and no stale entry can validate.
    """
    for (queue, float_fast, solo, heap, state, start_col, fin_col, run_col,
         ver_col, seq_col, slot, entity, __) in chain:
        weight = entity.weight
        if float_fast:
            finish = start_col[slot] + length / weight  # schedlint: disable=SL004
        else:
            finish = queue.tags.advance(start_col[slot], length, weight)
        fin_col[slot] = finish
        if finish > state[_MF]:
            state[_MF] = finish
        if run_col[slot]:
            start_col[slot] = finish
            if solo < 0:
                version = ver_col[slot] + 1
                ver_col[slot] = version
                entry = (finish, seq_col[slot], version, slot)
                head = heap[0]  # re-key in place, as in SfqQueue.charge
                if head[3] == slot and head[2] == version - 1:
                    heapreplace(heap, entry)
                else:
                    heappush(heap, entry)


def wake_chain(chain: List[ChainEntry]) -> None:
    """Propagate leaf eligibility up a cached chain (``hsfq_setrun``).

    Per level: :meth:`SfqQueue.set_runnable` for the child, stopping after
    the first parent that was already runnable — exactly the walk in
    :meth:`HierarchicalScheduler.setrun`.
    """
    for (__, ___, solo, heap, state, start_col, fin_col, run_col,
         ver_col, seq_col, slot, ____, parent) in chain:
        if not run_col[slot]:
            run_col[slot] = 1
            state[_RC] += 1
            start = fin_col[slot]
            if start < state[_VT]:
                start = state[_VT]
            start_col[slot] = start
            if solo < 0:
                version = ver_col[slot] + 1
                ver_col[slot] = version
                heappush(heap, (start, seq_col[slot], version, slot))
        if parent.runnable:
            return
        parent.runnable = True


def pick_leaf(root: Any) -> Tuple[Optional[Any], int]:
    """Descend from ``root``, picking the min-start child at every level.

    Inlines :meth:`SfqQueue.pick` per level (the per-dispatch descent is
    the hierarchy's hottest read path).  Returns ``(leaf, depth)``; if some
    internal queue has no runnable child — corrupted eligibility state —
    returns ``(None, depth)`` and the caller re-walks with the method API
    to raise its usual diagnostic (pick is peek-like, so the partial
    descent's virtual-time updates match what the re-walk recomputes).
    Each internal node carries its queue's column view as ``node.view``;
    a leaf's view is ``None``, which ends the descent.
    """
    node = root
    depth = 1
    view = root.view
    while view is not None:
        heap, state, ent_col, start_col, run_col, ver_col = view
        slot = state[_SOLO]
        if slot >= 0:
            if not run_col[slot]:
                return None, depth
            state[_VT] = start_col[slot]
        else:
            while heap:
                head = heap[0]
                slot = head[3]
                if run_col[slot] and head[2] == ver_col[slot]:
                    break
                heappop(heap)
            else:
                return None, depth
            # valid entries carry the current start tag (see pick)
            state[_VT] = head[0]
        node = ent_col[slot]
        view = node.view
        depth += 1
    return node, depth


def sleep_chain(chain: List[ChainEntry]) -> None:
    """Propagate leaf idleness up a cached chain (``hsfq_sleep``).

    Per level: :meth:`SfqQueue.set_blocked` for the child, stopping at the
    first ancestor queue that still has runnable children — exactly the
    walk in :meth:`HierarchicalScheduler.sleep`.
    """
    for (__, ___, solo, ____, state, _____, ______, run_col,
         ver_col, _______, slot, ________, parent) in chain:
        if run_col[slot]:
            run_col[slot] = 0
            if solo < 0:
                ver_col[slot] += 1  # lazy-remove from heap
            state[_RC] -= 1
            if state[_RC] == 0:
                if state[_MF] > state[_VT]:
                    state[_VT] = state[_MF]
        if state[_RC] > 0:
            return
        parent.runnable = False

