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
trivial, so the heap stays empty and stamping skips heap pushes entirely
— observable behaviour (picks, tags, virtual time) is identical, which
the golden-trace suite pins.

Folded runs of solo queues
--------------------------
A solo queue orders nothing, since ordering needs a sibling, so its tags
decide nothing while it stays solo.  Each maximal run of solo ancestor
queues (Figure 7(b)'s pass-through nodes) is one :class:`SoloRun`, found
lazily when a chain first needs it and shared by every leaf below it.  A
cached chain holds the whole run as one entry, and the descent jumps from
the run's top to the node below its bottom, adding the levels it skips to
the depth it returns.  A charge, pick, wake or sleep that reaches the run
appends one op to the run's pending log instead of writing the run's
queues: their tags, their child's ``run`` flag and their runnable count
wait for the log.  The run's nodes share one ``runnable`` flag, held by
its top node, which the walks set and clear once per run.
:meth:`SoloRun.settle` replays the log level by level, in order, exactly as
:func:`charge_chain`, :func:`pick_leaf`, :func:`wake_chain` and
:func:`sleep_chain` would have applied it: float mode evaluates
``start + length / weight`` one charge at a time, inlined as the walks do,
and exact mode goes through :meth:`TagMath.advance`, so every tag is
bit-identical to the eager walk.  A level whose weight, tags and flag
equal the level's below it copies that level's result.  A log replays
itself when it reaches :data:`_LOG_LIMIT` ops, so memory stays flat.

The rule: **every reader of a run's queues settles it first.**  The
readers are :meth:`SfqQueue.add` and :meth:`SfqQueue.remove` (a shape
change, after which the structure unfolds every run), ``Node.set_weight``
(a replay must use the weight in force at each charge), the traced walks
of the hierarchy (:func:`expand_chain`), SCHEDSAN's audits, and the
queue's own :attr:`~SfqQueue.virtual_time`,
:attr:`~SfqQueue.runnable_count`, :meth:`~SfqQueue.has_runnable`,
:meth:`~SfqQueue.is_runnable`, :meth:`~SfqQueue.start_tag`,
:meth:`~SfqQueue.finish_tag`, :meth:`~SfqQueue.pick`,
:meth:`~SfqQueue.charge`, :meth:`~SfqQueue.set_runnable` and
:meth:`~SfqQueue.set_blocked` (so ``admin(INFO)``, schedstat and the
descent's error re-walk read settled values).  Code that reads the
``arena`` columns of a queue directly calls :meth:`SfqQueue.settle` first.
The module-level ``queue_*`` functions apply the SFQ rules without
settling: the SFQ leaf scheduler calls them on its thread queue, which no
run holds (runs fold only the tree's internal queues).

The walks keep a run's levels in step: each node of a run is runnable
exactly when its only child is, which is why one flag serves them all.
A wake reaches a run only when the node below it has just become
runnable, so it marks every level; a sleep that reaches a run idles all
of it; and the descent, entering a run at a runnable top, logs one pick
for every level.  ``InternalNode.runnable`` reads and writes a run
node's flag through the run, and :meth:`SoloRun.unfold` hands each node
the shared value back.  (A wake that finds the run already runnable, a
state only writes to a node's flag from outside make, marks the bottom
level and stops, as the eager walk would.)

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
_FOLD = 4  # the SoloRun this queue is folded into, else None

#: pending ops a folded run holds before it replays them (memory stays flat)
_LOG_LIMIT = 256

# The ops of a SoloRun's log: a charge is its length (an int >= 0); a wake
# that reaches levels 0..k of the run (bottom first) is _WAKE - k.
_PICK = -1
_SLEEP = -2
_WAKE = -3


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
        self._state: List[Any] = [zero, zero, 0, -1, None]
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
        self.settle()
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
        self.settle()
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

    def settle(self) -> None:
        """Replay the pending log of the folded run holding this queue, if
        any, so its tags in the ``arena`` columns and ``v`` are current."""
        fold = self._state[_FOLD]
        if fold is not None:
            fold.settle()

    @property
    def virtual_time(self) -> Tag:
        """Current virtual time ``v`` of this queue."""
        self.settle()
        return self._state[_VT]

    @property
    def runnable_count(self) -> int:
        """Number of entities currently eligible for service."""
        self.settle()
        return self._state[_RC]

    def has_runnable(self) -> bool:
        """True when at least one entity is eligible for service."""
        state = self._state
        if state[_FOLD] is not None:
            state[_FOLD].settle()
        return state[_RC] > 0

    def start_tag(self, entity: Any) -> Tag:
        """Current start tag of ``entity`` (for tests and tracing)."""
        self.settle()
        return self.arena.start[self._slot_of(entity)]

    def finish_tag(self, entity: Any) -> Tag:
        """Current finish tag of ``entity`` (for tests and tracing)."""
        self.settle()
        return self.arena.fin[self._slot_of(entity)]

    def is_runnable(self, entity: Any) -> bool:
        """True if ``entity`` is currently marked runnable in this queue."""
        fold = self._state[_FOLD]
        if fold is not None:
            fold.settle()
        return bool(self.arena.run[self._slot_of(entity)])

    # --- the three SFQ rules ---------------------------------------------
    #
    # Each settles a folded run holding this queue, then applies the rule
    # through the module-level function of the same name below.

    def set_runnable(self, entity: Any) -> None:
        """Rule 1: stamp a newly eligible entity with ``S = max(v, F)``."""
        self.settle()
        queue_set_runnable(self, entity)

    def set_blocked(self, entity: Any) -> None:
        """Mark an entity ineligible; updates idle virtual time if needed."""
        self.settle()
        queue_set_blocked(self, entity)

    def pick(self) -> Optional[Any]:
        """Rule 3: return the runnable entity with the smallest start tag.

        The entity stays queued; it is "in service" until the next
        :meth:`charge`.  Returns ``None`` when nothing is runnable.
        """
        self.settle()
        return queue_pick(self)

    def charge(self, entity: Any, length: int, weight: Optional[int] = None) -> None:
        """Rule 2: account ``length`` units of completed service.

        ``weight`` defaults to ``entity.weight`` read *now*, so dynamic
        weight changes (Figure 11) take effect at the next charge.
        """
        self.settle()
        queue_charge(self, entity, length, weight)

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
# The three SFQ rules on a queue that no folded run holds: the SFQ leaf
# scheduler's thread queue (runs fold only the tree's internal queues), or
# one its caller has settled.  They skip the settle the SfqQueue methods do
# first.  The leaf SFQ scheduler calls these module-level names instead of
# the bound methods, so the benchmark's per-layer tracer can patch them
# where repro.schedulers.sfq_leaf imports them, as it patches the
# hierarchy's chain walks below.


def queue_set_runnable(queue: SfqQueue, entity: Any) -> None:
    """:meth:`SfqQueue.set_runnable` on a queue outside every folded run."""
    slot = queue._slots.get(id(entity))
    if slot is None:
        slot = queue._slot_of(entity)
    arena = queue.arena
    if arena.run[slot]:
        return
    arena.run[slot] = 1
    state = queue._state
    state[_RC] += 1
    start = arena.fin[slot]
    if start < state[_VT]:
        start = state[_VT]
    arena.start[slot] = start
    version = arena.ver[slot] + 1
    arena.ver[slot] = version
    if queue._solo < 0:
        heappush(queue._heap, (start, arena.seq[slot], version, slot))


def queue_set_blocked(queue: SfqQueue, entity: Any) -> None:
    """:meth:`SfqQueue.set_blocked` on a queue outside every folded run."""
    slot = queue._slots.get(id(entity))
    if slot is None:
        slot = queue._slot_of(entity)
    arena = queue.arena
    if not arena.run[slot]:
        return
    arena.run[slot] = 0
    arena.ver[slot] += 1  # lazy-remove from heap
    state = queue._state
    state[_RC] -= 1
    if state[_RC] == 0:
        # Paper rule: when the server goes idle, v jumps to the maximum
        # finish tag assigned to any entity.
        if state[_MF] > state[_VT]:
            state[_VT] = state[_MF]


def queue_pick(queue: SfqQueue) -> Optional[Any]:
    """:meth:`SfqQueue.pick` on a queue outside every folded run."""
    arena = queue.arena
    solo = queue._solo
    if solo >= 0:
        if not arena.run[solo]:
            return None
        queue._state[_VT] = arena.start[solo]
        return arena.ent[solo]
    heap = queue._heap
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
    queue._state[_VT] = head[0]
    return arena.ent[slot]


def queue_charge(queue: SfqQueue, entity: Any, length: int,
                 weight: Optional[int] = None) -> None:
    """:meth:`SfqQueue.charge` on a queue outside every folded run (the
    leaf scheduler passes no weight: it is read live)."""
    if length < 0:
        raise SchedulingError("negative charge length %d" % length)
    slot = queue._slots.get(id(entity))
    if slot is None:
        slot = queue._slot_of(entity)
    if weight is None:
        weight = entity.weight
    arena = queue.arena
    if queue._float_fast:
        if weight <= 0:
            raise ValueError("weight must be positive, got %r" % (weight,))
        # float-mode TagMath.advance, inlined:
        finish = arena.start[slot] + length / weight  # schedlint: disable=SL004
    else:
        finish = queue.tags.advance(arena.start[slot], length, weight)
    arena.fin[slot] = finish
    state = queue._state
    if finish > state[_MF]:
        state[_MF] = finish
    if arena.run[slot]:
        # Still hungry: the next quantum is requested immediately, and
        # at this instant v equals this entity's start tag, so the new
        # start tag is simply the finish tag.
        arena.start[slot] = finish
        version = arena.ver[slot] + 1
        arena.ver[slot] = version
        if queue._solo < 0:
            heap = queue._heap
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


#: one entry of a cached chain: an ancestor level or a folded run (see
#: :func:`build_ancestor_chain`)
ChainEntry = Tuple[Any, ...]

# Indices into a chain entry (the walks below unpack it in this order).
_CH_QUEUE = 0
_CH_FLOAT = 1
_CH_FOLD = 2  # the SoloRun holding the level, else None
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


class SoloRun:
    """A maximal run of solo ancestor queues, walked as one chain entry.

    ``levels`` holds one level entry per queue of the run, bottom first:
    the tuples an unfolded chain would hold, with the run in their
    ``_CH_FOLD`` field.  The first of them is the run's entry in a cached
    chain, where the walks treat it as the whole run.  ``bottom`` is the
    node below the run and ``top`` the node owning its top queue.  ``log``
    holds the ops not yet applied to the run's queues: their tags, their
    child's runnable flag and their runnable count are current only after
    :meth:`settle`, which starts from the values it last wrote (the queue
    methods settle before they change one).  The run's nodes share one
    ``runnable`` flag, the top node's, which the walks keep eagerly:
    ``InternalNode.runnable`` reads it for every node of the run.  Every
    queue of the run points back here from its state vector, so that its
    readers settle the run and the descent jumps over it from its top.
    The run lives until the tree's shape changes: :func:`unfold_chain`
    settles it, gives each of its nodes the shared flag and takes it off
    its queues.
    """

    __slots__ = ("levels", "log", "split", "bottom", "top", "depth",
                 "wake")

    def __init__(self, bottom: Any) -> None:
        levels: List[ChainEntry] = []
        node = bottom
        parent = node.parent
        while parent is not None:
            queue = parent.queue
            slot = queue._solo  # the only child's slot
            if slot < 0:
                break
            state = queue._state
            state[_FOLD] = self
            arena = queue.arena
            levels.append((queue, queue._float_fast, self, queue._heap,
                           state, arena.start, arena.fin, arena.run,
                           arena.ver, arena.seq, slot, node, parent))
            node = parent
            parent = node.parent
        self.levels = levels
        self.log: List[int] = []
        #: whether the log holds a wake that stopped at the run's bottom
        #: level
        self.split = False
        self.bottom = bottom
        self.top = node
        #: the levels the descent jumps over
        self.depth = len(levels)
        #: the op of a wake that reaches every level
        self.wake = _WAKE - len(levels) + 1

    def defer(self, op: int) -> None:
        """Log one op for the run's queues; replay the log once it is
        full."""
        log = self.log
        log.append(op)
        if len(log) >= _LOG_LIMIT:
            self.settle()

    def settle(self) -> None:
        """Apply the pending log to the run's queues and empty it.

        Level by level, each op does what the walk that logged it would
        have done to that level's queue: a charge advances ``F`` from
        ``S`` (and restamps ``S = F`` while the child is runnable), a pick
        sets ``v = S``, a wake that reaches the level marks a child that
        was not runnable and stamps ``S = max(v, F)``, and a sleep of a
        runnable child lets ``v`` jump to the maximum finish tag (a solo
        queue's runnable count is its one child's flag).
        """
        log = self.log
        if not log:
            return
        # A level that starts from the same tags, flag and weight as the
        # level below it takes the same steps to the same values, so it
        # copies them -- unless a wake that stopped at the bottom level
        # treats that level and the ones above it differently.
        split = self.split
        below = None
        for index, (queue, float_fast, __, ___, state, start_col, fin_col,
                    run_col, ____, _____, slot, entity,
                    ______) in enumerate(self.levels):
            start = start_col[slot]
            finish = fin_col[slot]
            vt = state[_VT]
            mf = state[_MF]
            run = run_col[slot]
            key = (entity.weight, start, finish, vt, mf, run)
            if key == below and not split:
                start, finish, vt, mf, run = after
            elif float_fast:
                weight = key[0]
                reach = _WAKE - index  # the wake ops that reach this level
                for op in log:
                    if op >= 0:
                        finish = start + op / weight  # schedlint: disable=SL004
                        if finish > mf:
                            mf = finish
                        if run:
                            start = finish
                    elif op == _PICK:
                        vt = start
                    elif op == _SLEEP:
                        if run:
                            run = 0
                            if mf > vt:
                                vt = mf
                    elif op <= reach and not run:
                        run = 1
                        start = finish
                        if start < vt:
                            start = vt
            else:
                # the same replay, with exact mode's TagMath.advance
                weight = key[0]
                reach = _WAKE - index
                advance = queue.tags.advance
                for op in log:
                    if op >= 0:
                        finish = advance(start, op, weight)
                        if finish > mf:
                            mf = finish
                        if run:
                            start = finish
                    elif op == _PICK:
                        vt = start
                    elif op == _SLEEP:
                        if run:
                            run = 0
                            if mf > vt:
                                vt = mf
                    elif op <= reach and not run:
                        run = 1
                        start = finish
                        if start < vt:
                            start = vt
            below = key
            after = (start, finish, vt, mf, run)
            start_col[slot] = start
            fin_col[slot] = finish
            state[_VT] = vt
            state[_MF] = mf
            run_col[slot] = run
            state[_RC] = run
        del log[:]
        self.split = False

    def unfold(self) -> None:
        """Settle the run, give each of its nodes the run's ``runnable``
        flag and take the run off its queues (a shape change)."""
        self.settle()
        runnable = self.top._runnable
        for level in self.levels:
            state = level[_CH_STATE]
            if state[_FOLD] is self:
                state[_FOLD] = None
                level[_CH_PARENT]._runnable = runnable


def build_ancestor_chain(leaf: Any) -> List[ChainEntry]:
    """Precompute the entries of ``leaf``'s ancestor chain, leaf first.

    An ancestor whose queue has siblings to order gets a *level entry*: its
    queue object and tag mode, heap, state vector, the arena columns and
    the child's slot, so the per-level work is pure list indexing.  Each
    maximal run of solo ancestor queues gets one *run entry* instead: the
    level entry of the run's bottom queue, whose ``_CH_FOLD`` field is the
    run's :class:`SoloRun`.  The walks log their op there, and
    :func:`expand_chain` gives back the run's levels, settled.  A run is
    found here the first time a chain through it is built, and shared by
    every later chain through it.

    The chain mirrors the leaf-to-root walks the hierarchy performs on
    charge and eligibility changes, and stays valid until the tree shape
    changes (``mknod`` and ``rmnod`` unfold every run and drop every
    cached chain; solo membership also only changes with the shape, so a
    level entry's queue always has a heap).
    """
    chain: List[ChainEntry] = []
    node = leaf
    while node.parent is not None:
        parent = node.parent
        queue = parent.queue
        if queue._solo >= 0:
            fold = queue._state[_FOLD]
            if fold is None:
                fold = SoloRun(node)
            chain.append(fold.levels[0])
            node = fold.top
        else:
            arena = queue.arena
            chain.append((queue, queue._float_fast, None, queue._heap,
                          queue._state, arena.start, arena.fin, arena.run,
                          arena.ver, arena.seq, queue.slot_of(node), node,
                          parent))
            node = parent
    return chain


def expand_chain(chain: List[ChainEntry]) -> List[ChainEntry]:
    """The level entries of ``chain``, leaf first, with every folded run
    settled: what the traced walks emit from (``chain`` itself when it
    holds no run)."""
    for entry in chain:
        if entry[_CH_FOLD] is not None:
            break
    else:
        return chain
    levels: List[ChainEntry] = []
    for entry in chain:
        fold = entry[_CH_FOLD]
        if fold is None:
            levels.append(entry)
        else:
            fold.settle()
            levels.extend(fold.levels)
    return levels


def unfold_chain(chain: List[ChainEntry]) -> None:
    """Settle every folded run of ``chain`` and take it off its queues;
    the structure calls this before a shape change drops the chain."""
    for entry in chain:
        fold = entry[_CH_FOLD]
        if fold is not None:
            fold.unfold()


def charge_chain(chain: List[ChainEntry], length: int) -> None:
    """Apply :meth:`SfqQueue.charge` along a precomputed ancestor chain.

    Semantically identical to calling ``queue.charge(entity, length)``
    level by level — weights are still read live at charge time, so
    dynamic weight changes keep Figure-11 behaviour — but with the per-call
    record lookups hoisted into the cached chain, and a folded run's
    levels charged when it next settles.  Preconditions (enforced by the
    machine and structure, not re-checked here): ``length >= 0`` and every
    entity registered with a positive weight.
    """
    for (queue, float_fast, fold, heap, state, start_col, fin_col, run_col,
         ver_col, seq_col, slot, entity, __) in chain:
        if fold is not None:
            log = fold.log
            log.append(length)
            if len(log) >= _LOG_LIMIT:
                fold.settle()
            continue
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
    :meth:`HierarchicalScheduler.setrun`.  A wake that reaches a folded
    run finds the node below it newly runnable, so it marks the run's
    shared flag and logs a wake through every level for the run.
    """
    for (__, ___, fold, heap, state, start_col, fin_col, run_col,
         ver_col, seq_col, slot, ____, parent) in chain:
        if fold is not None:
            top = fold.top
            if top._runnable:
                # the node below was idle under a runnable run (a state
                # only writes to a node's flag from outside make): mark
                # it at the bottom level and stop at the run's first node
                fold.split = True
                fold.defer(_WAKE)
                return
            top._runnable = True
            log = fold.log
            log.append(fold.wake)
            if len(log) >= _LOG_LIMIT:
                fold.settle()
            continue
        if not run_col[slot]:
            run_col[slot] = 1
            state[_RC] += 1
            start = fin_col[slot]
            if start < state[_VT]:
                start = state[_VT]
            start_col[slot] = start
            version = ver_col[slot] + 1
            ver_col[slot] = version
            heappush(heap, (start, seq_col[slot], version, slot))
        if parent._runnable:
            return
        parent._runnable = True


def pick_leaf(root: Any) -> Tuple[Optional[Any], int]:
    """Descend from ``root``, picking the min-start child at every level.

    Inlines :meth:`SfqQueue.pick` per level (the per-dispatch descent is
    the hierarchy's hottest read path).  Returns ``(leaf, depth)``; if some
    internal queue has no runnable child — corrupted eligibility state —
    returns ``(None, depth)`` and the caller re-walks with the method API
    to raise its usual diagnostic (pick is peek-like, so the partial
    descent's virtual-time updates match what the re-walk recomputes).
    Each internal node carries its queue's column view as ``node.view``;
    a leaf's view is ``None``, which ends the descent.  At the top of a
    folded run the descent logs the pick, jumps to the node below the run
    and counts the levels it jumped, so ``depth`` is always the full depth.
    """
    node = root
    depth = 1
    view = root.view
    while view is not None:
        heap, state, ent_col, start_col, run_col, ver_col = view
        slot = state[_SOLO]
        if slot >= 0:
            fold = state[_FOLD]
            if fold is not None:
                # the descent reached a runnable node, and every level of
                # its run holds just the runnable child below it
                log = fold.log
                log.append(_PICK)
                if len(log) >= _LOG_LIMIT:
                    fold.settle()
                node = fold.bottom
                view = node.view
                depth += fold.depth
                continue
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
    walk in :meth:`HierarchicalScheduler.sleep`.  A solo queue's runnable
    count is its one child's flag, so a sleep that reaches a folded run
    idles every node of it: it clears the run's shared flag and logs the
    rest for the run.
    """
    for (__, ___, fold, ____, state, _____, ______, run_col,
         ver_col, _______, slot, ________, parent) in chain:
        if fold is not None:
            fold.top._runnable = False
            log = fold.log
            log.append(_SLEEP)
            if len(log) >= _LOG_LIMIT:
                fold.settle()
            continue
        if run_col[slot]:
            run_col[slot] = 0
            ver_col[slot] += 1  # lazy-remove from heap
            state[_RC] -= 1
            if state[_RC] == 0:
                if state[_MF] > state[_VT]:
                    state[_VT] = state[_MF]
        if state[_RC] > 0:
            return
        parent._runnable = False
