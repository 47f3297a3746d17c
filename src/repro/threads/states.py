"""Thread lifecycle states.

The state machine is the classic OS one, minus swapping::

    NEW -> RUNNABLE <-> RUNNING
              ^            |
              |            v
              +-------- SLEEPING
    RUNNING -> EXITED

Transitions are validated by :class:`repro.threads.thread.SimThread`; an
illegal transition raises :class:`repro.errors.SchedulingError`, which in
practice has caught every machine/scheduler bookkeeping bug early.
"""

from __future__ import annotations

import enum
from typing import Tuple


class ThreadState(enum.Enum):
    """Lifecycle state of a simulated thread."""

    NEW = "new"
    RUNNABLE = "runnable"
    RUNNING = "running"
    SLEEPING = "sleeping"
    EXITED = "exited"

    #: the allowed successors, in declaration order (set below from
    #: :data:`ALLOWED_TRANSITIONS`).  A tuple test compares members by
    #: identity, where a set lookup would call the Python-level
    #: ``Enum.__hash__``; the machines transition on every dispatch.
    successors: Tuple["ThreadState", ...]


#: Legal state transitions: mapping from state to the set of allowed successors.
ALLOWED_TRANSITIONS = {
    ThreadState.NEW: {ThreadState.RUNNABLE, ThreadState.SLEEPING, ThreadState.EXITED},
    ThreadState.RUNNABLE: {ThreadState.RUNNING},
    ThreadState.RUNNING: {ThreadState.RUNNABLE, ThreadState.SLEEPING, ThreadState.EXITED},
    ThreadState.SLEEPING: {ThreadState.RUNNABLE, ThreadState.EXITED},
    ThreadState.EXITED: set(),
}

for _state in ThreadState:
    _state.successors = tuple(
        state for state in ThreadState if state in ALLOWED_TRANSITIONS[_state])
del _state
