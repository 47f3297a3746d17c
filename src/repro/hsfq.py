"""The paper's system-call interface, verbatim.

Section 4 of the paper specifies five calls operating on integer node
identifiers.  This module reproduces that C-flavoured API exactly (names,
id-based addressing, flag words) on top of
:class:`~repro.core.structure.SchedulingStructure`, for users porting code
or pseudo-code written against the original interface.  New code should
prefer the object API.

    sid = hsfq_mknod(structure, "/soft-rt", parent=0, weight=3,
                     flag=HSFQ_LEAF, sid=SCHED_SFQ)
    node_id = hsfq_parse(structure, "user1", hint=best_effort_id)
    hsfq_admin(structure, node_id, HSFQ_ADMIN_SETWEIGHT, 5)
    hsfq_move(structure, thread, node_id)
    hsfq_rmnod(structure, node_id)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.structure import (
    ADMIN_GET_WEIGHT,
    ADMIN_INFO,
    ADMIN_SET_WEIGHT,
    SchedulingStructure,
)
from repro.errors import StructureError
from repro.obs import events as obs
from repro.schedulers.edf import EdfScheduler
from repro.schedulers.fifo import FifoScheduler
from repro.schedulers.rma import RmaScheduler
from repro.schedulers.round_robin import RoundRobinScheduler
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.schedulers.svr4 import Svr4TimeSharing

if TYPE_CHECKING:  # pragma: no cover
    from repro.threads.thread import SimThread

# --- flag word for hsfq_mknod ----------------------------------------------

#: create an intermediate (SFQ-scheduled) node
HSFQ_INTERNAL = 0
#: create a leaf node; ``sid`` selects its class scheduler
HSFQ_LEAF = 1

# --- scheduler ids (the paper's ``scheduler_id sid``) ------------------------

SCHED_SFQ = 0
SCHED_SVR4 = 1
SCHED_EDF = 2
SCHED_RMA = 3
SCHED_FIFO = 4
SCHED_RR = 5

_SCHEDULER_FACTORIES = {
    SCHED_SFQ: SfqScheduler,
    SCHED_SVR4: Svr4TimeSharing,
    SCHED_EDF: EdfScheduler,
    SCHED_RMA: RmaScheduler,
    SCHED_FIFO: FifoScheduler,
    SCHED_RR: RoundRobinScheduler,
}

# --- admin commands ------------------------------------------------------------

HSFQ_ADMIN_GETWEIGHT = ADMIN_GET_WEIGHT
HSFQ_ADMIN_SETWEIGHT = ADMIN_SET_WEIGHT
HSFQ_ADMIN_INFO = ADMIN_INFO


def _obs_now(structure: SchedulingStructure) -> int:
    """Current simulation time for observability stamps (0 off-machine)."""
    hierarchy = structure.hierarchy
    return hierarchy.clock() if hierarchy is not None else 0


def _obs_bus(structure: SchedulingStructure) -> obs.EventBus:
    """The bus of the run driving ``structure`` (the process bus
    off-machine)."""
    hierarchy = structure.hierarchy
    return hierarchy._bus if hierarchy is not None else obs.BUS


def hsfq_mknod(structure: SchedulingStructure, name: str, parent: int,
               weight: int, flag: int = HSFQ_INTERNAL,
               sid: int = SCHED_SFQ) -> int:
    """Create a node under ``parent`` (a node id); returns the new node id.

    ``flag`` selects leaf (``HSFQ_LEAF``) versus intermediate; for a leaf,
    ``sid`` selects the class scheduler installed at the node — the
    function-pointer installation of the paper.
    """
    if flag == HSFQ_LEAF:
        try:
            factory = _SCHEDULER_FACTORIES[sid]
        except KeyError:
            raise StructureError("unknown scheduler id %r" % (sid,)) from None
        scheduler: Optional[object] = factory()
    elif flag == HSFQ_INTERNAL:
        scheduler = None
    else:
        raise StructureError("unknown mknod flag %r" % (flag,))
    node = structure.mknod(name, weight, parent=parent, scheduler=scheduler)
    bus = _obs_bus(structure)
    if bus.active:
        bus.emit(obs.NODE_CREATE_SHAPE, _obs_now(structure), node.path,
                 weight, flag == HSFQ_LEAF, sid)
    return node.node_id


def hsfq_parse(structure: SchedulingStructure, name: str,
               hint: int = 0) -> int:
    """Resolve ``name`` (absolute, or relative to node id ``hint``)."""
    return structure.parse(name, hint=hint).node_id


def hsfq_rmnod(structure: SchedulingStructure, node_id: int,
               mode: int = 0) -> None:
    """Remove node ``node_id`` (must be childless and idle)."""
    del mode  # the paper reserves a mode word; no modes are defined
    path = structure.resolve(node_id).path
    structure.rmnod(node_id)
    bus = _obs_bus(structure)
    if bus.active:
        bus.emit(obs.NODE_REMOVE_SHAPE, _obs_now(structure), path)


def hsfq_move(structure: SchedulingStructure, thread: "SimThread",
              to: int) -> None:
    """Move ``thread`` to the leaf with id ``to``."""
    source = thread.leaf
    structure.move(thread, to)
    bus = _obs_bus(structure)
    if bus.active:
        bus.emit(obs.THREAD_MOVE_SHAPE, _obs_now(structure), thread.tid,
                 thread.name, structure.resolve(to).path,
                 source.path if source is not None else "")


def hsfq_admin(structure: SchedulingStructure, node_id: int, cmd: str,
               args=None):
    """Administrative operations; see HSFQ_ADMIN_* commands."""
    old_weight = 0
    if cmd == HSFQ_ADMIN_SETWEIGHT:
        old_weight = structure.resolve(node_id).weight
    result = structure.admin(node_id, cmd, args)
    bus = _obs_bus(structure)
    if cmd == HSFQ_ADMIN_SETWEIGHT and bus.active:
        node = structure.resolve(node_id)
        bus.emit(obs.WEIGHT_CHANGE_SHAPE, _obs_now(structure), node.path,
                 node.weight, old_weight)
    return result
