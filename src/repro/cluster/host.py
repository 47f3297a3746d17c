"""One simulated host: an HSFQ machine plus its barrier protocol glue.

A :class:`HostSim` wraps a complete single-host simulation — integer-ns
:class:`~repro.sim.engine.Simulator`, scheduling structure, and a
``cpu``/``smp`` machine — and speaks the cluster's epoch protocol:

* :meth:`apply` consumes directives (spawn / migrate / prepare-down)
  at a barrier, before the next epoch runs;
* :meth:`advance` runs the machine to the next barrier.  The host's own
  :class:`~repro.obs.schedstat.SchedStat` is the machine's ``tracer``,
  so it (and the optional binlog writer) subscribe to the host's private
  run bus from construction on: co-resident hosts in one shard never see
  each other's events, and tenants spawned at a barrier are recorded
  like any other;
* :meth:`barrier_report` emits the host's outbox for the epoch —
  tenant exits and migrate-outs at their exact simulated times, then
  drain/load reports at the barrier instant — already in message sort
  order.

Migration and failover never teleport running state.  A migrating
tenant's workload is wrapped so its next segment pull returns ``Exit``
(the segment boundary is the only preemption point for placement, just
as the quantum is for the CPU), and the control tier re-places the
*remaining* work as a fresh attempt.  A downed host simply freezes: its
simulator is never advanced again, and a later ``host-up`` creates a
fresh :class:`HostSim` incarnation whose clock starts at the barrier.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Union

from repro.cluster.messages import Message, message
from repro.cluster.spec import HostSpec, TenantSpec, TenantWorkload, tenant_leaf
from repro.core.hierarchy import HierarchicalScheduler
from repro.core.structure import SchedulingStructure
from repro.core.tags import FLOAT
from repro.cpu.machine import Machine
from repro.errors import ClusterError
from repro.obs.binlog import BinaryTraceWriter
from repro.obs.schedstat import SchedStat
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.sim.engine import Simulator
from repro.smp.machine import SmpMachine
from repro.threads.segments import Exit, Workload
from repro.threads.thread import SimThread


class _DrainWorkload(Workload):
    """Replacement workload that exits at the next segment boundary.

    Swapped in for a migrating (or failing-over) tenant's real workload:
    whatever segment is in flight completes under the machine's normal
    accounting, and the very next pull yields ``Exit`` — the cluster
    never interrupts a segment mid-stream.
    """

    def next_segment(self, now: int, thread: SimThread) -> Exit:
        """Always exit: the tenant's remaining work moves with it."""
        return Exit()


class _Tenant:
    """Book-keeping for one tenant attempt resident on this host."""

    __slots__ = ("spec", "thread", "reported", "migrating")

    def __init__(self, spec: TenantSpec, thread: SimThread) -> None:
        self.spec = spec
        self.thread = thread
        #: exit/migrate-out already emitted at an earlier barrier
        self.reported = False
        #: drain wrapper installed; exit will report as ``migrate-out``
        self.migrating = False


class HostSim:
    """A live host incarnation participating in the cluster protocol."""

    def __init__(self, spec: HostSpec, incarnation: int = 0,
                 start_ns: int = 0,
                 trace_path: Optional[str] = None) -> None:
        self.spec = spec
        self.incarnation = incarnation
        self.engine = Simulator()
        self.structure = SchedulingStructure(FLOAT)
        for group in range(spec.groups):
            parent = self.structure.mknod("g%d" % group, 1)
            for leaf in range(spec.leaves):
                self.structure.mknod("l%d" % leaf, 1, parent=parent,
                                     scheduler=SfqScheduler(FLOAT))
        scheduler = HierarchicalScheduler(self.structure)
        self.stats = SchedStat()
        self.machine: Union[Machine, SmpMachine]
        if spec.kind == "smp":
            self.machine = SmpMachine(self.engine, scheduler,
                                      num_cpus=spec.cpus,
                                      capacity_ips=spec.capacity_ips,
                                      default_quantum=spec.quantum_ns,
                                      tracer=self.stats)
        else:
            self.machine = Machine(self.engine, scheduler,
                                   capacity_ips=spec.capacity_ips,
                                   default_quantum=spec.quantum_ns,
                                   tracer=self.stats)
        self._writer: Optional[BinaryTraceWriter] = None
        if trace_path is not None:
            self._writer = BinaryTraceWriter(trace_path)
            self.engine.bus.subscribe(self._writer)
        if start_ns:
            # A fresh incarnation joins mid-run: align its empty simulator
            # with cluster time so message timestamps stay globally ordered.
            self.machine.run_until(start_ns)
        self.tenants: Dict[str, _Tenant] = {}
        self.draining = False
        self.frozen = False
        self._seq = 0

    @property
    def key(self) -> str:
        """Cluster-wide identity of this incarnation (``name`` or ``name+n``)."""
        if self.incarnation == 0:
            return self.spec.name
        return "%s+%d" % (self.spec.name, self.incarnation)

    # --- directives -------------------------------------------------------

    def apply(self, directives: List[Message]) -> None:
        """Consume the control tier's barrier directives for this host."""
        for directive in directives:
            kind = directive["kind"]
            if kind == "spawn":
                self._apply_spawn(directive)
            elif kind == "migrate":
                self._apply_migrate(str(directive["thread"]))
            elif kind == "prepare-down":
                self.draining = True
            else:
                raise ClusterError("host %s: unknown directive kind %r"
                                   % (self.key, kind))

    def _apply_spawn(self, directive: Message) -> None:
        """Admit one tenant: attach to its affinity leaf, spawn on schedule."""
        spec = TenantSpec.from_fields(directive)  # type: ignore[arg-type]
        name = spec.thread_name
        if name in self.tenants:
            raise ClusterError("host %s: duplicate tenant thread %r"
                               % (self.key, name))
        thread = SimThread(name, TenantWorkload(
            spec.total_work, spec.burst_work, spec.sleep_ns),
            weight=spec.weight)
        leaf = self.structure.parse(tenant_leaf(self.spec, spec.group))
        leaf.attach_thread(thread)
        self.machine.spawn(thread, at=int(directive["spawn_ns"]))  # type: ignore[call-overload]
        self.tenants[name] = _Tenant(spec, thread)

    def _apply_migrate(self, name: str) -> None:
        """Wrap a tenant so it exits (and reports out) at its next boundary."""
        tenant = self.tenants.get(name)
        if tenant is None or tenant.reported or tenant.migrating:
            return  # raced with a natural exit; control reconciles via the log
        if not tenant.thread.alive:
            return
        tenant.migrating = True
        tenant.thread.workload = _DrainWorkload()

    # --- epoch execution --------------------------------------------------

    def advance(self, to_ns: int) -> None:
        """Run this host's simulation to the barrier at ``to_ns``."""
        if self.frozen or self.draining:
            return
        self.machine.run_until(to_ns)

    # --- barrier reporting ------------------------------------------------

    def _emit(self, epoch: int, time: int, kind: str,
              **fields: object) -> Message:
        """Build the next outbox message, advancing the per-host seq."""
        msg = message(epoch, time, self.key, self._seq, kind, **fields)
        self._seq += 1
        return msg

    def barrier_report(self, epoch: int, barrier_ns: int) -> List[Message]:
        """This host's sorted outbox for the epoch ending at ``barrier_ns``."""
        if self.frozen:
            return []
        out: List[Message] = []
        exited = [(tenant.thread.stats.exited_at or 0, name)
                  for name, tenant in self.tenants.items()
                  if not tenant.reported and not tenant.thread.alive]
        for exited_at, name in sorted(exited):
            tenant = self.tenants[name]
            tenant.reported = True
            done = tenant.thread.stats.work_done
            remaining = max(0, tenant.spec.total_work - done)
            kind = "migrate-out" if tenant.migrating else "tenant-exit"
            out.append(self._emit(
                epoch, exited_at, kind, tenant=tenant.spec.name,
                thread=name, attempt=tenant.spec.attempt,
                work_done=done, remaining=remaining))
        if self.draining:
            for name in sorted(self.tenants):
                tenant = self.tenants[name]
                if tenant.reported or not tenant.thread.alive:
                    continue
                tenant.reported = True
                done = tenant.thread.stats.work_done
                out.append(self._emit(
                    epoch, barrier_ns, "tenant-drain",
                    tenant=tenant.spec.name, thread=name,
                    attempt=tenant.spec.attempt, work_done=done,
                    remaining=max(0, tenant.spec.total_work - done)))
            out.append(self._emit(epoch, barrier_ns, "host-down"))
            self.draining = False
            self.frozen = True
            return out
        alive = [tenant for tenant in self.tenants.values()
                 if tenant.thread.alive]
        out.append(self._emit(
            epoch, barrier_ns, "host-load",
            load=sum(tenant.spec.weight for tenant in alive),
            alive=len(alive)))
        return out

    # --- teardown ---------------------------------------------------------

    def finalize(self) -> Dict[str, object]:
        """Seal the trace and summarize the incarnation's final state.

        The summary is keyed entirely by names — thread names, node
        paths — so it is byte-identical across shard layouts.
        """
        if self._writer is not None:
            self._writer.close()
            self._writer = None
        rows = []
        for name in sorted(self.tenants):
            tenant = self.tenants[name]
            rows.append({
                "thread": name,
                "tenant": tenant.spec.name,
                "attempt": tenant.spec.attempt,
                "group": tenant.spec.group,
                "weight": tenant.spec.weight,
                "state": tenant.thread.state.value,
                "work_done": tenant.thread.stats.work_done,
                "dispatches": tenant.thread.stats.dispatches,
            })
        stats = getattr(self.machine, "stats", self.machine)
        summary: Dict[str, object] = {
            "key": self.key,
            "sim_ns": self.engine.now,
            "events": self.engine.events_fired,
            "dispatches": stats.dispatches,
            "tenants": rows,
            "schedstat": self.stats.to_dict(),
        }
        digest_src = json.dumps(
            {"key": self.key, "tenants": rows}, sort_keys=True,
            separators=(",", ":"))
        summary["digest"] = hashlib.sha256(
            digest_src.encode("utf-8")).hexdigest()
        return summary
