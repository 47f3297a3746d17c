"""Cluster, host, and tenant specifications.

A :class:`ClusterSpec` is a complete, JSON-able description of one
cluster simulation: the host fleet, the tenant arrival schedule
parameters, the placement policy, the epoch geometry, and an optional
fault schedule (host churn).  Everything a shard worker needs to rebuild
its bucket of hosts is derived from the spec plus the cluster seed, so
worker processes receive only ``(scenario name, quick, seed, host
names)`` and never pickle a live simulator.

Host registration order is irrelevant by construction: the spec sorts
hosts by name, and every derived quantity (seeds, leaf assignment,
arrival schedule) is keyed by names — shuffling the input host list
cannot change a single output byte.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from repro.sim.rng import Stream, derive_seed
from repro.threads.segments import Compute, Exit, SleepFor, Workload
from repro.units import MS

#: capacity of every host CPU (the paper's ~100 MIPS machine)
HOST_CAPACITY = 100_000_000


class HostSpec:
    """One host in the fleet: machine kind, size, and hierarchy shape.

    ``kind`` is ``"cpu"`` (uniprocessor :class:`~repro.cpu.machine.Machine`)
    or ``"smp"`` (:class:`~repro.smp.machine.SmpMachine` with ``cpus``
    processors).  The per-host scheduling structure is ``groups`` internal
    nodes with ``leaves`` SFQ leaves each; tenants map to leaves by a
    seed-derived hash of their affinity group, so co-grouped tenants
    share a leaf.  ``capacity_weight`` (defaults to ``cpus``) is the
    placement tier's notion of how much load the host can carry.
    """

    __slots__ = ("name", "kind", "cpus", "capacity_ips", "quantum_ns",
                 "groups", "leaves", "capacity_weight")

    def __init__(self, name: str, kind: str = "cpu", cpus: int = 1,
                 capacity_ips: int = HOST_CAPACITY,
                 quantum_ns: int = 1 * MS, groups: int = 2, leaves: int = 4,
                 capacity_weight: Optional[int] = None) -> None:
        if kind not in ("cpu", "smp"):
            raise ValueError("host kind must be 'cpu' or 'smp', got %r"
                             % (kind,))
        if kind == "cpu" and cpus != 1:
            raise ValueError("a 'cpu' host has exactly one CPU")
        self.name = name
        self.kind = kind
        self.cpus = cpus
        self.capacity_ips = capacity_ips
        self.quantum_ns = quantum_ns
        self.groups = groups
        self.leaves = leaves
        self.capacity_weight = capacity_weight if capacity_weight else cpus

    def leaf_paths(self) -> List[str]:
        """Every leaf pathname of this host's hierarchy, in tree order."""
        return ["/g%d/l%d" % (group, leaf)
                for group in range(self.groups)
                for leaf in range(self.leaves)]


class TenantSpec:
    """One tenant: a finite stream of CPU work placed onto some host.

    The workload is deterministic and RNG-free — ``total_work``
    instructions consumed in ``burst_work``-sized compute segments with
    ``sleep_ns`` of think time between bursts, then exit.  ``group`` is
    the affinity key placement policies may consolidate on.  ``attempt``
    counts placements: a migrated or failed-over tenant is re-placed as
    attempt ``n+1`` carrying only its remaining work, and its thread name
    gains a ``+n`` suffix so names stay unique cluster-wide.
    """

    __slots__ = ("name", "weight", "total_work", "burst_work", "sleep_ns",
                 "group", "arrival_ns", "attempt")

    def __init__(self, name: str, weight: int, total_work: int,
                 burst_work: int, sleep_ns: int, group: str,
                 arrival_ns: int, attempt: int = 0) -> None:
        self.name = name
        self.weight = weight
        self.total_work = total_work
        self.burst_work = burst_work
        self.sleep_ns = sleep_ns
        self.group = group
        self.arrival_ns = arrival_ns
        self.attempt = attempt

    @property
    def thread_name(self) -> str:
        """Unique thread name for this placement attempt."""
        if self.attempt == 0:
            return self.name
        return "%s+%d" % (self.name, self.attempt)

    def to_fields(self) -> Dict[str, object]:
        """Flat JSON-able view (spawn directives and log records)."""
        return {"tenant": self.name, "weight": self.weight,
                "total_work": self.total_work, "burst_work": self.burst_work,
                "sleep_ns": self.sleep_ns, "group": self.group,
                "arrival_ns": self.arrival_ns, "attempt": self.attempt}

    @classmethod
    def from_fields(cls, fields: Dict[str, object]) -> "TenantSpec":
        """Rebuild a spec from :meth:`to_fields` output."""
        return cls(name=str(fields["tenant"]),
                   weight=int(fields["weight"]),  # type: ignore[arg-type]
                   total_work=int(fields["total_work"]),  # type: ignore[arg-type]
                   burst_work=int(fields["burst_work"]),  # type: ignore[arg-type]
                   sleep_ns=int(fields["sleep_ns"]),  # type: ignore[arg-type]
                   group=str(fields["group"]),
                   arrival_ns=int(fields["arrival_ns"]),  # type: ignore[arg-type]
                   attempt=int(fields.get("attempt", 0)))  # type: ignore[arg-type]


class TenantWorkload(Workload):
    """The tenant's segment stream: bursts of compute, think time, exit.

    Deterministic and stateless apart from the consumed-work cursor; the
    machine owns all execution accounting.
    """

    def __init__(self, total_work: int, burst_work: int,
                 sleep_ns: int) -> None:
        self.total_work = max(1, total_work)
        self.burst_work = max(1, burst_work)
        self.sleep_ns = sleep_ns
        self._planned = 0
        self._need_sleep = False

    def next_segment(self, now: int, thread) -> object:
        """Next burst (or think-sleep, or exit once all work is planned)."""
        if self._planned >= self.total_work:
            return Exit()
        if self._need_sleep and self.sleep_ns > 0:
            self._need_sleep = False
            return SleepFor(self.sleep_ns)
        chunk = min(self.burst_work, self.total_work - self._planned)
        self._planned += chunk
        self._need_sleep = True
        return Compute(chunk)


def tenant_leaf(host: HostSpec, group: str) -> str:
    """The leaf pathname tenants of affinity ``group`` use on ``host``.

    Keyed by the group name alone (not the host), so a migrated group
    lands in the "same" leaf slot of its new host — a stable, seedless
    hash via :func:`~repro.sim.rng.derive_seed`.
    """
    paths = host.leaf_paths()
    return paths[derive_seed(0, "cluster-leaf/%s" % group) % len(paths)]


class ClusterSpec:
    """A complete cluster scenario description.

    ``epoch_ns`` is the barrier period; the run lasts ``epochs`` epochs.
    ``arrival_window_epochs`` bounds tenant arrivals to the first k
    epochs so placements can drain before the horizon.  ``faults`` is a
    list of faultlab fault specs (``{"kind": ..., "params": ...}``) armed
    against the cluster control tier — the ``host-churn`` injector family.
    ``rebalance_threshold`` (weight units) triggers migrate requests from
    the most- to the least-loaded host when the spread exceeds it;
    ``0`` disables rebalancing.
    """

    __slots__ = ("name", "hosts", "tenants", "tenant_weights",
                 "tenant_total_work", "tenant_burst_work", "tenant_sleep_ns",
                 "tenant_groups", "epoch_ns", "epochs",
                 "arrival_window_epochs", "policy", "faults",
                 "rebalance_threshold")

    def __init__(self, name: str, hosts: Sequence[HostSpec], tenants: int,
                 epoch_ns: int, epochs: int, arrival_window_epochs: int,
                 policy: str = "least-loaded",
                 tenant_weights: Sequence[int] = (1, 2, 3),
                 tenant_total_work: int = 40_000,
                 tenant_burst_work: int = 20_000,
                 tenant_sleep_ns: int = 5 * MS,
                 tenant_groups: int = 16,
                 faults: Optional[Sequence[Dict[str, object]]] = None,
                 rebalance_threshold: int = 0) -> None:
        if not hosts:
            raise ValueError("a cluster needs at least one host")
        names = [host.name for host in hosts]
        if len(set(names)) != len(names):
            raise ValueError("duplicate host names: %r" % (sorted(names),))
        self.name = name
        #: name-sorted: registration order can never influence a byte
        self.hosts = sorted(hosts, key=lambda host: host.name)
        self.tenants = tenants
        self.tenant_weights = tuple(tenant_weights)
        self.tenant_total_work = tenant_total_work
        self.tenant_burst_work = tenant_burst_work
        self.tenant_sleep_ns = tenant_sleep_ns
        self.tenant_groups = tenant_groups
        self.epoch_ns = epoch_ns
        self.epochs = epochs
        self.arrival_window_epochs = min(arrival_window_epochs, epochs)
        self.policy = policy
        self.faults = list(faults or ())
        self.rebalance_threshold = rebalance_threshold

    def host_names(self) -> List[str]:
        """Sorted host names (the canonical fleet order)."""
        return [host.name for host in self.hosts]

    def host(self, name: str) -> HostSpec:
        """Look up one host spec by name."""
        for candidate in self.hosts:
            if candidate.name == name:
                return candidate
        raise KeyError("no host named %r in cluster %s" % (name, self.name))

    @property
    def horizon_ns(self) -> int:
        """Total simulated span of the run."""
        return self.epoch_ns * self.epochs

    def arrivals(self, seed: int) -> Iterator[TenantSpec]:
        """The deterministic tenant arrival schedule, in arrival order.

        Arrival instants are evenly staggered over the arrival window;
        weights and affinity groups draw from a ``Stream`` substream
        keyed by the tenant name, so the schedule is independent of
        everything but ``seed``.
        """
        stream = Stream(seed, "cluster/%s" % self.name).substream("arrivals")
        window = self.arrival_window_epochs * self.epoch_ns
        digits = len(str(max(1, self.tenants - 1)))
        for index in range(self.tenants):
            name = "t%0*d" % (digits, index)
            rng = stream.rng(name)
            yield TenantSpec(
                name=name,
                weight=rng.choice(self.tenant_weights),
                total_work=self.tenant_total_work,
                burst_work=self.tenant_burst_work,
                sleep_ns=self.tenant_sleep_ns,
                group="g%03d" % rng.randrange(self.tenant_groups),
                arrival_ns=(index * window) // max(1, self.tenants),
            )
