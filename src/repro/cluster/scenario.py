"""Named cluster scenarios: fleet-scale workloads for the cluster tier.

Each scenario builds a :class:`~repro.cluster.spec.ClusterSpec` at a
``quick`` (CI) or full (local) size.  The spec helpers
(:func:`storm_spec`, :func:`rebalance_spec`) are exported separately so
the benchmark (perfbench's ``fleet_sharded``) can build its own sizes
without duplicating geometry.

``cluster_storm`` at quick size is the CI determinism gate's subject:
16 hosts, 50k tenant threads, byte-identical under ``--shards 1`` vs
``--shards 4``.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.cluster.spec import ClusterSpec, HostSpec
from repro.units import MS


def mixed_fleet(cpu_hosts: int, smp_hosts: int, smp_cpus: int = 4,
                groups: int = 2, leaves: int = 4) -> List[HostSpec]:
    """A fleet of ``cpu_hosts`` uniprocessors plus ``smp_hosts`` SMP boxes."""
    digits = len(str(max(1, cpu_hosts + smp_hosts - 1)))
    hosts = [HostSpec("h%0*d" % (digits, index), kind="cpu",
                      groups=groups, leaves=leaves)
             for index in range(cpu_hosts)]
    hosts.extend(HostSpec("h%0*d" % (digits, cpu_hosts + index), kind="smp",
                          cpus=smp_cpus, groups=groups, leaves=leaves)
                 for index in range(smp_hosts))
    return hosts


def mini_spec(quick: bool) -> ClusterSpec:
    """A small mixed cluster with host churn — demos and unit tests."""
    return ClusterSpec(
        name="cluster_mini",
        hosts=mixed_fleet(2, 2, smp_cpus=2),
        tenants=24 if quick else 96,
        epoch_ns=25 * MS,
        epochs=10,
        arrival_window_epochs=4,
        policy="least-loaded",
        # ~6 bursts with 15ms think time: tenants span several epochs, so
        # the churned host actually drains live tenants for re-placement
        tenant_total_work=120_000,
        tenant_burst_work=20_000,
        tenant_sleep_ns=15 * MS,
        tenant_groups=8,
        faults=[{"kind": "host-churn", "params": {"downs": 1}}],
    )


def storm_spec(cpu_hosts: int, smp_hosts: int, tenants: int,
               epochs: int) -> ClusterSpec:
    """A placement storm: a tenant flood over a mixed fleet, no faults."""
    return ClusterSpec(
        name="cluster_storm",
        hosts=mixed_fleet(cpu_hosts, smp_hosts, smp_cpus=4,
                          groups=2, leaves=4),
        tenants=tenants,
        epoch_ns=100 * MS,
        epochs=epochs,
        arrival_window_epochs=8,
        policy="least-loaded",
        tenant_total_work=30_000,
        tenant_burst_work=15_000,
        tenant_sleep_ns=5 * MS,
        tenant_groups=32,
    )


def rebalance_spec(hosts: int, tenants: int, epochs: int) -> ClusterSpec:
    """Affinity packing plus churn, with the rebalancer unpacking hot hosts."""
    return ClusterSpec(
        name="tenant_rebalance",
        hosts=mixed_fleet(0, hosts, smp_cpus=2, groups=2, leaves=4),
        tenants=tenants,
        epoch_ns=50 * MS,
        epochs=epochs,
        arrival_window_epochs=6,
        policy="affinity",
        # ~5 bursts with 30ms think time: tenants outlive epochs, so both
        # the rebalancer and the churn drain path see live victims
        tenant_total_work=100_000,
        tenant_burst_work=20_000,
        tenant_sleep_ns=30 * MS,
        tenant_groups=12,
        # the outage lands inside the arrival window so the drained host
        # holds live tenants and the fail-over/re-place path runs
        faults=[{"kind": "host-churn",
                 "params": {"downs": 1, "first_epoch": 3, "last_epoch": 6}}],
        rebalance_threshold=12,
    )


class ClusterScenario:
    """A named, size-parameterized cluster spec builder."""

    __slots__ = ("name", "description", "build")

    def __init__(self, name: str, description: str,
                 build: Callable[[bool], ClusterSpec]) -> None:
        self.name = name
        self.description = description
        self.build = build


#: scenario name -> builder (module-level registry)
CLUSTER_SCENARIOS: Dict[str, ClusterScenario] = {}


def _register(scenario: ClusterScenario) -> None:
    CLUSTER_SCENARIOS[scenario.name] = scenario


_register(ClusterScenario(
    "cluster_mini",
    "4 mixed hosts, small tenant wave, one host-churn outage",
    mini_spec))

_register(ClusterScenario(
    "cluster_storm",
    "16+ hosts, 50k+ tenant threads flooding the placement tier",
    lambda quick: (storm_spec(8, 8, 50_000, 24) if quick
                   else storm_spec(16, 16, 120_000, 32))))

_register(ClusterScenario(
    "tenant_rebalance",
    "affinity packing vs the rebalancer, under host churn",
    lambda quick: (rebalance_spec(6, 600, 16) if quick
                   else rebalance_spec(6, 2_400, 24))))


def cluster_scenarios() -> Dict[str, ClusterScenario]:
    """The scenario registry (a copy; callers cannot mutate the module's)."""
    return dict(CLUSTER_SCENARIOS)
