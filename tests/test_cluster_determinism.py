"""Property tests for cluster shard determinism and merge validation.

The contract under test is the cluster tier's headline guarantee: a
cluster run is a pure function of ``(spec, seed)`` — the shard count, the
worker scheduling, and the host registration order can never change a
byte of the merged trace, the placement log, the merged schedstat, the
host summaries, or the per-host binlogs.  The seeded-skew test pins the enforcement side: the k-way
merge *detects* ordering bugs rather than papering over them with a
sort.
"""

import os
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.cluster.churn import build_churn
from repro.cluster.messages import merge_outboxes, message
from repro.cluster.runner import run_cluster
from repro.cluster.scenario import CLUSTER_SCENARIOS
from repro.cluster.spec import ClusterSpec, HostSpec
from repro.errors import ClusterError
from repro.obs.binlog import BinaryTraceReader
from repro.units import MS


def build_spec(cpu_hosts, smp_hosts, tenants, epochs, policy, churn,
               order_seed=None):
    """A small cluster spec; ``order_seed`` shuffles host registration."""
    hosts = [HostSpec("n%02d" % index) for index in range(cpu_hosts)]
    hosts.extend(HostSpec("n%02d" % (cpu_hosts + index), kind="smp", cpus=2)
                 for index in range(smp_hosts))
    if order_seed is not None:
        random.Random(order_seed).shuffle(hosts)
    faults = [{"kind": "host-churn", "params": {"downs": 1}}] if churn else []
    return ClusterSpec(
        name="prop",
        hosts=hosts,
        tenants=tenants,
        epoch_ns=10 * MS,
        epochs=epochs,
        arrival_window_epochs=3,
        policy=policy,
        tenant_total_work=30_000,
        tenant_burst_work=15_000,
        tenant_sleep_ns=2 * MS,
        tenant_groups=4,
        faults=faults,
        rebalance_threshold=6 if policy == "affinity" else 0,
    )


spec_params = st.tuples(
    st.integers(min_value=1, max_value=3),   # cpu hosts
    st.integers(min_value=1, max_value=2),   # smp hosts
    st.integers(min_value=4, max_value=14),  # tenants
    st.integers(min_value=6, max_value=8),   # epochs
    st.sampled_from(["least-loaded", "affinity"]),
    st.booleans(),                           # host churn on/off
)


class TestShardByteIdentity:
    @settings(max_examples=6, deadline=None)
    @given(params=spec_params, seed=st.integers(min_value=0, max_value=2**32))
    def test_digests_invariant_across_shard_counts(self, params, seed):
        """--shards 1, 2, and 4 produce byte-identical artifacts."""
        serial = run_cluster(build_spec(*params), seed, shards=1).digests()
        for shards in (2, 4):
            sharded = run_cluster(build_spec(*params), seed,
                                  shards=shards).digests()
            assert sharded == serial

    @settings(max_examples=15, deadline=None)
    @given(params=spec_params, seed=st.integers(min_value=0, max_value=2**32),
           order_seed=st.integers(min_value=0, max_value=2**16))
    def test_host_registration_order_is_irrelevant(self, params, seed,
                                                   order_seed):
        """Shuffling the host list at spec build time changes nothing."""
        canonical = build_spec(*params)
        shuffled = build_spec(*params, order_seed=order_seed)
        assert shuffled.host_names() == canonical.host_names()
        assert (run_cluster(shuffled, seed).digests()
                == run_cluster(canonical, seed).digests())


class TestHostBinlogs:
    """Per-host binlogs of ``cluster_mini`` (quick, seed 42), traced at
    shards 1 and 2: each host numbers its own threads, and its stream
    starts with the tenants spawned at a barrier."""

    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        runs = {}
        for shards in (1, 2):
            trace_dir = tmp_path_factory.mktemp("binlogs-shards%d" % shards)
            spec = CLUSTER_SCENARIOS["cluster_mini"].build(True)
            result = run_cluster(spec, 42, shards=shards,
                                 trace_dir=str(trace_dir))
            runs[shards] = (result, trace_dir)
        return runs

    def test_binlog_bytes_identical_across_shards(self, traced):
        serial_dir, sharded_dir = traced[1][1], traced[2][1]
        names = sorted(os.listdir(serial_dir))
        assert names and names == sorted(os.listdir(sharded_dir))
        for name in names:
            assert (serial_dir / name).read_bytes() == \
                (sharded_dir / name).read_bytes(), name

    def test_binlog_counts_match_host_summaries(self, traced):
        result, trace_dir = traced[1]
        for host in result.hosts:
            path = trace_dir / ("host-%s.binlog" % host["key"])
            kinds = BinaryTraceReader(str(path)).info()["kinds"]
            spawned = sum(1 for row in host["tenants"]
                          if row["state"] != "new")
            assert (host["key"], kinds.get("dispatch", 0)) == \
                (host["key"], host["dispatches"])
            assert (host["key"], kinds.get("spawn", 0)) == \
                (host["key"], spawned)


class TestSeededSkew:
    """The merge must *catch* unsorted outboxes, never silently resort."""

    @settings(max_examples=60, deadline=None)
    @given(times=st.lists(st.integers(min_value=0, max_value=10**6),
                          min_size=2, max_size=12),
           swap_seed=st.integers(min_value=0, max_value=2**16))
    def test_swapped_outbox_raises(self, times, swap_seed):
        outbox = [message(0, time, "h0", seq, "host-load", load=0, alive=0)
                  for seq, time in enumerate(sorted(times))]
        rng = random.Random(swap_seed)
        i = rng.randrange(len(outbox) - 1)
        j = rng.randrange(i + 1, len(outbox))
        outbox[i], outbox[j] = outbox[j], outbox[i]
        with pytest.raises(ClusterError, match="out-of-order"):
            merge_outboxes([outbox])

    @settings(max_examples=40, deadline=None)
    @given(times=st.lists(st.integers(min_value=0, max_value=10**6),
                          min_size=1, max_size=8, unique=True))
    def test_sorted_outboxes_always_merge(self, times):
        left = [message(0, time, "a", seq, "x")
                for seq, time in enumerate(sorted(times))]
        right = [message(0, time, "b", seq, "x")
                 for seq, time in enumerate(sorted(times))]
        merged = merge_outboxes([left, right])
        assert len(merged) == len(left) + len(right)
        # equal (epoch, time) pairs resolve by src: "a" before "b"
        for time in sorted(times):
            pair = [m["src"] for m in merged if m["time"] == time]
            assert pair == ["a", "b"]


class TestChurnSchedule:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32),
           downs=st.integers(min_value=1, max_value=3),
           epochs=st.integers(min_value=6, max_value=12))
    def test_schedule_is_pure_and_bounded(self, seed, downs, epochs):
        """Churn is a pure function of (spec, seed) and never drains
        the whole fleet or schedules past the safe window."""
        spec = build_spec(2, 2, 0, epochs, "least-loaded", False)
        spec.faults = [{"kind": "host-churn", "params": {"downs": downs}}]
        first = build_churn(spec, seed)
        assert first.churn == build_churn(spec, seed).churn
        downed = {host for __, action, host in first.churn
                  if action == "down"}
        assert len(downed) <= len(spec.hosts) - 1
        for epoch, action, host in first.churn:
            assert host in spec.host_names()
            if action == "down":
                assert 0 <= epoch <= epochs - 3
            else:
                assert epoch < epochs
