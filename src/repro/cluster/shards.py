"""Deterministic sharding: hosts partitioned across worker processes.

Hosts are assigned to shards by **name-sorted round-robin**
(:func:`partition_hosts`), so the bucket layout is a pure function of
``(host names, shard count)``.  Every shard — whether it runs inline
(:class:`SerialShards`) or in a persistent worker process
(:class:`ProcessShards`) — executes the *same* :class:`ShardState` code
path: apply barrier directives, advance each host to the barrier in
name order, and hand back a sort-key-merged outbox.  The parent merges
shard outboxes with the validating k-way merge, so the epoch log is
byte-identical for ``--shards 1`` and ``--shards N`` by construction.

Worker processes are rebuilt from pickled *specs* (plain slotted data
objects) — a live simulator never crosses a process boundary.  The pipe
protocol is strictly request/reply in shard-index order, so no result
ordering ever depends on OS scheduling (the faultlab pool discipline,
adapted to persistent workers).
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Dict, List, Optional

from repro.cluster.control import DIRECTIVE_KINDS
from repro.cluster.host import HostSim
from repro.cluster.messages import Message, merge_outboxes
from repro.cluster.spec import ClusterSpec
from repro.errors import ClusterError


def partition_hosts(names: List[str], shards: int) -> List[List[str]]:
    """Name-sorted round-robin buckets; every shard gets a stable slice.

    ``partition_hosts(names, 1)`` is the whole fleet in name order —
    the serial layout every other layout must agree with byte-for-byte.
    """
    if shards < 1:
        raise ValueError("shard count must be >= 1, got %d" % shards)
    buckets: List[List[str]] = [[] for _ in range(shards)]
    for index, name in enumerate(sorted(names)):
        buckets[index % shards].append(name)
    return [bucket for bucket in buckets if bucket]


class ShardState:
    """One shard's hosts and their epoch loop (shared serial/process path)."""

    def __init__(self, spec: ClusterSpec, bucket: List[str],
                 trace_dir: Optional[str] = None) -> None:
        self.spec = spec
        self.trace_dir = trace_dir
        self.hosts: Dict[str, HostSim] = {
            name: HostSim(spec.host(name), incarnation=0, start_ns=0,
                          trace_path=self._trace_path(name))
            for name in bucket}
        #: finalized summaries of replaced (downed) incarnations
        self.retired: List[Dict[str, object]] = []

    def _trace_path(self, key: str) -> Optional[str]:
        if self.trace_dir is None:
            return None
        return os.path.join(self.trace_dir, "host-%s.binlog" % key)

    def epoch(self, epoch: int, barrier_ns: int,
              directives: List[Message]) -> List[Message]:
        """Apply directives, run every host to the barrier, merge reports."""
        routed: Dict[str, List[Message]] = {name: [] for name in self.hosts}
        for directive in directives:
            kind = directive["kind"]
            if kind not in DIRECTIVE_KINDS:
                raise ClusterError("not a directive: %r" % (kind,))
            base = str(directive["host"]).split("+", 1)[0]
            if base not in self.hosts:
                continue  # another shard's host
            if kind == "host-start":
                incarnation = int(directive["incarnation"])  # type: ignore[arg-type]
                old = self.hosts[base]
                self.retired.append(old.finalize())
                fresh = HostSim(self.spec.host(base),
                                incarnation=incarnation,
                                start_ns=int(directive["start_ns"]),  # type: ignore[arg-type]
                                trace_path=self._trace_path(
                                    "%s+%d" % (base, incarnation)))
                self.hosts[base] = fresh
            elif kind == "place":
                spawn = dict(directive)
                spawn["kind"] = "spawn"
                routed[base].append(spawn)
            elif kind == "migrate-req":
                routed[base].append({"kind": "migrate",
                                     "thread": directive["thread"]})
            elif kind == "host-stop":
                routed[base].append({"kind": "prepare-down"})
        outboxes = []
        for name in sorted(self.hosts):
            host = self.hosts[name]
            host.apply(routed[name])
            host.advance(barrier_ns)
            outboxes.append(host.barrier_report(epoch, barrier_ns))
        return merge_outboxes(outboxes)

    def finalize(self) -> List[Dict[str, object]]:
        """Summaries of every incarnation this shard ran, key-sorted."""
        summaries = list(self.retired)
        for name in sorted(self.hosts):
            summaries.append(self.hosts[name].finalize())
        return sorted(summaries, key=lambda summary: str(summary["key"]))


class SerialShards:
    """All shards run inline, in shard order — the reference execution."""

    def __init__(self, spec: ClusterSpec, buckets: List[List[str]],
                 trace_dir: Optional[str] = None) -> None:
        self._shards = [ShardState(spec, bucket, trace_dir)
                        for bucket in buckets]

    def epoch(self, epoch: int, barrier_ns: int,
              directives: List[Message]) -> List[List[Message]]:
        """Per-shard outboxes for one epoch, in shard order."""
        return [shard.epoch(epoch, barrier_ns, directives)
                for shard in self._shards]

    def finalize(self) -> List[Dict[str, object]]:
        """All host summaries across shards, key-sorted."""
        summaries: List[Dict[str, object]] = []
        for shard in self._shards:
            summaries.extend(shard.finalize())
        return sorted(summaries, key=lambda summary: str(summary["key"]))

    def close(self) -> None:
        """Nothing to tear down for inline shards."""


def _shard_worker(conn, spec: ClusterSpec, bucket: List[str],
                  trace_dir: Optional[str]) -> None:
    """Worker entry point: serve epoch/finalize requests over the pipe.

    Builds its bucket's hosts from the pickled spec, then loops on a
    strict request/reply protocol until told to stop.  Top-level by
    design (picklable under spawn, visible to the SF4xx checker).
    """
    state = ShardState(spec, bucket, trace_dir)
    while True:
        request = conn.recv()
        verb = request[0]
        if verb == "epoch":
            __, epoch, barrier_ns, directives = request
            conn.send(state.epoch(epoch, barrier_ns, directives))
        elif verb == "finalize":
            conn.send(state.finalize())
        elif verb == "stop":
            conn.close()
            return
        else:
            raise ClusterError("unknown shard request %r" % (verb,))


class ProcessShards:
    """Shards as persistent worker processes, one per bucket.

    Replies are collected in shard-index order — workers may *compute*
    epochs concurrently, but every observable sequence is fixed.
    """

    def __init__(self, spec: ClusterSpec, buckets: List[List[str]],
                 trace_dir: Optional[str] = None) -> None:
        self._pipes = []
        self._procs = []
        for bucket in buckets:
            parent, child = multiprocessing.Pipe()
            proc = multiprocessing.Process(
                target=_shard_worker, args=(child, spec, bucket, trace_dir))
            proc.daemon = True
            proc.start()
            child.close()
            self._pipes.append(parent)
            self._procs.append(proc)

    def epoch(self, epoch: int, barrier_ns: int,
              directives: List[Message]) -> List[List[Message]]:
        """Broadcast the barrier, then gather outboxes in shard order."""
        for pipe in self._pipes:
            pipe.send(("epoch", epoch, barrier_ns, directives))
        return [pipe.recv() for pipe in self._pipes]

    def finalize(self) -> List[Dict[str, object]]:
        """Gather summaries from every worker, key-sorted."""
        for pipe in self._pipes:
            pipe.send(("finalize",))
        summaries: List[Dict[str, object]] = []
        for pipe in self._pipes:
            summaries.extend(pipe.recv())
        return sorted(summaries, key=lambda summary: str(summary["key"]))

    def close(self) -> None:
        """Stop and join every worker."""
        for pipe in self._pipes:
            try:
                pipe.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=30)
            if proc.is_alive():  # pragma: no cover - defensive teardown
                proc.terminate()
                proc.join(timeout=5)
        for pipe in self._pipes:
            pipe.close()


def make_shards(spec: ClusterSpec, shards: int,
                trace_dir: Optional[str] = None):
    """Build the right shard pool for ``shards`` (1 = inline serial)."""
    buckets = partition_hosts(spec.host_names(), shards)
    if shards == 1:
        return SerialShards(spec, buckets, trace_dir)
    return ProcessShards(spec, buckets, trace_dir)
