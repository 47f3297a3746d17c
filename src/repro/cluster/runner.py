"""The cluster run loop: epochs, barriers, merge, control, artifacts.

:func:`run_cluster` drives one cluster simulation to its horizon:

1. every shard advances its hosts to the next barrier and returns a
   sorted outbox (:mod:`repro.cluster.shards`);
2. the outboxes are merged with the validating k-way merge
   (:mod:`repro.cluster.messages`);
3. the control tier folds the merged log, decides placements /
   migrations / churn, and its messages become both the log tail and
   next epoch's directives (:mod:`repro.cluster.control`).

The resulting :class:`ClusterResult` carries the three shard-invariant
artifacts the CI gate compares byte-for-byte — the merged cluster trace,
the placement log, and the merged cluster schedstat — plus per-host
summaries and digests.  Per-host binlogs are shard-invariant too: each
host's simulator numbers its own threads.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional

from repro.cluster.churn import build_churn
from repro.cluster.control import CTL_SRC, ControlTier
from repro.cluster.messages import (
    Message,
    check_sorted,
    log_digest,
    merge_outboxes,
    render_lines,
)
from repro.cluster.shards import make_shards
from repro.cluster.spec import ClusterSpec
from repro.obs.schedstat import SchedStat, merge_schedstats, render_schedstat_paths


class ClusterResult:
    """Everything one cluster run produced."""

    def __init__(self, spec: ClusterSpec, seed: int, shards: int,
                 log: List[Message], hosts: List[Dict[str, object]],
                 control: Dict[str, object],
                 fault_log: List[Dict[str, object]],
                 schedstat_text: str) -> None:
        self.spec = spec
        self.seed = seed
        self.shards = shards
        #: the merged, order-validated cluster message log
        self.log = log
        #: per-incarnation host summaries, key-sorted
        self.hosts = hosts
        self.control = control
        self.fault_log = fault_log
        self.schedstat_text = schedstat_text

    @property
    def placement_log(self) -> List[Message]:
        """Only the control tier's messages (the placement record)."""
        return [msg for msg in self.log if msg["src"] == CTL_SRC]

    def digests(self) -> Dict[str, str]:
        """sha256 digests of every shard-invariant artifact."""
        hosts_src = json.dumps(
            [{"key": host["key"], "digest": host["digest"]}
             for host in self.hosts],
            sort_keys=True, separators=(",", ":"))
        return {
            "trace": log_digest(self.log),
            "placement": log_digest(self.placement_log),
            "schedstat": hashlib.sha256(
                self.schedstat_text.encode("utf-8")).hexdigest(),
            "hosts": hashlib.sha256(hosts_src.encode("utf-8")).hexdigest(),
        }

    def report(self) -> Dict[str, object]:
        """The JSON-able run report (written as ``report.json``)."""
        return {
            "cluster": self.spec.name,
            "seed": self.seed,
            "shards": self.shards,
            "hosts": len(self.spec.hosts),
            "tenants": self.spec.tenants,
            "epochs": self.spec.epochs,
            "epoch_ns": self.spec.epoch_ns,
            "policy": self.spec.policy,
            "messages": len(self.log),
            "control": self.control,
            "fault_log": self.fault_log,
            "digests": self.digests(),
            "host_summaries": [
                {key: value for key, value in host.items()
                 if key != "schedstat"}
                for host in self.hosts],
        }

    def write(self, outdir: str) -> Dict[str, str]:
        """Write the artifact set; returns ``{artifact: path}``."""
        os.makedirs(outdir, exist_ok=True)
        paths = {
            "trace": os.path.join(outdir, "cluster-trace.jsonl"),
            "placement": os.path.join(outdir, "placement-log.jsonl"),
            "schedstat": os.path.join(outdir, "cluster-schedstat.txt"),
            "report": os.path.join(outdir, "report.json"),
        }
        with open(paths["trace"], "w") as fh:
            fh.write(render_lines(self.log))
        with open(paths["placement"], "w") as fh:
            fh.write(render_lines(self.placement_log))
        with open(paths["schedstat"], "w") as fh:
            fh.write(self.schedstat_text + "\n")
        with open(paths["report"], "w") as fh:
            json.dump(self.report(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return paths


def run_cluster(spec: ClusterSpec, seed: int, shards: int = 1,
                trace_dir: Optional[str] = None) -> ClusterResult:
    """Run one cluster simulation; byte-identical for any ``shards``.

    ``trace_dir`` additionally captures one binlog per host incarnation,
    byte-identical for any ``shards`` as well.
    """
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
    churn_ctx = build_churn(spec, seed)
    control = ControlTier(spec, seed, churn=churn_ctx.churn)
    pool = make_shards(spec, shards, trace_dir)
    log: List[Message] = []
    directives: List[Message] = []
    try:
        for epoch in range(spec.epochs):
            barrier_ns = (epoch + 1) * spec.epoch_ns
            outboxes = pool.epoch(epoch, barrier_ns, directives)
            merged = merge_outboxes(outboxes)
            ctl = control.barrier(epoch, merged)
            log.extend(merged)
            log.extend(ctl)
            directives = ctl
        summaries = pool.finalize()
    finally:
        pool.close()
    check_sorted(log, "full cluster log")
    per_host = {str(summary["key"]):
                SchedStat.from_dict(summary["schedstat"])  # type: ignore[arg-type]
                for summary in summaries}
    schedstat_text = render_schedstat_paths(merge_schedstats(per_host))
    return ClusterResult(spec, seed, shards, log, summaries,
                         control.summary(), churn_ctx.log, schedstat_text)
