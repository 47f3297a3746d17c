"""One measured sample of a workload: set-up, run, outcome.

:func:`take_sample` builds the workload (timing each build), drives it,
and reads its outcome.  With ``traced=True`` a :class:`spans.LayerTracer`
is installed around the build and the run and removed before the outcome
is read, so the sample also carries per-layer metrics.  Samples taken one
after another in one process are independent: the digest is keyed by
thread names, never by the process-global tids.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Dict, List, Optional

import loads
import spans


class Sample:
    """The measurements and outcome of one build-and-run."""

    __slots__ = ("setup_s", "run_s", "outcome", "layers")

    def __init__(self, setup_s: List[float], run_s: float,
                 outcome: loads.Outcome,
                 layers: Optional[Dict[str, float]]) -> None:
        #: host seconds of each build (several per sample on cheap set-ups)
        self.setup_s = setup_s
        #: host seconds from the first simulated event to the horizon
        self.run_s = run_s
        self.outcome = outcome
        #: per-layer metrics (traced samples only)
        self.layers = layers


def _build(name: str, seed: int, scratch_dir: str, builds: int) -> Any:
    """Build ``builds`` times, keeping the last; returns (run, times)."""
    times: List[float] = []
    run = None
    for __ in range(builds):
        run = None  # drop the previous build before timing the next
        gc.collect()
        start = time.perf_counter()
        run = loads.build(name, seed, scratch_dir)
        times.append(time.perf_counter() - start)
    return run, times


def take_sample(name: str, seed: int, scratch_dir: str,
                traced: bool = False) -> Sample:
    """Build, drive and check workload ``name`` once."""
    builds = 1 if traced else loads.WORKLOADS[name].setups
    tracer = None
    if traced:
        # the hosts of the fleet run in shard processes; only the cluster
        # tier's calls happen in this one
        tracer = spans.LayerTracer(cluster_only=name == "fleet_sharded")
        tracer.install()
    try:
        run, setup_s = _build(name, seed, scratch_dir, builds)
        gc.collect()
        run_s = run.drive()
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_s[-1] += run.pool_setup_s
    outcome = run.outcome()
    layers = tracer.report(outcome.counts) if tracer is not None else None
    return Sample(setup_s, run_s, outcome, layers)
