"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload deep_float --seed 1 --seconds 10 --trace 0

``--trace 0`` repeats untraced samples of the workload until ``--seconds``
have passed (at least three) and prints the end-to-end metrics.
``--trace 1`` alternates untraced and traced samples (at least two of
each) and prints the per-layer metrics of the traced ones.  Either way
the last line of standard output is one JSON object::

    {"correct": true, "attempted": 31, "failed": 0, "metrics": {...}}

where ``attempted``/``failed`` count the output checks run and failed
(``error_rate`` = failed / attempted).  Lines before it give the run's
metadata and a readable table.  ``--record`` runs the workload once at the
default seed and stores its model digest in ``expected.json`` (the fleet is
recorded with one serial shard, which every shard layout must match).

Everything runs in this process except the fleet's shard workers, which
``run_cluster`` starts and joins.  The simulator is imported from ``src/``
next to this directory, with ``REPRO_ENGINE`` and ``REPRO_SCHEDSAN``
cleared so the default engine runs.  See README.md for what each metric
and workload means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected.json")

WORKLOAD_NAMES = ("paper_exact", "deep_float", "churn_traced",
                  "fleet_sharded")
MIN_UNTRACED = 3
MIN_TRACED = 2

#: end-to-end metric -> unit
END_TO_END_UNITS = {
    "dispatches_per_s": "1/s",
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _git_rev() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _metadata(name: str, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    from repro.core.engine import active_engine

    import loads
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "engine": active_engine(),
        "tag_mode": loads.WORKLOADS[name].tag_mode,
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def _expected_digest(name: str, seed: int) -> Optional[str]:
    import loads
    if seed != loads.DEFAULT_SEED or not os.path.exists(EXPECTED):
        return None
    with open(EXPECTED) as handle:
        return json.load(handle).get(name)


def _guard(name: str, layers: Dict[str, float]) -> List[Tuple[str, bool]]:
    """Layer-profile guard: the traced profile still matches the reason
    the workload was chosen."""
    cluster_keys = [key for key in layers if key.startswith("cluster.")]
    cluster_seen = any(layers[key] for key in cluster_keys)
    checks = [
        ("guard.obs_emits",
         (layers["obs.emits"] > 0) == (name == "churn_traced")),
        ("guard.fraction_ops",
         (layers["tags.fraction_ops"] > 0) == (name == "paper_exact")),
        ("guard.cluster_only_on_fleet",
         cluster_seen == (name == "fleet_sharded")),
    ]
    if name == "deep_float":
        picks = layers["hierarchy.picks"]
        # decision_depth counts every node from the root to the leaf, so a
        # leaf eight levels down is a depth of nine
        depth = layers["hierarchy.levels"] / picks if picks else 0.0
        checks.append(("guard.depth_eight", 8.5 <= depth <= 9.5))
    return checks


def _record(name: str, scratch: str) -> int:
    import loads
    if name == "fleet_sharded":
        run = loads.build_fleet_sharded(loads.DEFAULT_SEED, shards=1)
    else:
        run = loads.build(name, loads.DEFAULT_SEED, scratch)
    run.drive()
    outcome = run.outcome()
    failed = [check for check, ok in outcome.checks if not ok]
    if failed:
        print("perfbench: not recording, checks failed: %s"
              % ", ".join(failed), file=sys.stderr)
        return 1
    recorded: Dict[str, str] = {}
    if os.path.exists(EXPECTED):
        with open(EXPECTED) as handle:
            recorded = json.load(handle)
    recorded[name] = outcome.digest
    with open(EXPECTED, "w") as handle:
        json.dump(recorded, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("recorded %s seed %d: %s" % (name, loads.DEFAULT_SEED,
                                        outcome.digest))
    return 0


def _measure(name: str, seed: int, seconds: int, trace: bool, scratch: str
             ) -> Tuple[List[Any], List[Any]]:
    """Untraced (and, with ``trace``, traced) samples for ``seconds``."""
    from sampling import take_sample
    untraced: List[Any] = []
    traced: List[Any] = []
    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(take_sample(name, seed, scratch))
        if trace:
            traced.append(take_sample(name, seed, scratch, traced=True))
        enough = len(traced) >= MIN_TRACED if trace else (
            len(untraced) >= MIN_UNTRACED)
        if enough and time.perf_counter() >= deadline:
            return untraced, traced


def _checks(name: str, seed: int, untraced: List[Any],
            traced: List[Any]) -> List[Tuple[str, bool]]:
    """Every output check of the run, per sample and across samples."""
    import spans
    checks: List[Tuple[str, bool]] = []
    for sample in untraced + traced:
        checks.extend(sample.outcome.checks)
    digests = {sample.outcome.digest for sample in untraced}
    checks.append(("digest_repeats", len(digests) == 1))
    expected = _expected_digest(name, seed)
    if expected is not None:
        checks.append(("digest_matches_record", digests == {expected}))
    if traced:
        checks.append(("tracing_leaves_model_unchanged", digests == {
            sample.outcome.digest for sample in traced}))
        first = traced[0].layers
        checks.append(("layer_counts_repeat", all(
            sample.layers[key] == first[key]
            for sample in traced[1:] for key in first if spans.is_count(key))))
        checks.extend(_guard(name, first))
    return checks


def _end_to_end(untraced: List[Any]) -> Dict[str, float]:
    # Other tenants of a shared host only ever add time, in bursts lasting
    # seconds, so the fastest sample (and the fastest build) is the least
    # disturbed measurement; a median moves with how long the bursts lasted.
    run_s = min(sample.run_s for sample in untraced)
    return {
        "dispatches_per_s": untraced[0].outcome.counts["dispatches"] / run_s,
        "run_s": run_s,
        "setup_s": min(t for sample in untraced for t in sample.setup_s),
        "peak_rss_mb": _peak_rss_mb(),
    }


def _per_layer(untraced: List[Any], traced: List[Any]
               ) -> Dict[str, Tuple[float, str]]:
    import spans
    metrics: Dict[str, Tuple[float, str]] = {}
    for key, value in traced[0].layers.items():
        if not spans.is_count(key):
            value = statistics.median(sample.layers[key] for sample in traced)
        metrics[key] = (value, spans.unit_of(key))
    overhead = (statistics.median(sample.run_s for sample in traced)
                / statistics.median(sample.run_s for sample in untraced))
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the exit status."""
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py",
        description="run one benchmark workload and print its metrics")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store the default seed's model digest")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: simulator source not found under %s" % SRC,
              file=sys.stderr)
        return 2
    for variable in ("REPRO_ENGINE", "REPRO_SCHEDSAN", "REPRO_SCHEDSAN_MODE"):
        os.environ.pop(variable, None)
    sys.path.insert(0, SRC)
    # binlogs written while the run is in progress, one directory per run
    scratch = tempfile.mkdtemp(prefix=".perfbench-out-", dir=ROOT)
    try:
        if args.record:
            return _record(args.workload, scratch)
        return _report(args.workload, args.seed, args.seconds, args.trace,
                       scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _report(name: str, seed: int, seconds: int, trace: int,
            scratch: str) -> int:
    untraced, traced = _measure(name, seed, seconds, bool(trace), scratch)
    checks = _checks(name, seed, untraced, traced)
    failed = [check for check, ok in checks if not ok]
    meta = _metadata(name, seed, seconds, trace)
    meta["samples"] = {"untraced": len(untraced), "traced": len(traced)}
    run_s = [sample.run_s for sample in untraced]
    meta["run_s_median"] = statistics.median(run_s)
    meta["run_s_samples"] = run_s
    meta["setup_s_median"] = statistics.median(
        t for sample in untraced for t in sample.setup_s)
    print("perfbench meta %s" % json.dumps(meta, sort_keys=True))
    if trace:
        metrics = _per_layer(untraced, traced)
    else:
        metrics = {key: (value, END_TO_END_UNITS[key])
                   for key, value in _end_to_end(untraced).items()}
    for key, (value, unit) in metrics.items():
        print("  %-30s %16.6f %s" % (key, value, unit))
    print("  %-30s %16.6f %s  (%d of %d output checks failed%s)"
          % ("error_rate", len(failed) / len(checks), "ratio", len(failed),
             len(checks), ": " + ", ".join(sorted(set(failed))) if failed
             else ""))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
