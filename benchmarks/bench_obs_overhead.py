"""EXP-OBS — instrumentation overhead of the observability event bus.

Runs the Figure-5 experiment (five Dhrystones plus interactive daemons,
both scheduler variants) under four instrumentation levels.  Each arm's
machine traces into its own Recorder on a private run bus; every arm
gets a fresh set of the collectors below on that bus before its first
event:

* **off** — no collector; the Recorder is the run bus's only
  subscriber;
* **binlog (deferred capture)** — :class:`BinaryTraceWriter` in
  ``defer=True`` mode: capture appends each record's shape, time and
  values to one flat list, encoding happens at seal.  The cheap
  leave-it-on path (target ≤1.5x off); the seal cost is measured
  separately;
* **binlog (streaming)** — the writer encoding inline with bounded
  memory, for million-event runs;
* **full stack** — per-node schedstats plus the Chrome-trace builder,
  the heaviest in-memory consumers.

Ratios are computed from *interleaved pairs*: each round runs every
variant back to back and divides by that same round's traced-off time,
then the median ratio is reported.  Pairing cancels slow host drift
(CPU frequency, VM steal) that makes independent best-of-N ratios on
shared runners swing by 2x; the median resists the remaining spikes.

Run as a script to write ``benchmarks/BENCH_OBS.json``; the exit status
is 1 when deferred capture's median ratio exceeds 1.5x off::

    PYTHONPATH=src python -m benchmarks.bench_obs_overhead --rounds 12

The pytest-benchmark entry points below remain for ``pytest
benchmarks/ --benchmark-only``.  Every variant must produce the
*identical* experiment result — the bus observes, never steers — which
is asserted here at benchmark scale.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments import figure5
from repro.experiments.common import ExperimentResult
from repro.obs import events as ev
from repro.obs.binlog import BinaryTraceWriter
from repro.obs.chrometrace import ChromeTraceBuilder
from repro.obs.schedstat import SchedStat
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.schedulers.svr4 import Svr4TimeSharing
from repro.units import SECOND

from benchmarks.conftest import run_once

#: long enough to dominate setup cost, short enough for CI
DURATION = 10 * SECOND

#: the experiment drives both scheduler variants for DURATION each
SIM_NS = 2 * DURATION

#: five dhrystones + two daemons, per variant machine
THREADS = 14


def suite_counters() -> int:
    """1 when the test suite's ``REPRO_OBS=1`` counter rides on every run
    bus (``tests/conftest.py``), else 0."""
    return int(os.environ.get("REPRO_OBS", "") not in ("", "0"))


def run_figure5(*factories: Callable[[], Any]
                ) -> Tuple[ExperimentResult, List[Any]]:
    """``figure5.run(duration=DURATION)`` arm by arm, with a fresh
    ``factory()`` from each factory subscribed to each arm's run bus
    before its first event; returns the result and every collector."""
    arms = []
    collectors: List[Any] = []
    for scheduler in (Svr4TimeSharing(), SfqScheduler()):
        setup = figure5.build_arm(scheduler)
        for factory in factories:
            collector = factory()
            setup.engine.bus.subscribe(collector)
            collectors.append(collector)
        # the arm's private run bus: its Recorder, the suite's counter
        # when present, plus these collectors, whatever the process bus
        # carries
        assert setup.engine.bus.subscriber_count() == \
            1 + suite_counters() + len(factories)
        # figure5.run's defaults: five Dhrystones, daemon seed 11
        arms.append((setup, figure5.run_arm(setup, 5, DURATION, 11)))
    return figure5.compare(arms[0], arms[1], DURATION), collectors


def run_plain():
    return run_figure5()[0]


def run_binlog(defer: bool = True):
    """Binlog-only capture into memory, one writer per arm; returns
    (result, events captured, seal_s)."""
    result, writers = run_figure5(
        lambda: BinaryTraceWriter(io.BytesIO(), defer=defer))
    t0 = time.perf_counter()
    for writer in writers:
        writer.close()
    seal_s = time.perf_counter() - t0
    return result, sum(writer.event_count for writer in writers), seal_s


def run_observed():
    """Schedstat plus the Chrome-trace builder on each arm; returns
    (result, [stats, builder, stats, builder])."""
    return run_figure5(SchedStat, ChromeTraceBuilder)


# --- pytest-benchmark entry points -------------------------------------------


def test_obs_off_baseline(benchmark):
    result = run_once(benchmark, run_plain)
    assert result.rows  # the experiment actually ran


def test_obs_binlog_capture(benchmark):
    result, events, __ = run_once(benchmark, run_binlog)
    assert events > 1000, "the binlog saw the run"
    assert result.rows == run_plain().rows


def test_obs_binlog_streaming(benchmark):
    result, events, __ = run_once(benchmark, run_binlog, defer=False)
    assert events > 1000
    assert result.rows == run_plain().rows


def test_obs_on_full_stack(benchmark):
    result, collectors = run_once(benchmark, run_observed)
    for stats, builder in zip(collectors[::2], collectors[1::2]):
        assert builder.event_count > 1000, "collectors saw the run"
        assert stats.nodes["/"].charges > 0
    # Observing must not steer: identical results with and without the bus.
    assert result.rows == run_plain().rows


# --- BENCH_OBS report -------------------------------------------------------

#: measurement variants, in per-round execution order ("off" must be first:
#: it is the denominator of that round's ratios)
_VARIANTS: List[Tuple[str, str]] = [
    ("obs_off", "figure-5, no bus subscriber (the traced-off baseline)"),
    ("obs_binlog", "figure-5, binlog deferred capture (encode at seal; "
                   "the leave-it-on path, target <=1.5x off)"),
    ("obs_binlog_streaming", "figure-5, binlog streaming encode "
                             "(bounded memory)"),
    ("obs_full_stack", "figure-5, schedstat + chrome-trace in-memory "
                       "collectors"),
]


def _timed(runner: Callable[[], Any]) -> Tuple[float, Any]:
    t0 = time.perf_counter()
    value = runner()
    return time.perf_counter() - t0, value


def _run_round() -> Dict[str, Dict[str, Any]]:
    """One interleaved round: every variant once, back to back."""
    round_data: Dict[str, Dict[str, Any]] = {}
    elapsed, __ = _timed(run_plain)
    round_data["obs_off"] = {"run_s": elapsed, "events": 0, "seal_s": 0.0}
    elapsed, (__, events, seal_s) = _timed(lambda: run_binlog(defer=True))
    round_data["obs_binlog"] = {"run_s": elapsed - seal_s,
                                "events": events, "seal_s": seal_s}
    elapsed, (__, events, seal_s) = _timed(lambda: run_binlog(defer=False))
    round_data["obs_binlog_streaming"] = {"run_s": elapsed,
                                          "events": events,
                                          "seal_s": seal_s}
    elapsed, __ = _timed(run_observed)
    round_data["obs_full_stack"] = {"run_s": elapsed, "events": 0,
                                    "seal_s": 0.0}
    return round_data


def measure(rounds: int = 12,
            echo: Optional[Callable[[str], None]] = None) -> Dict[str, Any]:
    """Interleaved overhead measurement; returns the BENCH_OBS report."""
    if rounds < 2:
        raise ValueError("need >= 2 rounds for a median, got %d" % rounds)
    # warm-up: imports, code objects, allocator pools
    run_plain()
    counts: Dict[str, int] = {}

    def count(shape: ev.Shape, time: int, values: Tuple[Any, ...]) -> None:
        counts[shape.kind] = counts.get(shape.kind, 0) + 1

    run_figure5(lambda: count)
    events_total = sum(counts.values())
    dispatches = counts.get(ev.DISPATCH, 0)

    samples: Dict[str, List[Dict[str, Any]]] = {name: []
                                                for name, __ in _VARIANTS}
    ratios: Dict[str, List[float]] = {name: [] for name, __ in _VARIANTS}
    for index in range(rounds):
        round_data = _run_round()
        off_s = round_data["obs_off"]["run_s"]
        for name, __ in _VARIANTS:
            entry = round_data[name]
            samples[name].append(entry)
            ratios[name].append(entry["run_s"] / off_s)
        if echo is not None:
            echo("round %2d/%d  off %6.2f ms   binlog %.3fx   "
                 "streaming %.3fx   full %.3fx"
                 % (index + 1, rounds, off_s * 1e3,
                    ratios["obs_binlog"][-1],
                    ratios["obs_binlog_streaming"][-1],
                    ratios["obs_full_stack"][-1]))

    scenarios: Dict[str, Any] = {}
    for name, description in _VARIANTS:
        runs = [sample["run_s"] for sample in samples[name]]
        median_run = statistics.median(runs)
        events = events_total if name != "obs_off" else 0
        scenarios[name] = {
            "description": description,
            "repeats": [{
                "build_s": 0.0,
                "run_s": sample["run_s"],
                "events": events,
                "dispatches": dispatches,
                "sim_ns": SIM_NS,
                "threads": THREADS,
                "maxrss_kb": 0,
                "phases": {},
            } for sample in samples[name]],
            "stats": {
                "run_s": {
                    "min": min(runs),
                    "median": median_run,
                    "mean": statistics.fmean(runs),
                    "stdev": statistics.stdev(runs),
                },
                "events_per_sec":
                    events / median_run if median_run > 0 else 0.0,
                "dispatches_per_sec":
                    dispatches / median_run if median_run > 0 else 0.0,
                "events": events,
                "dispatches": dispatches,
                "peak_rss_kb": 0,
            },
            "overhead_vs_off": {
                "paired_ratios": [round(r, 4) for r in ratios[name]],
                "median": statistics.median(ratios[name]),
                "min_based": min(runs) / min(
                    s["run_s"] for s in samples["obs_off"]),
            },
            "seal_s_median": statistics.median(
                sample["seal_s"] for sample in samples[name]),
        }

    return {
        "schema": "repro.bench_obs/1",
        "mode": "quick",
        "repeats": rounds,
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "scenarios": scenarios,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="measure observability capture overhead, write "
                    "BENCH_OBS.json")
    parser.add_argument("--rounds", type=int, default=12,
                        help="interleaved measurement rounds (default 12)")
    parser.add_argument("--out", default="benchmarks/BENCH_OBS.json",
                        help="output path (default benchmarks/BENCH_OBS.json)")
    args = parser.parse_args(argv)

    report = measure(rounds=args.rounds, echo=print)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")

    print()
    for name, __ in _VARIANTS:
        entry = report["scenarios"][name]
        overhead = entry["overhead_vs_off"]
        line = "%-22s median %7.2f ms   %5.3fx off (min-based %5.3fx)" % (
            name, entry["stats"]["run_s"]["median"] * 1e3,
            overhead["median"], overhead["min_based"])
        if entry["seal_s_median"]:
            line += "   seal %5.2f ms" % (entry["seal_s_median"] * 1e3)
        print(line)
    print("wrote %s" % args.out)
    binlog_ratio = report["scenarios"]["obs_binlog"]["overhead_vs_off"]["median"]
    return 0 if binlog_ratio <= 1.5 else 1


if __name__ == "__main__":
    import sys
    sys.exit(main())
