"""The observability-overhead benchmark's measurement path, end to end.

``benchmarks/bench_obs_overhead.py`` writes ``BENCH_OBS.json`` and gates
deferred capture at 1.5x the traced-off run; neither CI nor the suite
runs it otherwise.  This runs its ``measure()`` for two rounds, without
the wall-time gate, and checks that every instrumentation level leaves
the experiment's result unchanged, and that the suite's ``REPRO_OBS=1``
counter reaches the traced runs it measures.
"""

from repro.experiments import figure5
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.units import SECOND

from benchmarks import bench_obs_overhead as bench

#: what one Figure-5 run (both arms, 10 s each) emits and dispatches
EVENTS = 4_470
DISPATCHES = 1_217


def test_measure_reports_every_scenario():
    report = bench.measure(rounds=2)
    assert report["repeats"] == 2
    assert list(report["scenarios"]) == [
        "obs_off", "obs_binlog", "obs_binlog_streaming", "obs_full_stack"]
    for name, entry in report["scenarios"].items():
        assert len(entry["repeats"]) == 2
        assert entry["stats"]["events"] == (0 if name == "obs_off"
                                            else EVENTS)
        assert entry["stats"]["dispatches"] == DISPATCHES
        assert len(entry["overhead_vs_off"]["paired_ratios"]) == 2


def test_every_variant_returns_the_plain_rows():
    rows = bench.run_plain().rows
    for defer in (True, False):
        result, events, __ = bench.run_binlog(defer=defer)
        assert events == EVENTS
        assert result.rows == rows
    result, collectors = bench.run_observed()
    assert result.rows == rows
    assert sum(builder.event_count for builder in collectors[1::2]) == EVENTS


def test_suite_counter_rides_on_each_traced_run(obs_bus_subscriber):
    """Under ``REPRO_OBS=1`` the suite's counter sits beside an arm's
    Recorder on its private run bus and counts that run; otherwise the
    Recorder is alone there."""
    setup = figure5.build_arm(SfqScheduler())
    present = obs_bus_subscriber is not None
    assert bench.suite_counters() == present
    assert setup.engine.bus.subscriber_count() == 1 + present
    if present:
        dispatches = obs_bus_subscriber.get("dispatch", 0)
        figure5.run_arm(setup, 5, SECOND, 11)
        assert obs_bus_subscriber["dispatch"] > dispatches
