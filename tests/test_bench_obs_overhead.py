"""The observability-overhead benchmark's measurement path, end to end.

``benchmarks/bench_obs_overhead.py`` writes ``BENCH_OBS.json`` and gates
deferred capture at 1.5x the traced-off run; neither CI nor the suite
runs it otherwise.  This runs its ``measure()`` for two rounds, without
the wall-time gate, and checks that every instrumentation level leaves
the experiment's result unchanged.
"""

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
