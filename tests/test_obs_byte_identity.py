"""Lossless capture: binlog replay must equal live observation, byte for byte.

The binlog's whole contract is that recording to disk loses nothing: the
Chrome trace JSON, the schedstat text and the scheduler-metrics snapshot
produced by *replaying* a binlog must be identical to what the in-memory
collectors produced *live* on the same run.  Checked on both arms of the
Figure-5 experiment and on the golden depth-8 hierarchy, plus the
committed golden binlog fixture.
"""

import functools
import io

import pytest

from repro.experiments import figure5
from repro.obs import events as ev
from repro.obs.binlog import BinaryTraceReader, BinaryTraceWriter, replay
from repro.obs.chrometrace import ChromeTraceBuilder, validate_chrome_trace
from repro.obs.metrics import SchedulerMetrics
from repro.obs.schedstat import SchedStat, render_schedstat_paths
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.schedulers.svr4 import Svr4TimeSharing
from repro.units import MS, SECOND

from tests import goldens


def capture_live(bus, run):
    """Run ``run`` once with binlog + live collectors on ``bus``."""
    buffer = io.BytesIO()
    writer = BinaryTraceWriter(buffer)
    stats = SchedStat()
    builder = ChromeTraceBuilder()
    metrics = SchedulerMetrics()
    with bus.subscription(writer), bus.subscription(stats), \
            bus.subscription(builder), bus.subscription(metrics):
        run()
    writer.close()
    return buffer.getvalue(), builder, stats, metrics


def replay_collectors(raw):
    stats = SchedStat()
    builder = ChromeTraceBuilder()
    metrics = SchedulerMetrics()
    replay(io.BytesIO(raw), builder, stats, metrics)
    return builder, stats, metrics


def run_deep_hierarchy():
    """The golden depth8 scenario, shortened."""
    machine = goldens.build_depth8()
    machine.run_until(300 * MS)


class TestByteIdentity:
    def check(self, bus, run):
        raw, live_builder, live_stats, live_metrics = capture_live(bus, run)
        replayed_builder, replayed_stats, replayed_metrics = \
            replay_collectors(raw)
        assert live_builder.event_count > 100
        # Chrome trace: identical JSON at both indents
        assert replayed_builder.to_json() == live_builder.to_json()
        assert replayed_builder.to_json(indent=1) == \
            live_builder.to_json(indent=1)
        assert validate_chrome_trace(replayed_builder.to_dict()) > 0
        # schedstat: identical offline rendering
        assert render_schedstat_paths(replayed_stats) == \
            render_schedstat_paths(live_stats)
        # scheduler metrics: identical registry snapshot
        live_snapshot = live_metrics.registry.snapshot()
        assert live_snapshot["sched.dispatches"] > 0
        assert replayed_metrics.registry.snapshot() == live_snapshot

    def test_figure5(self):
        """Each arm of the experiment, SVR4 time-sharing and SFQ, shortened
        to 1 s and observed on its own run bus from its first event."""
        for scheduler in (Svr4TimeSharing(), SfqScheduler()):
            setup = figure5.build_arm(scheduler)
            self.check(setup.engine.bus, functools.partial(
                figure5.run_arm, setup, 5, 1 * SECOND, 11))

    def test_deep_hierarchy(self):
        self.check(ev.BUS, run_deep_hierarchy)


class TestGoldenBinlog:
    """The committed binlog fixture is the codec's drift detector."""

    @pytest.mark.parametrize("defer", [False, True],
                             ids=["stream", "defer"])
    def test_current_tree_reproduces_committed_bytes(self, defer):
        with open(goldens.binlog_fixture_path(), "rb") as handle:
            committed = handle.read()
        assert goldens.demo_binlog_bytes(defer=defer) == committed, (
            "binlog capture of the demo workload diverged from "
            "tests/fixtures/golden/obs_demo.binlog; if the format or "
            "scheduling change is intentional, regenerate with "
            "`python -m tests.regen_goldens`")

    def test_committed_fixture_validates_and_decodes(self):
        reader = BinaryTraceReader(goldens.binlog_fixture_path())
        info = reader.info()
        assert info["events"] == len(reader) > 100
        kinds = {shape.kind for shape, __, ___ in reader}
        assert ev.DISPATCH in kinds and ev.SLICE in kinds

    def test_capture_is_reproducible_in_process(self):
        assert goldens.demo_binlog_bytes() == goldens.demo_binlog_bytes()
