"""Hierarchical schedstats: attribution, rendering, SCHEDSAN integration."""

from repro.core.hierarchy import HierarchicalScheduler
from repro.core.structure import SchedulingStructure
from repro.devtools.schedsan import SchedsanScheduler
from repro.obs import events as ev
from repro.obs.metrics import SchedulerMetrics
from repro.obs.schedstat import (
    NodeStats,
    SchedStat,
    ancestor_paths,
    render_schedstat,
)
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.threads.thread import SimThread
from repro.units import MS
from repro.workloads.dhrystone import DhrystoneWorkload
from tests.conftest import Harness


class TestAncestorPaths:
    def test_root(self):
        assert ancestor_paths("/") == ["/"]

    def test_nested(self):
        assert ancestor_paths("/a/b") == ["/", "/a", "/a/b"]

    def test_non_path_labels_stand_alone(self):
        assert ancestor_paths("fq:wfq") == ["fq:wfq"]


class TestNodeStats:
    def test_as_dict_covers_every_slot(self):
        stats = NodeStats()
        stats.dispatches = 3
        snap = stats.as_dict()
        assert snap["dispatches"] == 3
        assert set(snap) == set(NodeStats.__slots__)


def feed(stats, kind, time, **data):
    stats.capture(ev.Shape(kind, tuple(data)), time, tuple(data.values()))


class TestAttribution:
    def test_charges_roll_up_to_ancestors(self):
        stats = SchedStat()
        feed(stats, ev.CHARGE, 10, node="/a/b", work=500)
        feed(stats, ev.CHARGE, 20, node="/a/c", work=300)
        assert stats.nodes["/a/b"].service_work == 500
        assert stats.nodes["/a/c"].service_work == 300
        assert stats.nodes["/a"].service_work == 800
        assert stats.nodes["/"].service_work == 800

    def test_tag_updates_stay_on_the_named_node(self):
        stats = SchedStat()
        feed(stats, ev.TAG_UPDATE, 0, node="/a/b", start=2.0, finish=5.0)
        feed(stats, ev.TAG_UPDATE, 1, node="/a/b", start=1.0, finish=9.0)
        record = stats.nodes["/a/b"]
        assert record.tag_updates == 2
        assert record.min_start == 1.0
        assert record.max_finish == 9.0
        assert "/a" not in stats.nodes or stats.nodes["/a"].tag_updates == 0

    def test_interrupts_are_machine_level(self):
        stats = SchedStat()
        feed(stats, ev.INTERRUPT, 0, cpu=0, service=900)
        assert stats.interrupts == 1
        assert stats.interrupt_ns == 900


class TestLiveRun:
    def run(self):
        harness = Harness()
        stats = SchedStat()
        # Subscribe before spawning: the first dispatch fires at spawn time.
        with harness.engine.bus.subscription(stats):
            a = harness.spawn_dhrystone("a", weight=2)
            b = harness.spawn_dhrystone("b", weight=1)
            harness.machine.run_until(60 * MS)
        return harness, stats, (a, b)

    def test_leaf_counters_match_thread_stats(self):
        __, stats, threads = self.run()
        leaf = stats.nodes["/apps"]
        assert leaf.dispatches == sum(t.stats.dispatches for t in threads)
        assert leaf.service_work == sum(t.stats.work_done for t in threads)

    def test_root_aggregates_the_leaf(self):
        __, stats, __ = self.run()
        assert stats.nodes["/"].service_work == \
            stats.nodes["/apps"].service_work

    def test_render_with_stats(self):
        harness, stats, __ = self.run()
        text = render_schedstat(harness.structure, stats)
        assert text.startswith("schedstat-hsfq version 1")
        assert "/apps weight=1 leaf" in text
        assert "sched=sfq threads=2" in text
        assert "dispatches=" in text and "tags: S_min=" in text
        assert text.strip().splitlines()[-1].startswith("interrupts=")

    def test_render_without_stats_shows_live_state_only(self):
        harness, __, __ = self.run()
        text = render_schedstat(harness.structure)
        assert "/apps weight=1 leaf" in text
        assert "dispatches=" not in text


class TestSchedsanIntegration:
    def make_violation_scenario(self):
        """A charge with no matching pick_next: a protocol violation."""
        structure = SchedulingStructure()
        leaf = structure.mknod("/apps", 1, scheduler=SfqScheduler())
        scheduler = SchedsanScheduler(HierarchicalScheduler(structure),
                                      mode="collect")
        thread = SimThread("rogue", DhrystoneWorkload())
        leaf.attach_thread(thread)
        scheduler.admit(thread)
        return scheduler, thread

    def test_collect_mode_violations_reach_the_bus(self):
        scheduler, thread = self.make_violation_scenario()
        stats = SchedStat()
        metrics = SchedulerMetrics()
        with ev.BUS.subscription(stats), ev.BUS.subscription(metrics):
            scheduler.charge(thread, 1_000, now=7)
        assert scheduler.violations, "sanity: SCHEDSAN collected it"
        assert stats.nodes["/apps"].violations == 1
        assert metrics.registry.snapshot()["sched.violations"] == 1

    def test_violation_event_carries_rule_and_node(self):
        scheduler, thread = self.make_violation_scenario()
        seen = []
        with ev.BUS.subscription(lambda *record: seen.append(record)):
            scheduler.charge(thread, 1_000, now=7)
        violations = [(time, dict(zip(shape.fields, values)))
                      for shape, time, values in seen
                      if shape.kind == ev.VIOLATION]
        assert len(violations) == 1
        time, data = violations[0]
        assert time == 7
        assert data["rule"] == "charge-without-dispatch"
        assert data["node"] == "/apps"
        assert "without a matching pick_next" in data["message"]
