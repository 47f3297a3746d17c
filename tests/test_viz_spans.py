"""Span extraction and the depth-axis hierarchy Gantt."""

import io

import pytest

from repro.core.hierarchy import HierarchicalScheduler
from repro.core.structure import SchedulingStructure
from repro.cpu.interrupts import PoissonInterruptSource
from repro.cpu.machine import Machine
from repro.hsfq import hsfq_move
from repro.obs import events as ev
from repro.obs.binlog import BinaryTraceReader, BinaryTraceWriter
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.sim.engine import Simulator
from repro.sim.rng import make_rng
from repro.threads.segments import Compute, SleepFor
from repro.threads.thread import SimThread
from repro.units import MS, SECOND
from repro.viz.depth_gantt import depth_gantt
from repro.viz.gantt import gantt_chart
from repro.viz.spans import Span, extract_spans, node_depth
from repro.workloads.dhrystone import DhrystoneWorkload

EVENTS = [
    (ev.SLICE_SHAPE, 30, (1, "a", "/apps/rt", 0, 10, 2000)),
    (ev.SLICE_SHAPE, 60, (2, "b", "/apps", 0, 30, 3000)),
    (ev.PREEMPT_SHAPE, 30, (1, "/apps/rt")),
    (ev.INTERRUPT_SHAPE, 60, (0, 15)),
    (ev.SLICE_SHAPE, 100, (1, "a", "/apps/rt", 0, 75, 2500)),
]


class TestNodeDepth:
    def test_root_is_zero(self):
        assert node_depth("/") == 0

    def test_nested_paths(self):
        assert node_depth("/a") == 1
        assert node_depth("/a/b") == 2
        assert node_depth("/a/b/c/d") == 4

    def test_non_path_labels_sit_at_root_depth(self):
        assert node_depth("fq:sfq") == 0


class TestExtractFromEvents:
    def test_slices_become_spans(self):
        spanset = extract_spans(EVENTS)
        assert spanset.spans == [
            Span(10, 30, 1, "a", "/apps/rt"),
            Span(30, 60, 2, "b", "/apps"),
            Span(75, 100, 1, "a", "/apps/rt"),
        ]

    def test_instants_are_kept(self):
        spanset = extract_spans(EVENTS)
        assert spanset.interrupts == [(60, 75)]
        assert spanset.preempts == [(30, 1, "/apps/rt")]

    def test_end_covers_interrupt_tail(self):
        spanset = extract_spans(EVENTS[:4])  # last slice dropped
        assert spanset.end() == 75

    def test_nodes_ordered_by_depth_then_path(self):
        assert extract_spans(EVENTS).nodes() == ["/apps", "/apps/rt"]

    def test_threads_in_tid_order(self):
        assert extract_spans(EVENTS).threads() == [(1, "a"), (2, "b")]


class TestExtractFromRecorder:
    def test_recorder_spans_match_event_spans(self, harness):
        buffer = io.BytesIO()
        writer = BinaryTraceWriter(buffer)
        with harness.engine.bus.subscription(writer):
            harness.spawn_dhrystone("a")
            harness.spawn_dhrystone("b", weight=2)
            harness.machine.run_until(200 * MS)
        writer.close()
        from_recorder = extract_spans(harness.recorder)
        from_binlog = extract_spans(
            BinaryTraceReader(io.BytesIO(buffer.getvalue())))
        assert from_recorder.spans == from_binlog.spans

    def test_moved_thread_spans_match_event_spans(self, harness):
        """Each span keeps the leaf its slice ran under, not the leaf the
        thread sits in when the spans are extracted."""
        other = harness.structure.mknod("/other", 1,
                                        scheduler=SfqScheduler())
        events = []
        with harness.engine.bus.subscription(
                lambda *record: events.append(record)):
            thread = harness.spawn_segments(
                "mover", [Compute(10_000), SleepFor(20 * MS),
                          Compute(10_000), SleepFor(SECOND)])
            harness.machine.run_until(20 * MS)
            hsfq_move(harness.structure, thread, other.node_id)
            harness.machine.run_until(100 * MS)
        from_recorder = extract_spans(harness.recorder)
        assert [span.node for span in from_recorder.spans] == \
            ["/apps", "/other"]
        assert from_recorder.spans == extract_spans(events).spans

    def test_thread_order_override(self, harness):
        a = harness.spawn_dhrystone("a")
        b = harness.spawn_dhrystone("b")
        harness.machine.run_until(100 * MS)
        spanset = extract_spans(harness.recorder, [b, a])
        assert spanset.threads() == [(a.tid, "a"), (b.tid, "b")]


def hierarchy_machine():
    structure = SchedulingStructure()
    apps = structure.mknod("apps", 3)
    rt = structure.mknod("rt", 2, parent=apps, scheduler=SfqScheduler())
    batch = structure.mknod("batch", 1, scheduler=SfqScheduler())
    engine = Simulator()
    machine = Machine(engine, HierarchicalScheduler(structure),
                      capacity_ips=100_000_000, default_quantum=10 * MS)
    machine.add_interrupt_source(PoissonInterruptSource(
        mean_interarrival=5 * MS, mean_service=100_000,
        rng=make_rng(7, "intr")))
    for name, leaf in (("rt-0", rt), ("batch-0", batch)):
        thread = SimThread(name, DhrystoneWorkload(300, 10_000))
        leaf.attach_thread(thread)
        machine.spawn(thread)
    return machine


class TestDepthGantt:
    def capture(self):
        buffer = io.BytesIO()
        writer = BinaryTraceWriter(buffer)
        with ev.BUS.subscription(writer):
            hierarchy_machine().run_until(1 * SECOND)
        writer.close()
        return BinaryTraceReader(io.BytesIO(buffer.getvalue()))

    def test_lanes_ordered_by_depth(self):
        chart = depth_gantt(self.capture(), width=40, title="hier")
        lines = chart.splitlines()
        assert lines[0] == "hier"
        labels = [line.split("|")[0].strip() for line in lines[1:-1]]
        assert labels[0] == "irq"
        depths = [int(label.split()[0]) for label in labels[1:]]
        assert depths == sorted(depths)
        assert "2 /apps/rt" in labels
        assert "1 /batch" in labels

    def test_busy_hierarchy_fills_lanes(self):
        chart = depth_gantt(self.capture(), width=40)
        for node in ("/apps/rt", "/batch"):
            line = next(line for line in chart.splitlines() if node in line)
            strip = line.split("|")[1]
            assert "#" in strip or "+" in strip, node

    def test_time_axis_is_last_line(self):
        lines = depth_gantt(self.capture(), width=40).splitlines()
        assert "t=0" in lines[-1]
        assert "t=1000000000" in lines[-1]

    def test_renders_from_plain_event_list(self):
        chart = depth_gantt(EVENTS, width=20)
        lines = chart.splitlines()
        assert lines[0].lstrip().startswith("irq")
        assert any("/apps/rt" in line for line in lines)

    def test_preempt_instants_marked(self):
        chart = depth_gantt(EVENTS, start=0, end=100, width=20)
        rt_line = next(line for line in chart.splitlines()
                       if "/apps/rt" in line)
        assert "!" in rt_line.split("|")[1]

    def test_empty_trace_renders_axis_only(self):
        chart = depth_gantt([], width=20)
        assert "irq" in chart


class TestGanttFromEvents:
    def test_gantt_accepts_event_streams(self):
        chart = gantt_chart(EVENTS, start=0, end=100, width=20)
        lines = chart.splitlines()
        assert lines[0].lstrip().startswith("a")
        assert "#" in lines[0]
