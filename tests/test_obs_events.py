"""The observability event bus: mechanics, emit sites, and zero-cost off."""

import pytest

from repro.obs import events as ev
from repro.units import MS


def collect_run(harness_factory, subscriber):
    """Run a fresh scenario, optionally with ``subscriber`` attached.

    Returns (thread results, final time).  Results are (name, work,
    dispatches, blocks, slices) tuples.
    """
    harness, threads = harness_factory()
    if subscriber is not None:
        with harness.engine.bus.subscription(subscriber):
            harness.machine.run_until(80 * MS)
    else:
        harness.machine.run_until(80 * MS)
    results = [
        (t.name, t.stats.work_done, t.stats.dispatches, t.stats.blocks,
         tuple(harness.recorder.trace_of(t).slices))
        for t in threads
    ]
    return results, harness.engine.now


class TestBusMechanics:
    def test_inactive_by_default(self):
        bus = ev.EventBus()
        assert not bus.active

    def test_subscribe_activates_and_unsubscribe_deactivates(self):
        bus = ev.EventBus()

        def subscriber(shape, time, values):
            pass

        bus.subscribe(subscriber)
        assert bus.active
        bus.unsubscribe(subscriber)
        assert not bus.active

    def test_emit_without_subscribers_is_noop(self):
        bus = ev.EventBus()
        # must not raise or build anything
        bus.emit(ev.Shape(ev.DISPATCH, ("tid",)), 5, 1)

    def test_emit_delivers_event_fields(self):
        bus = ev.EventBus()
        seen = []
        bus.subscribe(lambda *record: seen.append(record))
        shape = ev.Shape(ev.DISPATCH, ("tid", "node"))
        bus.emit(shape, 42, 7, "/apps")
        assert seen == [(shape, 42, (7, "/apps"))]
        assert seen[0][0] is shape

    def test_capture_consumer_is_handed_the_record_as_emitted(self):
        bus = ev.EventBus()
        records = []

        class Consumer:
            def __call__(self, shape, time, values):
                raise AssertionError("called, though it has a capture")

            def capture(self, shape, time, values):
                records.append((shape, time, values))

        bus.subscribe(Consumer())
        bus.emit(ev.WAKE_SHAPE, 9, 3, "/a")
        assert records == [(ev.WAKE_SHAPE, 9, (3, "/a"))]

    def test_object_with_only_capture_subscribes(self):
        class Consumer:
            def __init__(self):
                self.records = []

            def capture(self, shape, time, values):
                self.records.append((shape, time, values))

        bus = ev.EventBus()
        consumer = bus.subscribe(Consumer())
        bus.emit(ev.WAKE_SHAPE, 9, 3, "/a")
        bus.unsubscribe(consumer)
        assert not bus.active
        assert consumer.records == [(ev.WAKE_SHAPE, 9, (3, "/a"))]

    def test_mixed_subscribers_keep_order_and_share_one_record(self):
        bus = ev.EventBus()
        order = []

        class Consumer:
            def capture(self, shape, time, values):
                order.append(("capture", shape, time, values))

        bus.subscribe(lambda *record: order.append(("plain",) + record))
        bus.subscribe(Consumer())
        bus.subscribe(lambda *record: order.append(("plain",) + record))
        bus.emit(ev.RUNNABLE_SHAPE, 4, 2, "/b")
        assert [entry[0] for entry in order] == ["plain", "capture", "plain"]
        assert {entry[1:] for entry in order} == {
            (ev.RUNNABLE_SHAPE, 4, (2, "/b"))}
        # one values tuple, handed to every subscriber as emitted
        assert order[0][3] is order[1][3] is order[2][3]

    def test_subscribers_called_in_subscription_order(self):
        bus = ev.EventBus()
        order = []
        bus.subscribe(lambda shape, time, values: order.append("first"))
        bus.subscribe(lambda shape, time, values: order.append("second"))
        bus.emit(ev.WAKE_SHAPE, 0, 1, "/")
        assert order == ["first", "second"]

    def test_subscription_context_manager_always_cleans_up(self):
        bus = ev.EventBus()
        with pytest.raises(RuntimeError):
            with bus.subscription(lambda shape, time, values: None):
                assert bus.active
                raise RuntimeError("boom")
        assert not bus.active

    def test_non_callable_subscriber_rejected(self):
        bus = ev.EventBus()
        with pytest.raises(TypeError):
            bus.subscribe("not callable")
        assert not bus.active

    def test_unsubscribe_unknown_is_ignored(self):
        ev.EventBus().unsubscribe(lambda shape, time, values: None)

    def test_clear_detaches_everyone(self):
        bus = ev.EventBus()
        bus.subscribe(lambda shape, time, values: None)
        bus.subscribe(lambda shape, time, values: None)
        bus.clear()
        assert not bus.active

    def test_kind_catalogue_is_unique(self):
        assert len(ev.KINDS) == len(set(ev.KINDS))
        for kind in (ev.DISPATCH, ev.SLICE, ev.TAG_UPDATE,
                     ev.VTIME_ADVANCE, ev.VIOLATION):
            assert kind in ev.KINDS


class TestInstrumentedRun:
    def build(self, subscriber=None):
        """A traced harness; ``subscriber`` joins its run bus before the
        spawns (spawn events fire at spawn() time)."""
        from tests.conftest import Harness
        harness = Harness()
        if subscriber is not None:
            harness.engine.bus.subscribe(subscriber)
        a = harness.spawn_dhrystone("a", weight=2)
        b = harness.spawn_dhrystone("b", weight=1)
        return harness, [a, b]

    def test_emit_sites_cover_the_lifecycle(self):
        kinds = set()
        harness, __ = self.build(
            lambda shape, time, values: kinds.add(shape.kind))
        harness.machine.run_until(50 * MS)
        for expected in (ev.SPAWN, ev.RUNNABLE, ev.DISPATCH, ev.SLICE,
                         ev.CHARGE, ev.TAG_UPDATE, ev.VTIME_ADVANCE):
            assert expected in kinds, "no %s event emitted" % expected

    def test_timestamps_are_monotonic_per_emit_order(self):
        harness, __ = self.build()
        times = []
        with harness.engine.bus.subscription(
                lambda shape, time, values: times.append(time)):
            harness.machine.run_until(50 * MS)
        assert times and times == sorted(times)

    def test_events_carry_node_paths(self):
        harness, __ = self.build()
        nodes = set()
        with harness.engine.bus.subscription(
                lambda shape, time, values: nodes.add(
                    dict(zip(shape.fields, values)).get("node"))):
            harness.machine.run_until(50 * MS)
        assert "/apps" in nodes


class TestFairQueueLeafInHierarchy:
    def test_leaf_events_reach_the_run_bus_only(self):
        """A fair-queuing leaf under a traced hierarchy, one made before
        the machine and one made after, emits on the run's bus."""
        from repro.core.hierarchy import HierarchicalScheduler
        from repro.core.structure import SchedulingStructure
        from repro.cpu.machine import Machine
        from repro.schedulers.fairqueue import ScfqScheduler
        from repro.sim.engine import Simulator
        from repro.threads.thread import SimThread
        from repro.workloads.dhrystone import DhrystoneWorkload

        structure = SchedulingStructure()
        early = structure.mknod("/early", 1, scheduler=ScfqScheduler(10_000))
        seen = []
        machine = Machine(Simulator(), HierarchicalScheduler(structure),
                          capacity_ips=100_000_000, default_quantum=MS,
                          tracer=lambda shape, time, values: seen.append(
                              dict(zip(shape.fields, values))))
        late = structure.mknod("/late", 1, scheduler=ScfqScheduler(10_000))
        leaked = []
        with ev.BUS.subscription(lambda *record: leaked.append(record)):
            for leaf in (early, late):
                thread = SimThread(leaf.path, DhrystoneWorkload(300, 1_000))
                leaf.attach_thread(thread)
                machine.spawn(thread)
            machine.run_until(10 * MS)
        leaf_tids = {data.get("tid") for data in seen
                     if data.get("node") == "fq:scfq"}
        assert leaf_tids == {1, 2}
        assert leaked == []


class TestTracedOffDeterminism:
    """With and without subscribers, simulation results are identical."""

    def build(self):
        from tests.conftest import Harness
        from repro.threads.segments import Compute, SleepFor
        harness = Harness()
        threads = [
            harness.spawn_dhrystone("cpu-bound", weight=2),
            harness.spawn_segments("sleeper", [Compute(3_000),
                                               SleepFor(5 * MS),
                                               Compute(3_000)]),
        ]
        return harness, threads

    def test_subscriber_does_not_change_the_run(self):
        baseline, end_a = collect_run(self.build, None)
        sink = []
        traced, end_b = collect_run(
            self.build, lambda *record: sink.append(record))
        assert sink, "the traced run must actually have produced events"
        assert end_a == end_b
        assert baseline == traced

    def test_two_traced_runs_are_identical(self):
        first, __ = collect_run(self.build, lambda shape, time, values: None)
        second, __ = collect_run(self.build, lambda shape, time, values: None)
        assert first == second
