"""The binary trace codec: writer, reader, and bus integration."""

import gc
import hashlib
import io
import tracemalloc

import pytest

from repro.core.hierarchy import HierarchicalScheduler
from repro.core.structure import SchedulingStructure
from repro.core.tags import FLOAT
from repro.obs.binlog import (
    BinaryTraceReader,
    BinaryTraceWriter,
    BinlogError,
    read_events,
    replay,
    write_events,
)
from repro.obs import events as ev
from repro.obs.events import EventBus, Shape
from repro.schedulers.sfq_leaf import SfqScheduler
from repro.sim.engine import Simulator
from repro.smp.machine import SmpMachine
from repro.threads.segments import Compute, SegmentListWorkload, SleepFor
from repro.threads.thread import SimThread
from repro.units import MS, SECOND

#: ``(kind, time, fields)`` of a mixed stream
MIXED = [
    ("dispatch", 10, {"tid": 1, "name": "mpeg", "node": "/a/b", "cpu": 0,
                      "depth": 2, "switched": True, "overhead_ns": 200,
                      "quantum_work": 1000}),
    ("dispatch", 25, {"tid": 2, "name": "x", "node": "/a", "cpu": 0,
                      "depth": 1, "switched": False, "overhead_ns": 0,
                      "quantum_work": 900}),
    # type drift: switched becomes int -> generic-record fallback
    ("dispatch", 30, {"tid": 3, "name": "y", "node": "/a", "cpu": 0,
                      "depth": 1, "switched": 1, "overhead_ns": 0,
                      "quantum_work": 900}),
    # shape drift: extra field -> second schema for the same kind
    ("dispatch", 31, {"tid": 3, "name": "y", "node": "/a", "cpu": 0,
                      "depth": 1, "switched": True, "overhead_ns": 0,
                      "quantum_work": 900, "extra": None}),
    # int beyond the fast path's fixed-width field -> generic fallback
    ("tag-update", 40, {"node": "/a", "start": 1.5, "finish": 2.5,
                        "work": 1 << 80}),
    ("tag-update", 41, {"node": "/a", "start": 1.5, "finish": 2.5,
                        "work": 100}),
    # the fairqueue 5-field tag-update shape
    ("tag-update", 42, {"node": "/a", "tid": 7, "start": 1.5,
                        "finish": 2.5, "work": 100}),
    # time going backwards (negative delta)
    ("vtime-advance", 5, {"node": "/", "v": 0.25}),
    ("weird", 5, {"n": None, "t": True, "f": False, "neg": -12345,
                  "s": "hello", "fl": -0.0}),
    # first schema again: fast path resumes after the fallbacks
    ("dispatch", 50, {"tid": 1, "name": "mpeg", "node": "/a/b", "cpu": 0,
                      "depth": 2, "switched": False, "overhead_ns": 0,
                      "quantum_work": 1000}),
]


def shaped(entries):
    """``(shape, time, values)`` records for ``(kind, time, fields)``
    entries, one shared shape object per (kind, fields), as the emit
    sites declare them."""
    shapes = {}
    records = []
    for kind, time, data in entries:
        key = (kind, tuple(data))
        shape = shapes.setdefault(key, Shape(*key))
        records.append((shape, time, tuple(data.values())))
    return records


def fields_of(records):
    """``(kind, time, fields)`` of each record, its fields as a dict."""
    return [(shape.kind, time, dict(zip(shape.fields, values)))
            for shape, time, values in records]


MIXED_RECORDS = shaped(MIXED)

#: faultlab-style records of one kind whose fields vary per call
LATER_SHAPES = [
    ("fault-inject", 1, {"fault": "node-churn", "action": "churn-out",
                         "round": 0, "thread": "a"}),
    # as many fields as the first schema, other names: tried against it
    # by name first, so "restore-retry" is interned before "error" misses
    ("fault-inject", 2, {"fault": "node-churn", "action": "restore-retry",
                         "round": 0, "error": "StructureError"}),
    # the first schema's fields in another order: its fast record
    ("fault-inject", 3, {"thread": "b", "round": 1, "action": "churn-home",
                         "fault": "node-churn"}),
    ("fault-inject", 4, {"fault": "node-churn", "action": "restore-retry",
                         "round": 2, "error": "StructureError"}),
    ("k", 5, {"a": 1, "b": "x"}),
    # fits the first schema in another order, but its int overflows the
    # slab: the miss comes after every string, then its own schema
    ("k", 6, {"b": "y", "a": 1 << 70}),
    ("k", 7, {"b": "z", "a": 5}),
    ("k", 1 << 70, {"b": "w", "a": 6}),
]

#: a record the binlog cannot encode
BAD = (Shape("bad", ("payload",)), 60, ([1, 2, 3],))


def sealed_bytes(records, defer=False):
    buffer = io.BytesIO()
    writer = BinaryTraceWriter(buffer, defer=defer)
    for record in records:
        writer.capture(*record)
    writer.close()
    return buffer.getvalue()


class TestRoundTrip:
    def test_mixed_stream_roundtrips_losslessly(self):
        raw = sealed_bytes(MIXED_RECORDS)
        assert fields_of(read_events(io.BytesIO(raw))) == MIXED

    def test_mixed_stream_seals_pinned_bytes(self):
        # Pins the record choices the mixed stream exercises: fast records
        # for a kind's first schema only, generic records for type drift,
        # an int beyond 64 bits and the second tag-update shape.
        raw = sealed_bytes(MIXED_RECORDS)
        assert len(raw) == 724
        assert hashlib.sha256(raw).hexdigest() == (
            "6053d2472ccf9a1d524ed4b1f4a9a0afe8bd7b39b7d889569fbe4d6010b84791")

    @pytest.mark.parametrize("path", ["stream", "defer", "capture"])
    def test_later_shapes_try_the_first_schema_by_name(self, path):
        buffer = io.BytesIO()
        writer = BinaryTraceWriter(buffer, defer=path == "defer")
        for shape, time, values in shaped(LATER_SHAPES):
            if path == "capture":  # a shape built per call, as faultlab's
                shape = Shape(shape.kind, shape.fields)
            writer.capture(shape, time, values)
        writer.close()
        raw = buffer.getvalue()
        assert hashlib.sha256(raw).hexdigest() == (
            "7269adbdcfbc7710d63f74361278dba06f1fc0f529b265647fa6ff43b9e0cd8b")
        decoded = list(read_events(io.BytesIO(raw)))
        assert decoded[2][0].fields == (
            "fault", "action", "round", "thread")
        assert decoded[5][0].fields == ("b", "a")
        assert decoded[6][0].fields == ("a", "b")
        assert BinaryTraceReader(io.BytesIO(raw)).info()["schemas"] == 4

    def test_value_types_survive_exactly(self):
        raw = sealed_bytes(MIXED_RECORDS)
        for (kind, __, data), (___, ____, decoded) in zip(
                MIXED, fields_of(read_events(io.BytesIO(raw)))):
            for key in data:
                assert type(data[key]) is type(decoded[key]), (kind, key)

    def test_field_insertion_order_is_canonicalized_not_lost(self):
        # same keys, different order -> same schema, equal fields back
        records = shaped([("k", 1, {"a": 1, "b": 2}),
                          ("k", 2, {"b": 20, "a": 10})])
        out = fields_of(read_events(io.BytesIO(sealed_bytes(records))))
        assert out == [("k", 1, {"a": 1, "b": 2}),
                       ("k", 2, {"a": 10, "b": 20})]

    def test_one_shape_per_kind_and_fields(self):
        # a catalogue shape reads back as the catalogue object itself;
        # any other shape as one object per (kind, fields), whether its
        # records were fast or generic
        raw = sealed_bytes([(ev.WAKE_SHAPE, 1, (3, "/a"))] + MIXED_RECORDS
                           + [(ev.WAKE_SHAPE, 60, (4, "/b"))])
        shapes = [shape for shape, __, ___ in read_events(io.BytesIO(raw))]
        assert shapes[0] is shapes[-1] is ev.WAKE_SHAPE
        by_key = {}
        for shape in shapes:
            assert by_key.setdefault((shape.kind, shape.fields),
                                     shape) is shape
        assert shapes[1] is shapes[3] is shapes[10]  # fast, generic, fast
        assert ev.FQ_TAG_UPDATE_SHAPE in shapes

    def test_empty_log_roundtrips(self):
        buffer = io.BytesIO()
        assert write_events([], buffer) == 0
        assert list(read_events(io.BytesIO(buffer.getvalue()))) == []

    def test_write_events_returns_count(self):
        buffer = io.BytesIO()
        assert write_events(MIXED_RECORDS, buffer) == len(MIXED_RECORDS)
        assert buffer.getvalue() == sealed_bytes(MIXED_RECORDS)

    def test_replay_feeds_subscribers_in_order(self):
        raw = sealed_bytes(MIXED_RECORDS)
        seen = []

        class Consumer:
            def capture(self, shape, time, values):
                seen.append(("capture", shape.kind))

        count = replay(io.BytesIO(raw), Consumer(),
                       lambda shape, time, values: seen.append(
                           ("plain", shape.kind)))
        assert count == len(MIXED_RECORDS)
        assert seen == [(path, kind) for kind, __, ___ in MIXED
                        for path in ("capture", "plain")]


class TestWriterModes:
    def test_deferred_and_streaming_bytes_are_identical(self):
        assert sealed_bytes(MIXED_RECORDS, defer=True) == \
            sealed_bytes(MIXED_RECORDS, defer=False)

    def test_deferred_mode_encodes_nothing_until_close(self):
        buffer = io.BytesIO()
        writer = BinaryTraceWriter(buffer, defer=True)
        for record in MIXED_RECORDS:
            writer.capture(*record)
        writer._flush()
        header_only = buffer.getvalue()
        assert len(header_only) == 5  # magic + version, no event bytes
        writer.close()
        assert list(read_events(io.BytesIO(buffer.getvalue())))

    def test_deferred_capture_keeps_records_flat(self):
        writer = BinaryTraceWriter(io.BytesIO(), defer=True)
        writer.capture(ev.WAKE_SHAPE, 7, (3, "/a"))
        writer.capture(ev.EXIT_SHAPE, 9, (3, "/a"))
        assert writer._pending == [ev.WAKE_SHAPE, 7, 3, "/a",
                                   ev.EXIT_SHAPE, 9, 3, "/a"]
        writer.close()
        assert list(read_events(io.BytesIO(writer._file.getvalue()))) == [
            (ev.WAKE_SHAPE, 7, (3, "/a")), (ev.EXIT_SHAPE, 9, (3, "/a"))]

    def test_event_count_tracks_both_modes(self):
        for defer in (False, True):
            writer = BinaryTraceWriter(io.BytesIO(), defer=defer)
            for record in MIXED_RECORDS:
                writer.capture(*record)
            writer.close()
            assert writer.event_count == len(MIXED_RECORDS)

    def test_close_is_idempotent(self):
        buffer = io.BytesIO()
        writer = BinaryTraceWriter(buffer)
        writer.capture(*MIXED_RECORDS[0])
        writer.close()
        sealed = buffer.getvalue()
        writer.close()
        assert buffer.getvalue() == sealed

    def test_context_manager_seals(self):
        buffer = io.BytesIO()
        with BinaryTraceWriter(buffer) as writer:
            writer.capture(*MIXED_RECORDS[0])
        assert len(list(read_events(io.BytesIO(buffer.getvalue())))) == 1

    def test_path_open_and_close(self, tmp_path):
        path = tmp_path / "run.binlog"
        with BinaryTraceWriter(str(path)) as writer:
            for record in MIXED_RECORDS:
                writer.capture(*record)
        reader = BinaryTraceReader(str(path))
        assert len(reader) == len(MIXED_RECORDS)

    def test_unencodable_value_raises_and_keeps_log_valid(self):
        buffer = io.BytesIO()
        writer = BinaryTraceWriter(buffer)
        writer.capture(*MIXED_RECORDS[0])
        with pytest.raises(TypeError):
            writer.capture(*BAD)
        writer.capture(*MIXED_RECORDS[-1])
        writer.close()
        out = list(read_events(io.BytesIO(buffer.getvalue())))
        assert [time for __, time, ___ in out] == [10, 50]

    def test_deferred_seal_of_unencodable_value_keeps_the_rest(
            self, tmp_path):
        records = [MIXED_RECORDS[0], BAD, MIXED_RECORDS[-1]]
        path = tmp_path / "run.binlog"
        writer = BinaryTraceWriter(str(path), defer=True)
        for record in records:
            writer.capture(*record)
        with pytest.raises(TypeError):
            writer.close()
        assert writer._file.closed
        sealed = path.read_bytes()
        assert [time for __, time, ___ in read_events(str(path))] == [
            10, 50]
        # the same log streaming mode writes, rejecting the bad record
        buffer = io.BytesIO()
        streaming = BinaryTraceWriter(buffer)
        streaming.capture(*records[0])
        with pytest.raises(TypeError):
            streaming.capture(*records[1])
        streaming.capture(*records[2])
        streaming.close()
        assert sealed == buffer.getvalue()
        writer.close()
        assert path.read_bytes() == sealed


class TestRejection:
    def test_every_truncation_is_rejected(self):
        raw = sealed_bytes(MIXED_RECORDS)
        for cut in range(len(raw)):
            with pytest.raises(BinlogError):
                BinaryTraceReader(io.BytesIO(raw[:cut]))

    def test_every_single_byte_corruption_is_rejected(self):
        # the footer hash covers every preceding byte; flips inside the
        # hash or count fields trip their own checks
        raw = sealed_bytes(MIXED_RECORDS[:3])
        for index in range(len(raw)):
            mutated = bytearray(raw)
            mutated[index] ^= 0xFF
            with pytest.raises(BinlogError):
                BinaryTraceReader(io.BytesIO(bytes(mutated)))

    def test_unsealed_stream_is_rejected(self):
        buffer = io.BytesIO()
        writer = BinaryTraceWriter(buffer)
        writer.capture(*MIXED_RECORDS[0])
        writer._flush()  # bytes on disk, but no footer
        with pytest.raises(BinlogError):
            BinaryTraceReader(io.BytesIO(buffer.getvalue()))

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            BinaryTraceReader(str(tmp_path / "nope.binlog"))


class TestInfo:
    def test_info_summarizes_the_log(self):
        reader = BinaryTraceReader(io.BytesIO(sealed_bytes(MIXED_RECORDS)))
        info = reader.info()
        assert info["format"] == "repro.binlog/1"
        assert info["events"] == len(MIXED_RECORDS)
        assert info["kinds"]["dispatch"] == 5
        assert info["time_first_ns"] == 10
        assert info["time_last_ns"] == 50
        assert info["strings"] > 0 and info["schemas"] >= 3

    def test_len_matches_event_count(self):
        reader = BinaryTraceReader(io.BytesIO(sealed_bytes(MIXED_RECORDS)))
        assert len(reader) == len(MIXED_RECORDS)
        assert len(list(reader)) == len(MIXED_RECORDS)


@pytest.fixture(scope="module")
def storm_binlog(tmp_path_factory):
    """A deferred binlog of a real capture: 1,500 threads admitted onto a
    2-CPU SMP box over 16 float SFQ leaves, about 1.4 MB."""
    structure = SchedulingStructure(FLOAT)
    leaves = []
    for group in range(4):
        node = structure.mknod("g%d" % group, 1 + group)
        for index in range(4):
            leaves.append(structure.mknod(
                "l%d" % index, 1, parent=node, scheduler=SfqScheduler(FLOAT)))
    engine = Simulator()
    machine = SmpMachine(engine, HierarchicalScheduler(structure),
                         num_cpus=2, capacity_ips=100_000_000,
                         default_quantum=1 * MS)
    path = tmp_path_factory.mktemp("readback") / "storm.binlog"
    writer = BinaryTraceWriter(str(path), defer=True)
    with engine.bus.subscription(writer):
        for index in range(1_500):
            thread = SimThread("storm-%d" % index, SegmentListWorkload(
                [Compute(30_000), SleepFor(2 * MS), Compute(30_000)]),
                weight=1 + index % 5)
            leaves[index % len(leaves)].attach_thread(thread)
            machine.spawn(thread, at=index * 100_000)
        machine.run_until(1_500 * 100_000 + SECOND)
    writer.close()
    return path, writer.event_count, machine.dispatches


class TestReadBackMemory:
    """The reader holds a log once: validating it copies nothing the size
    of the log (hashing a slice of the body would hold it twice)."""

    @pytest.mark.parametrize("source", ["path", "bytesio"])
    def test_reader_peak_is_one_copy_of_the_log(self, storm_binlog, source):
        path, events, dispatches = storm_binlog
        size = path.stat().st_size
        assert size >= 1 << 20
        tracemalloc.start()
        try:
            if source == "path":
                reader = BinaryTraceReader(str(path))
            else:
                # the bytes are read inside the traced window, so both
                # sources count the log itself once
                reader = BinaryTraceReader(io.BytesIO(path.read_bytes()))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * size, "reader peak %.2fx the log" % (
            peak / size)
        assert len(reader) == events
        assert reader.info()["size_bytes"] == size
        assert reader.info()["kinds"]["dispatch"] == dispatches


class TestBusIntegration:
    """The capture protocol must never change what gets written."""

    def emit_all(self, bus):
        for shape, time, values in MIXED_RECORDS:
            bus.emit(shape, time, *values)

    def test_sole_capture_subscriber_is_called_directly(self):
        bus = EventBus()
        writer = BinaryTraceWriter(io.BytesIO())
        bus.subscribe(writer)
        assert bus._capture == writer.capture
        bus.unsubscribe(bus.subscribe(lambda shape, time, values: None))
        assert bus._capture == writer.capture  # refreshed back

    def test_deferred_writer_on_the_bus(self):
        bus = EventBus()
        buffer = io.BytesIO()
        writer = BinaryTraceWriter(buffer, defer=True)
        bus.subscribe(writer)
        assert bus._capture == writer.capture
        self.emit_all(bus)
        writer.close()
        assert buffer.getvalue() == sealed_bytes(MIXED_RECORDS)

    def test_collector_alongside_writer_sees_every_event(self):
        bus = EventBus()
        buffer = io.BytesIO()
        writer = BinaryTraceWriter(buffer)
        seen = []
        bus.subscribe(writer)
        bus.subscribe(lambda shape, time, values: seen.append(shape.kind))
        assert bus._capture is None
        self.emit_all(bus)
        writer.close()
        assert seen == [kind for kind, __, ___ in MIXED]
        assert writer.event_count == len(MIXED_RECORDS)
        assert buffer.getvalue() == sealed_bytes(MIXED_RECORDS)

    @pytest.mark.parametrize("path", ["capture", "callable"])
    def test_deferred_capture_adds_no_gc_tracked_objects(self, path):
        bus = EventBus()
        buffer = io.BytesIO()
        writer = BinaryTraceWriter(buffer, defer=True)
        if path == "capture":
            bus.subscribe(writer)
        else:  # a plain callable forwarding each record
            bus.subscribe(lambda shape, time, values: writer.capture(
                shape, time, values))
        shape = Shape("dispatch", ("tid", "name", "node", "cpu", "switched",
                                   "load", "extra"))
        gc.collect()
        before = len(gc.get_objects())
        for index in range(10_000):
            bus.emit(shape, 1_000_000 + index, index, "t", "/a", 0, True,
                     0.5, None)
        grown = len(gc.get_objects()) - before
        writer.close()
        assert grown < 100
        assert len(BinaryTraceReader(io.BytesIO(buffer.getvalue()))) \
            == 10_000

    def test_deferred_slice_holds_at_most_80_bytes(self):
        # What capture itself keeps per record, the values being the
        # emitter's: one list slot per value plus the shape and the time,
        # so a 6-field slice is 8 slots, 64 bytes, plus the list's
        # over-allocation.  A dict per record would hold ~300.
        bus = EventBus()
        writer = BinaryTraceWriter(io.BytesIO(), defer=True)
        bus.subscribe(writer)
        times = list(range(1 << 20, (1 << 20) + 10_000))
        values = (3, "t", "/a", 0, 1 << 40, 5_000)
        emit = bus.emit
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for time in times:
                emit(ev.SLICE_SHAPE, time, *values)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        writer.close()
        assert held / len(times) <= 80

    def test_capture_handles_unknown_shapes(self):
        writer = BinaryTraceWriter(buffer := io.BytesIO())
        writer.capture(Shape("fresh", ("x",)), 1, (1,))
        writer.capture(Shape("fresh", ("x",)), 2, (2,))
        writer.close()
        out = list(read_events(io.BytesIO(buffer.getvalue())))
        assert [values for __, ___, values in out] == [(1,), (2,)]

    @pytest.mark.parametrize("defer", [False, True], ids=["stream", "defer"])
    def test_shapes_built_per_call_reuse_one_schema(self, defer):
        def sealed(per_call):
            buffer = io.BytesIO()
            writer = BinaryTraceWriter(buffer, defer=defer)
            shared = Shape(ev.FAULT_INJECT, ("fault", "action", "thread"))
            for index in range(5):
                shape = (Shape(ev.FAULT_INJECT, ("fault", "action", "thread"))
                         if per_call else shared)
                writer.capture(shape, index, ("crash", "inject", "t%d" % index))
            writer.close()
            return buffer.getvalue(), writer._schema_count

        assert sealed(per_call=True) == sealed(per_call=False)
        assert sealed(per_call=True)[1] == 1


def test_machine_capture_matches_event_formatting(harness):
    """A live machine run captured to binlog replays identically."""
    buffer = io.BytesIO()
    writer = BinaryTraceWriter(buffer)
    live = []
    bus = harness.engine.bus
    with bus.subscription(writer), bus.subscription(
            lambda *record: live.append(record)):
        harness.spawn_dhrystone("a")
        harness.spawn_dhrystone("b", weight=2)
        harness.machine.run_until(200_000_000)
    writer.close()
    decoded = list(read_events(io.BytesIO(buffer.getvalue())))
    # every machine record reads back as emitted, in its catalogue shape
    assert live and decoded == live
    assert all(shape in ev.SHAPES for shape, __, ___ in decoded)
