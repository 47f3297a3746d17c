"""Chrome-trace export: Trace Event Format schema and summaries."""

import json

import pytest

from repro.obs import events as ev
from repro.obs.chrometrace import (
    PID_CPUS,
    PID_THREADS,
    PID_VTIME,
    ChromeTraceBuilder,
    summarize_chrome_trace,
    validate_chrome_trace,
)
from repro.units import MS
from tests.conftest import Harness


def build_trace():
    harness = Harness()
    harness.spawn_dhrystone("alpha", weight=2)
    harness.spawn_dhrystone("beta", weight=1)
    builder = ChromeTraceBuilder()
    with harness.engine.bus.subscription(builder):
        harness.machine.run_until(60 * MS)
    return builder


class TestSchema:
    def test_payload_validates(self):
        payload = build_trace().to_dict()
        assert validate_chrome_trace(payload) == len(payload["traceEvents"])
        assert payload["displayTimeUnit"] == "ms"

    def test_every_event_has_required_fields(self):
        payload = build_trace().to_dict()
        for event in payload["traceEvents"]:
            assert event["ph"] in ("X", "i", "C", "M")
            assert isinstance(event["ts"], (int, float))
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            if event["ph"] == "X":
                assert isinstance(event["dur"], (int, float))
                assert event["dur"] >= 0

    def test_slices_appear_on_thread_and_cpu_tracks(self):
        payload = build_trace().to_dict()
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert complete
        pids = {e["pid"] for e in complete}
        assert pids == {PID_CPUS, PID_THREADS}
        # Mirrored geometry: thread-track and cpu-track slices pair up.
        thread_spans = sorted((e["ts"], e["dur"]) for e in complete
                              if e["pid"] == PID_THREADS)
        cpu_spans = sorted((e["ts"], e["dur"]) for e in complete
                           if e["pid"] == PID_CPUS)
        assert thread_spans == cpu_spans

    def test_metadata_names_threads_and_processes(self):
        payload = build_trace().to_dict()
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        process_names = {e["args"]["name"] for e in meta
                         if e["name"] == "process_name"}
        thread_names = {e["args"]["name"] for e in meta
                        if e["name"] == "thread_name"}
        assert {"cpus", "threads", "virtual-time"} <= process_names
        assert {"alpha", "beta", "cpu0"} <= thread_names

    def test_vtime_counter_track_present(self):
        payload = build_trace().to_dict()
        counters = [e for e in payload["traceEvents"] if e["ph"] == "C"]
        assert counters
        assert all(e["pid"] == PID_VTIME for e in counters)
        assert all("v" in e["args"] for e in counters)

    def test_json_round_trip(self):
        builder = build_trace()
        payload = json.loads(builder.to_json())
        assert validate_chrome_trace(payload) > 0

    def test_write_to_file(self, tmp_path):
        builder = build_trace()
        out = tmp_path / "trace.json"
        builder.write(str(out), indent=1)
        payload = json.loads(out.read_text())
        assert validate_chrome_trace(payload) > 0


class TestValidation:
    def test_rejects_non_object_payload(self):
        with pytest.raises(ValueError):
            validate_chrome_trace([])

    def test_rejects_missing_trace_events(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"displayTimeUnit": "ms"})

    def test_rejects_unknown_phase(self):
        with pytest.raises(ValueError, match="unknown phase"):
            validate_chrome_trace({"traceEvents": [
                {"ph": "Z", "ts": 0, "pid": 0, "tid": 0}]})

    def test_rejects_non_numeric_timestamp(self):
        with pytest.raises(ValueError, match="'ts'"):
            validate_chrome_trace({"traceEvents": [
                {"ph": "i", "ts": "soon", "pid": 0, "tid": 0}]})

    def test_rejects_complete_event_without_duration(self):
        with pytest.raises(ValueError, match="dur"):
            validate_chrome_trace({"traceEvents": [
                {"ph": "X", "ts": 0, "pid": 0, "tid": 0}]})

    def test_rejects_metadata_without_name(self):
        with pytest.raises(ValueError, match="args.name"):
            validate_chrome_trace({"traceEvents": [
                {"ph": "M", "ts": 0, "pid": 0, "tid": 0, "args": {}}]})


class TestSummary:
    def test_summary_from_synthetic_events(self):
        builder = ChromeTraceBuilder()
        builder.capture(ev.SLICE_SHAPE, 2_000, (5, "worker", "/apps", 0, 0,
                                                100))
        builder.capture(ev.WAKE_SHAPE, 3_000, (5, "/apps"))
        builder.capture(ev.VTIME_ADVANCE_SHAPE, 3_500, ("/", 1.5))
        summary = summarize_chrome_trace(builder.to_dict())
        assert summary["instants"] == {"wake": 1}
        assert summary["counters"] == {"vtime /": 1}
        busy = {row["track"]: row["busy_us"] for row in summary["tracks"]}
        assert busy["threads/worker"] == pytest.approx(2.0)
        assert busy["cpus/cpu0"] == pytest.approx(2.0)

    def test_violation_becomes_a_named_instant(self):
        builder = ChromeTraceBuilder()
        builder.capture(ev.VIOLATION_SHAPE, 10,
                        ("finish-tag-rule", "/apps", "boom"))
        summary = summarize_chrome_trace(builder.to_dict())
        assert summary["instants"] == {"SCHEDSAN finish-tag-rule": 1}
