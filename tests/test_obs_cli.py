"""The ``python -m repro.obs`` command-line interface."""

import json

import pytest

from repro.obs.binlog import BinaryTraceReader
from repro.obs.chrometrace import validate_chrome_trace
from repro.obs.cli import build_demo, main



class TestDemo:
    def test_demo_prints_the_full_report(self, capsys):
        assert main(["demo", "--duration-ms", "200"]) == 0
        out = capsys.readouterr().out
        assert "schedstat-hsfq version 1" in out
        assert "/soft-rt" in out and "/best-effort/user1" in out
        assert "sched.dispatches" in out
        assert "decoder" in out and "shell" in out
        assert "events emitted:" in out

    def test_demo_writes_a_valid_trace(self, tmp_path, capsys):
        out_file = tmp_path / "demo.json"
        assert main(["demo", "--duration-ms", "200",
                     "--out", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert validate_chrome_trace(payload) > 0
        assert "ui.perfetto.dev" in capsys.readouterr().out

    def test_demo_scenario_shape(self):
        machine, structure, threads = build_demo()
        assert [t.name for t in threads] == ["decoder", "compile",
                                             "render", "shell"]
        assert structure.parse("/soft-rt").is_leaf
        assert not structure.parse("/best-effort").is_leaf
        del machine


class TestReport:
    def write_trace(self, tmp_path, capsys):
        out_file = tmp_path / "demo.json"
        assert main(["demo", "--duration-ms", "200",
                     "--out", str(out_file)]) == 0
        capsys.readouterr()  # drop the demo output
        return out_file

    def test_report_summarizes_a_trace(self, tmp_path, capsys):
        out_file = self.write_trace(tmp_path, capsys)
        assert main(["report", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "valid Trace Event Format" in out
        assert "threads/decoder" in out
        assert "cpus/cpu0" in out

    def test_report_missing_file_fails(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_report_rejects_malformed_payload(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [{"ph": "Z"}]}))
        assert main(["report", str(bad)]) == 1
        assert "unknown phase" in capsys.readouterr().err


class TestRecord:
    def record(self, tmp_path, capsys, *extra):
        path = tmp_path / "demo.binlog"
        assert main(["record", str(path), "--duration-ms", "200",
                     *extra]) == 0
        return path, capsys.readouterr().out

    def test_record_writes_a_sealed_binlog(self, tmp_path, capsys):
        path, out = self.record(tmp_path, capsys)
        assert "streaming mode" in out
        reader = BinaryTraceReader(str(path))
        assert len(reader) > 100

    def test_record_defer_produces_identical_bytes(self, tmp_path, capsys):
        streamed, __ = self.record(tmp_path, capsys)
        streamed_bytes = streamed.read_bytes()
        streamed.unlink()
        deferred, out = self.record(tmp_path, capsys, "--defer")
        assert "deferred mode" in out
        assert deferred.read_bytes() == streamed_bytes

    def test_failing_run_still_seals_the_log(self, tmp_path, monkeypatch):
        def failing_demo(duration_ms):
            machine, structure, threads = build_demo(duration_ms)
            run_until = machine.run_until

            def fail_halfway(horizon):
                run_until(horizon // 2)
                raise RuntimeError("workload failed")

            machine.run_until = fail_halfway
            return machine, structure, threads

        monkeypatch.setattr("repro.obs.cli.build_demo", failing_demo)
        path = tmp_path / "demo.binlog"
        with pytest.raises(RuntimeError):
            main(["record", str(path), "--duration-ms", "200"])
        assert len(BinaryTraceReader(str(path))) > 0


class TestConvert:
    @pytest.fixture()
    def binlog(self, tmp_path, capsys):
        path = tmp_path / "demo.binlog"
        assert main(["record", str(path), "--duration-ms", "200"]) == 0
        capsys.readouterr()
        return path

    def test_chrome_output_is_valid(self, binlog, tmp_path, capsys):
        chrome = tmp_path / "trace.json"
        assert main(["convert", str(binlog), "--chrome", str(chrome)]) == 0
        assert "replayed" in capsys.readouterr().out
        assert validate_chrome_trace(json.loads(chrome.read_text())) > 0

    def test_chrome_matches_live_demo_export(self, binlog, tmp_path, capsys):
        live = tmp_path / "live.json"
        assert main(["demo", "--duration-ms", "200",
                     "--out", str(live)]) == 0
        recorded = tmp_path / "rec.binlog"
        assert main(["record", str(recorded), "--duration-ms", "200"]) == 0
        replayed = tmp_path / "replayed.json"
        assert main(["convert", str(recorded),
                     "--chrome", str(replayed)]) == 0
        capsys.readouterr()
        assert replayed.read_bytes() == live.read_bytes()

    def test_schedstat_renders_offline_tree(self, binlog, capsys):
        assert main(["convert", str(binlog), "--schedstat"]) == 0
        out = capsys.readouterr().out
        assert "schedstat-hsfq version 1 (offline)" in out
        assert "/soft-rt" in out and "/best-effort/user1" in out

    def test_depth_gantt_renders(self, binlog, capsys):
        assert main(["convert", str(binlog), "--depth-gantt",
                     "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert "irq" in out
        assert "1 /soft-rt" in out
        assert "2 /best-effort/user1" in out

    def test_no_output_selected_exits_2(self, binlog, capsys):
        assert main(["convert", str(binlog)]) == 2
        assert "pick at least one" in capsys.readouterr().err

    def test_corrupt_binlog_exits_1(self, binlog, capsys):
        raw = bytearray(binlog.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        binlog.write_bytes(bytes(raw))
        assert main(["convert", str(binlog), "--schedstat"]) == 1
        assert "error:" in capsys.readouterr().err


class TestInfo:
    @pytest.fixture()
    def binlog(self, tmp_path, capsys):
        path = tmp_path / "demo.binlog"
        assert main(["record", str(path), "--duration-ms", "200"]) == 0
        capsys.readouterr()
        return path

    def test_info_prints_the_summary(self, binlog, capsys):
        assert main(["info", str(binlog)]) == 0
        out = capsys.readouterr().out
        assert "valid repro.binlog/1" in out
        assert "events" in out and "strings" in out
        assert "dispatch" in out

    def test_info_json(self, binlog, capsys):
        assert main(["info", str(binlog), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "repro.binlog/1"
        assert payload["events"] > 100

    def test_info_truncated_file_exits_1(self, binlog, capsys):
        binlog.write_bytes(binlog.read_bytes()[:-10])
        assert main(["info", str(binlog)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_info_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["info", str(tmp_path / "nope.binlog")]) == 1
        assert "error:" in capsys.readouterr().err


class TestUsage:
    def test_no_subcommand_prints_help(self, capsys):
        assert main([]) == 2
        out = capsys.readouterr().out
        for command in ("demo", "report", "record", "convert", "info"):
            assert command in out
