"""``python -m repro.*`` reports end quietly when their reader goes away.

``report | head -1`` closes the pipe after one line; the report's next
write fails with EPIPE.  Each case here reads one line and closes the
pipe, then checks the process ended with status 1 and no traceback.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

fcntl = pytest.importorskip("fcntl")

SRC = Path(__file__).resolve().parents[1] / "src"


def _cluster_report_dir(path):
    """A ``repro.cluster run`` artifact directory with a long schedstat."""
    report = {
        "cluster": "pipe", "hosts": 1, "tenants": 1, "epochs": 1,
        "messages": 0, "shards": 1,
        "control": {"counters": {"admitted": 1}, "live_tenants": 0,
                    "pending": 0},
        "digests": {"placement": "0" * 64},
    }
    (path / "report.json").write_text(json.dumps(report))
    (path / "cluster-schedstat.txt").write_text(
        "".join("/host-%d weight=1 leaf runnable=0\n" % index
                for index in range(2_000)))
    return ["repro.cluster", "report", str(path),
            "--schedstat-lines", "2000"]


def _read_one_line_then_close(args):
    """Run ``python -m args``, read one line of its stdout, close the
    pipe; returns (line, exit status, stderr)."""
    read_fd, write_fd = os.pipe()
    # One page of pipe: the report cannot fit, so it is still writing
    # when the reader goes away, however the two processes interleave.
    fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
    proc = subprocess.Popen([sys.executable, "-m", *args], stdout=write_fd,
                            stderr=subprocess.PIPE, env=env)
    os.close(write_fd)
    line = b""
    while not line.endswith(b"\n"):
        byte = os.read(read_fd, 1)
        if not byte:
            break
        line += byte
    os.close(read_fd)
    __, stderr = proc.communicate(timeout=300)
    return line.decode(), proc.returncode, stderr.decode()


@pytest.mark.skipif(not hasattr(fcntl, "F_SETPIPE_SZ"),
                    reason="needs a resizable pipe (Linux)")
@pytest.mark.parametrize("command", ["cluster-report", "experiments-quick"])
def test_closed_pipe_ends_without_traceback(command, tmp_path):
    args = (_cluster_report_dir(tmp_path) if command == "cluster-report"
            else ["repro.experiments", "--quick"])
    line, status, stderr = _read_one_line_then_close(args)
    assert line.strip()
    assert "Traceback" not in stderr
    assert status == 1  # the pipe closed mid-report: EPIPE, handled
