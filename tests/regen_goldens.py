"""Regenerate the golden-trace fixtures: ``python -m tests.regen_goldens``.

Only regenerate when a change is *intended* to alter scheduling behaviour
(new tie-break rule, different stamping semantics).  Performance work must
reproduce the existing fixtures byte-for-byte.
"""

from __future__ import annotations

from tests import goldens


def main() -> None:
    for name in goldens.RUNS:
        payload = goldens.write_fixture(name, goldens.stream(name))
        print("%-12s %7d events  sha256=%s" % (
            name, payload["events"], payload["sha256"]))
    for name in goldens.RECORDER_NAMES:
        payload = goldens.write_recorder_fixture(
            name, goldens.tracer_recorder(name))
        print("%-12s %7d threads sha256=%s  (Recorder fixture)" % (
            name, payload["threads"], payload["sha256"]))
    for name in goldens.SCHEDSTAT_NAMES:
        payload = goldens.write_schedstat_fixture(
            name, goldens.schedstat_lines(name))
        print("%-12s %7d lines   sha256=%s  (schedstat fixture)" % (
            name, len(payload["lines"]), payload["sha256"]))
    raw = goldens.write_binlog_fixture()
    print("%-12s %7d bytes  (binary trace fixture)"
          % ("obs_demo", len(raw)))


if __name__ == "__main__":
    main()
