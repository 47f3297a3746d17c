"""Golden-trace determinism: traced runs must match the committed fixtures.

These tests are the safety net for hot-path optimization work: the
scheduler/engine fast paths must produce *byte-identical* observability
event streams to the recorded fixtures in ``tests/fixtures/golden/``.
The Recorder fixtures pin what a ``Recorder`` keeps for four of the
scenarios, and the schedstat fixtures every counter of three untraced
runs.  Regenerate fixtures only for intentional behaviour changes —
see ``tests/regen_goldens.py``.
"""

import pytest

from repro.obs import events as obs
from tests import goldens


@pytest.mark.parametrize("name", sorted(goldens.RUNS))
def test_stream_matches_committed_fixture(name):
    fixture = goldens.load_fixture(name)
    lines = goldens.stream(name)
    assert len(lines) == fixture["events"], (
        "golden scenario %r fired %d events, fixture records %d — "
        "scheduling behaviour changed" % (name, len(lines), fixture["events"]))
    assert goldens.stream_digest(lines) == fixture["sha256"], (
        "golden scenario %r event stream diverged from the committed "
        "fixture; if the change is intentional, regenerate with "
        "`python -m tests.regen_goldens`" % (name,))


@pytest.mark.parametrize("name", sorted(goldens.RUNS))
def test_stream_is_reproducible_in_process(name):
    first = goldens.stream(name)
    second = goldens.stream(name)
    assert first == second, (
        "golden scenario %r is not deterministic run-to-run" % (name,))


def test_fixture_metadata_is_consistent():
    for name in goldens.RUNS:
        fixture = goldens.load_fixture(name)
        assert fixture["events"] > 0
        assert len(fixture["sha256"]) == 64
        assert fixture["scenario"] == name


@pytest.mark.parametrize("mode", sorted(goldens.RECORDER_MODES))
@pytest.mark.parametrize("name", sorted(goldens.RECORDER_NAMES))
def test_recorder_matches_committed_fixture(name, mode):
    """Every ThreadTrace list and the interrupt records are pinned."""
    fixture = goldens.load_recorder_fixture(name)
    recorder = goldens.RECORDER_MODES[mode](name)
    assert len(recorder.threads) == fixture["threads"]
    assert len(recorder.interrupts) == fixture["interrupts"]
    assert goldens.stream_digest(goldens.recorder_lines(recorder)) == \
        fixture["sha256"], (
            "%s Recorder of golden scenario %r diverged from the committed "
            "fixture" % (mode, name))


@pytest.mark.parametrize("name", goldens.SCHEDSTAT_NAMES)
def test_schedstat_matches_committed_fixture(name):
    """An untraced run leaves every engine, machine and per-thread
    counter as pinned."""
    fixture = goldens.load_schedstat_fixture(name)
    lines = goldens.schedstat_lines(name)
    assert lines == fixture["lines"]
    assert goldens.stream_digest(lines) == fixture["sha256"]


@pytest.mark.parametrize("name", sorted(goldens.RUNS))
def test_stream_with_tracer_attached_matches_committed_fixture(name):
    """A ``tracer=`` collector sees its run's whole stream — hierarchy
    and SFQ events included — and the process bus sees none of it."""
    leaked = []
    with obs.BUS.subscription(lambda *record: leaked.append(record)):
        lines = goldens.collect_traced(goldens.RUNS[name])
    assert goldens.stream_digest(lines) == goldens.load_fixture(name)["sha256"]
    assert leaked == []


def test_depth8_tracer_sees_hierarchy_events():
    lines = goldens.collect_traced(goldens.RUNS["depth8"])
    kinds = {line.split(" ", 1)[0] for line in lines}
    assert {"tag-update", "vtime-advance", "dispatch"} <= kinds


def test_sync_up_stream_is_hermetic():
    """No reset call: the stream is the committed one when run first,
    again, and after unrelated runs in the same process."""
    first = goldens.stream("sync_up")
    again = goldens.stream("sync_up")
    goldens.stream("figure5")
    goldens.stream("smp")
    after = goldens.stream("sync_up")
    assert first == again == after
    assert goldens.stream_digest(first) == \
        goldens.load_fixture("sync_up")["sha256"]
