"""Golden-trace determinism: traced runs must match the committed fixtures.

These tests are the safety net for hot-path optimization work: the
scheduler/engine fast paths must produce *byte-identical* observability
event streams to the recorded fixtures in ``tests/fixtures/golden/``.
The Recorder fixtures pin what a ``Recorder`` keeps for four of the
scenarios.  Regenerate fixtures only for intentional behaviour changes —
see ``tests/regen_goldens.py``.
"""

import pytest

from repro.trace.recorder import Recorder
from tests import goldens


@pytest.mark.parametrize("name", sorted(goldens.SCENARIOS))
def test_stream_matches_committed_fixture(name):
    fixture = goldens.load_fixture(name)
    lines = goldens.SCENARIOS[name]()
    assert len(lines) == fixture["events"], (
        "golden scenario %r fired %d events, fixture records %d — "
        "scheduling behaviour changed" % (name, len(lines), fixture["events"]))
    assert goldens.stream_digest(lines) == fixture["sha256"], (
        "golden scenario %r event stream diverged from the committed "
        "fixture; if the change is intentional, regenerate with "
        "`python -m tests.regen_goldens`" % (name,))


@pytest.mark.parametrize("name", sorted(goldens.SCENARIOS))
def test_stream_is_reproducible_in_process(name):
    first = goldens.SCENARIOS[name]()
    second = goldens.SCENARIOS[name]()
    assert first == second, (
        "golden scenario %r is not deterministic run-to-run" % (name,))


def test_fixture_metadata_is_consistent():
    for name in goldens.SCENARIOS:
        fixture = goldens.load_fixture(name)
        assert fixture["events"] > 0
        assert len(fixture["sha256"]) == 64
        assert fixture["scenario"] == name


@pytest.mark.parametrize("mode", sorted(goldens.RECORDER_MODES))
@pytest.mark.parametrize("name", sorted(goldens.RECORDER_RUNS))
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


@pytest.mark.parametrize("name", sorted(goldens.RECORDER_RUNS))
def test_stream_with_tracer_attached_matches_committed_fixture(name):
    """Attaching a tracer leaves the process-bus stream untouched."""
    run = goldens.RECORDER_RUNS[name]
    lines = goldens._collect(lambda: run(Recorder()))
    assert goldens.stream_digest(lines) == goldens.load_fixture(name)["sha256"]
