"""Worker-crash containment and the SCHEDSAN isolation twin.

The static SF4xx rules promise that pooled campaign workers neither
depend on nor dirty shared process state; ``IsolationGuard`` is the
runtime twin of that promise, and ``run_cell_guarded`` is the crash
barrier that turns a dead worker into a structured oracle failure
instead of a half-written report.
"""

import random
import sys

import pytest

from repro.devtools import schedsan
from repro.devtools.schedsan import (
    IsolationError,
    IsolationGuard,
    shared_state_fingerprint,
)
from repro.faultlab import cli as faultlab_cli
from repro.faultlab.campaign import (
    CellSpec,
    render_report,
    run_campaign,
    run_cell_guarded,
)
from repro.faultlab.faults import FAULTS, ensure_registered
from repro.obs.events import BUS


def _spec(workload="flat_mix", faults=(), seed=1, cell_id="test-cell"):
    return CellSpec(workload, list(faults), seed, True, cell_id)


def _crash_spec(cell_id="crash-cell"):
    """A spec whose cell dies before producing a result."""
    return _spec(workload="no-such-workload", cell_id=cell_id)


class TestWorkerCrash:
    def test_crash_becomes_structured_failure(self):
        result = run_cell_guarded(_crash_spec().to_dict())
        assert result["ok"] is False
        assert [f["oracle"] for f in result["failures"]] == ["worker-crash"]
        assert "KeyError" in result["failures"][0]["message"]
        assert set(result["counters"]) == {
            "events", "dispatches", "interrupts", "injections",
            "violations", "threads_alive"}
        assert all(v == 0 for v in result["counters"].values())

    def test_crash_digest_is_deterministic(self):
        first = run_cell_guarded(_crash_spec().to_dict())
        second = run_cell_guarded(_crash_spec().to_dict())
        assert first == second

    def test_crash_cell_report_serial_equals_pooled(self):
        specs = [_spec(cell_id="flat_mix+none"), _crash_spec()]
        serial = render_report(run_campaign(specs, workers=0, seed=5))
        pooled = render_report(run_campaign(specs, workers=2, seed=5))
        assert serial == pooled
        assert '"worker-crash"' in serial

    def test_crash_counts_as_a_failure(self):
        report = run_campaign([_crash_spec()], workers=0, seed=5)
        assert report["failure_count"] == 1
        assert report["cell_count"] == 1

    def test_cli_skips_shrinking_crash_cells(self, tmp_path, monkeypatch,
                                             capsys):
        monkeypatch.setattr(faultlab_cli._campaign, "default_grid",
                            lambda *args, **kwargs: [_crash_spec()])
        code = faultlab_cli.main([
            "run", "--out", str(tmp_path / "report.json"),
            "--repro-dir", str(tmp_path / "repros")])
        out = capsys.readouterr().out
        assert code == 1
        assert "crash-cell crashed; skipping shrink" in out
        assert "shrunk" not in out
        # The unshrunk spec still gets a reproducer.
        assert list((tmp_path / "repros").glob("*.json"))


class TestIsolationGuard:
    def test_clean_boundary_verifies(self):
        guard = IsolationGuard("noop")
        guard.verify()

    def test_fingerprint_is_stable(self):
        assert shared_state_fingerprint() == shared_state_fingerprint()

    def test_leaked_subscriber_is_reported(self):
        guard = IsolationGuard("leaky cell")
        with BUS.subscription(lambda shape, time, values: None):
            with pytest.raises(IsolationError, match="BUS.subscribers"):
                guard.verify()
        guard.verify()  # clean again once the subscription unwinds

    def test_fault_registry_growth_is_reported(self):
        guard = IsolationGuard("registering cell")
        FAULTS["zz-isolation-probe"] = object
        try:
            with pytest.raises(IsolationError, match="FAULTS"):
                guard.verify()
        finally:
            del FAULTS["zz-isolation-probe"]
        guard.verify()

    def test_global_rng_use_is_reported(self):
        guard = IsolationGuard("rng cell")
        random.random()  # schedlint: disable=SF403 (the violation under test)
        with pytest.raises(IsolationError, match="random.global_state"):
            guard.verify()

    def test_error_names_the_context(self):
        guard = IsolationGuard("cell flat_mix+none")
        FAULTS["zz-isolation-probe"] = object
        try:
            with pytest.raises(IsolationError,
                               match="cell flat_mix\\+none"):
                guard.verify()
        finally:
            del FAULTS["zz-isolation-probe"]


class TestSchedsanTwin:
    def _grid(self):
        ensure_registered("cost-spike")
        return [
            _spec(cell_id="flat_mix+none"),
            _spec(faults=[{"kind": "cost-spike", "params": {}}],
                  cell_id="flat_mix+cost-spike"),
        ]

    def test_report_bytes_unchanged_under_twin(self, monkeypatch):
        monkeypatch.delenv(schedsan.ENV_ENABLE, raising=False)
        baseline = render_report(run_campaign(self._grid(), seed=3))
        monkeypatch.setenv(schedsan.ENV_ENABLE, "1")
        assert schedsan.enabled()
        guarded = render_report(run_campaign(self._grid(), seed=3))
        assert guarded == baseline

    def test_pooled_twin_matches_serial_baseline(self, monkeypatch):
        monkeypatch.delenv(schedsan.ENV_ENABLE, raising=False)
        baseline = render_report(run_campaign(self._grid(), seed=3))
        monkeypatch.setenv(schedsan.ENV_ENABLE, "1")
        pooled = render_report(
            run_campaign(self._grid(), workers=2, seed=3))
        assert pooled == baseline

    def test_lazy_fault_registration_is_not_a_leak(self, monkeypatch):
        """Selftest kinds register during the run; pre-registration keeps
        the guard from mistaking that import-time effect for a leak."""
        monkeypatch.setenv(schedsan.ENV_ENABLE, "1")
        # Force the lazy path regardless of test order: registration is
        # an import-time effect, so evict the module along with the kind.
        sys.modules.pop("repro.faultlab.selftest", None)
        FAULTS.pop("selftest-double-charge", None)
        spec = _spec(
            faults=[{"kind": "selftest-double-charge", "params": {}}],
            cell_id="flat_mix+selftest-double-charge")
        report = run_campaign([spec], seed=1)
        cell = report["cells"][0]
        # The selftest fault is *supposed* to trip its oracle; the point
        # here is that it fails through oracles, not IsolationError.
        assert [f["oracle"] for f in cell["failures"]] != ["worker-crash"]

    def test_crash_containment_under_twin(self, monkeypatch):
        monkeypatch.setenv(schedsan.ENV_ENABLE, "1")
        result = run_cell_guarded(_crash_spec().to_dict())
        assert [f["oracle"] for f in result["failures"]] == ["worker-crash"]
