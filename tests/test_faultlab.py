"""faultlab: deterministic fault-injection campaigns.

Covers the acceptance criteria end to end: grids derive per-cell seeds
from the campaign seed, cells digest identically across runs (and across
serial vs. pooled execution), fault-free baselines satisfy every oracle,
and a deliberately broken injector is caught by the oracles, shrunk to a
minimal schedule, and written as a reproducer that replays the failure.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.faultlab import campaign
from repro.faultlab.campaign import (
    CellSpec,
    default_fault_kinds,
    default_grid,
    render_report,
    replay_spec,
    run_campaign,
    run_cell,
)
from repro.faultlab.faults import FAULTS, build_fault, ensure_registered
from repro.faultlab.shrink import reproducer_name, shrink_spec, write_reproducer
from repro.faultlab.workloads import STRUCTURED_CELLS, WORKLOADS
from repro.sim.rng import derive_seed

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _spec(workload="flat_mix", faults=(), seed=1, cell_id="test-cell"):
    return CellSpec(workload, list(faults), seed, True, cell_id).to_dict()


def _selftest_spec(seed=1):
    ensure_registered("selftest-double-charge")
    return _spec(faults=[{"kind": "selftest-double-charge", "params": {}}],
                 seed=seed, cell_id="flat_mix+selftest-double-charge")


class TestGrid:
    def test_default_grid_shape(self):
        specs = default_grid(0, quick=True)
        ids = [s.cell_id for s in specs]
        assert len(ids) == len(set(ids))
        # baseline + per-fault (node-churn only on structured cells)
        # + composite, for every workload
        kinds = default_fault_kinds()
        expected = 0
        for workload in WORKLOADS:
            per_fault = len(kinds) - (0 if workload in STRUCTURED_CELLS else 1)
            expected += 1 + per_fault + 1
        assert len(specs) == expected
        for workload in WORKLOADS:
            assert "%s+none" % workload in ids
            assert "%s+composite" % workload in ids

    def test_selftest_kinds_excluded_from_grid(self):
        ensure_registered("selftest-double-charge")
        assert "selftest-double-charge" in FAULTS
        assert not any(k.startswith("selftest-")
                       for k in default_fault_kinds())

    def test_cell_seeds_derive_from_campaign_seed(self):
        specs = default_grid(42, quick=True, workloads=["flat_mix"])
        for spec in specs:
            assert spec.seed == derive_seed(42, spec.cell_id)
        assert len({s.seed for s in specs}) == len(specs)

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            default_grid(0, workloads=["warp_mix"])

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ValueError):
            default_grid(0, workloads=["flat_mix"], fault_kinds=["gremlin"])

    def test_spec_round_trips_through_json(self):
        spec = default_grid(7, quick=True, workloads=["qos_mix"])[3]
        wire = json.loads(json.dumps(spec.to_dict()))
        again = CellSpec.from_dict(wire)
        assert again.to_dict() == spec.to_dict()


class TestDeterminism:
    def test_same_spec_same_result(self):
        spec = _spec(faults=[{"kind": "straggler", "params": {}}])
        ensure_registered("straggler")
        first = run_cell(spec)
        second = run_cell(spec)
        assert first == second
        assert first["digest"] == second["digest"]

    def test_different_seeds_diverge(self):
        ensure_registered("thread-crash")
        faults = [{"kind": "thread-crash", "params": {}}]
        a = run_cell(_spec(faults=faults, seed=1))
        b = run_cell(_spec(faults=faults, seed=2))
        assert a["digest"] != b["digest"]

    def test_campaign_report_is_byte_stable(self):
        specs = default_grid(3, quick=True, workloads=["flat_mix"],
                             fault_kinds=["thread-crash"])
        first = render_report(run_campaign(specs, seed=3, quick=True))
        second = render_report(run_campaign(specs, seed=3, quick=True))
        assert first == second

    def test_pooled_run_matches_serial(self):
        specs = default_grid(5, quick=True, workloads=["flat_mix"],
                             fault_kinds=["clock-jitter"])
        serial = render_report(run_campaign(specs, workers=0, seed=5,
                                            quick=True))
        pooled = render_report(run_campaign(specs, workers=2, seed=5,
                                            quick=True))
        assert serial == pooled

    def test_adding_a_cell_does_not_perturb_others(self):
        # Seeds hang off cell ids, so a bigger grid reproduces the
        # smaller grid's results exactly.
        small = default_grid(9, quick=True, workloads=["flat_mix"],
                             fault_kinds=["timer-loss"])
        large = default_grid(9, quick=True, workloads=["flat_mix"],
                             fault_kinds=["timer-loss", "thread-hang"])
        small_results = {r["id"]: r for r in
                         run_campaign(small, seed=9, quick=True)["cells"]}
        large_results = {r["id"]: r for r in
                         run_campaign(large, seed=9, quick=True)["cells"]}
        for cell_id, result in small_results.items():
            assert large_results[cell_id] == result


class TestBaselines:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_fault_free_baseline_passes_oracles(self, workload):
        result = run_cell(_spec(workload=workload, seed=0,
                                cell_id="%s+none" % workload))
        assert result["ok"], result["failures"]
        assert result["counters"]["injections"] == 0
        assert result["counters"]["violations"] == 0


class TestInjectors:
    def test_every_grid_fault_arms_and_records(self):
        for kind in default_fault_kinds():
            ensure_registered(kind)
            workload = ("hierarchy_mix" if kind == "node-churn"
                        else "flat_mix")
            result = run_cell(_spec(workload=workload,
                                    faults=[{"kind": kind, "params": {}}],
                                    seed=4, cell_id="%s+%s" % (workload, kind)))
            assert result["ok"], (kind, result["failures"])
            assert result["counters"]["injections"] > 0, kind

    def test_build_fault_applies_param_overrides(self):
        ensure_registered("straggler")
        fault = build_fault({"kind": "straggler",
                             "params": {"factor": 9}})
        assert fault.params["factor"] == 9
        # untouched params keep their defaults
        defaults = FAULTS["straggler"].DEFAULTS
        for name, value in defaults.items():
            if name != "factor":
                assert fault.params[name] == value

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            build_fault({"kind": "gremlin", "params": {}})


class TestSelfValidation:
    """Deliberately broken injector -> oracle -> shrinker -> reproducer."""

    def test_oracles_catch_double_charge(self):
        result = run_cell(_selftest_spec())
        assert not result["ok"]
        assert any("schedsan" == f["oracle"] for f in result["failures"])

    def test_shrinker_minimizes_the_schedule(self):
        shrunk, attempts = shrink_spec(_selftest_spec(), max_attempts=64)
        assert attempts <= 64
        assert len(shrunk["faults"]) == 1
        work = shrunk["faults"][0]["params"]["work"]
        floor = FAULTS["selftest-double-charge"].SHRINKABLE["work"]
        assert work == floor
        assert not run_cell(shrunk)["ok"]  # still fails after shrinking

    def test_shrink_refuses_passing_spec(self):
        with pytest.raises(ValueError):
            shrink_spec(_spec(), max_attempts=8)

    def test_reproducer_replays_the_failure(self, tmp_path):
        spec = _selftest_spec()
        script = Path(write_reproducer(spec, str(tmp_path)))
        assert script.name == reproducer_name(spec)
        companion = script.with_suffix(".json")
        stored = json.loads(companion.read_text())
        assert stored == spec
        replay = replay_spec(stored)
        assert not replay["ok"]
        assert replay["digest"] == run_cell(spec)["digest"]

    def test_reproducer_script_runs_standalone(self, tmp_path):
        script = write_reproducer(_selftest_spec(), str(tmp_path))
        proc = subprocess.run([sys.executable, script], capture_output=True,
                              text=True, env={"PYTHONPATH": SRC},
                              check=False)
        assert proc.returncode == 0, proc.stderr  # 0 = failure reproduced

    def test_failing_cell_records_a_valid_binlog(self, tmp_path):
        from repro.faultlab.shrink import record_cell_binlog
        from repro.obs.binlog import BinaryTraceReader

        spec = _selftest_spec()
        path = Path(record_cell_binlog(spec, str(tmp_path)))
        assert path.name == reproducer_name(spec)[:-3] + ".binlog"
        reader = BinaryTraceReader(str(path))
        assert len(reader) > 0  # sealed and decodable even on failure
        # the whole cell, from its first spawn: every dispatch is there
        dispatches = run_cell(spec)["counters"]["dispatches"]
        assert reader.info()["kinds"]["dispatch"] == dispatches


class TestCli:
    def test_list_names_every_kind_and_cell(self, capsys):
        from repro.faultlab.cli import main
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for kind in default_fault_kinds():
            assert kind in out
        for workload in WORKLOADS:
            assert workload in out

    def test_run_writes_report_and_passes(self, capsys, tmp_path):
        from repro.faultlab.cli import main
        out = tmp_path / "report.json"
        code = main(["run", "--quick", "--seed", "6",
                     "--workload", "flat_mix", "--fault", "thread-crash",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["failure_count"] == 0
        assert {c["id"] for c in report["cells"]} == {
            "flat_mix+none", "flat_mix+thread-crash", "flat_mix+composite"}
        assert "3/3 cells passed" in capsys.readouterr().out

    def test_replay_exits_zero_when_reproduced(self, capsys, tmp_path):
        from repro.faultlab.cli import main
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(_selftest_spec()))
        assert main(["replay", str(spec_path)]) == 0

    def test_replay_exits_two_when_vanished(self, capsys, tmp_path):
        from repro.faultlab.cli import main
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(_spec()))
        assert main(["replay", str(spec_path)]) == 2
