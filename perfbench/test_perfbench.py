"""Tests for the benchmark itself (not part of the simulator's suite).

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py

The workloads are shrunk here so the suite stays quick; the shapes, and so
the layers each one exercises, are unchanged.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import loads  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from sampling import take_sample  # noqa: E402

from repro.units import SECOND  # noqa: E402

WORKLOADS = ("paper_exact", "deep_float", "churn_traced", "fleet_sharded")


@pytest.fixture(autouse=True)
def small_workloads(monkeypatch, tmp_path):
    monkeypatch.setattr(loads, "PAPER_HORIZON", 20 * SECOND)
    monkeypatch.setattr(loads, "DEEP_HORIZON", 2 * SECOND)
    monkeypatch.setattr(loads, "CHURN_POPULATION", 400)
    monkeypatch.setattr(loads, "FLEET_SHAPE", (2, 2, 300, 10))
    return tmp_path


def test_every_wrapped_name_is_restored(tmp_path):
    tracer = spans.LayerTracer()
    tracer.install()
    patched = tracer.installed()
    tracer.uninstall()
    assert len(patched) > 40
    # a full traced sample, then the same objects must be back in place
    originals = [(owner, name, vars(owner)[name]) for owner, name, __ in patched]
    take_sample("paper_exact", 1, str(tmp_path), traced=True)
    for owner, name, original in originals:
        assert vars(owner)[name] is original, (owner, name)
    for owner, name, original in patched:
        assert vars(owner)[name] is original, (owner, name)


@pytest.mark.parametrize("name", WORKLOADS)
def test_layer_counts_repeat_and_guard_holds(name, tmp_path):
    first = take_sample(name, 1, str(tmp_path), traced=True)
    second = take_sample(name, 1, str(tmp_path), traced=True)
    counts = [key for key in first.layers if spans.is_count(key)]
    assert len(counts) == 25
    for key in counts:
        assert first.layers[key] == second.layers[key], key
    assert first.outcome.digest == second.outcome.digest
    failed = [check for check, ok in run._guard(name, first.layers) if not ok]
    assert failed == []


@pytest.mark.parametrize("name", ("paper_exact", "churn_traced"))
def test_traced_run_leaves_untraced_digest_unchanged(name, tmp_path):
    before = take_sample(name, 1, str(tmp_path))
    traced = take_sample(name, 1, str(tmp_path), traced=True)
    after = take_sample(name, 1, str(tmp_path))
    assert before.outcome.digest == after.outcome.digest
    assert traced.outcome.digest == before.outcome.digest
    assert all(ok for __, ok in after.outcome.checks)


@pytest.mark.parametrize("name", WORKLOADS)
def test_second_seed_changes_digest_and_passes_checks(name, tmp_path):
    one = take_sample(name, 1, str(tmp_path))
    two = take_sample(name, 2, str(tmp_path))
    assert one.outcome.digest != two.outcome.digest
    assert [check for check, ok in two.outcome.checks if not ok] == []


def test_sharded_fleet_matches_serial_fleet():
    serial = loads.build_fleet_sharded(3, shards=1)
    serial.drive()
    sharded = loads.build_fleet_sharded(3, shards=2)
    sharded.drive()
    assert serial.outcome().digest == sharded.outcome().digest


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copytree(HERE, str(tmp_path / "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deep_float",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=60)
    assert result.returncode != 0
    assert result.stdout == b""
