"""Tests for schedflow, the interprocedural dataflow checker.

Fixture convention (tests/fixtures/schedflow/), mirroring schedlint's:

* ``sfNNN_bad*.py`` must trigger SFNNN — and *only* SFNNN, so every
  fixture stays a precise probe of one rule — when analyzed as a
  standalone one-file project;
* ``*_ok.py`` must analyze completely clean.

The suite also gates the repository itself: ``src/repro`` must be
schedflow-clean, which is what lets ``make lint`` run with an empty
baseline.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools.schedlint import Finding
from repro.devtools.schedflow import RULES, analyze_paths
from repro.devtools.schedflow.baseline import (
    apply_baseline,
    fingerprint,
    load_baseline,
)
from repro.devtools.schedflow.cfg import build_cfg
from repro.devtools.schedflow.project import ProjectIndex

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "schedflow"
SRC = REPO_ROOT / "src"

BAD_FIXTURES = sorted(FIXTURES.glob("sf*_bad*.py"))
OK_FIXTURES = sorted(FIXTURES.glob("*_ok*.py"))


def _expected_code(path):
    match = re.match(r"(sf\d+)_bad", path.stem)
    assert match, f"bad fixture {path.name} does not follow sfNNN_bad*.py"
    return match.group(1).upper()


def _run_cli(*args):
    """Run ``python -m repro.devtools.schedflow`` as a subprocess."""
    return subprocess.run(
        [sys.executable, "-m", "repro.devtools.schedflow", *args],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )


class TestFixtures:
    def test_fixture_inventory(self):
        """Every rule in the catalogue has a bad and an ok fixture."""
        bad = {_expected_code(p) for p in BAD_FIXTURES}
        ok = {m.group(1).upper()
              for p in OK_FIXTURES
              for m in [re.match(r"(sf\d+)_ok", p.stem)] if m}
        assert bad == set(RULES)
        assert ok == set(RULES)

    @pytest.mark.parametrize("path", BAD_FIXTURES, ids=lambda p: p.stem)
    def test_bad_fixture_triggers_exactly_its_rule(self, path):
        findings = analyze_paths([str(path)])
        codes = {f.code for f in findings}
        assert codes == {_expected_code(path)}, [str(f) for f in findings]

    @pytest.mark.parametrize("path", OK_FIXTURES, ids=lambda p: p.stem)
    def test_ok_fixture_is_clean(self, path):
        findings = analyze_paths([str(path)])
        assert findings == [], [str(f) for f in findings]

    def test_branch_removal_is_may_not_must(self):
        """sf302_bad's second function removes only on one branch; the
        join must still poison the later use (exactly 2 sites total)."""
        path = FIXTURES / "sf302_bad_use_after_rmnod.py"
        findings = analyze_paths([str(path)])
        assert len(findings) == 2
        assert {f.line for f in findings} == {10, 17}

    def test_suppression_fixture_fires_without_its_comments(self):
        """suppressed_ok.py is only clean *because* of its suppression
        comments — stripping them must surface SF204 and SF205."""
        source = (FIXTURES / "suppressed_ok.py").read_text()
        stripped = re.sub(r"#\s*schedflow:[^\n]*", "", source)
        index = ProjectIndex()
        index.add_source(stripped, "stripped_example.py")
        from repro.devtools.schedflow import analyze_project
        codes = {f.code for f in analyze_project(index)}
        assert codes == {"SF204", "SF205"}


class TestRepositoryIsClean:
    def test_src_repro_has_no_findings(self):
        """The whole point: the codebase obeys its own dataflow rules."""
        findings = analyze_paths([str(SRC / "repro")])
        assert findings == [], "\n".join(str(f) for f in findings)


class TestCli:
    def test_no_paths_is_usage_error(self):
        result = _run_cli()
        assert result.returncode == 2

    def test_list_rules(self):
        result = _run_cli("--list-rules")
        assert result.returncode == 0
        for code in RULES:
            assert code in result.stdout

    def test_clean_fixture_exits_zero(self):
        result = _run_cli(str(FIXTURES / "sf201_ok_conversions.py"))
        assert result.returncode == 0
        assert "schedflow: clean" in result.stdout

    def test_bad_fixture_exits_one_with_finding(self):
        result = _run_cli(str(FIXTURES / "sf204_bad_weight_store.py"))
        assert result.returncode == 1
        assert "SF204" in result.stdout

    def test_select_narrows_reporting(self):
        result = _run_cli("--select", "SF205",
                          str(FIXTURES / "sf204_bad_weight_store.py"))
        assert result.returncode == 0

    def test_unknown_select_code_is_usage_error(self):
        result = _run_cli("--select", "SF999",
                          str(FIXTURES / "sf204_bad_weight_store.py"))
        assert result.returncode == 2
        assert "SF999" in result.stderr

    def test_quiet_drops_summary_line(self):
        result = _run_cli("-q", str(FIXTURES / "sf201_ok_conversions.py"))
        assert result.returncode == 0
        assert result.stdout == ""

    def test_select_prefix_matches_a_family(self):
        result = _run_cli("--select", "SF4",
                          str(FIXTURES / "sf204_bad_weight_store.py"))
        assert result.returncode == 0

    def test_select_mixes_prefixes_and_exact_ids(self):
        """--select SF4,SF204 runs the whole parallel-safety family plus
        one exact rule, and nothing else (SF205 fires unselected)."""
        paths = [str(FIXTURES / name) for name in (
            "sf204_bad_weight_store.py", "sf205_bad_magic_literal.py",
            "sf403_bad_global_rng.py", "sf405_bad_emit_mutation.py")]
        everything = _run_cli(*paths)
        assert set(re.findall(r"SF\d+", everything.stdout)) == {
            "SF204", "SF205", "SF403", "SF405"}, everything.stdout
        result = _run_cli("--select", "SF4,SF204", *paths)
        assert result.returncode == 1, result.stdout + result.stderr
        codes = set(re.findall(r"SF\d+", result.stdout))
        assert codes == {"SF204", "SF403", "SF405"}, result.stdout

    def test_module_given_by_two_files_is_usage_error(self):
        """Two fixtures declaring one module would shadow each other."""
        first = str(FIXTURES / "sf401_bad_worker_registry.py")
        second = str(FIXTURES / "sf403_bad_global_rng.py")
        result = _run_cli(first, second)
        assert result.returncode == 2, result.stdout + result.stderr
        assert first in result.stderr and second in result.stderr

    def test_file_given_twice_is_indexed_once(self):
        core = SRC / "repro" / "core"
        result = _run_cli(str(core), str(core / "sfq.py"))
        assert result.returncode == 0, result.stdout + result.stderr

    def test_select_ignores_blank_tokens(self):
        """A trailing comma must not widen the selection to all rules."""
        result = _run_cli("--select", "SF204,",
                          str(FIXTURES / "sf204_bad_weight_store.py"),
                          str(FIXTURES / "sf205_bad_magic_literal.py"))
        assert result.returncode == 1
        codes = set(re.findall(r"SF\d+", result.stdout))
        assert codes == {"SF204"}, result.stdout

    def test_select_of_nothing_is_usage_error(self):
        result = _run_cli("--select", ",",
                          str(FIXTURES / "sf204_bad_weight_store.py"))
        assert result.returncode == 2

    def test_sarif_output_is_valid(self, tmp_path):
        sarif_path = tmp_path / "out.sarif"
        result = _run_cli("--sarif", str(sarif_path),
                          str(FIXTURES / "sf301_bad_foreign_store.py"))
        assert result.returncode == 1
        document = json.loads(sarif_path.read_text())
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        assert run["tool"]["driver"]["name"] == "schedflow"
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert rule_ids == set(RULES)
        results = run["results"]
        assert len(results) == 2
        assert all(r["ruleId"] == "SF301" for r in results)
        region = results[0]["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1

    def test_baseline_round_trip(self, tmp_path):
        """--write-baseline then --baseline silences existing findings."""
        baseline = tmp_path / "baseline.json"
        bad = str(FIXTURES / "sf302_bad_use_after_rmnod.py")
        wrote = _run_cli("--write-baseline", str(baseline), bad)
        assert wrote.returncode == 0
        assert "2 fingerprints" in wrote.stdout
        replay = _run_cli("--baseline", str(baseline), bad)
        assert replay.returncode == 0
        assert "schedflow: clean" in replay.stdout

    def test_malformed_baseline_is_an_error(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text('{"fingerprints": "oops"}')
        result = _run_cli("--baseline", str(baseline),
                          str(FIXTURES / "sf201_ok_conversions.py"))
        assert result.returncode == 2

    def test_committed_baseline_is_loadable_and_empty(self):
        """The baseline make lint runs with: valid, and empty because
        the repository is clean."""
        path = REPO_ROOT / "devtools" / "schedflow-baseline.json"
        assert load_baseline(str(path)) == []


class TestBaselineFingerprints:
    def _one_finding(self, source):
        index = ProjectIndex()
        index.add_source(source, "fp_example.py")
        from repro.devtools.schedflow import analyze_project
        findings = analyze_project(index)
        assert len(findings) == 1
        return findings[0], {"fp_example.py": source.splitlines()}

    BAD = ("# schedlint-fixture-module: repro/qos/example.py\n"
           "def boost(node):\n"
           "    node.weight = 5\n")

    def test_fingerprint_survives_line_shift(self):
        """Fingerprints anchor on content, not line numbers, so adding
        code above a known finding does not invalidate the baseline."""
        finding, sources = self._one_finding(self.BAD)
        shifted = self.BAD.replace("def boost", "\n\ndef boost")
        moved, moved_sources = self._one_finding(shifted)
        assert moved.line != finding.line
        assert fingerprint(moved, moved_sources) == \
            fingerprint(finding, sources)

    def test_apply_baseline_filters_exactly_matches(self):
        finding, sources = self._one_finding(self.BAD)
        known = [fingerprint(finding, sources)]
        assert apply_baseline([finding], known, sources) == []
        assert apply_baseline([finding], [], sources) == [finding]


class TestCfg:
    """The CFG shapes the SF302 pass leans on."""

    def _cfg(self, body):
        import ast
        tree = ast.parse("def f(x):\n" + body)
        return build_cfg(tree.body[0])

    def test_if_has_two_successors(self):
        cfg = self._cfg("    if x:\n        a = 1\n    return x\n")
        kinds = [type(node).__name__ for node in cfg.nodes]
        assert kinds == ["If", "Assign", "Return"]
        assert sorted(cfg.succs[0]) == [1, 2]

    def test_while_has_back_edge(self):
        cfg = self._cfg("    while x:\n        x = x - 1\n    return x\n")
        assert 0 in cfg.succs[1]  # loop body flows back to the header

    def test_return_ends_flow(self):
        cfg = self._cfg("    return x\n    a = 1\n")
        assert cfg.succs[0] == []
